"""The prior-work HPX port [16]: 1:1 ``hpx::for_each`` loop replacement.

§III: "A prior effort [16] to realize LULESH in HPX primarily just replaced
the traditional for-loops with hpx::for_each constructs.  However, this
version performs significantly worse than the OpenMP reference [17]" — and
§IV: "in [16], parallel regions are split into multiple for-loops, which
introduces even *more* synchronization barriers."

This module reproduces that approach: every loop of the reference
(:data:`~repro.core.kernel_graph.REFERENCE_LOOPS`, the sequence the OpenMP
port issues as parallel regions) becomes a blocking
:func:`repro.amt.algorithms.for_loop` with HPX's default auto-chunking.
Each loop pays task creation, scheduling, and a blocking barrier — the
structure the paper's manual decomposition dismantles.

The program inherits graph capture and replay from
:class:`~repro.core.hpx_lulesh.GraphCycleProgram`, the same cycle
lifecycle the task-based program runs: the first cycle's loop graph is
captured and re-fired on subsequent cycles (``replay_graph``).  The only
per-cycle state the loop bodies keep is the constraint minima, one dict
cleared in place between cycles; the timestep is read from the domain at
execution time.
"""

from __future__ import annotations

from repro.amt.algorithms import for_loop
from repro.amt.runtime import AmtRuntime
from repro.core.hpx_lulesh import GraphCycleProgram
from repro.core.kernel_graph import (
    ProblemShape,
    apply_time_constraints,
    reference_iteration,
)
from repro.lulesh.costs import KernelCosts
from repro.lulesh.domain import Domain
# Kept as a module attribute: perfbench/spans.py patches it by this path.
from repro.lulesh.kernels.constraints import time_increment  # noqa: F401

__all__ = ["naive_iteration", "NaiveHpxProgram"]


def naive_iteration(
    rt: AmtRuntime,
    shape: ProblemShape,
    costs: KernelCosts,
    domain: Domain | None = None,
    state: dict[str, float] | None = None,
) -> dict[str, float]:
    """One leapfrog iteration as a sequence of blocking ``for_each`` loops.

    Walks :data:`~repro.core.kernel_graph.REFERENCE_LOOPS`, one blocking
    :func:`~repro.amt.algorithms.for_loop` per loop, replayable iff its
    kernel is.  With *state* (graph capture), the final constraint
    reduction is left to the caller — it runs as plain Python outside the
    loop graph, so a replayed cycle must re-run it itself.  Without, the
    reduction is applied here (standalone behaviour).  Returns the cycle
    state: the constraint minima, keyed by kernel name.
    """
    standalone = state is None
    if state is None:
        state = {}
    penalty = rt.cost_model.stream_penalty
    for _, loops in reference_iteration(shape, costs, domain, state):
        for lp in loops:
            # Loop-at-a-time structure: the reuse working set is the full
            # loop footprint (same streaming behaviour as the OpenMP
            # reference).
            rate = lp.rate * penalty(lp.n, lp.rate, rt.n_workers)
            body = lp.body or _skip
            for _ in range(lp.count):
                for_loop(rt, 0, lp.n, body, work_ns_per_item=rate,
                         tag=lp.tag, idempotent=lp.idempotent)
                body = _skip
    if standalone and domain is not None:
        apply_time_constraints(domain, state)
    return state


def _skip(lo: int, hi: int) -> None:
    """Loop body of a cost-only loop (and of every loop in timing mode)."""


class NaiveHpxProgram(GraphCycleProgram):
    """Multi-iteration naive (prior-work [16]) HPX LULESH run.

    Failures surface at the blocking barrier of the loop that failed
    (``wait_all`` re-raises a single failure with its original type).
    """

    def __init__(
        self,
        rt: AmtRuntime,
        shape: ProblemShape,
        costs: KernelCosts,
        domain: Domain | None = None,
        replay_graph: bool = True,
    ) -> None:
        super().__init__(rt, domain, replay_graph)
        self.shape = shape
        self.costs = costs
        self._minima: dict[str, float] = {}

    def _graph_key(self) -> tuple:
        return (self.shape,)

    def _build_cycle(self) -> dict[str, float]:
        # A failed cycle can leave minima behind; every build starts clean
        # (a failure also drops the template, so the next cycle builds).
        self._minima.clear()
        return naive_iteration(self.rt, self.shape, self.costs, self.domain,
                               state=self._minima)

    def _finish_cycle(self, minima: dict[str, float]) -> None:
        """The constraint reduction, which runs outside the loop graph."""
        folded = minima.copy()
        minima.clear()  # re-arms the loop bodies for the next replay
        if self.domain is not None:
            apply_time_constraints(self.domain, folded)
