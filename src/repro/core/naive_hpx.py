"""The prior-work HPX port [16]: 1:1 ``hpx::for_each`` loop replacement.

§III: "A prior effort [16] to realize LULESH in HPX primarily just replaced
the traditional for-loops with hpx::for_each constructs.  However, this
version performs significantly worse than the OpenMP reference [17]" — and
§IV: "in [16], parallel regions are split into multiple for-loops, which
introduces even *more* synchronization barriers."

This module reproduces that approach: every loop of the reference becomes a
blocking :func:`repro.amt.algorithms.for_loop` with HPX's default
auto-chunking.  Each loop pays task creation, scheduling, and a blocking
barrier — the structure the paper's manual decomposition dismantles.

The program inherits graph capture and replay from
:class:`~repro.core.hpx_lulesh.GraphCycleProgram`, the same cycle
lifecycle the task-based program runs: the first cycle's loop graph is
captured and re-fired on subsequent cycles (``replay_graph``).  Per-cycle
state the loop bodies need lives in one recyclable
:class:`_NaiveCycleState` that is reset in place between cycles, and the
timestep is read from the domain at execution time.
"""

from __future__ import annotations

from repro.amt.algorithms import for_loop
from repro.amt.runtime import AmtRuntime
from repro.core.hpx_lulesh import GraphCycleProgram
from repro.core.kernel_graph import EOS_LOOPS_PER_REP, KERNELS, ProblemShape
from repro.lulesh.costs import KernelCosts
from repro.lulesh.domain import Domain
from repro.lulesh.kernels.constraints import reduce_time_constraints
# Kept as a module attribute: perfbench/spans.py patches it by this path.
from repro.lulesh.kernels.constraints import time_increment  # noqa: F401

__all__ = ["naive_iteration", "NaiveHpxProgram"]


class _NaiveCycleState:
    """Per-cycle mutable state the loop bodies close over.

    One instance is shared by every loop body of a built graph; resetting
    it in place re-arms the bodies for a replayed cycle without recreating
    a single closure.
    """

    __slots__ = ("bc_done", "eos_done", "courant", "hydro")

    def __init__(self, n_regions: int) -> None:
        self.bc_done = False
        self.eos_done = [False] * n_regions
        self.courant = 1.0e20
        self.hydro = 1.0e20

    def reset(self) -> None:
        self.bc_done = False
        done = self.eos_done
        for r in range(len(done)):
            done[r] = False
        self.courant = 1.0e20
        self.hydro = 1.0e20


def naive_iteration(
    rt: AmtRuntime,
    shape: ProblemShape,
    costs: KernelCosts,
    domain: Domain | None = None,
    state: _NaiveCycleState | None = None,
) -> _NaiveCycleState:
    """One leapfrog iteration as a sequence of blocking ``for_each`` loops.

    With *state* (graph capture), the final constraint reduction is left to
    the caller — it runs as plain Python outside the loop graph, so a
    replayed cycle must re-run it itself.  Without, the reduction is
    applied here (standalone behaviour).  Returns the cycle state holding
    the accumulated constraint minima.
    """
    c = costs
    ne, nn = shape.num_elem, shape.num_node
    d = domain
    standalone = state is None
    if state is None:
        state = _NaiveCycleState(shape.num_regions)

    def loop(n, fn_body, rate, tag, idempotent=False):
        # Loop-at-a-time structure: the reuse working set is the full loop
        # footprint (same streaming behaviour as the OpenMP reference).
        rate = rate * rt.cost_model.stream_penalty(n, rate, rt.n_workers)
        for_loop(rt, 0, n, fn_body, work_ns_per_item=rate, tag=tag,
                 idempotent=idempotent)

    def kernel(n, name, tag=None, region=-1):
        """One table kernel as one loop (replayable iff the kernel is)."""
        k = KERNELS[name]
        loop(n, k.bind(d, region) or _skip, k.rate_ns(c), tag or name,
             k.idempotent)

    # LagrangeNodal.  The force sum is modelled as two half-cost collection
    # loops, one per force buffer; the real body runs in the second.
    sum_forces = KERNELS["sum_forces"]
    kernel(nn, "zero_forces")
    kernel(ne, "init_stress")
    kernel(ne, "integrate_stress")
    loop(nn, _skip, sum_forces.rate_ns(c) * 0.5, "collect_stress",
         sum_forces.idempotent)
    kernel(ne, "hg_control")
    kernel(ne, "fb_hourglass")
    loop(nn, sum_forces.bind(d) or _skip, sum_forces.rate_ns(c) * 0.5,
         "collect_hg", sum_forces.idempotent)
    kernel(nn, "acceleration")

    bc = KERNELS["accel_bc"]

    def bc_body(lo: int, hi: int) -> None:
        if d is not None and not state.bc_done:
            bc.run(d, lo, hi)
            state.bc_done = True

    for _ in range(3):
        loop(shape.num_symm_nodes, bc_body, bc.rate_ns(c), bc.name,
             bc.idempotent)
    kernel(nn, "velocity")
    kernel(nn, "position")

    # LagrangeElements
    kernel(ne, "kinematics")
    kernel(ne, "strain_rates")
    kernel(ne, "monoq_gradients", "q_gradients")
    for r in range(shape.num_regions):
        kernel(shape.region_sizes[r], "monoq_region", f"monoq[{r}]", region=r)
    kernel(ne, "qstop_check")
    kernel(ne, "material_prologue", "prologue")
    eos = KERNELS["eos"]
    for r in range(shape.num_regions):
        rep = shape.region_reps[r]
        size = shape.region_sizes[r]

        def eos_body(lo: int, hi: int, r=r, rep=rep, size=size) -> None:
            if d is not None and not state.eos_done[r]:
                eos.run(d, 0, size, r, rep)
                state.eos_done[r] = True

        per_loop_rate = eos.rate_ns(c) / EOS_LOOPS_PER_REP
        for _ in range(rep * EOS_LOOPS_PER_REP):
            loop(size, eos_body, per_loop_rate, f"eos[{r}]", eos.idempotent)
    kernel(ne, "update_volumes")

    # Constraints
    courant, hydro = KERNELS["courant"], KERNELS["hydro"]
    for r in range(shape.num_regions):
        size = shape.region_sizes[r]

        def courant_body(lo: int, hi: int, r=r) -> None:
            if d is not None:
                state.courant = min(state.courant, courant.run(d, lo, hi, r))

        def hydro_body(lo: int, hi: int, r=r) -> None:
            if d is not None:
                state.hydro = min(state.hydro, hydro.run(d, lo, hi, r))

        loop(size, courant_body, courant.rate_ns(c), f"courant[{r}]",
             courant.idempotent)
        loop(size, hydro_body, hydro.rate_ns(c), f"hydro[{r}]",
             hydro.idempotent)
    if standalone and d is not None:
        reduce_time_constraints(d, state.courant, state.hydro)
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
        self._state = _NaiveCycleState(shape.num_regions)

    def _graph_key(self) -> tuple:
        return (self.shape,)

    def _build_cycle(self) -> _NaiveCycleState:
        # A failed cycle can leave the state half-spent; every build
        # starts clean (a failure also drops the template, so the next
        # cycle builds).
        self._state.reset()
        return naive_iteration(self.rt, self.shape, self.costs, self.domain,
                               state=self._state)

    def _finish_cycle(self, state: _NaiveCycleState) -> None:
        """The constraint reduction, which runs outside the loop graph."""
        courant, hydro = state.courant, state.hydro
        state.reset()  # re-arms the loop bodies for the next replay
        if self.domain is not None:
            reduce_time_constraints(self.domain, courant, hydro)
