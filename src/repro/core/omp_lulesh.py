"""OpenMP-structured LULESH — the reference baseline's execution shape.

One leapfrog iteration issues the reference's sequence of parallel regions
and loops (§II-B: "~30 parallel regions"; §IV Fig. 4: "a sequence of
parallel for-loops", each ending in an implicit barrier).  That sequence is
declared once, as :data:`~repro.core.kernel_graph.REFERENCE_LOOPS`, and
shared with the naive port (:mod:`repro.core.naive_hpx`):

* one region per kernel group in ``LagrangeNodal``/``LagrangeElements``;
* one region *per material region* for the monotonic-Q limiter, for the EOS
  (whose repetition loop issues ``EOS_LOOPS_PER_REP`` small loops per
  repetition — the many-tiny-loops structure that degrades with more
  regions, Fig. 10), and for the time constraints.

In execute mode the loop bodies run the real NumPy kernels chunk-by-chunk;
in timing-only mode only costs are charged.  Either way the productive work
charged is identical to the task-based orchestration's — the comparison
differs only in synchronization structure, matching the paper's fairness
argument.
"""

from __future__ import annotations

from repro.core.hpx_lulesh import LeapfrogProgram
from repro.core.kernel_graph import (
    ProblemShape,
    apply_time_constraints,
    reference_iteration,
)
from repro.lulesh.costs import KernelCosts
from repro.lulesh.domain import Domain
from repro.openmp.runtime import OmpRuntime

__all__ = ["omp_iteration", "OmpLuleshProgram"]

# Serial (master-thread) bookkeeping per iteration: TimeIncrement and the
# final constraint reduction.  Negligible, as §II-B notes.
_SERIAL_NS_PER_ITER = 2_000


def omp_iteration(
    omp: OmpRuntime,
    shape: ProblemShape,
    costs: KernelCosts,
    domain: Domain | None = None,
) -> None:
    """Issue one leapfrog iteration on the OpenMP-like runtime.

    Walks :data:`~repro.core.kernel_graph.REFERENCE_LOOPS` as parallel
    regions of loops.  With *domain* set, the real kernels execute and the
    timestep constraints update the physics state; otherwise this charges
    simulated time only.
    """
    minima: dict[str, float] = {}
    for name, loops in reference_iteration(shape, costs, domain, minima):
        with omp.parallel_region(name):
            for lp in loops:
                omp.loop(lp.n, lp.body, work_ns_per_item=lp.rate)
                for _ in range(lp.count - 1):
                    omp.loop(lp.n, None, work_ns_per_item=lp.rate)
    if domain is not None:
        apply_time_constraints(domain, minima)
    omp.single(_SERIAL_NS_PER_ITER)


class OmpLuleshProgram(LeapfrogProgram):
    """Multi-iteration OpenMP-structured LULESH run.

    Injected faults fire at parallel-region entry (OpenMP's closest
    analogue to a task boundary); physics aborts propagate directly from
    the inlined kernel bodies.
    """

    def __init__(
        self,
        omp: OmpRuntime,
        shape: ProblemShape,
        costs: KernelCosts,
        domain: Domain | None = None,
        task_local_temporaries: bool = True,
    ) -> None:
        self.rt = omp
        self.shape = shape
        self.costs = costs
        self.domain = domain
        if domain is not None:
            domain.configure_workspace(task_local_temporaries)

    def _advance(self, cycle: int, injector) -> None:
        omp_iteration(self.rt, self.shape, self.costs, self.domain)
        self.rt.end_iteration()
