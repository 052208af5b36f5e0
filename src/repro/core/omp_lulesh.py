"""OpenMP-structured LULESH — the reference baseline's execution shape.

One leapfrog iteration issues the reference's sequence of parallel regions
and loops (§II-B: "~30 parallel regions"; §IV Fig. 4: "a sequence of
parallel for-loops", each ending in an implicit barrier):

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
from repro.core.kernel_graph import EOS_LOOPS_PER_REP, KERNELS, ProblemShape
from repro.lulesh.costs import KernelCosts
from repro.lulesh.domain import Domain
from repro.lulesh.kernels.constraints import reduce_time_constraints
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

    With *domain* set, the real kernels execute and ``TimeIncrement`` /
    timestep constraints update the physics state; otherwise this charges
    simulated time only.
    """
    c = costs
    ne, nn = shape.num_elem, shape.num_node
    d = domain

    def loop(n, name, region=-1):
        """One loop of table kernel *name* (no body in timing mode)."""
        k = KERNELS[name]
        omp.loop(n, k.bind(d, region), work_ns_per_item=k.rate_ns(c))

    # ----- LagrangeNodal --------------------------------------------------
    with omp.parallel_region("CalcForceForNodes"):
        loop(nn, "zero_forces")
    with omp.parallel_region("InitStressTerms"):
        loop(ne, "init_stress")
    sum_rate = KERNELS["sum_forces"].rate_ns(c) * 0.5
    with omp.parallel_region("IntegrateStress"):
        loop(ne, "integrate_stress")
        # collection of stress contributions into nodes
        omp.loop(nn, None, work_ns_per_item=sum_rate)
    with omp.parallel_region("CalcHourglassControl"):
        loop(ne, "hg_control")
    with omp.parallel_region("CalcFBHourglassForce"):
        loop(ne, "fb_hourglass")
        # collection of both force buffers into nodes (real body here so the
        # stress collection above stays a pure cost)
        omp.loop(nn, KERNELS["sum_forces"].bind(d), work_ns_per_item=sum_rate)
    with omp.parallel_region("CalcAccelerationForNodes"):
        loop(nn, "acceleration")
    with omp.parallel_region("ApplyAccelerationBC"):
        # three symmetry-plane loops; the body applies all three once
        bc = KERNELS["accel_bc"]
        bc_done = [False]

        def bc_body(lo: int, hi: int) -> None:
            if not bc_done[0]:
                bc.run(d, lo, hi)
                bc_done[0] = True

        omp.loop(shape.num_symm_nodes, bc_body if d is not None else None,
                 work_ns_per_item=bc.rate_ns(c))
        omp.loop(shape.num_symm_nodes, None, work_ns_per_item=bc.rate_ns(c))
        omp.loop(shape.num_symm_nodes, None, work_ns_per_item=bc.rate_ns(c))
    with omp.parallel_region("CalcVelocityForNodes"):
        loop(nn, "velocity")
    with omp.parallel_region("CalcPositionForNodes"):
        loop(nn, "position")

    # ----- LagrangeElements ------------------------------------------------
    with omp.parallel_region("CalcKinematics"):
        loop(ne, "kinematics")
    with omp.parallel_region("CalcLagrangeElements"):
        loop(ne, "strain_rates")
    with omp.parallel_region("CalcMonotonicQGradients"):
        loop(ne, "monoq_gradients")
    for r in range(shape.num_regions):
        with omp.parallel_region(f"MonotonicQRegion[{r}]"):
            loop(shape.region_sizes[r], "monoq_region", region=r)
    with omp.parallel_region("QStopCheck"):
        loop(ne, "qstop_check")
    with omp.parallel_region("ApplyMaterialProperties"):
        loop(ne, "material_prologue")
    eos = KERNELS["eos"]
    for r in range(shape.num_regions):
        rep = shape.region_reps[r]
        size = shape.region_sizes[r]
        with omp.parallel_region(f"EvalEOS[{r}]"):
            eos_done = [False]

            def eos_body(lo: int, hi: int, r=r, rep=rep, size=size,
                         flag=eos_done) -> None:
                if not flag[0]:
                    eos.run(d, 0, size, r, rep)
                    flag[0] = True

            # rep * EOS_LOOPS_PER_REP tiny loops, each with its own barrier —
            # the structure that shrinks per-loop work as regions grow.
            per_loop_rate = eos.rate_ns(c) / EOS_LOOPS_PER_REP
            first = True
            for _ in range(rep):
                for _ in range(EOS_LOOPS_PER_REP):
                    omp.loop(
                        size,
                        eos_body if (d is not None and first) else None,
                        work_ns_per_item=per_loop_rate,
                    )
                    first = False
    with omp.parallel_region("UpdateVolumes"):
        loop(ne, "update_volumes")

    # ----- CalcTimeConstraints ---------------------------------------------
    acc = {"courant": 1.0e20, "hydro": 1.0e20}
    for r in range(shape.num_regions):
        size = shape.region_sizes[r]
        with omp.parallel_region(f"TimeConstraints[{r}]"):
            for name in ("courant", "hydro"):
                k = KERNELS[name]

                def body(lo: int, hi: int, r=r, k=k) -> None:
                    acc[k.name] = min(acc[k.name], k.run(d, lo, hi, r))

                omp.loop(size, body if d is not None else None,
                         work_ns_per_item=k.rate_ns(c))
    if d is not None:
        reduce_time_constraints(d, acc["courant"], acc["hydro"])
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
