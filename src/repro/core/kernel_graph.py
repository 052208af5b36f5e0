"""The LULESH kernel table: every loop declared once, plus problem shapes.

All three orchestrations (task-based, naive ``for_each``, OpenMP-structured)
and the process backend issue the same kernels with the same work.  This
module is the single source of truth for:

* :data:`KERNELS` — one :class:`Kernel` entry per loop: its name (the
  vocabulary of task tags and specs), its :class:`KernelCosts` rate field,
  its real NumPy body over ``[lo, hi)``, its temporary-array count, whether
  re-running it is safe (``idempotent``) and, for the kernels where it is
  not, the fields it writes;
* :class:`TaskSpec` — what one task of the HPX program does, as plain
  picklable data: the kernels it runs, in order, over one range.  The
  program attaches a spec to every work task it creates;
  :func:`execute_spec` runs a spec against a Domain, whether in a simulated
  task body or in a worker process, so both paths run the same code;
* :data:`REFERENCE_LOOPS` — the reference's loop sequence, one
  :class:`RefLoop` per loop: its OpenMP region name, its naive tag, its
  kernel, index range, rate share and loop count, and what its body does.
  The OpenMP port walks it as parallel regions of loops and the naive port
  as blocking ``for_each`` loops (:func:`reference_iteration`), so both
  issue the same loops in the same order;
* :class:`ProblemShape` — the sizes the *simulated* runs need (element/node
  counts, region sizes and repetition factors) without allocating the full
  physics state, so timing-only experiments scale to s=150.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter
from typing import Callable, Iterator, NamedTuple

from repro.lulesh.costs import DEFAULT_COSTS, KernelCosts, iteration_work_ns
from repro.lulesh.domain import Domain
from repro.lulesh.kernels import eos as eos_k
from repro.lulesh.kernels import hourglass as hg_k
from repro.lulesh.kernels import kinematics as kin_k
from repro.lulesh.kernels import nodal as nodal_k
from repro.lulesh.kernels import qcalc as q_k
from repro.lulesh.kernels import stress as stress_k
from repro.lulesh.kernels.constraints import (
    calc_courant_constraint,
    calc_hydro_constraint,
    reduce_time_constraints,
)
from repro.lulesh.options import LuleshOptions
from repro.lulesh.regions import RegionSet

__all__ = [
    "EOS_LOOPS_PER_REP",
    "KERNELS",
    "REFERENCE_LOOPS",
    "IssuedLoop",
    "Kernel",
    "ProblemShape",
    "RefLoop",
    "TaskSpec",
    "apply_time_constraints",
    "execute_spec",
    "reference_iteration",
    "spec_is_idempotent",
]

# The reference's EvalEOSForElems + CalcEnergyForElems issue ~16 separate
# parallel loops per repetition (gathers, compression, three pressure
# evaluations, two q updates, ...).  The OpenMP-structured orchestration
# models each as its own loop+barrier; their summed work equals the
# ``eos_eval`` rate.
EOS_LOOPS_PER_REP = 16


@dataclass(frozen=True, eq=False)
class Kernel:
    """One LULESH loop: how much it costs, what it runs, what it touches.

    ``body`` is ``body(domain, lo, hi)``; a ``per_region`` kernel's range
    indexes one region's element list instead, and its body is
    ``body(domain, elems, lo, hi)`` (``body(domain, elems, rep, lo, hi)``
    for the ``per_rep`` EOS).  ``rate`` names the :class:`KernelCosts`
    field charged per item; a ``per_rep`` kernel is charged that rate once
    per repetition, while its cache working set stays the unrepeated rate
    (repetitions re-read the same data).

    ``idempotent`` declares the body safe to re-execute on the same range:
    it writes its outputs fresh rather than accumulating in place, so its
    tasks may be replayed after a failure and need no shadow copy before a
    retry.  A task running several kernels is idempotent only if every one
    is.  The kernels that read-modify-write state list the fields they
    write in ``writes`` (``[lo, hi)`` slices, or the region's scattered
    elements for a ``per_region`` kernel).  Entries compare and hash by
    identity: each is a singleton of :data:`KERNELS`.
    """

    name: str
    rate: str
    body: Callable[..., object]
    n_temps: int = 0  # temporary arrays allocated per invocation
    per_region: bool = False
    per_rep: bool = False
    idempotent: bool = True
    writes: tuple[str, ...] = ()

    def rate_ns(self, costs: KernelCosts) -> float:
        """Simulated ns per item (per repetition for ``per_rep``)."""
        return getattr(costs, self.rate)

    def label(self, rep: int) -> str:
        """The kernel's name as task tags spell it (``eos[x{rep}]``)."""
        return f"{self.name}[x{rep}]" if self.per_rep else self.name

    def run(self, domain, lo: int, hi: int, region: int = -1, rep: int = 0):
        """Run the body over ``[lo, hi)`` (of *region*'s elements)."""
        if not self.per_region:
            return self.body(domain, lo, hi)
        elems = domain.regions.reg_elem_lists[region]
        if self.per_rep:
            return self.body(domain, elems, rep, lo, hi)
        return self.body(domain, elems, lo, hi)


def _zero_forces(domain, lo: int, hi: int) -> None:
    """The reference's force-zeroing loop in ``CalcForceForNodes``."""
    domain.fx[lo:hi] = 0.0
    domain.fy[lo:hi] = 0.0
    domain.fz[lo:hi] = 0.0


# The timestep is read at execution time, not bound at graph-build time:
# ``time_increment`` fixes ``deltatime`` before the graph runs and nothing
# mutates it mid-cycle, so these bodies are correct every cycle — including
# replayed ones, where no rebuild re-binds the value.


def _velocity(domain, lo: int, hi: int) -> None:
    nodal_k.calc_velocity_dt(domain, domain.deltatime, lo, hi)


def _position(domain, lo: int, hi: int) -> None:
    nodal_k.calc_position_dt(domain, domain.deltatime, lo, hi)


def _kinematics(domain, lo: int, hi: int) -> None:
    kin_k.calc_kinematics_dt(domain, domain.deltatime, lo, hi)


def _accel_bc(domain, lo: int, hi: int) -> None:
    """All three symmetry planes at once; the range is not used."""
    nodal_k.apply_acceleration_bc(domain)


#: Every LULESH loop, keyed by name, in leapfrog order.
KERNELS: dict[str, Kernel] = {
    k.name: k
    for k in (
        # LagrangeNodal: element force phase
        Kernel("init_stress", "init_stress", stress_k.init_stress_terms),
        Kernel("integrate_stress", "integrate_stress",
               stress_k.integrate_stress, n_temps=4),
        Kernel("hg_control", "hourglass_control",
               hg_k.calc_hourglass_control, n_temps=7),
        Kernel("fb_hourglass", "fb_hourglass", hg_k.calc_fb_hourglass_force,
               n_temps=2),
        # LagrangeNodal: node phase.  velocity/position integrate in place.
        Kernel("zero_forces", "zero_forces", _zero_forces),
        Kernel("sum_forces", "sum_forces", nodal_k.sum_elem_forces_to_nodes),
        Kernel("acceleration", "acceleration", nodal_k.calc_acceleration),
        Kernel("accel_bc", "accel_bc", _accel_bc),
        Kernel("velocity", "velocity", _velocity, idempotent=False,
               writes=("xd", "yd", "zd")),
        Kernel("position", "position", _position, idempotent=False,
               writes=("x", "y", "z")),
        # LagrangeElements.  strain_rates rewrites vdov and deviatorizes the
        # strain diagonals in place.
        Kernel("kinematics", "kinematics", _kinematics, n_temps=2),
        Kernel("strain_rates", "strain_rates",
               kin_k.calc_lagrange_elements_part2, idempotent=False,
               writes=("vdov", "dxx", "dyy", "dzz")),
        Kernel("monoq_gradients", "monoq_gradients",
               q_k.calc_monotonic_q_gradients),
        Kernel("material_prologue", "material_prologue",
               eos_k.apply_material_properties_prologue, n_temps=1),
        Kernel("qstop_check", "qstop_check", q_k.check_q_stop),
        Kernel("update_volumes", "update_volumes", eos_k.update_volumes),
        # Region domain.  The EOS reads AND rewrites e/p/q (and ss).
        Kernel("monoq_region", "monoq_region", q_k.calc_monotonic_q_region,
               n_temps=3, per_region=True),
        Kernel("eos", "eos_eval", eos_k.eval_eos_region, n_temps=12,
               per_region=True, per_rep=True, idempotent=False,
               writes=("e", "p", "q", "ss")),
        # Time constraints: each returns its range's partial minimum.
        Kernel("courant", "courant", calc_courant_constraint, per_region=True),
        Kernel("hydro", "hydro", calc_hydro_constraint, per_region=True),
    )
}


# What a reference loop's body does (``RefLoop.body``).
CHUNKS = "chunks"  # the kernel over each chunk
COST = "cost"  # nothing: the loop only charges its cost
ONCE = "once"  # the kernel over the whole range, from the first chunk
MIN = "min"  # the kernel over each chunk, folded into a running minimum


class RefLoop(NamedTuple):
    """One loop of the reference's leapfrog iteration (the non-task ports).

    ``region`` names the OpenMP parallel region (consecutive entries of one
    name share it); ``tag`` the naive port's ``for_each``, by default the
    kernel's name.  ``items`` is the index range: ``elem``, ``node``,
    ``symm`` (one symmetry plane) or ``region`` (one material region's
    elements: the entry runs once per material region, ``[r]`` appended to
    both names).  Each loop charges ``share`` of the kernel's rate; the
    entry issues ``loops`` loops (per repetition for a ``per_rep`` kernel),
    and only the first carries the body.
    """

    region: str
    kernel: str
    items: str
    tag: str = ""
    share: float = 1.0
    loops: int = 1
    body: str = CHUNKS


#: The reference's loops in issue order: ``omp_iteration`` walks them as
#: parallel regions of loops, ``naive_iteration`` as blocking ``for_each``.
REFERENCE_LOOPS: tuple[RefLoop, ...] = (
    # LagrangeNodal.  The force sum is two half-cost collection loops, one
    # per force buffer; the real body runs in the second.
    RefLoop("CalcForceForNodes", "zero_forces", "node"),
    RefLoop("InitStressTerms", "init_stress", "elem"),
    RefLoop("IntegrateStress", "integrate_stress", "elem"),
    RefLoop("IntegrateStress", "sum_forces", "node", "collect_stress",
            share=0.5, body=COST),
    RefLoop("CalcHourglassControl", "hg_control", "elem"),
    RefLoop("CalcFBHourglassForce", "fb_hourglass", "elem"),
    RefLoop("CalcFBHourglassForce", "sum_forces", "node", "collect_hg",
            share=0.5),
    RefLoop("CalcAccelerationForNodes", "acceleration", "node"),
    # One loop per symmetry plane; the body applies all three.
    RefLoop("ApplyAccelerationBC", "accel_bc", "symm", loops=3, body=ONCE),
    RefLoop("CalcVelocityForNodes", "velocity", "node"),
    RefLoop("CalcPositionForNodes", "position", "node"),
    # LagrangeElements
    RefLoop("CalcKinematics", "kinematics", "elem"),
    RefLoop("CalcLagrangeElements", "strain_rates", "elem"),
    RefLoop("CalcMonotonicQGradients", "monoq_gradients", "elem",
            "q_gradients"),
    RefLoop("MonotonicQRegion", "monoq_region", "region", "monoq"),
    RefLoop("QStopCheck", "qstop_check", "elem"),
    RefLoop("ApplyMaterialProperties", "material_prologue", "elem",
            "prologue"),
    # EOS_LOOPS_PER_REP tiny loops per repetition, each with its own
    # barrier: the structure that shrinks per-loop work as regions grow.
    RefLoop("EvalEOS", "eos", "region", share=1 / EOS_LOOPS_PER_REP,
            loops=EOS_LOOPS_PER_REP, body=ONCE),
    RefLoop("UpdateVolumes", "update_volumes", "elem"),
    # CalcTimeConstraints
    RefLoop("TimeConstraints", "courant", "region", body=MIN),
    RefLoop("TimeConstraints", "hydro", "region", body=MIN),
)

# The loops grouped into parallel regions.
_REFERENCE_REGIONS = tuple(
    (name, tuple(loops))
    for name, loops in groupby(REFERENCE_LOOPS, key=attrgetter("region"))
)


class IssuedLoop(NamedTuple):
    """One :class:`RefLoop` entry bound to a shape, costs and domain."""

    tag: str
    n: int
    rate: float  # ns per item of each loop
    body: Callable[[int, int], object] | None  # the first loop's
    count: int
    idempotent: bool


def reference_iteration(
    shape: ProblemShape,
    costs: KernelCosts,
    domain: Domain | None,
    minima: dict[str, float],
) -> Iterator[tuple[str, list[IssuedLoop]]]:
    """Yield ``(region name, issued loops)`` per parallel region, in order.

    Bodies are ``None`` without a *domain*; :data:`MIN` bodies fold their
    kernel's running minimum into *minima* under the kernel's name.
    """
    sizes = {"elem": shape.num_elem, "node": shape.num_node,
             "symm": shape.num_symm_nodes}
    for name, loops in _REFERENCE_REGIONS:
        per_region = loops[0].items == "region"
        for r in range(shape.num_regions) if per_region else (-1,):
            issued = []
            for lp in loops:
                k = KERNELS[lp.kernel]
                tag = lp.tag or lp.kernel
                n, rep = sizes.get(lp.items, 0), 0
                if per_region:
                    tag = f"{tag}[{r}]"
                    n, rep = shape.region_sizes[r], shape.region_reps[r]
                issued.append(IssuedLoop(
                    tag, n, k.rate_ns(costs) * lp.share,
                    _ref_body(lp.body, k, domain, minima, r, rep, n),
                    lp.loops * rep if k.per_rep else lp.loops, k.idempotent,
                ))
            yield (f"{name}[{r}]" if per_region else name), issued


def _ref_body(
    kind: str, k: Kernel, domain: Domain | None, minima: dict[str, float],
    r: int, rep: int, n: int,
) -> Callable[[int, int], object] | None:
    if domain is None or kind == COST:
        return None
    if kind == CHUNKS:
        return lambda lo, hi: k.run(domain, lo, hi, r, rep)
    if kind == ONCE:
        def once(lo: int, hi: int) -> None:
            if lo == 0:
                k.run(domain, 0, n, r, rep)

        return once

    def fold(lo: int, hi: int) -> None:
        minima[k.name] = min(minima.get(k.name, 1.0e20),
                             k.run(domain, lo, hi, r))

    return fold


def apply_time_constraints(domain: Domain, minima: dict[str, float]) -> None:
    """Set the next timestep from the minima the :data:`MIN` loops folded.

    A kernel that folded nothing contributes ``1e20``: no constraint.
    """
    reduce_time_constraints(
        domain, minima.get("courant", 1.0e20), minima.get("hydro", 1.0e20)
    )


class TaskSpec(NamedTuple):
    """What one task does, as plain picklable data.

    A named tuple rather than a dataclass: the HPX program creates one per
    task while building a graph, and tuple construction is several times
    cheaper.  ``kind`` is one of ``kernels`` / ``region`` / ``constraints`` (the
    partitioned kinds), ``bc`` (serial in the reference too) or ``reduce``
    (the constraint min-reduction, which has no kernel body).  ``names``
    are :data:`KERNELS` entries run in order (the captured chain order)
    over ``[lo, hi)``; ``region``/``rep`` qualify the per-region kinds.
    """

    kind: str
    names: tuple[str, ...] = ()
    lo: int = 0
    hi: int = 0
    region: int = -1
    rep: int = 0


def spec_is_idempotent(spec: TaskSpec) -> bool:
    """Whether re-executing *spec* from current field state is safe as-is.

    A spec running several kernels is idempotent only when every one is —
    the same rule the resilience layer applies to combined tasks.
    """
    return all(KERNELS[nm].idempotent for nm in spec.names)


def execute_spec(domain, spec: TaskSpec):
    """Run one spec against *domain*; constraint specs return partials.

    Simulated task bodies, process-backend workers and the main process's
    serial ``bc`` all execute through here.  ``reduce`` specs carry no
    kernel: the backends fold the constraint partials themselves.
    """
    kind = spec.kind
    if kind == "reduce":
        raise ValueError("a reduce spec has no kernel body")
    args = (spec.lo, spec.hi, spec.region, spec.rep)
    if kind == "constraints":
        return tuple(KERNELS[nm].run(domain, *args) for nm in spec.names)
    for nm in spec.names:
        KERNELS[nm].run(domain, *args)
    return None


@dataclass(frozen=True)
class ProblemShape:
    """Sizes of a LULESH problem, sufficient for timing-only simulation."""

    nx: int
    num_elem: int
    num_node: int
    num_symm_nodes: int
    region_sizes: tuple[int, ...]
    region_reps: tuple[int, ...]

    @classmethod
    def from_options(cls, opts: LuleshOptions) -> "ProblemShape":
        """Build the shape without allocating field arrays.

        Region assignment runs for real, because it determines the
        load-imbalance structure; mesh fields are not allocated.  The
        assignment draws one random run per ~40 elements on average, so
        its cost is linear in the element count and, at large sizes, a
        visible share of a timing-only run.
        """
        regions = RegionSet(
            num_elem=opts.numElem,
            num_reg=opts.numReg,
            balance=opts.region_balance,
            cost=opts.region_cost,
        )
        return cls(
            nx=opts.nx,
            num_elem=opts.numElem,
            num_node=opts.numNode,
            num_symm_nodes=(opts.nx + 1) ** 2,
            region_sizes=tuple(int(s) for s in regions.reg_elem_sizes),
            region_reps=tuple(regions.rep(r) for r in range(regions.num_reg)),
        )

    @classmethod
    def from_domain(cls, domain: Domain) -> "ProblemShape":
        """Shape of an existing domain (execute mode)."""
        regions = domain.regions
        return cls(
            nx=domain.opts.nx,
            num_elem=domain.numElem,
            num_node=domain.numNode,
            num_symm_nodes=len(domain.mesh.symmX),
            region_sizes=tuple(int(s) for s in regions.reg_elem_sizes),
            region_reps=tuple(regions.rep(r) for r in range(regions.num_reg)),
        )

    @property
    def num_regions(self) -> int:
        return len(self.region_sizes)

    def iteration_work_ns(self, costs: KernelCosts = DEFAULT_COSTS) -> float:
        """Productive work of one leapfrog iteration (single-thread bound)."""
        return iteration_work_ns(
            costs, self.num_elem, self.num_node, self.region_sizes, self.region_reps
        )
