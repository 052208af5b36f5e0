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
* :class:`ProblemShape` — the sizes the *simulated* runs need (element/node
  counts, region sizes and repetition factors) without allocating the full
  physics state, so timing-only experiments scale to s=150.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

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
)
from repro.lulesh.options import LuleshOptions
from repro.lulesh.regions import RegionSet

__all__ = [
    "EOS_LOOPS_PER_REP",
    "KERNELS",
    "Kernel",
    "ProblemShape",
    "TaskSpec",
    "execute_spec",
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

    def bind(
        self, domain, region: int = -1, rep: int = 0
    ) -> Callable[[int, int], object] | None:
        """``body(lo, hi)`` over *domain*; ``None`` in timing-only mode."""
        if domain is None:
            return None
        return lambda lo, hi: self.run(domain, lo, hi, region, rep)


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
