"""Differential property: a lowered spec table advances a cycle exactly.

Cycle 1 captures the HPX program's task graph.  Then one twin domain
advances by ``HpxLuleshProgram.step()`` (the simulator replaying the
captured graph) and the other by running the lowered specs in spec order
in the main process, folding the constraint partials in spec order — the
process backend's work without the worker pool.  Every evolving field and
the timestep state must agree bit for bit, on every ladder variant.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amt.runtime import AmtRuntime
from repro.core.hpx_lulesh import HpxLuleshProgram, HpxVariant
from repro.core.kernel_graph import ProblemShape
from repro.lulesh.checkpoint import restore_state, snapshot_state
from repro.lulesh.costs import DEFAULT_COSTS
from repro.lulesh.domain import Domain
from repro.lulesh.kernels.constraints import (
    reduce_time_constraints,
    time_increment,
)
from repro.lulesh.options import LuleshOptions
from repro.parallel.plan import execute_spec, lower_template
from repro.simcore.costmodel import CostModel
from repro.simcore.machine import MachineConfig

VARIANTS = {
    "fig5": HpxVariant.fig5(),
    "fig6": HpxVariant.fig6(),
    "fig7": HpxVariant.fig7(),
    "full": HpxVariant.full(),
}


def run_specs(domain: Domain, schedule) -> None:
    """One cycle from the spec table alone, in spec order."""
    time_increment(domain)
    partials = []
    with domain.workspace.phase():
        for spec in schedule.specs:
            if spec.kind == "reduce":
                courant = hydro = 1.0e20
                for cmin, hmin in partials:
                    courant = min(courant, cmin)
                    hydro = min(hydro, hmin)
                reduce_time_constraints(domain, courant, hydro)
                continue
            value = execute_spec(domain, spec)
            if value is not None:
                partials.append(value)


def assert_bit_identical(a: Domain, b: Domain) -> None:
    sa, sb = snapshot_state(a), snapshot_state(b)
    assert sa.pop("_scalars") == sb.pop("_scalars")
    for name, arr in sa.items():
        assert arr.tobytes() == sb[name].tobytes(), name


@given(
    nx=st.integers(3, 6),
    num_reg=st.integers(1, 5),
    nodal=st.integers(4, 96),
    elements=st.integers(4, 96),
    variant=st.sampled_from(sorted(VARIANTS)),
)
@settings(max_examples=30, deadline=None)
def test_spec_order_execution_matches_step(nx, num_reg, nodal, elements,
                                           variant):
    opts = LuleshOptions(nx=nx, numReg=num_reg)
    stepped = Domain(opts)
    program = HpxLuleshProgram(
        AmtRuntime(MachineConfig(), CostModel(), 3),
        ProblemShape.from_domain(stepped),
        DEFAULT_COSTS,
        nodal_partition=nodal,
        elements_partition=elements,
        domain=stepped,
        variant=VARIANTS[variant],
    )
    program.step()  # cycle 1 captures the graph
    schedule = lower_template(program._template)
    twin = Domain(opts)
    restore_state(twin, snapshot_state(stepped))
    for _ in range(2):
        program.step()
        run_specs(twin, schedule)
        assert_bit_identical(stepped, twin)
