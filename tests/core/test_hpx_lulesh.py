"""Unit tests for the task-based (HPX) orchestration."""

import numpy as np
import pytest

from repro.amt.runtime import AmtRuntime
from repro.core.hpx_lulesh import HpxLuleshProgram, HpxVariant
from repro.core.kernel_graph import ProblemShape
from repro.lulesh.costs import DEFAULT_COSTS
from repro.lulesh.domain import Domain
from repro.lulesh.options import LuleshOptions
from repro.lulesh.reference import SequentialDriver
from repro.simcore.costmodel import CostModel
from repro.simcore.machine import MachineConfig

OPTS = LuleshOptions(nx=4, numReg=3)


def make_program(n_workers=8, execute=False, variant=None, partition=32):
    rt = AmtRuntime(MachineConfig(), CostModel(), n_workers)
    domain = Domain(OPTS) if execute else None
    shape = (
        ProblemShape.from_domain(domain)
        if domain is not None
        else ProblemShape.from_options(OPTS)
    )
    program = HpxLuleshProgram(
        rt, shape, DEFAULT_COSTS,
        nodal_partition=partition, elements_partition=partition,
        domain=domain, variant=variant or HpxVariant.full(),
    )
    return rt, program


class TestVariant:
    def test_labels(self):
        assert "Fig.5" in HpxVariant.fig5().label()
        assert "Fig.6" in HpxVariant.fig6().label()
        assert "Fig.7" in HpxVariant.fig7().label()
        assert "Fig.8" in HpxVariant.full().label()

    def test_ladder_flags(self):
        assert not HpxVariant.fig5().chain_kernels
        assert HpxVariant.fig6().chain_kernels
        assert not HpxVariant.fig6().combine_loops
        assert HpxVariant.fig7().combine_loops
        assert not HpxVariant.fig7().parallel_chains
        assert HpxVariant.full().parallel_chains


class TestGraphStructure:
    def test_seven_barriers_per_iteration(self):
        rt, program = make_program()
        program.build_iteration()
        rt.flush()
        # B1 forces, B2 accel, the serial BC, B4 positions, B5 gradients,
        # B6 prologue and the B7 reduction = 7 synchronization points.
        assert program.barriers_per_iteration == 7

    def test_barrier_count_matches_built_graph(self):
        # Figs. 6/7 add one gate per region (regions run one after
        # another); Fig. 5 has one blocking flush per loop, BC and region,
        # plus the reduce.
        for variant in (HpxVariant.fig6(), HpxVariant.fig7()):
            rt, program = make_program(variant=variant)
            rt.begin_capture()
            program.build_iteration()
            rt.flush()
            tasks = rt.end_capture().segments[0].tasks
            joins = sum(t.tag.startswith(("B", "region_gate")) for t in tasks)
            bc = sum(t.tag == "accel_bc" for t in tasks)
            assert program.barriers_per_iteration == joins + bc + 1
            assert program.barriers_per_iteration == 7 + OPTS.numReg
        rt, program = make_program(variant=HpxVariant.fig5())
        program.build_iteration()
        rt.flush()
        # every blocking flush, plus the final flush running the reduce
        assert program.barriers_per_iteration == rt.stats.n_flushes

    def test_task_count_scales_with_partitions(self):
        rt_fine, prog_fine = make_program(partition=8)
        prog_fine.build_iteration()
        rt_fine.flush()
        rt_coarse, prog_coarse = make_program(partition=64)
        prog_coarse.build_iteration()
        rt_coarse.flush()
        assert rt_fine.stats.n_tasks > rt_coarse.stats.n_tasks

    def test_unchained_variant_flushes_many_times(self):
        rt, program = make_program(variant=HpxVariant.fig5())
        program.build_iteration()
        rt.flush()
        # Fig. 5 semantics: a blocking barrier after every kernel group.
        assert rt.stats.n_flushes > 10

    def test_chained_variant_single_flush(self):
        rt, program = make_program()
        program.build_iteration()
        rt.flush()
        assert rt.stats.n_flushes == 1

    def test_uncombined_variant_creates_more_tasks(self):
        rt6, p6 = make_program(variant=HpxVariant.fig6())
        p6.build_iteration()
        rt6.flush()
        rt7, p7 = make_program(variant=HpxVariant.fig7())
        p7.build_iteration()
        rt7.flush()
        assert rt6.stats.n_tasks > rt7.stats.n_tasks


class TestExecution:
    def test_single_iteration_matches_reference(self):
        ref = Domain(OPTS)
        SequentialDriver(ref).step()
        rt, program = make_program(execute=True)
        program.run(1)
        for f in ("x", "xd", "e", "p", "q", "v", "ss"):
            assert np.array_equal(getattr(ref, f), getattr(program.domain, f)), f

    @pytest.mark.parametrize(
        "variant",
        [HpxVariant.fig5(), HpxVariant.fig6(), HpxVariant.fig7(), HpxVariant.full()],
    )
    def test_all_variants_bit_identical(self, variant):
        ref = Domain(OPTS)
        drv = SequentialDriver(ref)
        for _ in range(3):
            drv.step()
        rt, program = make_program(execute=True, variant=variant)
        program.run(3)
        for f in ("x", "e", "p", "v"):
            assert np.array_equal(getattr(ref, f), getattr(program.domain, f)), f

    def test_worker_count_does_not_change_physics(self):
        def run(workers):
            rt, program = make_program(n_workers=workers, execute=True)
            program.run(4)
            return program.domain

        a, b = run(1), run(24)
        assert np.array_equal(a.e, b.e)
        assert np.array_equal(a.x, b.x)

    def test_partition_size_does_not_change_physics(self):
        def run(p):
            rt, program = make_program(execute=True, partition=p)
            program.run(4)
            return program.domain

        a, b = run(8), run(64)
        assert np.array_equal(a.e, b.e)

    def test_stops_at_stoptime(self):
        rt, program = make_program(execute=True)
        program.run(100_000)
        assert program.domain.time == pytest.approx(OPTS.stoptime)

    def test_constraint_reduction_applied(self):
        rt, program = make_program(execute=True)
        program.run(2)
        assert program.domain.dtcourant < 1e20
        assert program.domain.dthydro < 1e20

    def test_invalid_iterations(self):
        rt, program = make_program()
        with pytest.raises(ValueError):
            program.run(0)


class TestTimingBehaviour:
    def test_runtime_scales_with_iterations(self):
        def total(iters):
            rt, program = make_program()
            program.run(iters)
            return rt.stats.total_ns

        assert total(4) == pytest.approx(2 * total(2), rel=1e-6)

    def test_global_temporaries_slower(self):
        rt_local, p_local = make_program()
        p_local.run(2)
        rt_glob, p_glob = make_program(
            variant=HpxVariant(task_local_temporaries=False)
        )
        p_glob.run(2)
        assert rt_glob.stats.total_ns > rt_local.stats.total_ns

    def test_allocator_stats_populated(self):
        rt, program = make_program()
        program.run(1)
        assert program.allocator.stats.n_arena_allocs > 0
