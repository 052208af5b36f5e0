"""Unit tests for template lowering (:mod:`repro.parallel.plan`)."""

import pytest

from repro.amt.graph import SYNC
from repro.amt.runtime import AmtRuntime
from repro.core.hpx_lulesh import HpxVariant
from repro.core.kernel_graph import KERNELS
from repro.parallel import (
    PlanLoweringError,
    TaskSpec,
    assign_waves,
    lower_template,
)
from repro.simcore.costmodel import CostModel
from repro.simcore.machine import MachineConfig
from tests.parallel.conftest import make_execute_program


def capture(build):
    """Capture whatever *build* creates on a fresh runtime as a template."""
    rt = AmtRuntime(MachineConfig(), CostModel(), 2)
    rt.begin_capture()
    build(rt)
    rt.flush()
    return rt.end_capture()


def work(rt):
    """One work task carrying a spec."""
    return rt.async_(
        lambda: None, tag="k:init_stress[0:4]",
        spec=TaskSpec("kernels", ("init_stress",), 0, 4),
    )


class TestParseTaskTag:
    """What each tag form lowers to.

    Lowering reads the spec a task carries, not its tag; these cases pin
    that every tag the program emits still comes with the spec it names.
    """

    @pytest.fixture(scope="class")
    def specs(self):
        """``tag -> spec`` over captured full and Fig. 6 graphs."""
        out = {}
        for variant in (HpxVariant.full(), HpxVariant.fig6()):
            program = make_execute_program(
                nx=6, num_reg=8, partition=16, variant=variant
            )
            program.step()
            for seg in program._template.segments:
                out.update((t.tag, t.spec) for t in seg.tasks)
        return out

    def test_work_tag(self, specs):
        spec = specs["stress:init_stress+integrate_stress[0:16]"]
        assert spec.kind == "kernels"
        assert spec.names == ("init_stress", "integrate_stress")
        assert (spec.lo, spec.hi) == (0, 16)

    def test_single_kernel_work_tag(self, specs):
        spec = specs["node:acceleration[16:32]"]
        assert spec.kind == "kernels"
        assert spec.names == ("acceleration",)

    def test_region_monoq_tag(self, specs):
        spec = specs["region6:monoq_region[0:16]"]
        assert spec.kind == "region"
        assert spec.region == 6
        assert spec.names == ("monoq_region",)

    def test_region_eos_tag_carries_rep(self, specs):
        spec = specs["region7:eos[x20][0:16]"]
        assert spec.kind == "region"
        assert spec.names == ("eos",)
        assert (spec.region, spec.rep) == (7, 20)

    def test_constraints_tag(self, specs):
        spec = specs["constraints[2][0:9]"]
        assert spec.kind == "constraints"
        assert spec.names == ("courant", "hydro")
        assert (spec.region, spec.lo, spec.hi) == (2, 0, 9)

    def test_bc_and_reduce_tags(self, specs):
        assert specs["accel_bc"].kind == "bc"
        assert specs["reduce_dt"].kind == "reduce"

    @pytest.mark.parametrize(
        "tag",
        ["B3:stress-gate", "region_gate[4]", "dataflow-gate", "when_all",
         "ready", "exceptional"],
    )
    def test_sync_tags(self, tag):
        """Barriers, gates and ready futures are SYNC and emit no spec."""

        def build(rt):
            f = work(rt)
            if tag == "ready":
                rt.make_ready_future()
            elif tag == "exceptional":
                rt.make_exceptional_future(RuntimeError("boom"))
            elif tag == "dataflow-gate":
                rt.dataflow(lambda _fs: None, [f], spec=TaskSpec("reduce"))
            else:
                rt.when_all([f], tag=tag)

        template = capture(build)
        tasks = {t.tag: t for seg in template.segments for t in seg.tasks}
        assert tasks[tag].spec is SYNC
        kinds = [s.kind for s in lower_template(template).specs]
        assert kinds == (
            ["kernels", "reduce"] if tag == "dataflow-gate" else ["kernels"]
        )

    @pytest.mark.parametrize(
        "tag",
        ["", "bogus", "stress:unknown_kernel[0:4]", "region:eos[0:4]",
         "constraints[0:4]", "stress:init_stress[0:",
         "stress:init_stress[4:8]"],
    )
    def test_unknown_tags_raise(self, tag):
        """A work task without a spec does not lower, whatever its tag:
        there is no fallback to reading the tag."""

        def build(rt):
            work(rt)
            rt.async_(lambda: None, tag=tag)

        with pytest.raises(PlanLoweringError, match="carries no spec"):
            lower_template(capture(build))


class TestLowerTemplate:
    @pytest.fixture(scope="class")
    def lowered(self):
        program = make_execute_program(nx=5, num_reg=4, partition=32)
        program.step()  # cycle 1 captures the graph
        schedule = lower_template(program._template)
        return program, schedule

    def test_every_work_task_lowered(self, lowered):
        program, schedule = lowered
        kinds = [s.kind for s in schedule.specs]
        assert "kernels" in kinds and "region" in kinds
        assert kinds.count("reduce") == 1
        assert kinds.count("bc") == 1
        # one constraints spec per (region, partition) pair, >= region count
        assert kinds.count("constraints") >= 4
        assert schedule.n_parallel_tasks > 0

    def test_costs_align_with_specs(self, lowered):
        _program, schedule = lowered
        assert len(schedule.costs) == len(schedule.specs)
        assert all(c >= 0 for c in schedule.costs)

    def test_waves_partition_the_specs(self, lowered):
        _program, schedule = lowered
        seen = []
        for wave in schedule.waves:
            seen.extend(wave.parallel)
            seen.extend(wave.serial)
        # sync tasks emit no specs, so waves cover the spec table exactly
        assert sorted(seen) == list(range(len(schedule.specs)))

    def test_dependencies_respect_wave_order(self, lowered):
        """Every captured in-segment edge crosses waves strictly forward."""
        program, schedule = lowered
        wave_of = {}
        for wi, wave in enumerate(schedule.waves):
            for i in (*wave.parallel, *wave.serial):
                wave_of[i] = wi
        # replay the lowering's traversal to map tasks to spec indices
        spec_of_task: dict[int, int | None] = {}
        pos = 0
        edges_checked = 0
        for seg in program._template.segments:
            for task in seg.tasks:
                if task.spec is SYNC:
                    spec_of_task[id(task)] = None
                    continue
                spec_of_task[id(task)] = pos
                for parent in task.parents:
                    p = spec_of_task.get(id(parent))
                    if p is not None:
                        assert wave_of[p] < wave_of[pos]
                        edges_checked += 1
                pos += 1
        assert pos == len(schedule.specs)
        assert edges_checked > 0

    def test_kernel_bodies_cover_work_vocabulary(self):
        assert set(KERNELS) >= {
            "init_stress", "integrate_stress", "hg_control", "fb_hourglass",
            "zero_forces", "sum_forces", "acceleration", "velocity",
            "position", "kinematics", "strain_rates", "monoq_gradients",
            "material_prologue", "qstop_check", "update_volumes",
        }


class TestAssignWaves:
    def test_deterministic_and_complete(self):
        program = make_execute_program(nx=5, num_reg=4, partition=32)
        program.step()
        schedule = lower_template(program._template)
        a = assign_waves(schedule, 3)
        b = assign_waves(schedule, 3)
        assert a == b
        for wi, wave in enumerate(schedule.waves):
            spread = [i for worker in a[wi] for i in worker]
            assert sorted(spread) == sorted(wave.parallel)

    def test_single_worker_gets_everything(self):
        program = make_execute_program(nx=4, num_reg=3, partition=32)
        program.step()
        schedule = lower_template(program._template)
        a = assign_waves(schedule, 1)
        for wi, wave in enumerate(schedule.waves):
            assert sorted(a[wi][0]) == sorted(wave.parallel)
