"""Tests for checkpoint-based auto-recovery: rollback, degradation, give-up."""

import math
import os

import numpy as np
import pytest

from repro.amt.errors import TaskGroupError
from repro.core.driver import run_hpx, run_naive_hpx, run_omp
from repro.lulesh.domain import Domain
from repro.lulesh.errors import VolumeError
from repro.lulesh.options import LuleshOptions
from repro.resilience import (
    CorruptedStateError,
    InjectedFault,
    RecoveryExhausted,
    RecoveryManager,
    ResiliencePlan,
    run_with_recovery,
)


@pytest.fixture()
def opts():
    return LuleshOptions(nx=8, numReg=3, max_iterations=20)


@pytest.fixture()
def domain(opts):
    return Domain(opts)


class TestRecoveryManager:
    def test_initial_checkpoint_written(self, domain, tmp_path):
        path = str(tmp_path / "r.npz")
        m = RecoveryManager(domain, checkpoint_path=path)
        assert os.path.exists(path)
        assert m.stats.checkpoints == 1

    def test_tempdir_cleanup(self, domain):
        m = RecoveryManager(domain)
        path = m.checkpoint_path
        assert os.path.exists(path)
        m.close()
        assert not os.path.exists(path)

    def test_check_state_flags_nan(self, domain, tmp_path):
        m = RecoveryManager(domain, checkpoint_path=str(tmp_path / "r.npz"))
        m.check_state()  # clean state passes
        domain.e[3] = math.nan
        with pytest.raises(CorruptedStateError, match="'e'"):
            m.check_state()

    def test_rollback_restores_state(self, domain, tmp_path):
        m = RecoveryManager(domain, checkpoint_path=str(tmp_path / "r.npz"))
        e0 = domain.e.copy()
        domain.e[:] = -1.0
        domain.cycle = 99
        m.on_failure(InjectedFault("boom"))
        assert np.array_equal(domain.e, e0)
        assert domain.cycle == 0
        assert m.stats.rollbacks == 1

    def test_transient_failure_does_not_degrade(self, domain, tmp_path):
        m = RecoveryManager(domain, checkpoint_path=str(tmp_path / "r.npz"))
        dt = domain.deltatime
        m.on_failure(InjectedFault("boom"))
        assert domain.deltatime == dt  # bit-exact re-run expected

    def test_physics_abort_degrades_timestep(self, domain, tmp_path):
        m = RecoveryManager(domain, checkpoint_path=str(tmp_path / "r.npz"))
        dt = domain.deltatime
        m.on_failure(VolumeError("negative volume"))
        assert domain.deltatime <= dt * 0.5
        (event,) = m.stats.events_of("degrade")
        assert event["cause"] == "VolumeError"

    def test_group_of_physics_aborts_degrades(self, domain, tmp_path):
        m = RecoveryManager(domain, checkpoint_path=str(tmp_path / "r.npz"))
        dt = domain.deltatime
        group = TaskGroupError.collect(
            [("kin[0:8]", VolumeError("negative volume"))]
        )
        m.on_failure(group)
        assert domain.deltatime <= dt * 0.5

    def test_checkpoint_cadence(self, domain, tmp_path):
        m = RecoveryManager(
            domain, checkpoint_path=str(tmp_path / "r.npz"),
            checkpoint_every=3,
        )
        for _ in range(6):
            m.after_step()
        assert m.stats.checkpoints == 1 + 2  # initial + cycles 3 and 6

    def test_consecutive_rollbacks_exhaust(self, domain, tmp_path):
        m = RecoveryManager(
            domain, checkpoint_path=str(tmp_path / "r.npz"), max_rollbacks=2,
        )
        m.on_failure(InjectedFault("1"))
        m.on_failure(InjectedFault("2"))
        with pytest.raises(RecoveryExhausted, match="giving up after 2"):
            m.on_failure(InjectedFault("3"))

    def test_successful_step_resets_the_count(self, domain, tmp_path):
        m = RecoveryManager(
            domain, checkpoint_path=str(tmp_path / "r.npz"), max_rollbacks=1,
        )
        m.on_failure(InjectedFault("1"))
        m.after_step()  # progress: the failure streak is broken
        m.on_failure(InjectedFault("2"))  # tolerated again

    def test_parameter_validation(self, domain):
        with pytest.raises(ValueError):
            RecoveryManager(domain, checkpoint_every=0)
        with pytest.raises(ValueError):
            RecoveryManager(domain, max_rollbacks=0)


class TestRunWithRecovery:
    def test_always_failing_step_gives_up(self, domain, tmp_path):
        m = RecoveryManager(
            domain, checkpoint_path=str(tmp_path / "r.npz"), max_rollbacks=2,
        )

        def step():
            raise InjectedFault("always")

        with pytest.raises(RecoveryExhausted):
            run_with_recovery(step, domain, 5, m)

    def test_programming_error_escapes(self, domain, tmp_path):
        m = RecoveryManager(domain, checkpoint_path=str(tmp_path / "r.npz"))

        def step():
            raise TypeError("a bug, not a fault")

        with pytest.raises(TypeError):
            run_with_recovery(step, domain, 5, m)


class TestEndToEndRecovery:
    """The acceptance scenario: injected failure, rollback, convergence."""

    def _baseline(self, opts, iterations=6):
        return run_hpx(opts, 4, iterations, execute=True)

    def test_unrecovered_fault_raises_group_naming_tag(self, opts):
        plan = ResiliencePlan(inject=("task:CalcQ*@3",), fault_seed=1)
        with pytest.raises(TaskGroupError) as ei:
            run_hpx(opts, 4, 6, execute=True, resilience=plan)
        assert any("monoq" in t for t in ei.value.tags)

    def test_recovered_run_matches_fault_free(self, opts):
        base = self._baseline(opts)
        plan = ResiliencePlan(
            inject=("task:CalcQ*@3",), fault_seed=1,
            auto_recover=True, checkpoint_every=2,
        )
        res = run_hpx(opts, 4, 6, execute=True, resilience=plan)
        ref = base.domain.origin_energy()
        got = res.domain.origin_energy()
        assert abs(got - ref) <= 1e-8 * abs(ref)
        assert res.iterations == base.iterations
        assert plan.stats.injected_faults == 1
        assert plan.stats.rollbacks == 1
        assert plan.stats.degraded_cycles == 0  # transient: no degradation

    def test_bc_fault_is_replayed_bit_identically(self, opts):
        # The kernel table declares the symmetry-plane BC idempotent, so
        # the task-based program may re-run it in place.
        base = self._baseline(opts)
        plan = ResiliencePlan(
            inject=("task:accel_bc@3",), fault_seed=1, max_retries=3,
        )
        res = run_hpx(opts, 4, 6, execute=True, resilience=plan)
        assert plan.stats.injected_faults == 1
        assert plan.stats.retries == 1
        assert res.domain.origin_energy() == base.domain.origin_energy()
        for f in ("x", "xd", "e", "p", "q", "v"):
            assert np.array_equal(getattr(res.domain, f),
                                  getattr(base.domain, f)), f

    def test_unreplayed_fault_names_the_task_that_raised(self, opts):
        # Not the velocity/position chains that short-circuited over it.
        plan = ResiliencePlan(inject=("task:accel_bc@3",), fault_seed=1)
        with pytest.raises(TaskGroupError) as ei:
            run_hpx(opts, 4, 6, execute=True, resilience=plan)
        assert ei.value.tags == ("accel_bc",)

    def test_field_corruption_detected_and_recovered(self, opts):
        base = self._baseline(opts)
        plan = ResiliencePlan(
            inject=("field:e:nan@3",), fault_seed=2,
            auto_recover=True, checkpoint_every=2,
        )
        res = run_hpx(opts, 4, 6, execute=True, resilience=plan)
        assert plan.stats.rollbacks >= 1
        rollback = plan.stats.events_of("rollback")[0]
        assert rollback["cause"] == "CorruptedStateError"
        ref = base.domain.origin_energy()
        assert abs(res.domain.origin_energy() - ref) <= 1e-8 * abs(ref)

    def test_naive_runtime_recovers_too(self, opts):
        base = run_naive_hpx(opts, 4, 6, execute=True)
        plan = ResiliencePlan(
            inject=("task:CalcQ*@3",), fault_seed=1,
            auto_recover=True, checkpoint_every=2,
        )
        res = run_naive_hpx(opts, 4, 6, execute=True, resilience=plan)
        ref = base.domain.origin_energy()
        assert abs(res.domain.origin_energy() - ref) <= 1e-8 * abs(ref)
        assert plan.stats.rollbacks >= 1

    def test_omp_runtime_recovers_too(self, opts):
        base = run_omp(opts, 4, 6, execute=True)
        plan = ResiliencePlan(
            inject=("task:CalcQ*@3",), fault_seed=1,
            auto_recover=True, checkpoint_every=2,
        )
        res = run_omp(opts, 4, 6, execute=True, resilience=plan)
        ref = base.domain.origin_energy()
        assert abs(res.domain.origin_energy() - ref) <= 1e-8 * abs(ref)
        assert plan.stats.rollbacks >= 1
