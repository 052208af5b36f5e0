"""Unit tests for exception-carrying futures and failure propagation."""

import pytest

from repro.amt.errors import AmtError, FutureError, TaskFailure, TaskGroupError
from repro.amt.runtime import AmtRuntime
from repro.simcore.costmodel import CostModel
from repro.simcore.machine import MachineConfig


@pytest.fixture()
def rt():
    return AmtRuntime(MachineConfig(), CostModel(), n_workers=4)


class Boom(RuntimeError):
    pass


def _boom():
    raise Boom("kaboom")


class TestFutureExceptions:
    def test_get_reraises(self, rt):
        f = rt.async_(_boom, tag="t")
        with pytest.raises(Boom, match="kaboom"):
            f.get()

    def test_is_ready_and_has_exception(self, rt):
        f = rt.async_(_boom)
        rt.flush()
        assert f.is_ready()
        assert f.has_exception()
        assert isinstance(f.exception_nowait(), Boom)

    def test_exception_does_not_consume(self, rt):
        f = rt.async_(_boom)
        exc = f.exception()
        assert isinstance(exc, Boom)
        # peeking did not consume the one-shot value
        with pytest.raises(Boom):
            f.get()

    def test_exception_nowait_requires_ready(self, rt):
        f = rt.async_(lambda: 1)
        with pytest.raises(FutureError, match="not ready"):
            f.exception_nowait()

    def test_shared_future_reraises_every_get(self, rt):
        sf = rt.async_(_boom).share()
        for _ in range(3):
            with pytest.raises(Boom):
                sf.get()

    def test_make_exceptional_future(self, rt):
        f = rt.make_exceptional_future(Boom("pre-failed"))
        rt.flush()
        assert f.has_exception()
        with pytest.raises(Boom, match="pre-failed"):
            f.get()

    def test_successful_future_unaffected(self, rt):
        assert rt.async_(lambda: 7).get() == 7


class TestContinuationShortCircuit:
    def test_continuation_not_executed(self, rt):
        ran = []
        f = rt.async_(_boom)
        g = f.then(lambda _f: ran.append("nope"))
        rt.flush()
        assert ran == []
        assert isinstance(g.exception_nowait(), Boom)

    def test_same_exception_object_propagates(self, rt):
        f = rt.async_(_boom)
        g = f.then(lambda _f: None)
        h = g.then(lambda _g: None)
        rt.flush()
        assert h.exception_nowait() is f.exception_nowait()

    def test_continuation_own_failure(self, rt):
        f = rt.async_(lambda: 1)
        g = f.then(lambda _f: _boom())
        rt.flush()
        assert not f.has_exception()
        assert isinstance(g.exception_nowait(), Boom)


class TestWhenAllAggregation:
    def test_group_error_names_failed_tags(self, rt):
        ok = rt.async_(lambda: 1, tag="ok")
        bad = rt.async_(_boom, tag="bad[0:8]")
        gate = rt.when_all([ok, bad])
        rt.flush()
        exc = gate.exception_nowait()
        assert isinstance(exc, TaskGroupError)
        assert exc.tags == ("bad[0:8]",)
        assert "bad[0:8]" in str(exc)

    def test_failure_does_not_poison_siblings(self, rt):
        ok = rt.async_(lambda: 41, tag="ok")
        bad = rt.async_(_boom, tag="bad")
        rt.when_all([ok, bad])
        rt.flush()
        assert ok.result_nowait() == 41

    def test_nested_groups_flatten_to_root_failures(self, rt):
        bad = rt.async_(_boom, tag="root")
        inner = rt.when_all([bad])
        outer = rt.when_all([inner, rt.async_(lambda: 1, tag="ok")])
        rt.flush()
        exc = outer.exception_nowait()
        assert isinstance(exc, TaskGroupError)
        # the tag names the task whose body raised, not the barrier
        assert exc.tags == ("root",)

    def test_short_circuits_keep_the_root_tag(self, rt):
        root = rt.async_(_boom, tag="root")
        chain_end = rt.continuation(root, lambda _f: None, tag="chain_end")
        after = rt.async_(lambda: None, tag="after", depends=(root,))
        gate = rt.when_all([chain_end, after])
        rt.flush()
        assert chain_end.failed_tag == after.failed_tag == "root"
        # one root failure reaching the barrier twice is recorded once
        assert gate.exception_nowait().tags == ("root",)

    def test_wait_all_names_the_root_tag(self, rt):
        root = rt.async_(_boom, tag="root")
        ends = [rt.continuation(root, lambda _f: None, tag=f"end{i}")
                for i in range(2)]
        with pytest.raises(TaskGroupError) as info:
            rt.wait_all(ends)
        assert info.value.tags == ("root",)

    def test_dataflow_short_circuits(self, rt):
        ran = []
        bad = rt.async_(_boom, tag="bad")
        f = rt.dataflow(lambda futs: ran.append("nope"), [bad])
        rt.flush()
        assert ran == []
        assert isinstance(f.exception_nowait(), TaskGroupError)

    def test_multiple_failures_collected(self, rt):
        futs = [rt.async_(_boom, tag=f"p{i}") for i in range(3)]
        gate = rt.when_all(futs)
        rt.flush()
        assert gate.exception_nowait().tags == ("p0", "p1", "p2")


class TestWaitAllRethrow:
    def test_single_failure_raises_original(self, rt):
        fs = [rt.async_(lambda: 1), rt.async_(_boom, tag="bad")]
        with pytest.raises(Boom):
            rt.wait_all(fs)

    def test_multiple_failures_raise_group(self, rt):
        fs = [rt.async_(_boom, tag=f"p{i}") for i in range(2)]
        with pytest.raises(TaskGroupError) as ei:
            rt.wait_all(fs)
        assert ei.value.tags == ("p0", "p1")

    def test_rethrow_false_swallows(self, rt):
        fs = [rt.async_(_boom)]
        rt.wait_all(fs, rethrow=False)
        assert fs[0].has_exception()


class TestRuntimeMisuseEscapes:
    def test_amt_error_from_body_is_not_captured(self, rt):
        # spawning tasks while the pool is draining is a programming error,
        # not a task failure: it must escape, not land on the future
        def spawn_inside():
            rt.async_(lambda: 1)

        rt.async_(spawn_inside)
        with pytest.raises(AmtError):
            rt.flush()


class TestTaskGroupErrorApi:
    def test_collect_dedupes_same_root(self):
        exc = Boom("once")
        group = TaskGroupError.collect([("t", exc), ("t", exc)])
        assert len(group.failures) == 1

    def test_common_cause_homogeneous(self):
        exc = Boom("same")
        group = TaskGroupError.collect([("a", exc), ("b", exc)])
        assert group.common_cause(RuntimeError) is exc

    def test_common_cause_heterogeneous_is_none(self):
        group = TaskGroupError.collect(
            [("a", Boom("x")), ("b", ValueError("y"))]
        )
        assert group.common_cause(Exception) is None

    def test_empty_failures_rejected(self):
        with pytest.raises(ValueError):
            TaskGroupError([])

    def test_failure_str_names_tag_and_type(self):
        f = TaskFailure("eos[0:64]", Boom("bad state"))
        assert "eos[0:64]" in str(f)
        assert "Boom" in str(f)
