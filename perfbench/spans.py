"""Spans recorded from outside the program, around calls into its layers.

The benchmark never edits the program to trace it.  :class:`Patches`
swaps a public function or method for a wrapper and puts the original back
afterwards; :class:`Tracer` uses it to record one :class:`Span` per call of
every target in :func:`layer_targets`.  A span's name starts with the layer
it belongs to (``lulesh``, ``core``, ``amt``, ``simcore``, ``openmp``,
``parallel``, ``serve``), so a layer's self time is the summed self time of
the spans carrying its prefix.

Spans live in memory until :meth:`Tracer.write_jsonl` writes them out at the
end of a run.  Task bodies are the one place a span per call would cost
more than the work (hundreds of thousands per sweep): the
``SimWorkerPool.run`` wrapper times every body and rolls them up into a
single child span per pool run whose duration is their summed time.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass, field

__all__ = ["Patches", "Span", "Tracer", "self_times", "layer_targets"]


class Patches:
    """Replace attributes on modules or classes, and restore them later."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make_wrapper) -> None:
        """Set ``owner.attr`` to ``make_wrapper(original)``."""
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        functools.update_wrapper(wrapper, original)
        setattr(owner, attr, wrapper)
        self._saved.append((owner, attr, original))

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


@dataclass
class Span:
    """One call into a layer: name, start, end, the span that caused it."""

    span_id: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int
    run: str
    thread: int
    phase: str
    op: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def to_json(self) -> str:
        return json.dumps(
            {
                "run": self.run,
                "id": self.span_id,
                "parent": self.parent,
                "name": self.name,
                "start_ns": self.start_ns,
                "end_ns": self.end_ns,
                "thread": self.thread,
                "phase": self.phase,
                "op": self.op,
                "attrs": self.attrs,
            },
            sort_keys=True,
        )


class Tracer:
    """Records spans for every call of :func:`layer_targets` while installed.

    ``phase`` tags spans with the part of the run they belong to (``setup``
    or ``timed``); the operation a span serves is kept per thread, because
    campaign lanes run jobs concurrently.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self.phase = "setup"
        #: Whether task bodies run real kernels (execute mode) by default;
        #: decides whether their roll-up span counts to ``lulesh`` or ``amt``.
        self.execute = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = Patches()

    # --- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_op(self, op: int | None) -> None:
        """Tag this thread's next spans with operation index *op*."""
        self._local.op = op

    def _execute_mode(self) -> bool:
        return getattr(self._local, "execute", self.execute)

    def call(self, name: str, fn, args, kwargs, attrs_from=None):
        """Run ``fn(*args, **kwargs)`` inside a span named *name*.

        ``attrs_from(result)`` may return attributes to attach to the span.
        """
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        attrs: dict = {}
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            if attrs_from is not None:
                attrs = attrs_from(result)
            return result
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self._append(span_id, parent, name, start, end, attrs)

    def _append(self, span_id, parent, name, start, end, attrs) -> None:
        self.spans.append(
            Span(
                span_id=span_id,
                parent=parent,
                name=name,
                start_ns=start,
                end_ns=end,
                run=self.run_id,
                thread=threading.get_ident(),
                phase=self.phase,
                op=getattr(self._local, "op", None),
                attrs=attrs,
            )
        )

    def rollup(self, name: str, start: int, total_ns: int, count: int) -> None:
        """Record summed child work as one span under the current span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        self._append(
            next(self._ids), parent, name, start, start + total_ns,
            {"count": count},
        )

    # --- installing --------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, attrs_from=None) -> None:
        """Record a span named *name* around every call of ``owner.attr``."""

        def make(original):
            def traced(*args, **kwargs):
                return self.call(name, original, args, kwargs, attrs_from)

            return traced

        self._patches.replace(owner, attr, make)

    def install(self) -> None:
        """Wrap every target of :func:`layer_targets`."""
        for owner, attr, name, attrs_from in layer_targets():
            self.wrap(owner, attr, name, attrs_from)
        self._install_pool_run()
        self._install_run_job()

    def uninstall(self) -> None:
        self._patches.restore()

    def _install_pool_run(self) -> None:
        """Time task bodies inside ``SimWorkerPool.run`` and roll them up."""
        from repro.simcore.pool import SimWorkerPool

        tracer = self

        def make(original):
            def traced(pool, tasks, *args, **kwargs):
                task_list = list(tasks)
                spent = [0]
                saved = []
                for task in task_list:
                    body = task.body
                    if body is not None:
                        saved.append((task, body))
                        task.body = _timed_body(body, spent)

                def run():
                    start = time.perf_counter_ns()
                    try:
                        return original(pool, task_list, *args, **kwargs)
                    finally:
                        for task, body in saved:
                            task.body = body
                        layer = "lulesh" if tracer._execute_mode() else "amt"
                        tracer.rollup(
                            f"{layer}.task_bodies", start, spent[0], len(saved)
                        )

                return tracer.call(
                    "simcore.SimWorkerPool.run", run, (), {}, _pool_attrs
                )

            return traced

        self._patches.replace(SimWorkerPool, "run", make)

    def _install_run_job(self) -> None:
        """Campaign jobs: attribute task bodies by the job's execute flag."""
        from repro.serve.executor import WarmExecutor

        tracer = self

        def make(original):
            def traced(executor, spec, *args, **kwargs):
                tracer._local.execute = bool(spec.execute)
                try:
                    return tracer.call(
                        "serve.WarmExecutor.run_job", original,
                        (executor, spec) + args, kwargs,
                    )
                finally:
                    del tracer._local.execute

            return traced

        self._patches.replace(WarmExecutor, "run_job", make)

    def write_jsonl(self, path) -> int:
        """Write every span as one JSON line; returns the span count."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(span.to_json() + "\n")
        return len(self.spans)


def _timed_body(body, spent: list[int]):
    def timed():
        start = time.perf_counter_ns()
        try:
            return body()
        finally:
            spent[0] += time.perf_counter_ns() - start

    return timed


def _pool_attrs(result) -> dict:
    workers = result.trace.workers
    return {
        "tasks": result.n_tasks,
        "steals": sum(w.steals for w in workers),
        "steal_attempts": sum(w.steal_attempts for w in workers),
    }


def _rearm_attrs(rearm_ns) -> dict:
    return {"rearm_ns": rearm_ns}


def _reply_attrs(payload) -> dict:
    """Worker-measured kernel ns in one reply (wave or streamed task)."""
    if isinstance(payload, tuple) and len(payload) == 2:
        _partials, durations = payload
        return {"busy_ns": sum(ns for _idx, ns in durations)}
    if isinstance(payload, tuple) and len(payload) == 4:
        return {"busy_ns": payload[3]}
    return {}


def layer_targets():
    """``(owner, attribute, span name, attrs_from)`` for every traced call.

    Module-level functions are patched in the namespace of the module that
    calls them, because the callers bound them by ``from ... import``.
    """
    from repro.amt.runtime import AmtRuntime
    from repro.core import driver, hpx_lulesh, naive_hpx
    from repro.core.hpx_lulesh import HpxLuleshProgram
    from repro.core.naive_hpx import NaiveHpxProgram
    from repro.core.omp_lulesh import OmpLuleshProgram
    from repro.parallel import backend, dataflow
    from repro.parallel.backend import ParallelHpxBackend
    from repro.parallel.pool import ProcessWorkerPool
    from repro.serve import scheduler
    from repro.serve.cache import ResultCache
    from repro.serve.scheduler import CampaignScheduler

    targets = [
        (driver, "run_hpx", "core.run_hpx", None),
        (driver, "run_naive_hpx", "core.run_naive_hpx", None),
        (driver, "run_omp", "openmp.run_omp", None),
        (HpxLuleshProgram, "__init__", "core.HpxLuleshProgram.__init__", None),
        (HpxLuleshProgram, "step", "core.HpxLuleshProgram.step", None),
        (NaiveHpxProgram, "__init__", "core.NaiveHpxProgram.__init__", None),
        (NaiveHpxProgram, "step", "core.NaiveHpxProgram.step", None),
        (OmpLuleshProgram, "__init__", "core.OmpLuleshProgram.__init__", None),
        (OmpLuleshProgram, "step", "openmp.OmpLuleshProgram.step", None),
        (AmtRuntime, "begin_capture", "amt.AmtRuntime.begin_capture", None),
        (AmtRuntime, "end_capture", "amt.AmtRuntime.end_capture", None),
        (AmtRuntime, "flush", "amt.AmtRuntime.flush", None),
        (AmtRuntime, "replay_graph", "amt.AmtRuntime.replay_graph", _rearm_attrs),
        (ParallelHpxBackend, "step", "parallel.ParallelHpxBackend.step", None),
        (ProcessWorkerPool, "start", "parallel.ProcessWorkerPool.start", None),
        (ProcessWorkerPool, "broadcast_plan",
         "parallel.ProcessWorkerPool.broadcast_plan", None),
        (ProcessWorkerPool, "send_wave", "parallel.ProcessWorkerPool.send_wave",
         None),
        (ProcessWorkerPool, "send_task", "parallel.ProcessWorkerPool.send_task",
         None),
        (ProcessWorkerPool, "reply_deadline",
         "parallel.ProcessWorkerPool.reply_deadline", _reply_attrs),
        (backend, "lower_template", "parallel.lower_template", None),
        (CampaignScheduler, "run_campaign",
         "serve.CampaignScheduler.run_campaign", None),
        (scheduler, "resolve_spec", "serve.resolve_spec", None),
        (ResultCache, "lookup", "serve.ResultCache.lookup", None),
        (ResultCache, "store", "serve.ResultCache.store", None),
    ]
    # Kernels the drivers call in the main process outside task bodies (a
    # span opened inside a body would be counted twice: once itself, once
    # in the bodies' roll-up).
    for module, fn in (
        (hpx_lulesh, "time_increment"),
        (naive_hpx, "time_increment"),
        (backend, "time_increment"),
        (backend, "reduce_time_constraints"),
        (backend, "execute_spec"),
        (dataflow, "reduce_time_constraints"),
        (dataflow, "execute_spec"),
    ):
        targets.append((module, fn, f"lulesh.{fn}", None))
    return targets


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the part its child spans cover."""
    own = {s.span_id: s.duration_ns for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.duration_ns
    return own
