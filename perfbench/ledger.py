"""The per-layer ledger: turns a traced run's spans into named metrics.

Every ``*_ms`` metric without another stated base is the layer's self time
summed over the traced timed phase and divided by the operations it ran
(cycles, sweep runs or jobs), so the layer figures of one workload add up
to roughly its mean time per operation.  Set-up figures
(``parallel.pool_start_ms``, ``parallel.lower_ms``, ``core.program_ms``,
``amt.build_ms``) are means per occurrence.  A layer a workload does not
run reports 0.
"""

from __future__ import annotations

from spans import Span, self_times

__all__ = ["PER_LAYER", "layer_metrics"]

#: Every per-layer metric: name -> unit.  BENCHMARK.json lists the same.
PER_LAYER = {
    "lulesh.kernel_ms": "ms",
    "lulesh.arena_allocations": "count",
    "core.program_ms": "ms",
    "amt.build_ms": "ms",
    "amt.rearm_ms": "ms",
    "amt.body_ms": "ms",
    "amt.tasks": "count",
    "amt.replay_ratio": "ratio",
    "simcore.des_ms": "ms",
    "simcore.ns_per_task": "ns",
    "simcore.steal_attempts": "count",
    "simcore.steal_yield": "ratio",
    "openmp.des_ms": "ms",
    "parallel.busy_ms": "ms",
    "parallel.utilization": "ratio",
    "parallel.main_serial_ms": "ms",
    "parallel.overhead_ms": "ms",
    "parallel.round_trips": "count",
    "parallel.pool_start_ms": "ms",
    "parallel.lower_ms": "ms",
    "parallel.fallback_cycles": "count",
    "parallel.respawns": "count",
    "parallel.requeues": "count",
    "serve.hit_ratio": "ratio",
    "serve.lookup_ms": "ms",
    "serve.store_ms": "ms",
    "serve.executor_reuse_ratio": "ratio",
    "serve.exec_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.retries": "count",
    "serve.failed": "count",
    "trace.overhead_op_iqm_ms": "ms",
    "trace.overhead_ops_per_s": "1/s",
    "trace.overhead_frac": "ratio",
}

_MS = 1e6


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean_ms(spans: list[Span]) -> float:
    return _ratio(sum(s.duration_ns for s in spans), len(spans)) / _MS


def _build_ns(spans: list[Span]) -> list[int]:
    """Graph construction time of each capture, pool execution excluded.

    A capture window runs from ``begin_capture`` to the matching
    ``end_capture`` on the same thread; the ``flush`` spans inside it are
    the pool executing what was built (the Fig. 5 variant flushes at every
    blocking barrier), so they are subtracted.
    """
    by_thread: dict[int, list[Span]] = {}
    for s in spans:
        if s.name in (
            "amt.AmtRuntime.begin_capture",
            "amt.AmtRuntime.end_capture",
            "amt.AmtRuntime.flush",
        ):
            by_thread.setdefault(s.thread, []).append(s)
    builds = []
    for seq in by_thread.values():
        seq.sort(key=lambda s: s.start_ns)
        begin, flushed = None, 0
        for s in seq:
            if s.name == "amt.AmtRuntime.begin_capture":
                begin, flushed = s, 0
            elif begin is None:
                continue
            elif s.name == "amt.AmtRuntime.flush":
                flushed += s.duration_ns
            else:
                builds.append(s.end_ns - begin.start_ns - flushed)
                begin = None
    return builds


def _under_backend_step(span: Span, by_id: dict[int, Span]) -> bool:
    """True if *span* runs in a warm backend cycle, not a serial fallback."""
    parent = by_id.get(span.parent)
    while parent is not None:
        if parent.name == "core.HpxLuleshProgram.step":
            return False
        if parent.name == "parallel.ParallelHpxBackend.step":
            return True
        parent = by_id.get(parent.parent)
    return False


def layer_metrics(spans: list[Span], n_ops: int, stats: dict) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from *spans* and workload *stats*.

    *spans* holds the traced set-up and the traced timed phase, which ran
    *n_ops* operations.  *stats* carries what the workload read from the
    program's public stats objects (keys named like the metrics, plus
    ``workers`` for the process backend); it overrides span-derived values.
    """
    own = self_times(spans)
    by_id = {s.span_id: s for s in spans}
    timed = [s for s in spans if s.phase == "timed"]

    def named(name: str, pool: list[Span] = timed) -> list[Span]:
        return [s for s in pool if s.name == name]

    def per_op_ms(chosen) -> float:
        return _ratio(sum(own[s.span_id] for s in chosen), n_ops) / _MS

    out = {name: 0.0 for name in PER_LAYER}
    out["lulesh.kernel_ms"] = per_op_ms(s for s in timed if s.layer == "lulesh")
    out["amt.body_ms"] = per_op_ms(named("amt.task_bodies"))
    out["openmp.des_ms"] = per_op_ms(s for s in timed if s.layer == "openmp")

    pool_runs = named("simcore.SimWorkerPool.run")
    tasks = sum(s.attrs["tasks"] for s in pool_runs)
    attempts = sum(s.attrs["steal_attempts"] for s in pool_runs)
    des_ns = sum(own[s.span_id] for s in pool_runs)
    out["simcore.des_ms"] = _ratio(des_ns, n_ops) / _MS
    out["simcore.ns_per_task"] = _ratio(des_ns, tasks)
    out["simcore.steal_attempts"] = _ratio(attempts, n_ops)
    out["simcore.steal_yield"] = _ratio(
        sum(s.attrs["steals"] for s in pool_runs), attempts
    )
    out["amt.tasks"] = _ratio(tasks, n_ops)

    builds = _build_ns(spans)
    replays = named("amt.AmtRuntime.replay_graph", spans)
    programs = [
        s for s in spans if s.layer == "core" and s.name.endswith(".__init__")
    ]
    out["amt.build_ms"] = _ratio(sum(builds), len(builds)) / _MS
    out["amt.rearm_ms"] = _ratio(
        sum(s.attrs["rearm_ns"] for s in replays), len(replays)
    ) / _MS
    out["amt.replay_ratio"] = _ratio(len(replays), len(replays) + len(builds))
    out["core.program_ms"] = _ratio(
        sum(s.duration_ns for s in programs) + sum(builds), len(programs)
    ) / _MS

    steps = named("parallel.ParallelHpxBackend.step")
    if steps:
        cycles = len(steps)
        workers = stats["workers"]
        wall = sum(s.duration_ns for s in steps)
        busy = sum(
            s.attrs.get("busy_ns", 0)
            for s in named("parallel.ProcessWorkerPool.reply_deadline")
        )
        serial = sum(
            s.duration_ns
            for s in timed
            if s.layer == "lulesh" and _under_backend_step(s, by_id)
        )
        sends = named("parallel.ProcessWorkerPool.send_wave") + named(
            "parallel.ProcessWorkerPool.send_task"
        )
        out["parallel.busy_ms"] = busy / cycles / _MS
        out["parallel.utilization"] = _ratio(busy, wall * workers)
        out["parallel.main_serial_ms"] = serial / cycles / _MS
        out["parallel.overhead_ms"] = (
            (wall - busy / workers - serial) / cycles / _MS
        )
        out["parallel.round_trips"] = len(sends) / cycles
    out["parallel.pool_start_ms"] = _mean_ms(
        named("parallel.ProcessWorkerPool.start", spans)
    )
    lowerings = named("parallel.lower_template", spans)
    out["parallel.lower_ms"] = _ratio(
        sum(s.duration_ns for s in lowerings)
        + sum(
            s.duration_ns
            for s in named("parallel.ProcessWorkerPool.broadcast_plan", spans)
        ),
        len(lowerings),
    ) / _MS

    out["serve.lookup_ms"] = _mean_ms(named("serve.ResultCache.lookup"))
    out["serve.store_ms"] = _mean_ms(named("serve.ResultCache.store"))
    out["serve.exec_ms"] = _mean_ms(named("serve.WarmExecutor.run_job"))

    for name, value in stats.items():
        if name in out:
            out[name] = float(value)
    return out
