"""What every workload shares: phases, set-up repeats, summaries, provenance."""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "ROOT",
    "SRC",
    "MIN_OPS",
    "SETUP_REPEATS",
    "P75_MIN_BEYOND",
    "Clock",
    "WALL",
    "CPU",
    "Phase",
    "Outcome",
    "add_src_path",
    "run_setup",
    "run_phases",
    "summarize",
    "peak_rss_mb",
    "import_seconds",
    "provenance",
]

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: ``op_p75_ms`` needs at least this many samples beyond the 75th
#: percentile, hence MIN_OPS = 4 x 10 operations per timed phase.
P75_MIN_BEYOND = 10
MIN_OPS = 4 * P75_MIN_BEYOND
#: Set-ups per untraced run; ``setup_s`` reports their median.
SETUP_REPEATS = 3


def add_src_path() -> bool:
    """Make ``import repro`` resolve to this checkout; False if it is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


@dataclass(frozen=True)
class Clock:
    """What a workload's durations are measured in.

    ``wall`` is host time.  ``cpu`` is CPU time: per operation that of the
    thread running it, per phase or set-up that of the whole process.  For
    single-threaded, CPU-bound work the two agree on an unshared host.  On
    a shared virtual machine CPU time leaves out the time the hypervisor
    gives the vCPU to another guest (steal), which no change to the program
    causes or cures.  Only the process-backend workload needs wall time:
    its cycle time depends on how the processes overlap.
    """

    kind: str

    def op_ns(self) -> int:
        if self.kind == "wall":
            return time.perf_counter_ns()
        return time.thread_time_ns()

    def total_ns(self) -> int:
        if self.kind == "wall":
            return time.perf_counter_ns()
        return time.process_time_ns()


WALL = Clock("wall")
CPU = Clock("cpu")


@dataclass
class Phase:
    """One timed phase: operations attempted, failed, and their durations.

    Durations and ``total_ns`` (the phase's length) are on the workload's
    :class:`Clock`; how long a phase runs is always decided in wall time.
    """

    attempted: int = 0
    failed: int = 0
    durations_ns: list[int] = field(default_factory=list)
    total_ns: int = 0


@dataclass
class Outcome:
    """A workload's measurements, before they become metrics.

    ``timed`` is the untraced phase the end-to-end metrics come from;
    ``traced`` (trace runs only) is the phase the per-layer ledger reads.
    ``layer_stats`` holds what the workload read from the program's public
    stats objects over the traced phase.
    """

    setup_s: list[float]
    timed: Phase
    traced: Phase | None
    peak_rss_mb: float
    layer_stats: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)

    @property
    def phases(self) -> list[Phase]:
        return [p for p in (self.timed, self.traced) if p is not None]

    @property
    def correct(self) -> bool:
        """No operation failed or gave a wrong output."""
        return not any(p.failed for p in self.phases)


def run_setup(tracer, build, close, clock: Clock):
    """Build the workload's state; returns ``(state, set-up seconds list)``.

    Untraced runs build SETUP_REPEATS times and keep the last, closing the
    others; traced runs build once with the tracer installed, so set-up
    layers (pool start, lowering, program construction) show in the spans.
    """
    repeats = SETUP_REPEATS if tracer is None else 1
    if tracer is not None:
        tracer.phase = "setup"
        tracer.install()
    try:
        state, samples = None, []
        for _ in range(repeats):
            if state is not None:
                close(state)
                state = None
            t0 = clock.total_ns()
            state = build()
            samples.append((clock.total_ns() - t0) / 1e9)
        return state, samples
    finally:
        if tracer is not None:
            tracer.uninstall()


def run_phases(tracer, run_phase, seconds: float, min_ops: int):
    """The untraced timed phase, and with a tracer a traced one after it.

    ``run_phase(seconds, min_ops)`` returns a :class:`Phase`.  A trace run
    splits its time between the two phases; the difference between them is
    the tracing overhead.
    """
    if tracer is None:
        return run_phase(seconds, min_ops), None
    half = max(1, min_ops // 2)
    untraced = run_phase(seconds / 2, half)
    tracer.phase = "timed"
    tracer.install()
    try:
        traced = run_phase(seconds / 2, half)
    finally:
        tracer.uninstall()
    return untraced, traced


def _p75(values: list[float]) -> float:
    """Nearest-rank 75th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.75 * len(ordered)) - 1)]


def _iqm(values: list[float]) -> float:
    """Interquartile mean: the mean of the middle half."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    middle = ordered[cut:len(ordered) - cut]
    return sum(middle) / len(middle)


def summarize(phase: Phase) -> dict:
    """IQM, median and p75 ms per operation, throughput, sample counts."""
    ms = [d / 1e6 for d in phase.durations_ns]
    n = len(ms)
    return {
        "op_iqm_ms": _iqm(ms) if ms else 0.0,
        "op_median_ms": statistics.median(ms) if ms else 0.0,
        "op_p75_ms": _p75(ms) if ms else 0.0,
        "ops_per_s": phase.attempted / (phase.total_ns / 1e9)
        if phase.total_ns
        else 0.0,
        "samples": n,
        "p75_samples_beyond": n - max(0, math.ceil(0.75 * n)),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def import_seconds(modules: tuple[str, ...], clock: Clock,
                   repeats: int = SETUP_REPEATS) -> list[float]:
    """Seconds for a fresh interpreter to import *modules*, per repeat.

    This is the process-start share of ``setup_s``: interpreter start plus
    the imports a workload needs before its first operation, on *clock*
    (for ``cpu``, the child's CPU time).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = "import " + ", ".join(modules)
    samples = []
    read = time.perf_counter if clock.kind == "wall" else _children_cpu_s
    for _ in range(repeats):
        t0 = read()
        subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        samples.append(read() - t0)
    return samples


def provenance(workload: str, seed: int, smoke: bool, clock: Clock) -> dict:
    """Where and how the numbers were taken."""
    import numpy

    from repro.parallel.pool import pick_start_method

    return {
        "workload": workload,
        "seed": seed,
        "smoke": smoke,
        "clock": clock.kind,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "start_method": pick_start_method(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }
