"""paper-sweep: a fixed, timing-only slice of the paper's evaluation.

The slice:

* Fig. 9 thread sweep (OpenMP and HPX, 1..48 threads) at s=45 and s=90;
* Table I partition sweep at s=90: each phase's partition size over
  {256, 1024, 4096} with the other phase held at its Table I value;
* the Figs. 4-8 ablation ladder at s=45, 24 threads, including the naive
  for_each port and the global-temporaries rung.

All work is the DES (``simcore``), the runtimes (``amt``, ``openmp``) and
graph construction (``core``); no kernel runs.  One operation is one run
of one configuration; the seed picks the order of the runs.  Every run's
simulated ns, task, loop and region counts and utilization must equal the
committed ``expected_sweep.json``, keyed by configuration.

Regenerate the expected values (only when a change is meant to alter
simulated results) with ``python3 perfbench/sweep.py --write-expected``.
"""

from __future__ import annotations

import gc
import json
import random
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from common import (
    CPU,
    Outcome,
    Phase,
    add_src_path,
    peak_rss_mb,
    run_phases,
    run_setup,
)

EXPECTED_PATH = Path(__file__).resolve().parent / "expected_sweep.json"
IMPORTS = ("repro.core.driver",)
CLOCK = CPU
ITERATIONS = 2
REGIONS = 11
FIG9_SIZES = (45, 90)
FIG9_THREADS = (1, 2, 4, 8, 16, 24, 32, 48)
TABLE1_SIZE = 90
TABLE1_PARTITIONS = (256, 1024, 4096)
LADDER_SIZE = 45
LADDER_THREADS = 24
LADDER_VARIANTS = ("fig5", "fig6", "fig7", "full", "global-temps")


@dataclass(frozen=True)
class SweepRun:
    """One configuration of the slice; ``key`` names its expected values."""

    figure: str
    impl: str  # "omp" | "hpx" | "naive"
    size: int
    threads: int
    variant: str = "full"
    nodal: int | None = None
    elements: int | None = None

    @property
    def key(self) -> str:
        base = f"{self.impl} s={self.size} t={self.threads}"
        if self.impl != "hpx":
            return base
        key = f"{base} variant={self.variant}"
        if self.nodal is not None:
            key += f" P={self.nodal}/{self.elements}"
        return key


def slice_runs(smoke: bool = False) -> list[SweepRun]:
    """The slice in its canonical order (smoke: a few cheap runs of it)."""
    from repro.core.partitioning import table1_partition_sizes

    if smoke:
        return [
            SweepRun("fig9", "omp", 45, 1),
            SweepRun("fig9", "hpx", 45, 1),
            SweepRun("ablation", "hpx", LADDER_SIZE, LADDER_THREADS, "fig5"),
        ]
    runs = [
        SweepRun("fig9", impl, s, t)
        for s in FIG9_SIZES
        for t in FIG9_THREADS
        for impl in ("omp", "hpx")
    ]
    nodal, elements = table1_partition_sizes(TABLE1_SIZE)
    runs += [
        SweepRun("table1", "hpx", TABLE1_SIZE, 24, nodal=p, elements=elements)
        for p in TABLE1_PARTITIONS
    ]
    runs += [
        SweepRun("table1", "hpx", TABLE1_SIZE, 24, nodal=nodal, elements=p)
        for p in TABLE1_PARTITIONS
    ]
    runs.append(SweepRun("ablation", "omp", LADDER_SIZE, LADDER_THREADS))
    runs.append(SweepRun("ablation", "naive", LADDER_SIZE, LADDER_THREADS))
    runs += [
        SweepRun("ablation", "hpx", LADDER_SIZE, LADDER_THREADS, v)
        for v in LADDER_VARIANTS
    ]
    return runs


def execute(run: SweepRun) -> dict:
    """Run one configuration; returns its simulated outputs."""
    from repro.core import driver
    from repro.core.hpx_lulesh import HpxVariant
    from repro.lulesh.options import LuleshOptions

    opts = LuleshOptions(nx=run.size, numReg=REGIONS)
    if run.impl == "omp":
        result = driver.run_omp(opts, run.threads, ITERATIONS)
    elif run.impl == "naive":
        result = driver.run_naive_hpx(opts, run.threads, ITERATIONS)
    else:
        variant = {
            "fig5": HpxVariant.fig5,
            "fig6": HpxVariant.fig6,
            "fig7": HpxVariant.fig7,
            "full": HpxVariant.full,
            "global-temps": lambda: HpxVariant(task_local_temporaries=False),
        }[run.variant]()
        result = driver.run_hpx(
            opts, run.threads, ITERATIONS, variant=variant,
            nodal_partition=run.nodal, elements_partition=run.elements,
        )
    return {
        "runtime_ns": result.runtime_ns,
        "n_tasks": result.n_tasks,
        "n_loops": result.n_loops,
        "n_regions": result.n_regions,
        "utilization": result.utilization,
    }


def _load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)["runs"]


def _passes(runs, expected, seed, tracer, seconds, min_ops, counter) -> Phase:
    """Whole passes over the slice, each in a seeded order, until
    *seconds* have passed and at least *min_ops* runs were made."""
    phase = Phase()
    total0 = CLOCK.total_ns()
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    while True:
        order = list(runs)
        random.Random(seed * 1000 + counter[0]).shuffle(order)
        counter[0] += 1
        for run in order:
            phase.attempted += 1
            if tracer is not None:
                tracer.set_op(phase.attempted)
            # Earlier runs' task graphs are cyclic garbage; collecting it
            # here keeps a run's time and the peak RSS independent of order.
            gc.collect()
            t0 = CLOCK.op_ns()
            try:
                outputs = execute(run)
            except Exception:
                traceback.print_exc()
                phase.failed += 1
                continue
            phase.durations_ns.append(CLOCK.op_ns() - t0)
            if outputs != expected.get(run.key):
                print(f"paper-sweep: {run.key} gave {outputs}", file=sys.stderr)
                phase.failed += 1
        if time.perf_counter_ns() >= deadline and phase.attempted >= min_ops:
            break
    phase.total_ns = CLOCK.total_ns() - total0
    return phase


def run(seed: int, seconds: float, tracer, smoke: bool, min_ops: int) -> Outcome:
    def build():
        return slice_runs(smoke), _load_expected()

    (runs, expected), setup = run_setup(
        tracer, build, lambda _state: None, CLOCK
    )
    counter = [0]
    timed, traced = run_phases(
        tracer,
        lambda secs, ops: _passes(
            runs, expected, seed, tracer, secs, ops, counter
        ),
        seconds,
        # A pass is never cut short, so one pass satisfies the minimum.
        min(min_ops, len(runs)),
    )
    rss = peak_rss_mb()
    return Outcome(
        setup_s=setup,
        timed=timed,
        traced=traced,
        peak_rss_mb=rss,
        layer_stats={},
        info={"runs_per_pass": len(runs), "passes": counter[0]},
    )


def write_expected() -> None:
    runs = {}
    for r in slice_runs():
        runs[r.key] = execute(r)
    payload = {"iterations": ITERATIONS, "regions": REGIONS, "runs": runs}
    EXPECTED_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(runs)} configurations to {EXPECTED_PATH.name}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-expected"]:
        sys.exit("usage: python3 perfbench/sweep.py --write-expected")
    if not add_src_path():
        sys.exit("perfbench: no src/repro next to perfbench/")
    write_expected()
