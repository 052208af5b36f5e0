"""campaign-mixed: cache hits interleaved with misses on the campaign layer.

A round runs on a fresh result cache and a fresh 2-lane
:class:`~repro.serve.scheduler.CampaignScheduler`: first a cold pass over
the 54-job s=10 grid (every job computes, builds executors and stores),
then that grid again mixed with the same grid at s=12 (54 hits among 54
misses).  The seed picks the job order of every pass.  Rounds repeat until
the time is used.  One operation is one job; its service time runs from
the lane picking it up (``resolve_spec``) to its result being settled: the
cache lookup that hit, or the store after computing.  It is the CPU time
of the lane thread over that span (see ``common.Clock``); the wait from
submission to pick-up is host time.

Correctness: no job fails, and every cache hit equals, bit for bit, the
result its fingerprint computed first in the round.
"""

from __future__ import annotations

import gc
import random
import shutil
import sys
import time
from pathlib import Path

from common import CPU, Outcome, Phase, peak_rss_mb, run_phases, run_setup
from spans import Patches

IMPORTS = ("repro.serve",)
CLOCK = CPU
LANES = 2
#: One warm slot per executor key of the two grids (3 variants x 3 thread
#: counts x 2 modes x 2 sizes): every key is built once per round, so how
#: many jobs pay for an executor does not depend on the seeded job order.
MAX_EXECUTORS = 36
SIZES = (10, 12)
#: The grid of ``benchmarks/test_bench_campaign.py``: 54 jobs per size.
AXES = {
    "variant": ["full", "fig6", "fig7"],
    "threads": [8, 16, 24],
    "i": [2, 3, 4],
    "execute": [False, True],
}
SMOKE_SIZES = (4, 5)
SMOKE_AXES = {"variant": ["full"], "threads": [8], "i": [2], "execute": [False, True]}


class JobClock:
    """Per-job timestamps taken at the scheduler's public collaborators.

    Installed for the whole run, traced or not: ``job_ms`` needs them.
    Jobs are told apart by their spec object (unique within a pass), and a
    resolved document is tied back to its spec when ``resolve_spec``
    returns it.
    """

    def __init__(self) -> None:
        #: Host ns at submission and at pick-up (for the queue wait).
        self.submitted: dict[int, int] = {}
        self.picked: dict[int, int] = {}
        #: Lane-thread CPU ns at pick-up and at settlement (service time).
        self.started: dict[int, int] = {}
        self.settled: dict[int, int] = {}
        self._spec_of: dict[int, int] = {}
        self._patches = Patches()

    def reset(self) -> None:
        for table in (self.submitted, self.picked, self.started, self.settled,
                      self._spec_of):
            table.clear()

    def install(self) -> None:
        from repro.serve import scheduler
        from repro.serve.cache import ResultCache

        clock = self

        def submit(original):
            def timed(sched, spec, *args, **kwargs):
                clock.submitted[id(spec)] = time.perf_counter_ns()
                return original(sched, spec, *args, **kwargs)

            return timed

        def resolve(original):
            def timed(spec, *args, **kwargs):
                clock.picked[id(spec)] = time.perf_counter_ns()
                clock.started[id(spec)] = CLOCK.op_ns()
                resolved = original(spec, *args, **kwargs)
                clock._spec_of[id(resolved)] = id(spec)
                return resolved

            return timed

        def lookup(original):
            def timed(cache, fingerprint, resolved, *args, **kwargs):
                hit = original(cache, fingerprint, resolved, *args, **kwargs)
                if hit is not None:
                    clock._settle(resolved)
                return hit

            return timed

        def store(original):
            def timed(cache, fingerprint, resolved, *args, **kwargs):
                stored = original(cache, fingerprint, resolved, *args, **kwargs)
                clock._settle(resolved)
                return stored

            return timed

        self._patches.replace(scheduler.CampaignScheduler, "submit", submit)
        self._patches.replace(scheduler, "resolve_spec", resolve)
        self._patches.replace(ResultCache, "lookup", lookup)
        self._patches.replace(ResultCache, "store", store)

    def _settle(self, resolved) -> None:
        spec = self._spec_of.get(id(resolved))
        if spec is not None:
            self.settled[spec] = CLOCK.op_ns()

    def uninstall(self) -> None:
        self._patches.restore()


class _Round:
    """Tallies of one phase's rounds, for the ledger."""

    def __init__(self) -> None:
        self.hits = self.lookups = 0
        self.created = self.reused = 0
        self.retries = self.failed = 0
        self.queue_wait_ns: list[int] = []


def _grids(smoke: bool):
    from repro.serve import expand_sweep

    axes, sizes = (SMOKE_AXES, SMOKE_SIZES) if smoke else (AXES, SIZES)
    return [expand_sweep(axes, defaults={"s": s, "r": 11}) for s in sizes]


def _run_round(grids, seed, index, workdir, clock, phase, tally) -> None:
    from repro.serve import CampaignScheduler, ResultCache

    cold, other = grids
    rng = random.Random(seed * 1000 + index)
    passes = [list(cold), list(cold) + list(other)]
    for order in passes:
        rng.shuffle(order)
    cache_dir = workdir / f"round-{index}"
    shutil.rmtree(cache_dir, ignore_errors=True)
    first: dict[str, dict] = {}
    gc.collect()  # the last round's executors must not skew this one
    try:
        with CampaignScheduler(
            cache=ResultCache(str(cache_dir)), lanes=LANES,
            max_executors=MAX_EXECUTORS,
        ) as sched:
            for order in passes:
                clock.reset()
                t0 = CLOCK.total_ns()
                records = sched.run_campaign(order)
                phase.total_ns += CLOCK.total_ns() - t0
                for rec in records:
                    phase.attempted += 1
                    key = id(rec.spec)
                    if rec.status != "completed":
                        print(f"campaign-mixed: {rec.job_id} {rec.status}: "
                              f"{rec.error}", file=sys.stderr)
                        phase.failed += 1
                        continue
                    phase.durations_ns.append(
                        clock.settled[key] - clock.started[key]
                    )
                    tally.queue_wait_ns.append(
                        clock.picked[key] - clock.submitted[key]
                    )
                    computed = first.setdefault(rec.fingerprint, rec.result)
                    if rec.cached and rec.result != computed:
                        print(f"campaign-mixed: hit {rec.job_id} differs from "
                              "its first computation", file=sys.stderr)
                        phase.failed += 1
            stats = sched.stats
            tally.hits += stats.cache.hits
            tally.lookups += stats.cache.hits + stats.cache.misses
            tally.created += sched.pool.created
            tally.reused += sched.pool.reused
            tally.retries += stats.retried
            tally.failed += stats.failed
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def run(seed: int, seconds: float, tracer, smoke: bool, min_ops: int,
        workdir: Path) -> Outcome:
    from repro.serve import CampaignScheduler, ResultCache

    workdir = workdir / "campaign"
    clock = JobClock()
    clock.install()
    try:
        def build():
            grids = _grids(smoke)
            sched = CampaignScheduler(
                cache=ResultCache(str(workdir / "setup")), lanes=LANES,
                max_executors=MAX_EXECUTORS,
            )
            return grids, sched

        (grids, sched), setup = run_setup(
            tracer, build, lambda s: s[1].close(), CLOCK
        )
        sched.close()
        rounds = [0]
        tallies = []

        def phase(secs, ops):
            p, tally = Phase(), _Round()
            tallies.append(tally)
            deadline = time.perf_counter_ns() + int(secs * 1e9)
            while True:
                _run_round(grids, seed, rounds[0], workdir, clock, p, tally)
                rounds[0] += 1
                if time.perf_counter_ns() >= deadline and p.attempted >= ops:
                    return p

        timed, traced = run_phases(tracer, phase, seconds, min_ops)
        rss = peak_rss_mb()
    finally:
        clock.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    layer_stats = {}
    if traced is not None:
        t = tallies[-1]
        waits = t.queue_wait_ns
        layer_stats = {
            "serve.hit_ratio": t.hits / t.lookups if t.lookups else 0.0,
            "serve.executor_reuse_ratio": t.reused / (t.created + t.reused)
            if t.created + t.reused
            else 0.0,
            "serve.queue_wait_ms": sum(waits) / len(waits) / 1e6 if waits else 0.0,
            "serve.retries": t.retries,
            "serve.failed": t.failed,
        }
    return Outcome(
        setup_s=setup,
        timed=timed,
        traced=traced,
        peak_rss_mb=rss,
        layer_stats=layer_stats,
        info={
            "jobs_per_round": 2 * len(grids[0]) + len(grids[1]),
            "rounds": rounds[0],
            "lanes": LANES,
            "max_executors": MAX_EXECUTORS,
        },
    )
