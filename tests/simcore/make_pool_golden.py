"""Exact outputs of the pool DES on seeded random graphs, and their regeneration.

Each case runs two graphs ("flushes") through one :class:`SimWorkerPool`,
for every combination of seed, scheduler policy and worker count.  Worker
counts 25 and 48 put two workers on a core (speed < 1), so every scaled
charge is rounded; odd seeds use a cost model of odd constants so the
rounding differs from the default model's; the spawning worker is not
always worker 0; and tasks carry mixed priorities and per-task spawn
costs.  ``test_pool_golden.py`` replays every case and requires the
recorded makespans, spawn totals, per-worker trace fields and spans bit for
bit.

Regenerate ``pool_golden.json`` only when a change is meant to alter
simulated results::

    PYTHONPATH=src python -m tests.simcore.make_pool_golden
"""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path

from repro.simcore.costmodel import CostModel
from repro.simcore.machine import MachineConfig
from repro.simcore.policy import SchedulerPolicy
from repro.simcore.pool import SimWorkerPool
from repro.simcore.trace import WorkerTrace
from tests.property.test_pool_props import build

GOLDEN_PATH = Path(__file__).resolve().parent / "pool_golden.json"

POLICIES = {
    "hpx_default": SchedulerPolicy.hpx_default(),
    "steal_half": SchedulerPolicy(steal_half=True),
    "local_fifo": SchedulerPolicy(local_order="fifo"),
    "steal_lifo": SchedulerPolicy(steal_order="lifo"),
    "priorities": SchedulerPolicy(use_priorities=True),
}
WORKERS = (1, 2, 7, 24, 25, 48)
SEEDS = (0, 1)
COST_MODELS = (
    CostModel(),
    CostModel(
        task_spawn_ns=977,
        task_schedule_ns=313,
        task_complete_ns=151,
        steal_attempt_ns=37,
        steal_success_ns=419,
        barrier_join_ns=23,
    ),
)
FLUSHES = 2
WORKER_FIELDS = [
    f.name for f in dataclasses.fields(WorkerTrace) if f.name != "worker"
]


def case_keys() -> list[str]:
    return [
        f"seed={seed} policy={policy} workers={workers}"
        for seed in SEEDS
        for policy in POLICIES
        for workers in WORKERS
    ]


def _graph(rng: random.Random):
    """A random DAG in ``build``'s format, with priorities and spawn costs."""
    n = rng.randint(16, 40)
    dag = []
    for i in range(n):
        k = rng.choice((0, 0, 1, 2, 3)) if i else 0
        dag.append((rng.randint(0, 10_000), {rng.randrange(i) for _ in range(k)}))
    tasks = build(dag)
    for task in tasks:
        task.priority = rng.choice((0, 0, 1, 2))
        task.spawn_ns = rng.choice((None, None, rng.randint(0, 3000)))
    return tasks


def run_case(key: str) -> list[dict]:
    """Simulate case *key*; one record per flush."""
    fields = dict(part.split("=") for part in key.split())
    seed, workers = int(fields["seed"]), int(fields["workers"])
    rng = random.Random(seed)
    pool = SimWorkerPool(
        MachineConfig(),
        COST_MODELS[seed % len(COST_MODELS)],
        workers,
        record_spans=True,
        policy=POLICIES[fields["policy"]],
    )
    spawn_worker = (5 * seed + 1) % workers
    records = []
    for _ in range(FLUSHES):
        res = pool.run(_graph(rng), spawn_worker=spawn_worker)
        records.append({
            "makespan_ns": res.makespan_ns,
            "spawn_total_ns": res.spawn_total_ns,
            "n_tasks": res.n_tasks,
            "workers": [
                [getattr(w, name) for name in WORKER_FIELDS]
                for w in res.trace.workers
            ],
            "spans": [
                [s.worker, s.task_id, s.tag, s.start_ns, s.end_ns,
                 list(s.parents), s.cycle]
                for s in res.trace.spans
            ],
        })
    return records


def write_golden() -> None:
    lines = [
        f"  {json.dumps(key)}: {json.dumps(run_case(key), separators=(',', ':'))}"
        for key in case_keys()
    ]
    header = json.dumps({"worker_fields": WORKER_FIELDS})[1:-1]
    GOLDEN_PATH.write_text(
        "{\n  " + header + ",\n  \"cases\": {\n"
        + ",\n".join(lines) + "\n  }\n}\n"
    )
    print(f"wrote {len(lines)} cases to {GOLDEN_PATH.name}")


if __name__ == "__main__":
    write_golden()
