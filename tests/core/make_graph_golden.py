"""Exact graph structure of the three LULESH orchestrations, and its regeneration.

Every HPX case captures one iteration graph of :class:`HpxLuleshProgram`
for one ladder rung or knob setting on one problem shape, and records each
task in creation order: its tag (the fault injector matches on it), its
``cost_ns``, its priority, its spec and the creation indices of its
parents, plus the flush boundaries (tasks per captured segment) and the
simulated time.  The naive cases record each loop-chunk task's tag and
``cost_ns`` and the flush count; the OpenMP cases record every loop's
parallel-region name, item count, per-item rate and whether it carries a
body (execute mode), plus the simulated time.  ``test_graph_golden.py``
rebuilds every case and requires the recorded values exactly.

Idempotency flags and the barrier count are deliberately not recorded.

Regenerate ``graph_golden.json`` only when a change is meant to alter the
graphs::

    PYTHONPATH=src python -m tests.core.make_graph_golden
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

from repro.amt.runtime import AmtRuntime
from repro.core.hpx_lulesh import HpxLuleshProgram, HpxVariant
from repro.core.kernel_graph import ProblemShape
from repro.core.naive_hpx import naive_iteration
from repro.core.omp_lulesh import OmpLuleshProgram
from repro.core.partitioning import table1_partition_sizes
from repro.lulesh.costs import DEFAULT_COSTS
from repro.lulesh.domain import Domain
from repro.lulesh.options import LuleshOptions
from repro.openmp.runtime import OmpRuntime
from repro.simcore.costmodel import CostModel
from repro.simcore.machine import MachineConfig

GOLDEN_PATH = Path(__file__).resolve().parent / "graph_golden.json"

#: name -> (nx, numReg, partition size or None for Table I, workers).
#: P=16 leaves a short last partition on every phase of the 5^3 mesh.
SHAPES = {
    "nx5-reg3-p16": (5, 3, 16, 4),
    "nx8-reg11-table1": (8, 11, None, 24),
}

#: name -> (variant, balanced_partitions).
HPX_CASES = {
    "fig5": (HpxVariant.fig5(), False),
    "fig6": (HpxVariant.fig6(), False),
    "fig7": (HpxVariant.fig7(), False),
    "full": (HpxVariant.full(), False),
    "full+priorities": (HpxVariant(prioritize_expensive_regions=True), False),
    "full+global-temporaries": (HpxVariant(task_local_temporaries=False), False),
    "full+balanced": (HpxVariant.full(), True),
    "chains-uncombined-parallel": (HpxVariant(combine_loops=False), False),
}


def case_keys() -> list[str]:
    keys = [
        f"hpx {case} {shape}" for shape in SHAPES for case in HPX_CASES
    ]
    keys += [f"naive {shape}" for shape in SHAPES]
    keys += [f"omp {shape}" for shape in SHAPES]
    return keys


def _shape(name: str):
    nx, num_reg, p, workers = SHAPES[name]
    opts = LuleshOptions(nx=nx, numReg=num_reg)
    pn, pe = (p, p) if p is not None else table1_partition_sizes(nx)
    return opts, ProblemShape.from_options(opts), pn, pe, workers


def _spec(spec):
    return list(spec) if isinstance(spec, tuple) else spec


def _capture(rt: AmtRuntime, build) -> list[list]:
    """Run *build* under graph capture; the captured segments' tasks."""
    rt.begin_capture()
    build()
    rt.flush()
    return [list(seg.tasks) for seg in rt.end_capture().segments]


def _hpx_case(case: str, shape_name: str) -> dict:
    _, shape, pn, pe, workers = _shape(shape_name)
    variant, balanced = HPX_CASES[case]
    rt = AmtRuntime(MachineConfig(), CostModel(), workers)
    program = HpxLuleshProgram(
        rt, shape, DEFAULT_COSTS, nodal_partition=pn, elements_partition=pe,
        variant=variant, balanced_partitions=balanced,
    )
    segments = _capture(rt, program.build_iteration)
    index = {id(t): i for i, t in enumerate(t for s in segments for t in s)}
    return {
        "segments": [len(s) for s in segments],
        "total_ns": rt.stats.total_ns,
        "tasks": [
            [t.tag, t.cost_ns, t.priority, _spec(t.spec),
             [index[id(p)] for p in t.parents]]
            for s in segments for t in s
        ],
    }


def _naive_case(shape_name: str) -> dict:
    _, shape, _, _, workers = _shape(shape_name)
    rt = AmtRuntime(MachineConfig(), CostModel(), workers)
    segments = _capture(
        rt, lambda: naive_iteration(rt, shape, DEFAULT_COSTS)
    )
    return {
        "flushes": len(segments),
        "total_ns": rt.stats.total_ns,
        "tasks": [[t.tag, t.cost_ns] for s in segments for t in s],
    }


class _RecordingOmp(OmpRuntime):
    """An OpenMP runtime that records every loop it is asked to run."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.loops: list[list] = []
        self._region_name = ""

    @contextmanager
    def parallel_region(self, name: str = "region"):
        self._region_name = name
        with super().parallel_region(name):
            yield

    def loop(self, n_items, body=None, work_ns_per_item=0.0, **kwargs):
        self.loops.append(
            [self._region_name, n_items, work_ns_per_item, body is not None]
        )
        super().loop(n_items, body, work_ns_per_item, **kwargs)


def _omp_case(shape_name: str) -> dict:
    opts, _, _, _, workers = _shape(shape_name)
    domain = Domain(opts)
    omp = _RecordingOmp(MachineConfig(), CostModel(), workers)
    program = OmpLuleshProgram(
        omp, ProblemShape.from_domain(domain), DEFAULT_COSTS, domain=domain
    )
    program.run(1)
    return {"total_ns": omp.stats.total_ns, "loops": omp.loops}


def run_case(key: str) -> dict:
    """Build case *key* and return its record."""
    impl, *rest = key.split()
    if impl == "hpx":
        return _hpx_case(*rest)
    if impl == "naive":
        return _naive_case(*rest)
    return _omp_case(*rest)


def write_golden() -> None:
    lines = [
        f"  {json.dumps(key)}: {json.dumps(run_case(key), separators=(',', ':'))}"
        for key in case_keys()
    ]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(lines)} cases to {GOLDEN_PATH.name}")


if __name__ == "__main__":
    write_golden()
