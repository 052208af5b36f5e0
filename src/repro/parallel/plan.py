"""Lower a captured :class:`~repro.amt.graph.GraphTemplate` to waves.

Workers never receive pickled closures: the captured tasks' bodies close
over the *main* process's Domain and futures, so they cannot run remotely.
Instead, every work task the HPX program creates carries the
:class:`~repro.core.kernel_graph.TaskSpec` its body executes — plain,
picklable data naming :data:`~repro.core.kernel_graph.KERNELS` entries
and a range — and the runtime marks barriers, gates and ready futures
with :data:`~repro.amt.graph.SYNC`.  This module collects those specs,
assigns every task a topological *level* from the template's dependency
edges (``SimTask.parents``), and groups the levels into
:class:`Wave`\\ s.  A wave's tasks are mutually independent by
construction, so they may run concurrently on real cores; waves execute in
order with a full join between them — strictly stronger than the DAG, so
every dependency edge of the simulated schedule is respected.  A captured
work task without a spec cannot be lowered and raises
:class:`~repro.parallel.errors.PlanLoweringError`: there is no fallback.

Execution dispatch is **by index into the spec table** (shipped to workers
once per lowering), and a worker runs a spec through
:func:`~repro.core.kernel_graph.execute_spec` — the same function the
simulated task bodies call — over the same ``[lo, hi)`` ranges, against
shared-memory field views, which is what makes the process backend
bit-identical to the single-process path.

Three task kinds never go to workers:

* ``bc`` (``apply_acceleration_bc``) — serial in the reference too; runs
  in the main process at its wave position;
* ``reduce`` (``reduce_dt``) — the constraint min-reduction; workers return
  per-partition ``(courant, hydro)`` partials and the main process folds
  them in spec order (the captured graph's fold order);
* sync tasks — barriers/gates/when-alls: pure graph structure, dropped
  (the wave join subsumes them).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.amt.graph import SYNC
from repro.core.kernel_graph import TaskSpec, execute_spec, spec_is_idempotent
from repro.parallel.errors import PlanLoweringError

__all__ = [
    "TaskSpec",
    "Wave",
    "ParallelSchedule",
    "lower_template",
    "assign_waves",
    "critical_ranks",
    "execute_spec",
    "spec_is_idempotent",
]


@dataclass(frozen=True)
class Wave:
    """One level of mutually independent tasks (spec indices)."""

    parallel: tuple[int, ...]
    serial: tuple[int, ...]


@dataclass(frozen=True)
class ParallelSchedule:
    """A template lowered to an executable wave plan.

    Besides the level-synchronous ``waves``, the schedule carries the raw
    dependency structure the dataflow dispatcher needs: ``parents[i]`` /
    ``successors[i]`` are spec-index edges (sync nodes folded through, so
    an edge means "must retire before"), and ``seg_ranges`` is the
    ``[start, end)`` spec range of each captured segment — segments are
    flush boundaries, so even dataflow dispatch joins at a segment edge.
    """

    specs: tuple[TaskSpec, ...]
    costs: tuple[int, ...] = field(repr=False, default=())
    waves: tuple[Wave, ...] = ()
    parents: tuple[tuple[int, ...], ...] = field(repr=False, default=())
    successors: tuple[tuple[int, ...], ...] = field(repr=False, default=())
    seg_ranges: tuple[tuple[int, int], ...] = ()

    @property
    def n_parallel_tasks(self) -> int:
        return sum(len(w.parallel) for w in self.waves)

    @property
    def n_waves(self) -> int:
        return len(self.waves)


def lower_template(template) -> ParallelSchedule:
    """Lower *template* to a :class:`ParallelSchedule`.

    Levels come from in-segment ``SimTask.parents`` edges (``level = 1 +
    max(parent levels)``; creation order is a valid topological order, so a
    single pass suffices).  Cross-segment dependencies need no edges:
    segments are flush boundaries and execute strictly in order.  Sync
    tasks occupy levels (keeping their children correctly ordered) but emit
    no specs; empty levels are elided.

    The same pass also flattens the edge list to spec indices for the
    dataflow dispatcher: a sync task contributes the union of its parents'
    contributions (transitively — chains of barriers/gates collapse), a
    spec task contributes itself, and ``parents[i]`` is the union over
    ``SimTask.parents`` of those contributions.
    """
    specs: list[TaskSpec] = []
    costs: list[int] = []
    waves: list[Wave] = []
    parents: list[tuple[int, ...]] = []
    seg_ranges: list[tuple[int, int]] = []
    for seg in template.segments:
        seg_start = len(specs)
        levels: dict[int, int] = {}
        contrib: dict[int, frozenset[int]] = {}
        buckets: dict[int, tuple[list[int], list[int]]] = {}
        for ti, task in enumerate(seg.tasks):
            lvl = 0
            deps: set[int] = set()
            for parent in task.parents:
                plvl = levels.get(id(parent))
                if plvl is not None:
                    lvl = max(lvl, plvl + 1)
                pc = contrib.get(id(parent))
                if pc:
                    deps |= pc
            levels[id(task)] = lvl
            spec = task.spec
            if spec is SYNC:
                contrib[id(task)] = frozenset(deps)
                continue
            if spec is None:
                raise PlanLoweringError(
                    f"captured task {task.tag!r} carries no spec"
                )
            idx = len(specs)
            contrib[id(task)] = frozenset((idx,))
            specs.append(spec)
            costs.append(seg.costs[ti])
            parents.append(tuple(sorted(deps)))
            par, ser = buckets.setdefault(lvl, ([], []))
            if spec.kind in ("bc", "reduce"):
                ser.append(idx)
            else:
                par.append(idx)
        seg_ranges.append((seg_start, len(specs)))
        for lvl in sorted(buckets):
            par, ser = buckets[lvl]
            waves.append(Wave(tuple(par), tuple(ser)))
    succ: list[list[int]] = [[] for _ in specs]
    for i, deps in enumerate(parents):
        for p in deps:
            succ[p].append(i)
    return ParallelSchedule(
        tuple(specs), tuple(costs), tuple(waves), tuple(parents),
        tuple(tuple(s) for s in succ), tuple(seg_ranges),
    )


def assign_waves(
    schedule: ParallelSchedule,
    n_workers: int,
    costs: tuple[int, ...] | None = None,
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Static per-wave worker assignment: ``result[wave][worker] -> indices``.

    Deterministic longest-processing-time greedy over per-spec costs —
    capture-time simulated costs by default, or *costs* (the backend
    passes an EMA of measured per-spec durations once every parallel spec
    has been timed at least once, so LPT packs on real behavior rather
    than the cost model's guess).
    """
    if n_workers < 1:
        raise PlanLoweringError(f"n_workers must be >= 1, got {n_workers}")
    if costs is None:
        costs = schedule.costs
    elif len(costs) != len(schedule.specs):
        raise PlanLoweringError(
            f"cost override has {len(costs)} entries for "
            f"{len(schedule.specs)} specs"
        )
    out = []
    for wave in schedule.waves:
        loads = [0] * n_workers
        buckets: list[list[int]] = [[] for _ in range(n_workers)]
        for idx in sorted(wave.parallel, key=lambda i: (-costs[i], i)):
            w = min(range(n_workers), key=lambda j: (loads[j], j))
            loads[w] += costs[idx]
            buckets[w].append(idx)
        out.append(tuple(tuple(b) for b in buckets))
    return tuple(out)


def critical_ranks(
    schedule: ParallelSchedule, costs: tuple[int, ...] | None = None
) -> tuple[int, ...]:
    """Per-spec upward rank: cost of the longest dependent chain from *i*.

    The HEFT-style priority the dataflow dispatcher orders its ready queue
    by — dispatching the spec with the longest remaining chain first keeps
    the critical path hot.  Successor edges are intra-segment and spec
    order is topological per segment, so one reverse pass suffices.
    """
    if costs is None:
        costs = schedule.costs
    n = len(schedule.specs)
    rank = [0] * n
    for i in range(n - 1, -1, -1):
        tail = max((rank[s] for s in schedule.successors[i]), default=0)
        rank[i] = costs[i] + tail
    return tuple(rank)
