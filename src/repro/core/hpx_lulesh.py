"""Task-based LULESH on the HPX-like runtime — the paper's contribution.

One leapfrog iteration is pre-created as a single task graph (§IV: "we
pre-create *all* tasks for one iteration of the leapfrog algorithm at
once").  The iteration is declared once, as a phase table
(:data:`_PHASES`): for each phase, its chains (tag and kernel groups), its
item domain, its partition knob and the barrier closing it, followed by
the serial BC point, the per-region chains and the final constraint
reduction.  :meth:`HpxLuleshProgram.build_iteration` walks that table and
applies the paper's four ingredients as independent rewrites of it, each
switchable for the ablation bench via :class:`HpxVariant`:

1. **Manual partitioning** (Fig. 5): every phase is split into tasks of
   ``P`` elements/nodes, ``P`` from Table I
   (:mod:`repro.core.partitioning`).  Without the next rewrite, each
   kernel is its own partitioned loop closed by a blocking ``wait_all``.
2. **Continuation chains** (``chain_kernels``, Fig. 6): a phase's kernels
   are chained per partition with ``future.then``; global ``when_all``
   barriers remain only at the seven points where dependencies cross
   partitions (element→node transitions, symmetry-plane BCs,
   face-neighbour reads in monotonic Q, region↔partition mismatches, and
   the final constraint reduction).
3. **Loop combining** (``combine_loops``, Fig. 7): each kernel group of a
   chain becomes one task — the loops stay separate *inside* the task,
   preserving LULESH's computational structure.
4. **Independent chains** (``parallel_chains``, Fig. 8): the chains of one
   phase (stress-force and hourglass-force) run concurrently, as do the
   per-region EOS chains (which are further partitioned — "the number of
   tasks in our implementation remains similar, as we use a fixed
   partitioning size", §V-A) instead of one region after another.

A fifth, beyond the paper, gives the expensive EOS regions high scheduler
priority (``prioritize_expensive_regions``).

Temporaries are task-local by default (the jemalloc/data-locality trick);
the allocator model charges the alternative global-scratch strategy with
extra allocation latency and memory-traffic penalty.

The kernels, their rates and their replay safety come from the kernel table
(:data:`repro.core.kernel_graph.KERNELS`).  Every work task carries the
:class:`~repro.core.kernel_graph.TaskSpec` its body executes, which is
what the process backend lowers the captured graph from.

The cycle lifecycle lives in two base classes shared with the other
orchestrations: :class:`LeapfrogProgram` (``TimeIncrement``, fault
injection and the stoptime loop) and :class:`GraphCycleProgram` (graph
capture, replay and invalidation, which the naive port reuses).
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, ClassVar, NamedTuple, Sequence

from repro.amt.future import Future
from repro.amt.graph import GraphStats, GraphTemplate
from repro.amt.runtime import AmtRuntime
from repro.core.kernel_graph import (
    KERNELS,
    Kernel,
    ProblemShape,
    TaskSpec,
    execute_spec,
    spec_is_idempotent,
)
from repro.core.partitioning import partition_layout
from repro.lulesh.costs import KernelCosts
from repro.lulesh.domain import Domain
from repro.lulesh.kernels.constraints import (
    reduce_time_constraints,
    time_increment,
)
from repro.simcore.allocator import AllocatorModel

__all__ = [
    "HpxVariant", "LeapfrogProgram", "GraphCycleProgram", "HpxLuleshProgram",
]


@dataclass(frozen=True)
class HpxVariant:
    """Which of the paper's optimizations are enabled (ablation knobs)."""

    chain_kernels: bool = True  # Fig. 6 (False => Fig. 5 barriers everywhere)
    combine_loops: bool = True  # Fig. 7
    parallel_chains: bool = True  # Fig. 8
    task_local_temporaries: bool = True  # jemalloc / data-locality trick
    # Beyond the paper: give the expensive EOS regions (rep >= 10) high
    # scheduler priority.  The paper leaves priorities unused (§V); the
    # scheduler-policy ablation tests whether they would have helped.
    prioritize_expensive_regions: bool = False

    #: The ladder rungs by name, as the CLI and campaign jobs spell them.
    NAMES: ClassVar[tuple[str, ...]] = ("full", "fig5", "fig6", "fig7")

    @classmethod
    def named(cls, name: str) -> "HpxVariant":
        """The ladder rung called *name* (one of :attr:`NAMES`)."""
        if name not in cls.NAMES:
            raise ValueError(
                f"variant must be one of {cls.NAMES}, got {name!r}"
            )
        return getattr(cls, name)()

    @classmethod
    def full(cls) -> "HpxVariant":
        """The paper's final implementation."""
        return cls()

    @classmethod
    def fig5(cls) -> "HpxVariant":
        """Manual partitioning only, barrier after every kernel."""
        return cls(chain_kernels=False, combine_loops=False, parallel_chains=False)

    @classmethod
    def fig6(cls) -> "HpxVariant":
        """+ continuation chains."""
        return cls(chain_kernels=True, combine_loops=False, parallel_chains=False)

    @classmethod
    def fig7(cls) -> "HpxVariant":
        """+ combined loops."""
        return cls(chain_kernels=True, combine_loops=True, parallel_chains=False)

    def label(self) -> str:
        """Human-readable rung name for ablation tables."""
        if not self.chain_kernels:
            return "partition+barriers (Fig.5)"
        if not self.combine_loops:
            return "+chains (Fig.6)"
        if not self.parallel_chains:
            return "+combined (Fig.7)"
        return "+parallel chains (Fig.8)"


def _kernels(*names: str) -> tuple[Kernel, ...]:
    return tuple(KERNELS[nm] for nm in names)


@lru_cache(maxsize=None)
def _group_names(
    group: tuple[Kernel, ...], rep: int
) -> tuple[tuple[str, ...], str]:
    """Spec names and tag label of one task's kernels (built once)."""
    return tuple(k.name for k in group), "+".join(k.label(rep) for k in group)


class _Phase(NamedTuple):
    """One partitioned phase of the iteration: a row of :data:`_PHASES`.

    ``chains`` are ``(chain tag, kernel group)`` pairs in chain order; each
    partition runs them one after another (concurrently under Fig. 8).
    ``elements`` picks the item domain (elements, else nodes), ``nodal``
    the partition knob (LagrangeNodal ``P``, else LagrangeElements ``P``),
    and ``barrier`` tags the ``when_all`` closing the phase.  ``serial_bc``
    runs the serial symmetry-plane BC after that barrier.  Without chains
    (Fig. 5) each kernel is one partitioned loop with a blocking flush, or
    each chain is when ``per_kernel`` is false.
    """

    chains: tuple[tuple[str, tuple[Kernel, ...]], ...]
    elements: bool
    nodal: bool
    barrier: str
    serial_bc: bool = False
    per_kernel: bool = True

    def unchained_loops(self) -> tuple[tuple[str, tuple[Kernel, ...]], ...]:
        """Fig. 5's loops: ``(tag, kernel group)``, each flushed."""
        if not self.per_kernel:
            return self.chains
        return tuple(("k", (k,)) for _, group in self.chains for k in group)


#: The iteration before its region chains and final reduce, in order.
_PHASES = (
    _Phase((("stress", _kernels("init_stress", "integrate_stress")),
            ("hg", _kernels("hg_control", "fb_hourglass"))),
           elements=True, nodal=True, barrier="B1:forces"),
    _Phase((("node", _kernels("zero_forces", "sum_forces", "acceleration")),),
           elements=False, nodal=True, barrier="B2:accel", serial_bc=True),
    _Phase((("velpos", _kernels("velocity", "position")),),
           elements=False, nodal=True, barrier="B4:positions"),
    _Phase((("kin", _kernels("kinematics", "strain_rates",
                             "monoq_gradients")),),
           elements=True, nodal=False, barrier="B5:gradients"),
    _Phase((("prologue", _kernels("material_prologue", "qstop_check",
                                  "update_volumes")),),
           elements=True, nodal=False, barrier="B6:prologue",
           per_kernel=False),
)
# Per region partition: monoq -> EOS(xrep), then the constraint task.
_REGION = _kernels("monoq_region", "eos")
_CONSTRAINTS = _kernels("courant", "hydro")
_CONSTRAINT_NAMES = tuple(k.name for k in _CONSTRAINTS)
_BC = KERNELS["accel_bc"]
_BC_SPEC = TaskSpec("bc", (_BC.name,))
_REDUCE_SPEC = TaskSpec("reduce")


class LeapfrogProgram:
    """The cycle prologue and run loop shared by every LULESH orchestration.

    A subclass sets ``rt`` (the runtime that may carry a fault injector)
    and ``domain`` (``None`` in timing-only mode), and implements
    :meth:`_advance`, one cycle's parallel work.
    """

    rt: object
    domain: Domain | None
    _timing_cycle = 0  # cycle counter for timing-only runs

    def _advance(self, cycle: int, injector) -> None:
        raise NotImplementedError

    def step(self) -> None:
        """Advance exactly one leapfrog cycle.

        ``TimeIncrement`` runs first (timing-only runs just count the
        cycle); the runtime's fault injector (if any) is told the upcoming
        cycle number and given its chance to corrupt state; then the
        cycle's work runs inside one workspace phase.
        """
        d = self.domain
        if d is not None:
            time_increment(d)
            phase = d.workspace.phase()
            cycle = d.cycle
        else:
            self._timing_cycle += 1
            phase = nullcontext()
            cycle = self._timing_cycle
        injector = self.rt.fault_injector
        if injector is not None:
            injector.begin_cycle(cycle)
            if d is not None:
                injector.corrupt_fields(d)
        with phase:
            self._advance(cycle, injector)

    def run(self, iterations: int) -> None:
        """Advance *iterations* cycles (or fewer if stoptime hits)."""
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        d = self.domain
        for _ in range(iterations):
            if d is not None and d.time >= d.opts.stoptime:
                break
            self.step()


class GraphCycleProgram(LeapfrogProgram):
    """A program whose cycle is one task graph, captured once and replayed.

    This is §IV's pre-created iteration graph, kept across cycles: the
    first cycle's graph is captured and later cycles re-fire it in place
    (``replay_graph``).  A subclass supplies three things:
    :meth:`_build_cycle` creates and runs one cycle's tasks and returns
    what :meth:`_finish_cycle` needs; :meth:`_graph_key` names everything
    the graph's structure depends on; :meth:`_finish_cycle` runs after
    every built or replayed cycle.
    """

    def __init__(
        self, rt: AmtRuntime, domain: Domain | None, replay_graph: bool
    ) -> None:
        self.rt = rt
        self.domain = domain
        self.replay_graph = replay_graph
        self.graph_stats = GraphStats()
        self._template: GraphTemplate | None = None
        self._template_result: object = None
        self._template_key: tuple | None = None
        self._last_cycle: int | None = None

    def _build_cycle(self) -> object:
        raise NotImplementedError

    def _graph_key(self) -> tuple:
        raise NotImplementedError

    def _finish_cycle(self, result) -> None:
        raise NotImplementedError

    def _record(self, kind: str, **detail) -> None:
        if self.rt.flight_recorder is not None:
            self.rt.flight_recorder.record(
                kind, time_ns=self.rt.stats.total_ns, **detail
            )

    def _invalidate_template(self) -> None:
        """Drop the captured graph; the next cycle rebuilds (and recaptures)."""
        if self._template is not None:
            self._template = None
            self._template_result = None
            self.graph_stats.invalidations += 1
            self._record("graph_invalidate")

    def begin_job(self) -> None:
        """Rewind per-run bookkeeping for a fresh run on a warm program.

        Campaign executors (:mod:`repro.serve`) reuse one program across
        many jobs.  A new job restarts at cycle 1, which the rollback
        detector would misread as a checkpoint rewind and drop the captured
        template — the template reuse this method exists to preserve.  The
        task bodies bind the domain *object*, so with the domain's fields
        restored in place the capture stays valid across jobs.
        ``graph_stats`` is zeroed in place (counter closures hold it); the
        template itself is deliberately kept.
        """
        self._last_cycle = None
        self._timing_cycle = 0
        self.graph_stats.reset()

    def _advance(self, cycle: int, injector) -> None:
        """Replay the captured graph, or build (and capture) this cycle's.

        A captured template is invalidated when the cycle counter is
        non-monotone (a checkpoint rollback rewound the run — the captured
        graph would replay against the wrong per-cycle bindings), when the
        fault injector plans to strike this cycle (fault draws happen at
        task *creation*, which a replay never performs, so the cycle must
        be rebuilt), or when the graph structure key changes.  Fault cycles
        are also not captured: their graphs embed spent fire closures and
        stall-inflated costs.
        """
        stats = self.graph_stats
        faulty = injector is not None and injector.plans_faults(cycle)
        if self._template is not None:
            rollback = self._last_cycle is not None and cycle <= self._last_cycle
            if rollback or faulty or self._graph_key() != self._template_key:
                self._invalidate_template()
        self._last_cycle = cycle
        if self._template is not None:
            try:
                stats.replay_ns += self.rt.replay_graph(self._template)
            except Exception:
                # A failure mid-replay leaves later segments un-rearmed;
                # the template is not safely reusable.
                self._invalidate_template()
                raise
            stats.replays += 1
            self._record("graph_replay", cycle=cycle)
            self._finish_cycle(self._template_result)
            return
        capture = self.replay_graph and not faulty
        if capture:
            self.rt.begin_capture()
        t0 = time.perf_counter_ns()
        exec0 = self.rt.real_exec_ns
        try:
            result = self._build_cycle()
        except Exception:
            if capture:
                self.rt.abort_capture()
            raise
        # Construction cost only: blocking barriers execute tasks *inside*
        # the build, so subtract pool-execution time.
        stats.build_ns += (
            time.perf_counter_ns() - t0 - (self.rt.real_exec_ns - exec0)
        )
        if capture:
            self._template = self.rt.end_capture()
            self._template_result = result
            self._template_key = self._graph_key()
            stats.captures += 1
            self._record("graph_capture", cycle=cycle,
                         n_segments=len(self._template.segments))
        self._finish_cycle(result)


class HpxLuleshProgram(GraphCycleProgram):
    """Builds and runs the per-iteration task graph."""

    def __init__(
        self,
        rt: AmtRuntime,
        shape: ProblemShape,
        costs: KernelCosts,
        nodal_partition: int,
        elements_partition: int,
        domain: Domain | None = None,
        variant: HpxVariant = HpxVariant.full(),
        allocator: AllocatorModel | None = None,
        balanced_partitions: bool = False,
        replay_graph: bool = True,
        backend: str = "sim",
        backend_workers: int | None = None,
    ) -> None:
        if allocator is None:
            allocator = AllocatorModel(
                rt.cost_model, task_local=variant.task_local_temporaries
            )
        else:
            allocator = replace(
                allocator, task_local=variant.task_local_temporaries
            )
        super().__init__(rt, domain, replay_graph)
        self.shape = shape
        self.costs = costs
        self.nodal_partition = nodal_partition
        self.elements_partition = elements_partition
        self.variant = variant
        self.allocator = allocator
        self.balanced_partitions = balanced_partitions
        # Execution backend identity ("sim" DES pool, or "process" real
        # cores via repro.parallel) and its worker count.  Part of the
        # template invalidation key: a backend switch mid-run must rebuild
        # the graph instead of replaying a schedule lowered for the other
        # backend.
        self.backend = backend
        self.backend_workers = backend_workers
        if domain is not None:
            domain.configure_workspace(variant.task_local_temporaries)

    # --- task costing ---------------------------------------------------------

    def _task_cost(
        self,
        kernels: Sequence[Kernel],
        lo: int,
        hi: int,
        reuse_items: int | None = None,
        rep: int = 0,
    ) -> int:
        """Simulated cost of running *kernels* over ``[lo, hi)`` in one task.

        ``reuse_items`` is the cache-reuse working set: the partition size
        for chained tasks (data stays resident between consecutive kernels),
        or the whole phase domain when every kernel is followed by a global
        barrier (Fig. 5 semantics — same streaming behaviour as OpenMP).
        """
        n = hi - lo
        if reuse_items is None:
            reuse_items = n
        work = 0
        for k in kernels:
            ws_rate = k.rate_ns(self.costs)
            rate = ws_rate * rep if k.per_rep else ws_rate
            penalty = self.rt.cost_model.stream_penalty(
                reuse_items, ws_rate, self.rt.n_workers
            )
            work += int(round(rate * n * penalty))
        work = self.allocator.scaled_work_ns(work)
        alloc = 0
        for k in kernels:
            if k.n_temps:
                alloc += self.allocator.charge_temporary(k.n_temps * n * 8)
        return work + alloc

    # --- chain construction ---------------------------------------------------

    def _chain(
        self,
        kernels: Sequence[Kernel],
        lo: int,
        hi: int,
        depends: Sequence[Future],
        tag: str,
        reuse_items: int | None = None,
        priority: int = 0,
        region: int = -1,
        rep: int = 0,
    ) -> Future:
        """Build one partition's task chain over *kernels*.

        With ``combine_loops`` all kernels become one task; otherwise one
        task per kernel, linked by continuations.  Every task carries the
        :class:`TaskSpec` its body executes; *region* >= 0 makes the range
        index that region's element list.
        """
        if self.variant.combine_loops:
            groups: Sequence[tuple[Kernel, ...]] = (tuple(kernels),)
        else:
            groups = [(k,) for k in kernels]
        kind = "kernels" if region < 0 else "region"
        fut: Future | None = None
        for group in groups:
            names, label = _group_names(group, rep)
            spec = TaskSpec(kind, names, lo, hi, region, rep)
            cost = self._task_cost(group, lo, hi, reuse_items=reuse_items,
                                   rep=rep)
            body = _spec_body(self.domain, spec)
            gtag = f"{tag}:{label}[{lo}:{hi}]"
            idem = spec_is_idempotent(spec)
            if fut is None:
                fut = self.rt.async_(
                    body, cost_ns=cost, tag=gtag, depends=depends,
                    priority=priority, idempotent=idem, spec=spec,
                )
            else:
                fut = self.rt.continuation(
                    fut, body, cost_ns=cost, tag=gtag,
                    priority=priority, idempotent=idem, spec=spec,
                )
        assert fut is not None
        return fut

    # --- one iteration -----------------------------------------------------------

    def build_iteration(self) -> Future:
        """Pre-create the full task graph for one leapfrog iteration.

        Walks :data:`_PHASES`, then the region chains and the final
        reduction, which is returned.  With ``chain_kernels=False`` this
        *executes* blocking barriers along the way (Fig. 5 semantics) and
        the returned future is already complete after the final flush.
        """
        dep: tuple[Future, ...] = ()
        for phase in _PHASES:
            dep = self._phase(phase, dep)
            if phase.serial_bc:
                dep = self._bc(dep)
        partials = self._regions(dep)
        return self.rt.dataflow(
            _reduce_body(self.domain, partials), partials, cost_ns=2_000,
            tag="reduce_dt", spec=_REDUCE_SPEC,
        )

    def _phase(
        self, phase: _Phase, dep: tuple[Future, ...]
    ) -> tuple[Future, ...]:
        """One phase's chains per partition, closed by its barrier.

        Returns what the next phase depends on: the barrier, or nothing
        once Fig. 5's blocking flushes have run everything.
        """
        n = self.shape.num_elem if phase.elements else self.shape.num_node
        p = self.nodal_partition if phase.nodal else self.elements_partition
        ranges = partition_layout(n, p, self.balanced_partitions)
        if not self.variant.chain_kernels:
            # Each loop streams the whole phase domain between barriers.
            for tag, group in phase.unchained_loops():
                self.rt.wait_all([
                    self._chain(group, lo, hi, (), tag, reuse_items=n)
                    for lo, hi in ranges
                ])
            return ()
        parallel = self.variant.parallel_chains
        finals: list[Future] = []
        for lo, hi in ranges:
            fut: Future | None = None
            for tag, group in phase.chains:
                deps = dep if parallel or fut is None else (fut,)
                fut = self._chain(group, lo, hi, deps, tag)
                finals.append(fut)
        return (self.rt.when_all(finals, tag=phase.barrier),)

    def _bc(self, dep: tuple[Future, ...]) -> tuple[Future, ...]:
        """The serial symmetry-plane BC (three planes, one task)."""
        fut = self.rt.async_(
            _spec_body(self.domain, _BC_SPEC),
            cost_ns=int(round(3 * _BC.rate_ns(self.costs)
                              * self.shape.num_symm_nodes)),
            tag=_BC.name, depends=dep,
            idempotent=spec_is_idempotent(_BC_SPEC), spec=_BC_SPEC,
        )
        if self.variant.chain_kernels:
            return (fut,)
        self.rt.wait_all([fut])
        return ()

    def _regions(self, dep: tuple[Future, ...]) -> list[Future]:
        """Every region's chains; returns their constraint tasks.

        Region EOS gathers cross partition boundaries (region element lists
        are scattered), so the chains wait on the whole prologue phase.
        Without the Fig.-8 insight regions run one after another (the
        reference's call order): each region's chains also wait for the
        previous region's gate, while partitions within a region still run
        in parallel.  Fig. 5 flushes after every region.
        """
        shape = self.shape
        chain = self.variant.chain_kernels
        gated = chain and not self.variant.parallel_chains
        partials: list[Future] = []
        deps = dep
        for r in range(shape.num_regions):
            futs = [
                self._region_chain(r, lo, hi, deps)
                for lo, hi in partition_layout(
                    shape.region_sizes[r], self.elements_partition,
                    self.balanced_partitions,
                )
            ]
            partials += futs
            if not chain:
                self.rt.wait_all(futs)
            elif gated:
                deps = (*dep, self.rt.when_all(futs, tag=f"region_gate[{r}]"))
        return partials

    @property
    def barriers_per_iteration(self) -> int:
        """Synchronization points of one iteration, read off the phase table.

        Chained (Figs. 6-8): every phase barrier, the serial BC and the
        final reduce (B1, B2, BC, B4, B5, B6, B7: the paper's seven), plus
        one gate per region while regions run one after another.  Fig. 5:
        one blocking flush per loop, BC and region, plus the reduce.
        """
        v = self.variant
        n_regions = self.shape.num_regions
        if v.chain_kernels:
            joins = len(_PHASES) + (0 if v.parallel_chains else n_regions)
        else:
            joins = n_regions + sum(
                len(phase.unchained_loops()) for phase in _PHASES
            )
        return joins + sum(phase.serial_bc for phase in _PHASES) + 1

    def _region_chain(
        self, r: int, lo: int, hi: int, depends: Sequence[Future]
    ) -> Future:
        """monoq -> EOS(xrep) -> constraints for one region partition."""
        rep = self.shape.region_reps[r]
        priority = (
            1
            if self.variant.prioritize_expensive_regions and rep >= 10
            else 0
        )
        fut = self._chain(_REGION, lo, hi, depends, f"region{r}",
                          priority=priority, region=r, rep=rep)
        # Constraint task returns its partial minima (consumed by reduce).
        spec = TaskSpec("constraints", _CONSTRAINT_NAMES, lo, hi, r)
        if self.domain is None:
            body = lambda _f: (1.0e20, 1.0e20)
        else:
            body = _spec_body(self.domain, spec)
        return self.rt.continuation(
            fut, body, cost_ns=self._task_cost(_CONSTRAINTS, lo, hi),
            tag=f"constraints[{r}][{lo}:{hi}]", priority=priority,
            idempotent=spec_is_idempotent(spec), spec=spec,
        )

    # --- graph capture & replay ---------------------------------------------------

    def _graph_key(self) -> tuple:
        """Everything the graph's structure depends on (invalidation key)."""
        return (
            self.variant,
            self.nodal_partition,
            self.elements_partition,
            self.balanced_partitions,
            self.shape,
            self.backend,
            self.backend_workers,
        )

    def _build_cycle(self) -> Future:
        final = self.build_iteration()
        self.rt.flush()
        return final

    def _finish_cycle(self, final: Future) -> None:
        """Re-raise the iteration's failure, if any task failed.

        A physics abort surfaces with its original type wrapped in the
        barrier's :class:`~repro.amt.errors.TaskGroupError` naming the
        failed partitions.
        """
        if not final.is_ready():
            raise RuntimeError("iteration graph did not complete")
        exc = final.exception_nowait()
        if exc is not None:
            raise exc


def _noop(*_args) -> None:
    return None


def _spec_body(domain, spec: TaskSpec) -> Callable[..., object]:
    """Task body running *spec* (called bare, or with a parent future).

    Bodies read per-cycle state (``domain.deltatime``) at execution time,
    which is what makes a captured graph replayable across cycles.
    """
    if domain is None:
        return _noop

    def fn(*_args):
        return execute_spec(domain, spec)

    return fn


def _reduce_body(domain, constraint_futs: Sequence[Future]):
    def fn(_gated) -> tuple[float, float]:
        courant = 1.0e20
        hydro = 1.0e20
        for f in constraint_futs:
            cmin, hmin = f.result_nowait()
            courant = min(courant, cmin)
            hydro = min(hydro, hmin)
        if domain is not None:
            reduce_time_constraints(domain, courant, hydro)
        return courant, hydro

    return fn
