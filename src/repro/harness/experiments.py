"""Experiment definitions for every table and figure (DESIGN.md §4).

Each function sweeps the same knobs the paper's artifact sweeps and returns
a list of flat record dicts, ready for
:func:`repro.harness.report.render_table` or CSV export.  All experiments
run in timing-only simulation mode (deterministic; physics correctness is
established separately by the execute-mode integration tests).

Scaling knobs: the paper's full runs take hours; the simulation is
iteration-linear and deterministic, so a small ``iterations`` yields the
same per-iteration numbers and speed-ups.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.driver import run_hpx, run_naive_hpx, run_omp
from repro.core.hpx_lulesh import HpxVariant
from repro.lulesh.costs import DEFAULT_COSTS, KernelCosts
from repro.lulesh.options import LuleshOptions
from repro.simcore.costmodel import CostModel
from repro.simcore.machine import MachineConfig

__all__ = [
    "PAPER_SIZES",
    "PAPER_THREADS",
    "PAPER_REGIONS",
    "fig9_experiment",
    "fig10_experiment",
    "fig11_experiment",
    "table1_experiment",
    "ablation_experiment",
    "tuning_experiment",
    "TUNING_SIZES",
    "TUNING_LADDER",
]

# The exact sweeps of the paper's evaluation (§V-A and the artifact).
PAPER_SIZES = (45, 60, 75, 90, 120, 150)
PAPER_THREADS = (1, 2, 4, 8, 16, 24, 32, 48)
PAPER_REGIONS = (11, 16, 21)


def _ctx(
    machine: MachineConfig | None, cost_model: CostModel | None
) -> tuple[MachineConfig, CostModel]:
    return machine or MachineConfig(), cost_model or CostModel()


def fig9_experiment(
    sizes: Sequence[int] = PAPER_SIZES,
    threads: Sequence[int] = PAPER_THREADS,
    iterations: int = 2,
    num_reg: int = 11,
    machine: MachineConfig | None = None,
    cost_model: CostModel | None = None,
    costs: KernelCosts = DEFAULT_COSTS,
) -> list[dict]:
    """Fig. 9: runtime over thread count for each problem size, OMP vs HPX.

    Returns one record per (size, threads, runtime) triple with
    per-iteration runtimes in milliseconds.
    """
    machine, cost_model = _ctx(machine, cost_model)
    records = []
    for s in sizes:
        opts = LuleshOptions(nx=s, numReg=num_reg)
        for t in threads:
            o = run_omp(opts, t, iterations, machine, cost_model, costs)
            h = run_hpx(opts, t, iterations, machine, cost_model, costs)
            records.append(
                {
                    "size": s,
                    "regions": num_reg,
                    "iterations": iterations,
                    "threads": t,
                    "omp_ms_per_iter": o.per_iteration_ns / 1e6,
                    "hpx_ms_per_iter": h.per_iteration_ns / 1e6,
                    "speedup": o.runtime_ns / h.runtime_ns,
                }
            )
    return records


def fig10_experiment(
    sizes: Sequence[int] = PAPER_SIZES,
    regions: Sequence[int] = PAPER_REGIONS,
    threads: int = 24,
    iterations: int = 2,
    machine: MachineConfig | None = None,
    cost_model: CostModel | None = None,
    costs: KernelCosts = DEFAULT_COSTS,
) -> list[dict]:
    """Fig. 10: HPX-vs-OpenMP speed-up over problem size and region count."""
    machine, cost_model = _ctx(machine, cost_model)
    records = []
    for s in sizes:
        for r in regions:
            opts = LuleshOptions(nx=s, numReg=r)
            o = run_omp(opts, threads, iterations, machine, cost_model, costs)
            h = run_hpx(opts, threads, iterations, machine, cost_model, costs)
            records.append(
                {
                    "size": s,
                    "regions": r,
                    "iterations": iterations,
                    "threads": threads,
                    "omp_ms_per_iter": o.per_iteration_ns / 1e6,
                    "hpx_ms_per_iter": h.per_iteration_ns / 1e6,
                    "speedup": o.runtime_ns / h.runtime_ns,
                }
            )
    return records


def fig11_experiment(
    sizes: Sequence[int] = PAPER_SIZES,
    threads: int = 24,
    iterations: int = 2,
    num_reg: int = 11,
    machine: MachineConfig | None = None,
    cost_model: CostModel | None = None,
    costs: KernelCosts = DEFAULT_COSTS,
) -> list[dict]:
    """Fig. 11: productive-time ratio of worker threads, OMP vs HPX.

    OMP: busy time inside parallel regions over thread-time (serial portions
    excluded).  HPX: 1 - idle-rate with task creation counted productive —
    both per the paper's §V-A methodology.
    """
    machine, cost_model = _ctx(machine, cost_model)
    records = []
    for s in sizes:
        opts = LuleshOptions(nx=s, numReg=num_reg)
        o = run_omp(opts, threads, iterations, machine, cost_model, costs)
        h = run_hpx(opts, threads, iterations, machine, cost_model, costs)
        records.append(
            {
                "size": s,
                "regions": num_reg,
                "iterations": iterations,
                "threads": threads,
                "omp_utilization": o.utilization,
                "hpx_utilization": h.utilization,
            }
        )
    return records


def table1_experiment(
    sizes: Sequence[int] = PAPER_SIZES,
    partitions: Sequence[int] = (128, 256, 512, 1024, 2048, 4096, 8192, 16384),
    threads: int = 24,
    iterations: int = 2,
    num_reg: int = 11,
    machine: MachineConfig | None = None,
    cost_model: CostModel | None = None,
    costs: KernelCosts = DEFAULT_COSTS,
) -> list[dict]:
    """Table I: partition-size sweep, per phase.

    For each problem size, sweeps the LagrangeNodal partition size (holding
    LagrangeElements at its best) and vice versa, and reports the optimum —
    the procedure the paper describes ("Through experimentation, we
    determined that the partitioning sizes listed in Table I are best
    suited").
    """
    machine, cost_model = _ctx(machine, cost_model)
    records = []
    for s in sizes:
        opts = LuleshOptions(nx=s, numReg=num_reg)
        for pn in partitions:
            for pe in partitions:
                h = run_hpx(
                    opts,
                    threads,
                    iterations,
                    machine,
                    cost_model,
                    costs,
                    nodal_partition=pn,
                    elements_partition=pe,
                )
                records.append(
                    {
                        "size": s,
                        "nodal_partition": pn,
                        "elements_partition": pe,
                        "threads": threads,
                        "hpx_ms_per_iter": h.per_iteration_ns / 1e6,
                    }
                )
    return records


def best_partitions(records: list[dict]) -> dict[int, tuple[int, int]]:
    """Per problem size, the (nodal, elements) partition with lowest runtime."""
    best: dict[int, tuple[float, int, int]] = {}
    for rec in records:
        s = rec["size"]
        key = (rec["hpx_ms_per_iter"], rec["nodal_partition"], rec["elements_partition"])
        if s not in best or key < best[s]:
            best[s] = key
    return {s: (v[1], v[2]) for s, v in best.items()}


# The tuner-vs-Table-I comparison (E4's shape targets): sizes where the
# paper's nodal optimum grows and the elements optimum is non-monotone.
TUNING_SIZES = (45, 60, 90)
# Ladder kept at >= 512: sub-512 partitions explode the task count (and the
# discrete-event simulation's cost) without changing the observed pattern.
TUNING_LADDER = (512, 1024, 2048, 4096, 8192, 16384)


def tuning_experiment(
    sizes: Sequence[int] = TUNING_SIZES,
    threads: int = 24,
    iterations: int = 1,
    num_reg: int = 11,
    strategy: str = "exhaustive",
    ladder: Sequence[int] = TUNING_LADDER,
    seed: int = 0,
    db=None,
    machine: MachineConfig | None = None,
    cost_model: CostModel | None = None,
    costs: KernelCosts = DEFAULT_COSTS,
) -> list[dict]:
    """Autotuner vs. the static Table I calibration, per problem size.

    For each size, runs one tuning search over the partition-size surface
    (:meth:`~repro.tuning.space.SearchSpace.hpx_partitions`) and reports
    the discovered optimum against the Table I default.  With the default
    exhaustive strategy this is the memo-cached, subsystem-driven version
    of :func:`table1_experiment`'s sweep; the tuned config can never be
    slower than Table I because the tuner's baseline trial *is* the
    Table I config.  Pass a ``TuningDatabase`` as *db* to persist winners
    and service repeats from the memo cache.
    """
    from repro.core.partitioning import table1_partition_sizes
    from repro.tuning import (
        Evaluator,
        SearchSpace,
        Tuner,
        TuningBudget,
        strategy_from_name,
    )

    machine, cost_model = _ctx(machine, cost_model)
    records = []
    for s in sizes:
        opts = LuleshOptions(nx=s, numReg=num_reg)
        space = SearchSpace.hpx_partitions(s, ladder=tuple(ladder))
        evaluator = Evaluator(
            opts, threads, runtime="hpx", iterations=iterations,
            machine=machine, cost_model=cost_model, costs=costs,
        )
        tuner = Tuner(
            space,
            evaluator,
            strategy_from_name(strategy, seed=seed),
            TuningBudget(max_trials=space.size + 2),
            db=db,
        )
        result = tuner.tune()
        tuned = result.tuned_partition_sizes()
        assert tuned is not None  # partition space always carries both knobs
        table_nodal, table_elems = table1_partition_sizes(s)
        records.append(
            {
                "size": s,
                "threads": threads,
                "strategy": strategy,
                "trials": len(result.trials),
                "cache_hits": result.stats.cache_hits,
                "table1_nodal": table_nodal,
                "table1_elements": table_elems,
                "tuned_nodal": tuned[0],
                "tuned_elements": tuned[1],
                "table1_ms_per_iter": result.baseline.runtime_ns
                / iterations / 1e6,
                "tuned_ms_per_iter": result.winner.runtime_ns
                / iterations / 1e6,
                "speedup_vs_table1": result.speedup_vs_default,
            }
        )
    return records


def ablation_experiment(
    sizes: Sequence[int] = (45, 60),
    threads: int = 24,
    iterations: int = 2,
    num_reg: int = 11,
    machine: MachineConfig | None = None,
    cost_model: CostModel | None = None,
    costs: KernelCosts = DEFAULT_COSTS,
) -> list[dict]:
    """E5: the optimization ladder of Figs. 4-8.

    Rungs: the OpenMP baseline (Fig. 4), the naive prior-work for_each port
    [16], manual partitioning with barriers (Fig. 5), continuation chains
    (Fig. 6), combined loops (Fig. 7), independent parallel chains (Fig. 8),
    plus the full variant with global (non-task-local) temporaries to isolate
    the allocator trick.
    """
    machine, cost_model = _ctx(machine, cost_model)
    records = []
    for s in sizes:
        opts = LuleshOptions(nx=s, numReg=num_reg)
        o = run_omp(opts, threads, iterations, machine, cost_model, costs)

        def add(label: str, runtime_ns: int) -> None:
            records.append(
                {
                    "size": s,
                    "threads": threads,
                    "variant": label,
                    "ms_per_iter": runtime_ns / iterations / 1e6,
                    "speedup_vs_omp": o.runtime_ns / runtime_ns,
                }
            )

        add("openmp (Fig.4)", o.runtime_ns)
        n = run_naive_hpx(opts, threads, iterations, machine, cost_model, costs)
        add("naive for_each [16]", n.runtime_ns)
        ladder = (HpxVariant.fig5(), HpxVariant.fig6(), HpxVariant.fig7(),
                  HpxVariant.full())
        for variant, label in (
            *((v, v.label()) for v in ladder),
            (
                HpxVariant(task_local_temporaries=False),
                "Fig.8 w/ global temporaries",
            ),
        ):
            h = run_hpx(
                opts, threads, iterations, machine, cost_model, costs,
                variant=variant,
            )
            add(label, h.runtime_ns)
    return records
