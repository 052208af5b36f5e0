"""``lulesh-hpx`` command line, mirroring the paper artifact's interface.

Single-run mode reproduces the artifact's flags::

    lulesh-hpx --s 45 --r 11 --i 50 --q --hpx:threads=24
    lulesh-hpx --impl omp --s 45 --i 50 --threads 24

and prints the run "in a CSV-compatible format" with the artifact's header
``size,regions,iterations,threads,runtime,result``.

Experiment mode regenerates a whole paper element::

    lulesh-hpx --experiment fig9
    lulesh-hpx --experiment fig10 --csv out.csv

Tune mode searches the knob space (:mod:`repro.tuning`) instead of using
the hand-calibrated defaults, persists what it learns, and ``--tuned``
runs consult the database before falling back to Table I::

    lulesh-hpx tune --s 45 --tune-strategy exhaustive --tuning-db db.json
    lulesh-hpx --s 45 --tuned --tuning-db db.json

Observability (:mod:`repro.obs`): ``--flight-record`` keeps a bounded ring
buffer of structured events (dumped as JSONL at exit, or automatically when
the run fails), ``--trace`` exports the run's own task schedule,
``--ranks N --trace`` exports a merged multi-rank timeline with
cross-rank-parented halo-exchange spans, and ``obs diff`` gates a run's
metrics against a stored baseline::

    lulesh-hpx --s 10 --i 2 --flight-record flight.jsonl --trace trace.json
    lulesh-hpx --s 10 --i 2 --ranks 4 --trace timeline.json
    lulesh-hpx obs baseline --baseline base.json --s 10 --i 2
    lulesh-hpx obs diff --baseline base.json --s 10 --i 2
"""

from __future__ import annotations

import argparse
import sys

from repro.core.driver import run_hpx, run_naive_hpx, run_omp
from repro.core.hpx_lulesh import HpxVariant
from repro.harness import experiments as exp
from repro.harness.report import (
    ARTIFACT_CSV_HEADER,
    records_to_csv,
    render_table,
)
from repro.lulesh.options import LuleshOptions

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the lulesh-hpx argument parser (artifact-compatible flags)."""
    parser = argparse.ArgumentParser(
        prog="lulesh-hpx",
        description=(
            "Task-based LULESH on a simulated multicore — reproduction of "
            "'Speeding-Up LULESH on HPX' (SC 2024)"
        ),
    )
    parser.add_argument(
        "mode",
        nargs="?",
        choices=("run", "tune", "obs", "campaign"),
        default="run",
        help="run (default): a single run or experiment; tune: search the "
             "knob space for this problem and persist the winner; obs: "
             "observability actions (diff/baseline); campaign: serve a "
             "parameter sweep of jobs through the cached campaign scheduler",
    )
    parser.add_argument(
        "action",
        nargs="?",
        default=None,
        help="obs-mode action: 'diff' compares a run's metrics against "
             "--baseline with tolerance bands; 'baseline' runs once and "
             "writes the --baseline file",
    )
    parser.add_argument("--s", type=int, default=30, help="problem size (mesh edge)")
    parser.add_argument("--r", type=int, default=11, help="number of regions")
    parser.add_argument("--i", type=int, default=10, help="number of iterations")
    parser.add_argument("--q", action="store_true", help="suppress verbose output")
    parser.add_argument(
        "--hpx:threads", dest="hpx_threads", type=int, default=None,
        help="number of execution threads (HPX form)",
    )
    parser.add_argument(
        "--threads", type=int, default=24, help="number of execution threads"
    )
    parser.add_argument(
        "--impl",
        choices=("hpx", "omp", "naive"),
        default="hpx",
        help="which implementation to run",
    )
    parser.add_argument(
        "--execute",
        action="store_true",
        help="run the real physics (default: timing-only simulation)",
    )
    parser.add_argument(
        "--backend",
        choices=("sim", "process"),
        default="sim",
        help="execution backend: 'sim' runs kernels on the simulated "
             "runtime's virtual workers; 'process' fires the captured task "
             "graph on real cores via shared-memory worker processes "
             "(requires --impl hpx and --execute)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for --backend process (default: 2)",
    )
    parser.add_argument(
        "--dispatch",
        choices=("wave", "dataflow"),
        default="wave",
        help="how --backend process drives its workers: 'wave' joins the "
             "pool at every schedule level; 'dataflow' streams individual "
             "tasks as their dependencies retire, with steal-on-idle "
             "rebalancing (default: wave)",
    )
    parser.add_argument(
        "--worker-timeout",
        type=float,
        default=None,
        metavar="SEC",
        help="supervision watchdog deadline for the costliest wave of "
             "--backend process; cheaper waves get a proportional share "
             "(default: 10.0)",
    )
    parser.add_argument(
        "--max-worker-respawns",
        type=int,
        default=None,
        metavar="N",
        help="total worker respawns the process backend may perform before "
             "its supervision budget is exhausted (default: 2)",
    )
    parser.add_argument(
        "--no-degrade",
        action="store_true",
        help="fail the run (exit 4) when the supervision budget is "
             "exhausted instead of degrading --backend process to the "
             "serial path",
    )
    parser.add_argument(
        "--experiment",
        choices=("fig9", "fig10", "fig11", "table1", "ablation",
                 "multinode", "scheduler", "tuning"),
        default=None,
        help="regenerate a paper element (or a future-work extension) "
             "instead of a single run",
    )
    parser.add_argument(
        "--partition-nodal",
        type=int,
        default=None,
        metavar="P",
        help="override the LagrangeNodal partition size (>=1; default: "
             "tuned value if --tuned, else the Table I policy)",
    )
    parser.add_argument(
        "--partition-elems",
        type=int,
        default=None,
        metavar="P",
        help="override the LagrangeElements partition size (>=1)",
    )
    parser.add_argument(
        "--balanced-partitions",
        action="store_true",
        help="spread each phase's remainder over all partitions instead "
             "of one short trailing task (the balanced_split tuning knob)",
    )
    parser.add_argument(
        "--replay-graph",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="capture the first cycle's task graph and re-fire it every "
             "cycle (hpx/naive runs; --no-replay-graph rebuilds each cycle)",
    )
    parser.add_argument(
        "--tuned",
        action="store_true",
        help="consult the tuning database for this machine/shape before "
             "falling back to the Table I policy (hpx runs)",
    )
    parser.add_argument(
        "--tuning-db",
        default=None,
        metavar="FILE",
        help="tuning-database path (default: "
             "$XDG_CACHE_HOME/lulesh-hpx/tuning.json)",
    )
    parser.add_argument(
        "--tune-strategy",
        choices=("exhaustive", "coordinate", "random"),
        default="coordinate",
        help="search strategy for tune mode (default: coordinate descent)",
    )
    parser.add_argument(
        "--tune-space",
        choices=("partitions", "full"),
        default="partitions",
        help="knob surface for tune mode: the Table I partition sizes "
             "only, or partitions + variant bits + scheduler policy",
    )
    parser.add_argument(
        "--tune-trials",
        type=int,
        default=64,
        metavar="N",
        help="budget: maximum trial evaluations (cache hits included)",
    )
    parser.add_argument(
        "--tune-sim-budget",
        type=float,
        default=None,
        metavar="S",
        help="budget: maximum simulated seconds spent on uncached trials",
    )
    parser.add_argument(
        "--tune-seed",
        type=int,
        default=0,
        help="seed for the random-restarts strategy's deterministic stream",
    )
    parser.add_argument(
        "--tune-restarts",
        type=int,
        default=4,
        metavar="K",
        help="random starting points for --tune-strategy random",
    )
    parser.add_argument(
        "--csv", default=None, help="write experiment records to this CSV file"
    )
    parser.add_argument(
        "--variant",
        choices=HpxVariant.NAMES,
        default="full",
        help="HPX optimization-ladder variant for single runs",
    )
    parser.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help="campaign mode: JSON sweep spec (defaults + sweep axes and/or "
             "an explicit jobs list)",
    )
    parser.add_argument(
        "--sweep",
        default=None,
        metavar="GRAMMAR",
        help="campaign mode: inline sweep grammar, ';'-separated axes of "
             "'key=v1,v2,...' (e.g. 's=10;i=2,3;variant=full,fig7'); "
             "composes with --spec (grammar jobs run after the file's)",
    )
    parser.add_argument(
        "--lanes",
        type=int,
        default=1,
        metavar="N",
        help="campaign mode: concurrent scheduler lanes (default 1, "
             "strictly deterministic job order)",
    )
    parser.add_argument(
        "--max-executors",
        type=int,
        default=4,
        metavar="N",
        help="campaign mode: bound on simultaneously-warm executor stacks "
             "(domain + runtime + captured graph per shape/knob class)",
    )
    parser.add_argument(
        "--cache-dir",
        default=".serve-cache",
        metavar="DIR",
        help="campaign mode: content-addressed result-cache directory "
             "(default .serve-cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="campaign mode: disable the result cache (every job computes)",
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SEC",
        help="campaign mode: per-attempt wall-clock deadline applied to "
             "jobs that do not set their own",
    )
    parser.add_argument(
        "--job-retries",
        type=int,
        default=None,
        metavar="N",
        help="campaign mode: transient-failure retry budget applied to "
             "jobs that do not set their own",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="N",
        help="campaign mode: submit the sweep N times (the repeated passes "
             "measure the cache hit rate; default 1)",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="also render ASCII charts for fig9/fig10 experiments",
    )
    parser.add_argument(
        "--trace",
        default=None,
        help="write a chrome://tracing JSON of the run's task schedule "
             "(with dependency flow events and utilization counter tracks) "
             "to this path; with --ranks N>1, a merged multi-rank timeline "
             "(plus a .jsonl span export) with cross-rank-parented "
             "halo-exchange spans",
    )
    parser.add_argument(
        "--ranks",
        type=int,
        default=1,
        metavar="N",
        help="simulated ranks: N>1 runs the distributed execute-mode "
             "driver (slab decomposition, real physics) instead of the "
             "single-node runtimes",
    )
    parser.add_argument(
        "--flight-record",
        nargs="?",
        const="flight.jsonl",
        default=None,
        metavar="FILE",
        help="record structured events (task spawn/steal/retire, flush, "
             "faults, retries, rollbacks, checkpoints, graph capture/"
             "replay, halo traffic) into a bounded ring buffer and dump "
             "them as JSONL to FILE (default flight.jsonl) at exit — or "
             "automatically when the run fails",
    )
    parser.add_argument(
        "--flight-capacity",
        type=int,
        default=65_536,
        metavar="N",
        help="flight-recorder ring-buffer capacity (oldest events evicted)",
    )
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="FILE",
        help="write the sampled performance counters as a time-series "
             "metrics JSONL (per-interval series, for 'obs diff' and "
             "offline analysis)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="obs mode: the stored baseline to diff against (any metric "
             "snapshot format: obs baseline, --counters JSON, --metrics "
             "JSONL, or a BENCH_*.json trajectory)",
    )
    parser.add_argument(
        "--current",
        default=None,
        metavar="FILE",
        help="obs diff: compare this snapshot instead of running the "
             "configured problem",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.05,
        metavar="F",
        help="obs diff: relative tolerance band around each baseline "
             "value (default 0.05)",
    )
    parser.add_argument(
        "--warn-only",
        action="store_true",
        help="obs diff: print regressions but exit 0 (CI soft gate)",
    )
    parser.add_argument(
        "--skip",
        action="append",
        default=None,
        metavar="PATTERN",
        help="obs diff: skip metrics matching this glob (repeatable; "
             "default skips the wall-clock */build-time* and "
             "*/replay-time* counters and the /parallel/* family)",
    )
    parser.add_argument(
        "--print-counters",
        action="append",
        default=None,
        metavar="PATH",
        help="after the run, print this performance counter's per-interval "
             "samples in hpx:print-counter style (repeatable; '*' wildcards "
             "match, e.g. '/threads{worker-thread#*}/idle-rate')",
    )
    parser.add_argument(
        "--counters",
        default=None,
        metavar="FILE",
        help="write all sampled performance counters to this JSON file",
    )
    parser.add_argument(
        "--list-counters",
        action="store_true",
        help="after the run, list every registered counter path",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print the per-kernel phase profile (count/total/mean/p50/p99/"
             "share of makespan; task-based impls only)",
    )
    parser.add_argument(
        "--critical-path",
        action="store_true",
        help="print the critical-path analysis of the recorded task graph "
             "(task-based impls only)",
    )
    parser.add_argument(
        "--save-checkpoint",
        default=None,
        help="after an --execute run, save the physics state to this .npz",
    )
    parser.add_argument(
        "--restore-checkpoint",
        default=None,
        help="before an --execute run, restore the physics state from "
             "this .npz (must match --s/--r)",
    )
    parser.add_argument(
        "--vtk",
        default=None,
        help="after an --execute run, write the final state as a legacy "
             "VTK file (view in ParaView)",
    )
    parser.add_argument(
        "--artifact-dir",
        default=None,
        help="run the artifact-evaluation flow (run-reduced.sh + "
             "generate-graphs.py equivalents) into this directory",
    )
    parser.add_argument(
        "--inject-fault",
        action="append",
        default=None,
        metavar="SPEC",
        help="inject a deterministic fault: 'target:pattern[:kind][@cycle]' "
             "with targets task/comm/field/worker and kinds raise/stall/"
             "drop/dup/nan/inf/kill/hang/garble, e.g. 'task:CalcQ*', "
             "'field:e:nan@3' or 'worker:0:kill@3' (repeatable)",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for the fault injector's deterministic choices",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=10,
        metavar="K",
        help="cycles between recovery checkpoints (with --auto-recover)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=0,
        metavar="N",
        help="bounded replay: re-run a failed idempotent task up to N times",
    )
    parser.add_argument(
        "--max-rollbacks",
        type=int,
        default=3,
        metavar="M",
        help="give up after M consecutive checkpoint rollbacks",
    )
    parser.add_argument(
        "--auto-recover",
        action="store_true",
        help="restore the last checkpoint and resume when a cycle fails "
             "(requires --execute)",
    )
    return parser


def _resilience_plan(args: argparse.Namespace):
    """Build the ResiliencePlan the resilience flags describe (or None)."""
    wants = bool(
        args.inject_fault or args.auto_recover or args.max_retries > 0
    )
    if not wants:
        return None
    if args.auto_recover and not args.execute:
        raise SystemExit("--auto-recover requires --execute (real physics)")
    from repro.resilience import (
        FaultSpecError,
        ResiliencePlan,
        parse_fault_spec,
    )

    specs = tuple(args.inject_fault or ())
    try:
        for spec in specs:  # validate eagerly: bad specs die before the run
            parse_fault_spec(spec)
    except FaultSpecError as exc:
        raise SystemExit(f"bad --inject-fault spec: {exc}")
    return ResiliencePlan(
        inject=specs,
        fault_seed=args.fault_seed,
        max_retries=args.max_retries,
        auto_recover=args.auto_recover,
        checkpoint_every=args.checkpoint_every,
        max_rollbacks=args.max_rollbacks,
    )


def _supervision_config(args: argparse.Namespace):
    """Build the SupervisionConfig the worker-supervision flags describe.

    Returns ``None`` when every flag is at its default — the backend then
    uses its built-in :class:`~repro.parallel.supervisor.SupervisionConfig`
    defaults (supervision is always on for ``--backend process``).
    """
    if args.backend != "process":
        return None
    if (
        args.worker_timeout is None
        and args.max_worker_respawns is None
        and not args.no_degrade
    ):
        return None
    from repro.parallel import SupervisionConfig

    kwargs: dict = {}
    if args.worker_timeout is not None:
        kwargs["worker_timeout_s"] = args.worker_timeout
    if args.max_worker_respawns is not None:
        kwargs["max_respawns"] = args.max_worker_respawns
    if args.no_degrade:
        kwargs["degrade"] = False
    return SupervisionConfig(**kwargs)


def _load_tuning_db(args: argparse.Namespace):
    """Open the tuning database the flags name (empty if absent)."""
    from repro.tuning import TuningDatabase, default_db_path

    return TuningDatabase.load(args.tuning_db or default_db_path())


def _validate_partition_flags(args: argparse.Namespace) -> None:
    for flag, value in (
        ("--partition-nodal", args.partition_nodal),
        ("--partition-elems", args.partition_elems),
    ):
        if value is not None and value < 1:
            raise SystemExit(f"{flag} must be >= 1, got {value}")


def _resolved_partitions(
    args: argparse.Namespace, threads: int, tuning_db
) -> tuple[int, int, str]:
    """The (nodal, elements, source) the driver resolved for this run.

    Mirrors :func:`repro.core.driver.run_hpx`'s precedence — explicit flags,
    then the tuning database, then Table I — so the verbose report can name
    where each run's partition sizes came from.
    """
    from repro.core.partitioning import table1_partition_sizes
    from repro.simcore.machine import MachineConfig

    pn, pe = table1_partition_sizes(args.s)
    source = "table1"
    if tuning_db is not None:
        tuned = tuning_db.tuned_partition_sizes(
            MachineConfig(), "hpx", args.s, args.r, threads
        )
        if tuned is not None:
            pn, pe = tuned
            source = "tuned"
    if args.partition_nodal is not None:
        pn, source = args.partition_nodal, "explicit"
    if args.partition_elems is not None:
        pe, source = args.partition_elems, "explicit"
    return pn, pe, source


def _single_run(args: argparse.Namespace) -> int:
    threads = args.hpx_threads if args.hpx_threads is not None else args.threads
    opts = LuleshOptions(
        nx=args.s, numReg=args.r,
        max_iterations=args.i if args.execute else None,
    )
    _validate_partition_flags(args)
    if (args.partition_nodal or args.partition_elems) and args.impl != "hpx":
        raise SystemExit(
            "--partition-nodal/--partition-elems apply to --impl hpx only"
        )
    tuning_db = _load_tuning_db(args) if args.tuned else None
    resilience = _resilience_plan(args)
    if args.ranks < 1:
        raise SystemExit(f"--ranks must be >= 1, got {args.ranks}")
    if args.workers is not None and args.backend != "process":
        raise SystemExit("--workers applies to --backend process only")
    if args.backend != "process":
        if args.dispatch != "wave":
            raise SystemExit("--dispatch applies to --backend process only")
        if args.worker_timeout is not None:
            raise SystemExit("--worker-timeout applies to --backend process only")
        if args.max_worker_respawns is not None:
            raise SystemExit(
                "--max-worker-respawns applies to --backend process only"
            )
        if args.no_degrade:
            raise SystemExit("--no-degrade applies to --backend process only")
    if args.backend == "process":
        if args.impl != "hpx":
            raise SystemExit("--backend process requires --impl hpx")
        if not args.execute:
            raise SystemExit(
                "--backend process runs real kernels; add --execute"
            )
        if args.ranks > 1:
            raise SystemExit(
                "--backend process supports single-rank runs only"
            )
        if args.workers is not None and args.workers < 1:
            raise SystemExit(
                f"--workers must be >= 1, got {args.workers}"
            )
        if args.worker_timeout is not None and args.worker_timeout <= 0:
            raise SystemExit(
                f"--worker-timeout must be > 0, got {args.worker_timeout}"
            )
        if args.max_worker_respawns is not None and args.max_worker_respawns < 0:
            raise SystemExit(
                f"--max-worker-respawns must be >= 0, "
                f"got {args.max_worker_respawns}"
            )
    if args.ranks > 1:
        return _distributed_run(args, opts)
    want_counters = bool(
        args.print_counters or args.counters or args.list_counters
        or args.metrics
    )
    trace_spans = args.trace is not None
    if trace_spans and args.impl not in ("hpx", "naive"):
        raise SystemExit(
            "--trace records task spans; use --impl hpx/naive (or --ranks "
            "N>1 for the distributed timeline)"
        )
    need_spans = args.profile or args.critical_path or trace_spans
    if need_spans and args.impl not in ("hpx", "naive"):
        raise SystemExit(
            "--profile/--critical-path need task spans; use --impl hpx/naive"
        )
    # The flight recorder's task_retire events read recorded spans; turn
    # recording on when it can (the omp path has no task spans to record).
    if args.flight_record is not None and args.impl in ("hpx", "naive"):
        need_spans = True
    if (args.save_checkpoint or args.restore_checkpoint) and not args.execute:
        raise SystemExit("checkpointing requires --execute (real physics)")
    if args.restore_checkpoint and (want_counters or need_spans):
        raise SystemExit(
            "performance counters/profiles are not available for restored "
            "sequential runs"
        )
    if args.restore_checkpoint:
        # Restored runs drive the sequential reference (the orchestrations
        # produce identical physics; see the equivalence tests).
        from repro.lulesh.checkpoint import restore_checkpoint
        from repro.lulesh.domain import Domain
        from repro.lulesh.reference import SequentialDriver

        domain = Domain(opts)
        restore_checkpoint(domain, args.restore_checkpoint)
        drv = SequentialDriver(domain)
        start_cycle = domain.cycle
        for _ in range(args.i):
            if domain.time >= opts.stoptime:
                break
            drv.step()
        if args.save_checkpoint:
            from repro.lulesh.checkpoint import save_checkpoint

            save_checkpoint(domain, args.save_checkpoint)
        if not args.q:
            print(f"restored at cycle {start_cycle}, advanced to "
                  f"cycle {domain.cycle} (t={domain.time:.6e})")
        print(",".join(ARTIFACT_CSV_HEADER))
        print(f"{args.s},{args.r},{domain.cycle},{threads},0.0,"
              f"{domain.origin_energy():.6e}")
        return 0
    registry = None
    if want_counters:
        from repro.perf.registry import CounterRegistry

        registry = CounterRegistry()
    flight = _make_flight_recorder(args)
    if flight is not None:
        flight.record(
            "run_begin", impl=args.impl, size=args.s, regions=args.r,
            iterations=args.i, threads=threads,
        )
    try:
        if args.impl == "hpx":
            result = run_hpx(opts, threads, args.i, execute=args.execute,
                             variant=HpxVariant.named(args.variant),
                             registry=registry,
                             nodal_partition=args.partition_nodal,
                             elements_partition=args.partition_elems,
                             balanced_partitions=args.balanced_partitions,
                             tuning=tuning_db,
                             record_spans=need_spans, resilience=resilience,
                             replay_graph=args.replay_graph,
                             flight_recorder=flight,
                             backend=args.backend,
                             backend_workers=args.workers,
                             dispatch=args.dispatch,
                             supervision=_supervision_config(args))
        elif args.impl == "naive":
            result = run_naive_hpx(opts, threads, args.i, execute=args.execute,
                                   registry=registry, record_spans=need_spans,
                                   resilience=resilience,
                                   replay_graph=args.replay_graph,
                                   flight_recorder=flight)
        else:
            result = run_omp(opts, threads, args.i, execute=args.execute,
                             registry=registry, resilience=resilience,
                             flight_recorder=flight)
    except Exception:
        # Failed runs still export whatever was observed — the post-mortem
        # (`/resilience/*` counters, the flight-recorder tail) is most
        # useful on failure.  This is the exit-code-4 path's auto-dump.
        if registry is not None:
            _emit_counters(args, registry)
        _dump_flight(args, flight)
        raise
    if args.save_checkpoint and result.domain is not None:
        from repro.lulesh.checkpoint import save_checkpoint

        save_checkpoint(result.domain, args.save_checkpoint)
        if not args.q:
            print(f"saved checkpoint to {args.save_checkpoint}")
    if args.vtk and result.domain is not None:
        from repro.lulesh.vtkout import write_vtk

        write_vtk(result.domain, args.vtk)
        if not args.q:
            print(f"wrote VTK state to {args.vtk}")
    origin_e = result.domain.origin_energy() if result.domain is not None else 0.0
    if not args.q:
        print(f"impl={args.impl} size={args.s} regions={args.r} "
              f"threads={threads} iterations={result.iterations}")
        if args.impl == "hpx":
            pn, pe, source = _resolved_partitions(args, threads, tuning_db)
            print(f"partition sizes: nodal={pn} elements={pe} [{source}]"
                  + (" balanced" if args.balanced_partitions else ""))
        if args.impl in ("hpx", "naive") and not args.replay_graph:
            print("graph replay: disabled (rebuilding every cycle)")
        if args.backend == "process":
            print(f"backend: process ({args.workers or 2} worker processes, "
                  f"shared-memory domain, {args.dispatch} dispatch)")
        print(f"simulated runtime: {result.runtime_s:.6f} s "
              f"({result.per_iteration_ns/1e6:.3f} ms/iteration)")
        print(f"worker utilization: {result.utilization:.3f}")
        if result.domain is not None:
            print(f"final origin energy: {origin_e:.6e}")
    print(",".join(ARTIFACT_CSV_HEADER))
    print(
        f"{args.s},{args.r},{result.iterations},{threads},"
        f"{result.runtime_s:.6f},{origin_e:.6e}"
    )
    if registry is not None:
        _emit_counters(args, registry)
    if flight is not None:
        flight.record(
            "run_end", time_ns=result.runtime_ns,
            iterations=result.iterations,
        )
        _dump_flight(args, flight)
    if trace_spans:
        _emit_trace(args, result, threads)
    if args.profile or args.critical_path:
        _emit_span_analyses(args, result)
    return 0


def _make_flight_recorder(args: argparse.Namespace):
    """The run's FlightRecorder, or None when ``--flight-record`` is off."""
    if args.flight_record is None:
        return None
    from repro.obs import FlightRecorder

    if args.flight_capacity < 1:
        raise SystemExit(
            f"--flight-capacity must be >= 1, got {args.flight_capacity}"
        )
    return FlightRecorder(capacity=args.flight_capacity)


def _dump_flight(args: argparse.Namespace, flight) -> None:
    if flight is None:
        return
    n = flight.dump_jsonl(args.flight_record)
    if not args.q:
        dropped = f" ({flight.n_dropped} evicted)" if flight.n_dropped else ""
        print(f"wrote {n} flight-recorder events{dropped} "
              f"to {args.flight_record}")


def _emit_trace(args: argparse.Namespace, result, threads: int) -> None:
    """Export the run's recorded task schedule as a Chrome trace."""
    from repro.harness.traceview import write_chrome_trace

    if result.trace is None:
        raise SystemExit("no task spans recorded (empty run?)")
    write_chrome_trace(
        args.trace, result.trace.spans,
        process_name=(
            f"lulesh-hpx {args.impl} s={args.s} T={threads}"
            + (f" [{HpxVariant.named(args.variant).label()}]"
               if args.impl == "hpx" else "")
        ),
        n_workers=threads,
    )
    if not args.q:
        print(f"wrote task-schedule trace ({len(result.trace.spans)} spans) "
              f"to {args.trace}")


def _jsonl_sibling(path: str) -> str:
    """`out.json` -> `out.jsonl`; anything else gets `.jsonl` appended."""
    if path.endswith(".json"):
        return path + "l"
    return path + ".jsonl"


def _distributed_run(args: argparse.Namespace, opts: LuleshOptions) -> int:
    """``--ranks N>1``: the distributed execute-mode driver, instrumented.

    With ``--trace``, every rank's compute phases and halo exchanges are
    recorded on per-rank virtual timelines (receive spans parented to the
    sending rank's span via the propagated context) and exported as one
    merged Chrome trace plus a JSONL span file; ``--flight-record`` captures
    the halo_send/halo_recv/allreduce event stream.
    """
    from repro.dist.driver import run_distributed_reference

    if args.impl != "hpx":
        raise SystemExit("--ranks N>1 supports --impl hpx only")
    unsupported = (
        args.profile or args.critical_path or args.print_counters
        or args.counters or args.list_counters or args.metrics
    )
    if unsupported:
        raise SystemExit(
            "counters/profiles are not available for --ranks N>1 runs"
        )
    tracer = None
    if args.trace is not None:
        from repro.obs import SpanTracer

        tracer = SpanTracer(n_ranks=args.ranks)
    flight = _make_flight_recorder(args)
    if flight is not None:
        flight.record(
            "run_begin", impl="dist", size=args.s, regions=args.r,
            iterations=args.i, ranks=args.ranks,
        )
    driver, summary = run_distributed_reference(
        opts, args.ranks, max_iterations=args.i,
        tracer=tracer, flight_recorder=flight,
    )
    if flight is not None:
        flight.record(
            "run_end", cycle=summary.cycles,
            total_messages=summary.total_messages,
            total_bytes=summary.total_bytes,
        )
        _dump_flight(args, flight)
    if tracer is not None:
        from repro.obs import write_span_timeline

        jsonl_path = _jsonl_sibling(args.trace)
        write_span_timeline(args.trace, jsonl_path, tracer.spans)
        if not args.q:
            print(f"wrote merged {args.ranks}-rank timeline "
                  f"({len(tracer.spans)} spans) to {args.trace} "
                  f"and {jsonl_path}")
    if not args.q:
        print(f"distributed run: ranks={summary.n_ranks} "
              f"cycles={summary.cycles} "
              f"messages={summary.total_messages} "
              f"bytes={summary.total_bytes}")
    print(",".join(ARTIFACT_CSV_HEADER))
    print(f"{args.s},{args.r},{summary.cycles},{args.ranks},0.0,"
          f"{summary.origin_energy:.6e}")
    return 0


def _tune_run(args: argparse.Namespace) -> int:
    """``lulesh-hpx tune``: search the knob space, persist the winner."""
    from repro.core.partitioning import table1_partition_sizes
    from repro.harness.report import (
        TRIAL_COLUMNS,
        render_trial_table,
        trial_records,
    )
    from repro.perf.sources import install_tuning_counters
    from repro.tuning import (
        Evaluator,
        SearchSpace,
        Tuner,
        TuningBudget,
        strategy_from_name,
    )

    threads = args.hpx_threads if args.hpx_threads is not None else args.threads
    if args.impl == "naive":
        raise SystemExit("tune mode supports --impl hpx and --impl omp only")
    opts = LuleshOptions(nx=args.s, numReg=args.r)
    if args.impl == "omp":
        space = SearchSpace.omp_baseline()
    elif args.tune_space == "full":
        space = SearchSpace.hpx_full(args.s)
    else:
        space = SearchSpace.hpx_partitions(args.s)
    db = _load_tuning_db(args)
    evaluator = Evaluator(
        opts, threads, runtime=args.impl, iterations=args.i
    )
    registry = None
    want_counters = bool(
        args.print_counters or args.counters or args.list_counters
        or args.metrics
    )
    if want_counters:
        from repro.perf.registry import CounterRegistry

        registry = CounterRegistry()
    tuner = Tuner(
        space,
        evaluator,
        strategy_from_name(
            args.tune_strategy, seed=args.tune_seed, restarts=args.tune_restarts
        ),
        TuningBudget(
            max_trials=args.tune_trials,
            max_simulated_s=args.tune_sim_budget,
        ),
        db=db,
        registry=registry,
        flight_recorder=_make_flight_recorder(args),
    )
    if registry is not None:
        install_tuning_counters(registry, evaluator.stats, db=db)
    result = tuner.tune()
    _dump_flight(args, tuner.flight_recorder)
    if not args.q:
        title = (
            f"Tuning {args.impl} s={args.s} r={args.r} threads={threads} "
            f"({args.tune_strategy}, {len(result.trials)} trials)"
        )
        print(render_trial_table(result.trials, args.i, title=title))
        print()
    print(f"winner: {result.winner.config.label()}")
    print(f"winner ms/iter: {result.winner.runtime_ns / args.i / 1e6:.3f}")
    print(f"speedup vs default: {result.speedup_vs_default:.3f}x")
    if args.impl == "hpx":
        tuned = result.tuned_partition_sizes()
        if tuned is not None:
            tn, te = table1_partition_sizes(args.s)
            print(f"partition sizes: tuned nodal={tuned[0]} elements={tuned[1]} "
                  f"(Table I: nodal={tn} elements={te})")
    if not args.q:
        print(f"trials={result.stats.trials} "
              f"cache_hits={result.stats.cache_hits} "
              f"cache_misses={result.stats.cache_misses} "
              f"simulated={result.stats.simulated_ns / 1e9:.3f}s")
        if db.path is not None:
            print(f"tuning database: {db.path} "
                  f"({db.n_entries} entries, {len(db.memo)} memoised trials)")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(records_to_csv(
                trial_records(result.trials, args.i), TRIAL_COLUMNS
            ))
        if not args.q:
            print(f"wrote {len(result.trials)} trial records to {args.csv}")
    if registry is not None:
        _emit_counters(args, registry)
    return 0


def _emit_counters(args: argparse.Namespace, registry) -> None:
    """The hpx:print-counter surface: stdout lines + JSON export."""
    import json

    if args.list_counters:
        for path in registry.paths():
            print(path)
    for pattern in args.print_counters or ():
        try:
            lines = registry.format_print_counter(pattern)
        except KeyError as exc:
            raise SystemExit(str(exc.args[0]))
        for line in lines:
            print(line)
    if args.counters:
        with open(args.counters, "w", encoding="utf-8") as fh:
            json.dump(registry.to_json_dict(), fh, indent=2)
        if not args.q:
            print(f"wrote {registry.n_intervals} counter intervals "
                  f"to {args.counters}")
    if args.metrics:
        from repro.obs import MetricStore

        n = MetricStore.from_registry(registry).dump_jsonl(args.metrics)
        if not args.q:
            print(f"wrote {n} metric series to {args.metrics}")


def _emit_span_analyses(args: argparse.Namespace, result) -> None:
    """Phase profile and critical-path report from the recorded spans."""
    if result.trace is None or result.runtime_ns <= 0:
        raise SystemExit("no task spans recorded (empty run?)")
    if args.profile:
        from repro.perf.profiler import PhaseProfile

        print(PhaseProfile.from_spans(result.trace.spans,
                                      result.runtime_ns).table())
    if args.critical_path:
        from repro.perf.critical_path import analyze_critical_path

        print(analyze_critical_path(result.trace.spans,
                                    result.runtime_ns).summary())


_EXPERIMENTS = {
    "fig9": (
        exp.fig9_experiment,
        ("size", "regions", "threads", "omp_ms_per_iter", "hpx_ms_per_iter", "speedup"),
        "Fig. 9: runtime over threads per problem size",
    ),
    "fig10": (
        exp.fig10_experiment,
        ("size", "regions", "threads", "omp_ms_per_iter", "hpx_ms_per_iter", "speedup"),
        "Fig. 10: HPX speed-up over size and regions (24 threads)",
    ),
    "fig11": (
        exp.fig11_experiment,
        ("size", "threads", "omp_utilization", "hpx_utilization"),
        "Fig. 11: productive-time ratio",
    ),
    "table1": (
        exp.table1_experiment,
        ("size", "nodal_partition", "elements_partition", "hpx_ms_per_iter"),
        "Table I: partition-size sweep",
    ),
    "ablation": (
        exp.ablation_experiment,
        ("size", "variant", "ms_per_iter", "speedup_vs_omp"),
        "Figs. 4-8: optimization ladder",
    ),
    "multinode": (
        lambda: _multinode_experiment(),
        ("network", "nodes", "mpi_ms_per_iter", "mpi_comm_frac",
         "hpx_ms_per_iter", "hpx_comm_frac", "hpx_speedup"),
        "Multi-node (§VI future work): MPI-sync vs HPX-async exchange",
    ),
    "scheduler": (
        lambda: _scheduler_experiment(),
        ("policy", "ms_per_iter", "speedup_vs_omp"),
        "Scheduler-policy ablation (beyond the paper)",
    ),
    "tuning": (
        exp.tuning_experiment,
        ("size", "trials", "cache_hits", "table1_nodal", "table1_elements",
         "tuned_nodal", "tuned_elements", "table1_ms_per_iter",
         "tuned_ms_per_iter", "speedup_vs_table1"),
        "Tuning: autotuner-discovered partition sizes vs the Table I policy",
    ),
}


def _experiment(args: argparse.Namespace) -> int:
    fn, columns, title = _EXPERIMENTS[args.experiment]
    records = fn()
    print(render_table(records, columns, title=title))
    if args.experiment == "table1":
        from repro.harness.experiments import best_partitions

        print("\nBest partition sizes found (cf. paper Table I):")
        for s, (pn, pe) in sorted(best_partitions(records).items()):
            print(f"  size {s:4d}: LagrangeNodal {pn:6d}  LagrangeElements {pe:6d}")
    if args.chart and args.experiment in ("fig9", "fig10"):
        from repro.harness.plotting import fig9_chart, fig10_chart

        print()
        if args.experiment == "fig9":
            for size in sorted({r["size"] for r in records}):
                print(fig9_chart(records, size))
                print()
        else:
            print(fig10_chart(records))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(records_to_csv(records, columns))
        if not args.q:
            print(f"\nwrote {len(records)} records to {args.csv}")
    return 0


def _multinode_experiment() -> list[dict]:
    """§VI future work: MPI-sync vs HPX-async over node counts."""
    from repro.dist.network import ClusterConfig, NetworkModel
    from repro.dist.timing import run_hpx_dist, run_mpi_dist

    opts = LuleshOptions(nx=90, numReg=11)
    records = []
    for net_name, net in (
        ("infiniband", NetworkModel()),
        ("ethernet", NetworkModel(latency_ns=30_000, bandwidth_bytes_per_ns=1.2)),
    ):
        for n in (1, 2, 3, 5, 9, 15):
            cl = ClusterConfig(n_nodes=n, network=net)
            m = run_mpi_dist(opts, cl, 24, 1)
            h = run_hpx_dist(opts, cl, 24, 1)
            records.append({
                "network": net_name,
                "nodes": n,
                "mpi_ms_per_iter": m.per_iteration_ns / 1e6,
                "mpi_comm_frac": m.comm_fraction,
                "hpx_ms_per_iter": h.per_iteration_ns / 1e6,
                "hpx_comm_frac": h.comm_fraction,
                "hpx_speedup": m.runtime_ns / h.runtime_ns,
            })
    return records


def _scheduler_experiment() -> list[dict]:
    """Scheduler-discipline ablation at s=45, 24 workers."""
    from repro.core.hpx_lulesh import HpxVariant as _HV
    from repro.simcore.policy import SchedulerPolicy

    opts = LuleshOptions(nx=45, numReg=11)
    omp = run_omp(opts, 24, 1)
    records = []
    for name, policy in (
        ("hpx-default", SchedulerPolicy.hpx_default()),
        ("fifo-local", SchedulerPolicy(local_order="fifo")),
        ("lifo-steal", SchedulerPolicy(steal_order="lifo")),
        ("steal-half", SchedulerPolicy(steal_half=True)),
        ("priorities", SchedulerPolicy(use_priorities=True)),
    ):
        res = run_hpx(
            opts, 24, 1, policy=policy,
            variant=_HV(prioritize_expensive_regions=policy.use_priorities),
        )
        records.append({
            "policy": name,
            "ms_per_iter": res.per_iteration_ns / 1e6,
            "speedup_vs_omp": omp.runtime_ns / res.runtime_ns,
        })
    return records


def _obs_snapshot(args: argparse.Namespace) -> dict[str, float]:
    """Run the configured problem and return its final metric values.

    This is ``obs diff``'s "current" side when no ``--current`` snapshot is
    given, and the payload ``obs baseline`` writes.  The simulated timing
    model is deterministic pure-integer arithmetic, so these values are
    reproducible across machines (only the wall-clock ``/graph/*-time``
    counters vary, and the diff skips those by default).
    """
    from repro.obs import MetricStore
    from repro.perf.registry import CounterRegistry

    threads = args.hpx_threads if args.hpx_threads is not None else args.threads
    opts = LuleshOptions(
        nx=args.s, numReg=args.r,
        max_iterations=args.i if args.execute else None,
    )
    registry = CounterRegistry()
    resilience = _resilience_plan(args)
    if args.impl == "hpx":
        run_hpx(opts, threads, args.i, execute=args.execute,
                variant=HpxVariant.named(args.variant), registry=registry,
                resilience=resilience, replay_graph=args.replay_graph)
    elif args.impl == "naive":
        run_naive_hpx(opts, threads, args.i, execute=args.execute,
                      registry=registry, resilience=resilience,
                      replay_graph=args.replay_graph)
    else:
        run_omp(opts, threads, args.i, execute=args.execute,
                registry=registry, resilience=resilience)
    return MetricStore.from_registry(registry).last_values()


def _obs_run(args: argparse.Namespace) -> int:
    """``lulesh-hpx obs diff|baseline``: the metric regression gate."""
    from repro.obs import (
        DEFAULT_SKIP,
        diff_metrics,
        load_metric_values,
        write_baseline,
    )

    if args.action == "baseline":
        if not args.baseline:
            raise SystemExit(
                "obs baseline requires --baseline FILE (the output path)"
            )
        values = _obs_snapshot(args)
        write_baseline(
            args.baseline, values,
            note=f"impl={args.impl} s={args.s} r={args.r} i={args.i}",
        )
        print(f"wrote baseline with {len(values)} metrics to {args.baseline}")
        return 0
    if args.action != "diff":
        raise SystemExit("obs mode requires an action: diff or baseline")
    if not args.baseline:
        raise SystemExit("obs diff requires --baseline FILE")
    baseline = load_metric_values(args.baseline)
    if args.current is not None:
        current = load_metric_values(args.current)
    else:
        current = _obs_snapshot(args)
    skip = tuple(args.skip) if args.skip else DEFAULT_SKIP
    result = diff_metrics(
        baseline, current, tolerance=args.tolerance, skip=skip
    )
    for line in result.format_table():
        print(line)
    if result.ok:
        if result.improvements and not args.q:
            print(f"note: {len(result.improvements)} metric(s) improved "
                  "beyond tolerance — consider refreshing the baseline")
        return 0
    worst = max(
        result.regressions,
        key=lambda v: v.rel_change if v.rel_change is not None else 0.0,
    )
    msg = (f"{len(result.regressions)} metric(s) regressed beyond "
           f"±{args.tolerance:.1%} (worst: {worst.path})")
    if args.warn_only:
        print(f"WARNING: {msg} (--warn-only: not failing the gate)")
        return 0
    print(f"FAIL: {msg}", file=sys.stderr)
    return EXIT_PERF_REGRESSION


def _campaign_specs(args: argparse.Namespace):
    """Expand --spec / --sweep into the campaign's job list."""
    import dataclasses

    from repro.serve import load_sweep_file, parse_sweep

    specs = []
    if args.spec:
        specs.extend(load_sweep_file(args.spec))
    if args.sweep:
        specs.extend(parse_sweep(args.sweep))
    if not specs:
        raise SystemExit("campaign mode requires --spec FILE or --sweep GRAMMAR")
    if args.job_timeout is not None or args.job_retries is not None:
        patched = []
        for spec in specs:
            overrides = {}
            if args.job_timeout is not None and spec.timeout_s is None:
                overrides["timeout_s"] = args.job_timeout
            if args.job_retries is not None and spec.max_retries == 0:
                overrides["max_retries"] = args.job_retries
            patched.append(
                dataclasses.replace(spec, **overrides) if overrides else spec
            )
        specs = patched
    return specs


def _stream_campaign_results(records, quiet: bool) -> None:
    """Print one line per job, in submit order, as each completes."""
    import time as _t

    for record in records:
        while not record.done:
            _t.sleep(0.002)
        if quiet:
            continue
        spec = record.spec
        source = "cache" if record.cached else "exec"
        runtime = ""
        if record.result is not None:
            runtime = f"  sim={record.result['runtime_ns'] / 1e6:.3f}ms"
        detail = f"  [{record.error}]" if record.error else ""
        print(
            f"{record.job_id}  {record.status:<9} {source:<5} "
            f"{spec.impl}/{spec.variant} s={spec.s} r={spec.r} i={spec.i} "
            f"t={spec.threads}{runtime}{detail}",
            flush=True,
        )


def _campaign_csv(path: str, records) -> None:
    import csv as _csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = _csv.writer(fh)
        writer.writerow(
            ("job_id", "status", "cached", "attempts", "impl", "variant",
             "s", "r", "i", "threads", "backend", "runtime_ns", "energy",
             "fingerprint")
        )
        for r in records:
            result = r.result or {}
            writer.writerow(
                (r.job_id, r.status, int(r.cached), r.attempts, r.spec.impl,
                 r.spec.variant, r.spec.s, r.spec.r, r.spec.i,
                 r.spec.threads, r.spec.backend, result.get("runtime_ns"),
                 result.get("energy"), r.fingerprint)
            )


def _campaign_run(args: argparse.Namespace) -> int:
    """``lulesh-hpx campaign``: serve a sweep through the job scheduler."""
    from repro.perf.registry import CounterRegistry
    from repro.perf.sources import install_serve_counters
    from repro.serve import CampaignScheduler, ResultCache

    if args.lanes < 1:
        raise SystemExit(f"--lanes must be >= 1, got {args.lanes}")
    if args.max_executors < 1:
        raise SystemExit(
            f"--max-executors must be >= 1, got {args.max_executors}"
        )
    if args.repeat < 1:
        raise SystemExit(f"--repeat must be >= 1, got {args.repeat}")
    specs = _campaign_specs(args)
    tuning_db = _load_tuning_db(args) if args.tuned else None
    flight = _make_flight_recorder(args)
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    scheduler = CampaignScheduler(
        cache=cache,
        lanes=args.lanes,
        max_executors=args.max_executors,
        tuning=tuning_db,
        flight_recorder=flight,
    )
    registry = CounterRegistry()
    install_serve_counters(registry, scheduler)
    all_records = []
    stats = scheduler.stats
    try:
        for pass_no in range(1, args.repeat + 1):
            hits_before = stats.cache.hits
            completed_before = stats.completed
            if not args.q and args.repeat > 1:
                print(f"--- pass {pass_no}/{args.repeat} "
                      f"({len(specs)} jobs) ---")
            records = scheduler.submit_all(specs)
            _stream_campaign_results(records, args.q)
            scheduler.drain()
            all_records.extend(records)
            pass_hits = stats.cache.hits - hits_before
            pass_done = stats.completed - completed_before
            if not args.q:
                rate = pass_hits / len(specs) if specs else 0.0
                print(f"pass {pass_no}: {pass_done}/{len(specs)} completed, "
                      f"{pass_hits} from cache ({rate:.0%})")
    finally:
        scheduler.close()
    registry.sample(stats.wall_ns)
    total = stats.cache.hits + stats.cache.misses
    hit_rate = stats.cache.hits / total if total else 0.0
    if not args.q:
        print()
        summary = [
            ("jobs submitted", str(stats.submitted)),
            ("jobs completed", str(stats.completed)),
            ("jobs failed", str(stats.failed)),
            ("jobs cancelled", str(stats.cancelled)),
            ("retries", str(stats.retried)),
            ("cache hits", str(stats.cache.hits)),
            ("cache misses", str(stats.cache.misses)),
            ("cache hit rate", f"{hit_rate:.1%}"),
            ("template reuses", str(stats.template_reuses)),
            ("executors created", str(scheduler.pool.created)),
            ("executors reused", str(scheduler.pool.reused)),
            ("wall time", f"{stats.wall_ns / 1e9:.2f}s"),
            ("throughput", f"{stats.jobs_per_sec():.1f} jobs/s"),
        ]
        print(render_table(
            [{"metric": k, "value": v} for k, v in summary],
            ("metric", "value"),
            title="campaign summary",
        ))
    _emit_counters(args, registry)
    _dump_flight(args, flight)
    if args.csv:
        _campaign_csv(args.csv, all_records)
        if not args.q:
            print(f"wrote {len(all_records)} job records to {args.csv}")
    return 0 if stats.failed == 0 else EXIT_TASK_FAILURE


#: Exit code for a run killed by a task/physics/resilience failure.
EXIT_TASK_FAILURE = 4

#: Exit code for an ``obs diff`` that found out-of-band metrics.
EXIT_PERF_REGRESSION = 5


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    A run killed by a task failure (injected fault without recovery, physics
    abort, exhausted recovery) prints the failure — naming every failed task
    tag for grouped failures — and returns :data:`EXIT_TASK_FAILURE`.
    """
    from repro.amt.errors import TaskGroupError
    from repro.lulesh.errors import LuleshError
    from repro.parallel.errors import ParallelBackendError
    from repro.resilience.errors import ResilienceError

    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except TaskGroupError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        print(f"failed task tags: {', '.join(exc.tags)}", file=sys.stderr)
        return EXIT_TASK_FAILURE
    except (LuleshError, ResilienceError, ParallelBackendError) as exc:
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_TASK_FAILURE


def _dispatch(args: argparse.Namespace) -> int:
    if args.artifact_dir is not None:
        from repro.harness.artifact import (
            analyze_artifact_csvs,
            run_artifact_evaluation,
        )

        hpx_csv, ref_csv = run_artifact_evaluation(args.artifact_dir)
        result = analyze_artifact_csvs(hpx_csv, ref_csv, charts=args.chart)
        print(result["report"])
        if not args.q:
            print(f"\nwrote {hpx_csv} and {ref_csv}")
        return 0
    if args.mode == "obs":
        return _obs_run(args)
    if args.mode == "tune":
        return _tune_run(args)
    if args.mode == "campaign":
        return _campaign_run(args)
    if args.experiment is not None:
        return _experiment(args)
    return _single_run(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
