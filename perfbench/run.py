"""The benchmark of record: four workloads, end-to-end metrics, traced ledger.

Run one workload (the form the metrics contract uses)::

    python3 perfbench/run.py --workload lulesh-s30-proc2 --seed 1 --seconds 10 --trace 0

or all four in turn, each in its own process::

    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs an untraced
and a traced phase and prints the per-layer ledger plus the tracing
overhead.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Results (with
provenance) and, for trace runs, the spans as JSONL go to
``.bench_build/perfbench/`` in the checkout.  ``--smoke`` shrinks every
workload for the smoke test.  See perfbench/README.md for every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

WORKLOADS = (
    "lulesh-s30-proc2",
    "lulesh-s30-serial",
    "paper-sweep",
    "campaign-mixed",
)
#: End-to-end metrics and their units; BENCHMARK.json lists the same.
END_TO_END = {
    "setup_s": "s",
    "op_iqm_ms": "ms",
    "op_p75_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}
#: Forkserver listens on a Unix socket about 32 bytes below the temp dir;
#: a longer temp dir would overrun the 107-byte socket-path limit.
_MAX_TMP_PATH = 70


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the smoke test")
    return ap.parse_args(argv)


def _use_private_tmp(root) -> None:
    """Keep temp files (the forkserver socket) inside the checkout."""
    tmp = root / ".bench_build" / "tmp"
    if len(str(tmp)) <= _MAX_TMP_PATH:
        tmp.mkdir(parents=True, exist_ok=True)
        os.environ["TMPDIR"] = str(tmp)
        tempfile.tempdir = str(tmp)


def _stop_helpers() -> None:
    """Stop and reap the forkserver and resource tracker, if started."""
    if "multiprocessing.forkserver" in sys.modules:
        from multiprocessing import forkserver

        forkserver._forkserver._stop()
    if "multiprocessing.resource_tracker" in sys.modules:
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()


def _run_workload(args, tracer, workdir, min_ops):
    """Run the chosen workload; returns its module imports, clock, outcome."""
    import physics

    if args.workload in ("lulesh-s30-proc2", "lulesh-s30-serial"):
        backend = "process" if args.workload == "lulesh-s30-proc2" else "sim"
        return physics.IMPORTS, physics.clock_for(backend), physics.run(
            backend, args.seconds, tracer, args.smoke, min_ops, workdir
        )
    if args.workload == "paper-sweep":
        import sweep

        return sweep.IMPORTS, sweep.CLOCK, sweep.run(
            args.seed, args.seconds, tracer, args.smoke, min_ops
        )
    import campaign

    return campaign.IMPORTS, campaign.CLOCK, campaign.run(
        args.seed, args.seconds, tracer, args.smoke, min_ops, workdir
    )


def measure(args, workdir) -> tuple[dict, dict]:
    """Run one workload; returns the result object and its report."""
    import common
    import ledger
    from spans import Tracer

    min_ops = 3 if args.smoke else common.MIN_OPS
    run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}-{time.time_ns()}"
    tracer = Tracer(run_id) if args.trace else None
    imports, clock, outcome = _run_workload(args, tracer, workdir, min_ops)
    import_s = common.import_seconds(imports, clock)

    timed = common.summarize(outcome.timed)
    report = {
        "run": run_id,
        "provenance": common.provenance(
            args.workload, args.seed, args.smoke, clock
        ),
        "workload": outcome.info,
        "import_s": import_s,
        "setup_samples_s": outcome.setup_s,
        "untraced": timed,
        "untraced_op_ms": [d / 1e6 for d in outcome.timed.durations_ns],
    }
    if tracer is None:
        t = outcome.timed
        values = {
            "setup_s": statistics.median(import_s)
            + statistics.median(outcome.setup_s),
            "op_iqm_ms": timed["op_iqm_ms"],
            "op_p75_ms": timed["op_p75_ms"],
            "ops_per_s": timed["ops_per_s"],
            "peak_rss_mb": outcome.peak_rss_mb,
            "ok_frac": (t.attempted - t.failed) / t.attempted,
        }
        units = END_TO_END
    else:
        traced = common.summarize(outcome.traced)
        report["traced"] = traced
        stats = dict(outcome.layer_stats)
        stats["trace.overhead_op_iqm_ms"] = (
            traced["op_iqm_ms"] - timed["op_iqm_ms"]
        )
        stats["trace.overhead_ops_per_s"] = traced["ops_per_s"] - timed["ops_per_s"]
        stats["trace.overhead_frac"] = (
            timed["ops_per_s"] / traced["ops_per_s"] - 1.0
        )
        values = ledger.layer_metrics(
            tracer.spans, outcome.traced.attempted, stats
        )
        units = ledger.PER_LAYER
        spans_path = workdir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        report["spans"] = str(spans_path.relative_to(common.ROOT))
        report["n_spans"] = tracer.write_jsonl(spans_path)
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    report["metrics"] = metrics
    return {
        "correct": outcome.correct,
        "attempted": sum(p.attempted for p in outcome.phases),
        "failed": sum(p.failed for p in outcome.phases),
        "metrics": metrics,
    }, report


def run_all(args) -> int:
    """Each workload in its own process; a table, then a combined object."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print(f"{workload}  correct={result['correct']}  "
              f"attempted={result['attempted']}  failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:28s} {m['value']:>14.6g} {m['unit']}")
            combined["metrics"][f"{workload}.{name}"] = m
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    import common

    if not common.add_src_path():
        print(f"perfbench: no program sources at {common.SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    workdir = common.ROOT / ".bench_build" / "perfbench"
    workdir.mkdir(parents=True, exist_ok=True)
    _use_private_tmp(common.ROOT)
    try:
        result, report = measure(args, workdir)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        _stop_helpers()
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (workdir / name).write_text(json.dumps(report, indent=1) + "\n")
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"correct={result['correct']}")
    for key, m in result["metrics"].items():
        print(f"  {key:28s} {m['value']:>14.6g} {m['unit']}")
    print("provenance " + json.dumps(report["provenance"], sort_keys=True))
    print(f"samples {report['untraced']['samples']} timed ops, "
          f"{report['untraced']['p75_samples_beyond']} beyond p75; "
          f"report {workdir.relative_to(common.ROOT) / name}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
