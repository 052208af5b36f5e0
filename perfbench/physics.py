"""Physics workloads: LULESH s=30 on the process backend, and in one process.

``lulesh-s30-proc2`` drives warm cycles on two worker processes over shared
memory (the ``parallel`` layer does the work, the DES is bypassed);
``lulesh-s30-serial`` runs the same inputs with ``backend="sim"``, where
kernels, arena, graph replay and the DES share the main process.  Every
timed cycle's origin energy, and a digest of the final fields, must equal
the sequential reference bit for bit.

The seed does not change the physics inputs: both workloads use LULESH's
own element-to-region assignment (``Domain(opts)``), for two reasons.  The
process backend's workers rebuild their Domain from ``LuleshOptions``
alone, so any other assignment gives the workers different regions than
the main process and wrong results (see perfbench/README.md, "Known
defect").  And seeded assignments change the EOS work by about a third
from seed to seed, more than a run-to-run bound can absorb.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
import traceback

from common import (
    CPU,
    SRC,
    WALL,
    Clock,
    Outcome,
    Phase,
    peak_rss_mb,
    run_phases,
    run_setup,
)

SIZE = 30
SMOKE_SIZE = 8
REGIONS = 11
WORKERS = 2
IMPORTS = (
    "repro.core.hpx_lulesh",
    "repro.parallel",
    "repro.lulesh.reference",
    "repro.perf.sources",
)
#: The fields the digest covers: every persistent node and element field.
DIGEST_FIELDS = (
    "x", "y", "z", "xd", "yd", "zd", "xdd", "ydd", "zdd", "fx", "fy", "fz",
    "e", "p", "q", "ql", "qq", "v", "ss", "delv", "vdov", "arealg",
)


class _Stack:
    """One Domain + program (+ process backend), advanced past capture."""

    def __init__(self, size: int, backend: str) -> None:
        from repro.amt.runtime import AmtRuntime
        from repro.core.hpx_lulesh import HpxLuleshProgram, HpxVariant
        from repro.core.kernel_graph import ProblemShape
        from repro.core.partitioning import table1_partition_sizes
        from repro.lulesh.costs import DEFAULT_COSTS
        from repro.perf.registry import CounterRegistry
        from repro.perf.sources import install_arena_counters
        from repro.simcore.costmodel import CostModel
        from repro.simcore.machine import MachineConfig

        self.domain = _domain(size)
        nodal, elements = table1_partition_sizes(size)
        self.program = HpxLuleshProgram(
            AmtRuntime(MachineConfig(), CostModel(), WORKERS),
            ProblemShape.from_domain(self.domain),
            DEFAULT_COSTS,
            nodal_partition=nodal,
            elements_partition=elements,
            domain=self.domain,
            variant=HpxVariant.full(),
            backend=backend,
            backend_workers=WORKERS if backend == "process" else None,
        )
        self.registry = CounterRegistry()
        install_arena_counters(self.registry, self.domain)
        self.backend = None
        if backend == "process":
            from repro.parallel import ParallelHpxBackend

            self.backend = ParallelHpxBackend(self.program, workers=WORKERS)
        self.driver = self.backend or self.program
        try:
            self.driver.step()  # capture cycle; lowers and warms the pool
        except BaseException:
            self.close()
            raise
        #: ``(phase, cycle, origin energy)`` of every timed cycle.
        self.energies: list[tuple[Phase, int, float]] = []

    def counter(self, path: str) -> float:
        return self.registry.counter(path).sample_value()

    def close(self) -> None:
        """Stop the pool; the fields are copied back out of shared memory."""
        if self.backend is not None:
            self.backend.close()


def _options(size: int):
    from repro.lulesh.options import LuleshOptions

    return LuleshOptions(nx=size, numReg=REGIONS)


def _domain(size: int):
    from repro.lulesh.domain import Domain

    return Domain(_options(size))


def _digest(domain) -> str:
    h = hashlib.sha256()
    for name in DIGEST_FIELDS:
        h.update(getattr(domain, name).tobytes())
    scalars = (int(domain.cycle), float(domain.time), float(domain.deltatime))
    h.update(repr(scalars).encode())
    return h.hexdigest()


def _cycles(stack: _Stack, tracer, clock: Clock, seconds: float,
            min_ops: int) -> Phase:
    """Step until *seconds* have passed and at least *min_ops* cycles ran."""
    d = stack.domain
    phase = Phase()
    total0 = clock.total_ns()
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    while d.time < d.opts.stoptime:
        phase.attempted += 1
        if tracer is not None:
            tracer.set_op(d.cycle + 1)
        t0 = clock.op_ns()
        try:
            stack.driver.step()
        except Exception:
            traceback.print_exc()
            phase.failed += 1
            break  # the state is no longer a valid run
        phase.durations_ns.append(clock.op_ns() - t0)
        stack.energies.append((phase, d.cycle, d.origin_energy()))
        if (
            time.perf_counter_ns() >= deadline
            and len(phase.durations_ns) >= min_ops
        ):
            break
    phase.total_ns = clock.total_ns() - total0
    return phase


def _source_key() -> str:
    """Hash of the program sources and numeric stack the reference ran on."""
    import numpy

    h = hashlib.sha256(f"{numpy.__version__} {sys.version}".encode())
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _reference(size: int, cycles: int, workdir) -> tuple[list, list]:
    """Origin energy and field digest of the sequential reference after
    each of cycles 1..*cycles* (list index = cycle - 1).

    The reference costs as much per cycle as the serial workload, so it is
    kept in the work directory, keyed by a hash of the program sources, and
    extended from a checkpoint of its last cycle when a run needs more.
    """
    from repro.lulesh.checkpoint import load_checkpoint, save_checkpoint
    from repro.lulesh.reference import SequentialDriver

    cache = workdir / f"reference-s{size}-{_source_key()}"
    table_path, last_path = cache / "cycles.json", cache / "last.npz"
    energies, digests, domain = [], [], None
    if table_path.is_file() and last_path.is_file():
        table = json.loads(table_path.read_text())
        domain = load_checkpoint(_options(size), str(last_path))
        if domain.cycle == len(table["energies"]):
            energies, digests = table["energies"], table["digests"]
        else:
            domain = None
    if len(energies) >= cycles:
        return energies, digests
    if domain is None:
        energies, digests, domain = [], [], _domain(size)
    driver = SequentialDriver(domain)
    while len(energies) < cycles:
        driver.step()
        energies.append(domain.origin_energy())
        digests.append(_digest(domain))
    cache.mkdir(parents=True, exist_ok=True)
    save_checkpoint(domain, str(last_path))
    tmp = table_path.with_suffix(".tmp")
    tmp.write_text(json.dumps({"energies": energies, "digests": digests}))
    os.replace(tmp, table_path)
    return energies, digests


def _verify(stack: _Stack, size: int, workdir, phases) -> None:
    """Count timed cycles that differ from the sequential reference.

    A cycle fails when its origin energy differs; if the final field digest
    differs, every timed cycle fails, since the wrong one cannot be told.
    """
    last = stack.domain.cycle
    energies, digests = _reference(size, last, workdir)
    for phase, cycle, energy in stack.energies:
        if energies[cycle - 1] != energy:
            phase.failed += 1
    if _digest(stack.domain) != digests[last - 1]:
        for phase in phases:
            phase.failed = phase.attempted


def clock_for(backend: str) -> Clock:
    """Wall time where processes overlap, CPU time for one process."""
    return WALL if backend == "process" else CPU


def run(backend: str, seconds: float, tracer, smoke: bool, min_ops: int,
        workdir) -> Outcome:
    size = SMOKE_SIZE if smoke else SIZE
    clock = clock_for(backend)
    if tracer is not None:
        tracer.execute = True
    stack, setup = run_setup(
        tracer, lambda: _Stack(size, backend), _Stack.close, clock
    )
    try:
        starts = []

        def phase(secs, ops):
            starts.append(_snapshot(stack))
            return _cycles(stack, tracer, clock, secs, ops)

        timed, traced = run_phases(tracer, phase, seconds, min_ops)
        rss = peak_rss_mb()
        after = _snapshot(stack)
    finally:
        stack.close()
    _verify(stack, size, workdir, [p for p in (timed, traced) if p is not None])
    layer_stats = {}
    if traced is not None:
        layer_stats = {k: after[k] - starts[-1][k] for k in after}
        layer_stats["workers"] = WORKERS
    return Outcome(
        setup_s=setup,
        timed=timed,
        traced=traced,
        peak_rss_mb=rss,
        layer_stats=layer_stats,
        info={
            "size": size,
            "regions": REGIONS,
            "backend": backend,
            "workers": WORKERS if backend == "process" else 0,
            "zones": size**3,
            "cycles": stack.domain.cycle,
            "fallback_cycles_after_capture": after["parallel.fallback_cycles"]
            - starts[0]["parallel.fallback_cycles"],
        },
    )


def _snapshot(stack: _Stack) -> dict:
    """Counters the ledger reports as deltas over the traced phase."""
    snap = {
        "lulesh.arena_allocations": stack.counter("/arena/allocations"),
        "parallel.fallback_cycles": 0,
        "parallel.respawns": 0,
        "parallel.requeues": 0,
    }
    b = stack.backend
    if b is not None:
        snap["parallel.fallback_cycles"] = b.stats.fallback_cycles
        snap["parallel.respawns"] = b.supervisor.stats.respawns
        snap["parallel.requeues"] = (
            b.dataflow_stats.requeues + b.supervisor.stats.wave_retries
        )
    return snap
