"""The job model of ``repro.serve``: one parameter point of a campaign.

A :class:`JobSpec` is one requested simulation — problem shape, variant
bits, and execution knobs — plus scheduling attributes (priority, per-
attempt timeout, retry budget) that affect *when and how hard* the
scheduler tries, never *what* the result is.  Scheduling attributes are
therefore excluded from the result fingerprint
(:func:`repro.serve.fingerprint.job_fingerprint`).

Sweep expansion: a campaign is usually a cross product over a few axes
(``s=10; variant=full,fig7; threads=2,4``).  Two equivalent spellings are
accepted — the CLI grammar (:func:`parse_sweep`) and a JSON spec file
(:func:`load_sweep_file`) with ``defaults`` + ``sweep`` axes and/or an
explicit ``jobs`` list — both expanding deterministically (axes in given
order, last axis fastest) so a repeated campaign enumerates identical jobs.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass, field, fields

from repro.core.hpx_lulesh import HpxVariant
from repro.serve.errors import SweepSpecError

__all__ = ["JobSpec", "JobRecord", "expand_sweep", "parse_sweep", "load_sweep_file"]

_IMPLS = ("hpx", "naive", "omp")
_BACKENDS = ("sim", "process")

#: JobSpec fields that steer scheduling only (never part of the fingerprint).
SCHEDULING_FIELDS = ("priority", "timeout_s", "max_retries")


@dataclass(frozen=True)
class JobSpec:
    """One requested simulation run.

    Attributes:
        s: problem size (mesh edge, the artifact's ``--s``).
        r: number of material regions.
        i: leapfrog iterations requested.
        threads: execution threads of the simulated runtime.
        impl: orchestration — ``hpx`` (task ladder), ``naive`` (for_each
            port), or ``omp`` (fork/join reference).
        execute: run the real physics (True) or the timing-only DES (False).
        variant: HPX optimization-ladder variant (``hpx`` impl only).
        nodal_partition / elements_partition: explicit partition-size
            overrides (``hpx`` only; None defers to the tuning DB/Table I).
        balanced: spread partition remainders (the ``balanced_split`` knob).
        replay_graph: capture cycle 1's graph and re-fire it.
        backend: ``sim`` (DES virtual workers) or ``process`` (real cores
            over shared memory; requires ``hpx`` + ``execute``).
        workers: worker processes for the process backend.
        tuned: consult the campaign's tuning database for partition sizes
            before falling back to Table I.
        inject: resilience fault specs (``target:pattern[:kind][@cycle]``).
            Fault jobs bypass the result cache entirely — their outcome
            depends on injection, and a degraded/faulty run must never be
            served to a later clean request.
        fault_seed: the injector's deterministic seed.
        priority: admission priority (higher runs earlier; ties FIFO).
        timeout_s: per-attempt wall-clock deadline (None: no deadline).
        max_retries: re-attempts after a *transient* failure (timeout or
            injected fault; deterministic physics aborts never retry).
    """

    s: int = 10
    r: int = 11
    i: int = 2
    threads: int = 24
    impl: str = "hpx"
    execute: bool = False
    variant: str = "full"
    nodal_partition: int | None = None
    elements_partition: int | None = None
    balanced: bool = False
    replay_graph: bool = True
    backend: str = "sim"
    workers: int | None = None
    tuned: bool = False
    inject: tuple[str, ...] = ()
    fault_seed: int = 0
    priority: int = 0
    timeout_s: float | None = None
    max_retries: int = 0

    def __post_init__(self) -> None:
        if self.impl not in _IMPLS:
            raise SweepSpecError(f"impl must be one of {_IMPLS}, got {self.impl!r}")
        if self.variant not in HpxVariant.NAMES:
            raise SweepSpecError(
                f"variant must be one of {HpxVariant.NAMES}, got {self.variant!r}"
            )
        if self.backend not in _BACKENDS:
            raise SweepSpecError(
                f"backend must be one of {_BACKENDS}, got {self.backend!r}"
            )
        if self.backend == "process" and (self.impl != "hpx" or not self.execute):
            raise SweepSpecError(
                "backend 'process' requires impl 'hpx' and execute=true"
            )
        for name in ("s", "r", "i", "threads"):
            if getattr(self, name) < 1:
                raise SweepSpecError(
                    f"{name} must be >= 1, got {getattr(self, name)}"
                )
        for name in ("nodal_partition", "elements_partition", "workers"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise SweepSpecError(f"{name} must be >= 1, got {value}")
        if self.max_retries < 0:
            raise SweepSpecError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.timeout_s is not None and self.timeout_s < 0:
            raise SweepSpecError(
                f"timeout_s must be >= 0, got {self.timeout_s}"
            )
        object.__setattr__(self, "inject", tuple(self.inject))

    @property
    def cacheable(self) -> bool:
        """Fault-free jobs are cacheable; injection jobs never touch it."""
        return not self.inject

    def to_dict(self) -> dict:
        """JSON-friendly dict (inject tuple becomes a list)."""
        d = asdict(self)
        d["inject"] = list(self.inject)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SweepSpecError(
                f"unknown job field(s) {unknown}; known: {sorted(known)}"
            )
        if "inject" in data:
            inject = data["inject"]
            # A bare string (the sweep grammar's spelling) is one fault
            # spec, not a character sequence.
            if isinstance(inject, str):
                inject = (inject,)
            data = dict(data, inject=tuple(inject))
        return cls(**data)


@dataclass
class JobRecord:
    """One submitted job's lifecycle as the scheduler sees it.

    ``status`` moves ``pending -> running -> completed | failed | cancelled
    | timeout``.  ``cached`` marks completion served from the result cache
    (no execution).  ``result`` is the deterministic payload (cached or
    freshly computed); ``wall_ns``/``attempts`` describe this submission's
    actual work and are never cached.
    """

    job_id: str
    spec: JobSpec
    seq: int
    status: str = "pending"
    cached: bool = False
    attempts: int = 0
    fingerprint: str | None = None
    resolved: dict | None = None
    result: dict | None = None
    error: str | None = None
    wall_ns: int = 0
    template_reused: bool = False
    executor_reused: bool = False
    _cancel: bool = field(default=False, repr=False)

    @property
    def done(self) -> bool:
        return self.status in ("completed", "failed", "cancelled", "timeout")


# --- sweep expansion ----------------------------------------------------------

_BOOL_FIELDS = ("execute", "balanced", "replay_graph", "tuned")
_INT_FIELDS = (
    "s", "r", "i", "threads", "nodal_partition", "elements_partition",
    "workers", "fault_seed", "priority", "max_retries",
)


def _coerce(name: str, value: object) -> object:
    """Parse one grammar token (always a string) into the field's type."""
    if not isinstance(value, str):
        return value
    if name in _BOOL_FIELDS:
        low = value.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise SweepSpecError(f"{name} must be a boolean, got {value!r}")
    if name in _INT_FIELDS:
        if value.lower() in ("none", ""):
            return None
        try:
            return int(value)
        except ValueError as exc:
            raise SweepSpecError(f"{name} must be an integer, got {value!r}") from exc
    if name == "timeout_s":
        try:
            return float(value)
        except ValueError as exc:
            raise SweepSpecError(f"timeout_s must be a number, got {value!r}") from exc
    return value


def expand_sweep(axes: dict[str, list], defaults: dict | None = None) -> list[JobSpec]:
    """Cross-product expansion of *axes* over *defaults*.

    Axes expand in insertion order with the last axis varying fastest, so
    the enumeration — and therefore job ids, admission order, and every
    deterministic campaign artifact — is reproducible.
    """
    defaults = dict(defaults or {})
    names = list(axes)
    value_lists = []
    for name in names:
        values = axes[name]
        if not isinstance(values, (list, tuple)) or not values:
            raise SweepSpecError(
                f"sweep axis {name!r} must be a non-empty list, got {values!r}"
            )
        value_lists.append([_coerce(name, v) for v in values])
    specs = []
    for combo in itertools.product(*value_lists):
        data = dict(defaults)
        data.update(zip(names, combo))
        specs.append(JobSpec.from_dict(data))
    return specs


def parse_sweep(grammar: str, defaults: dict | None = None) -> list[JobSpec]:
    """Parse the CLI sweep grammar into jobs.

    Grammar: ``;``-separated axes, each ``key=v1,v2,...`` — e.g.
    ``"s=10;i=2,3;variant=full,fig7;threads=2,4"`` expands to 1*2*2*2 jobs.
    A single-valued axis pins that knob for the whole sweep.
    """
    axes: dict[str, list] = {}
    for clause in grammar.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        if "=" not in clause:
            raise SweepSpecError(
                f"bad sweep clause {clause!r}: expected key=v1,v2,..."
            )
        key, _, values = clause.partition("=")
        key = key.strip()
        if key in axes:
            raise SweepSpecError(f"duplicate sweep axis {key!r}")
        axes[key] = [v.strip() for v in values.split(",") if v.strip()]
        if not axes[key]:
            raise SweepSpecError(f"sweep axis {key!r} has no values")
    if not axes:
        raise SweepSpecError("empty sweep grammar")
    return expand_sweep(axes, defaults)


def load_sweep_file(path: str) -> list[JobSpec]:
    """Load a JSON sweep spec.

    The document is an object with any of:

    * ``defaults`` — knob values shared by every job;
    * ``sweep`` — ``{axis: [values...]}`` cross-product axes;
    * ``jobs`` — explicit job objects (each merged over ``defaults``).

    ``sweep`` jobs come first, then ``jobs`` entries, preserving order.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SweepSpecError(f"unreadable sweep spec {path!r}: {exc}") from exc
    if not isinstance(payload, dict):
        raise SweepSpecError(f"sweep spec {path!r} must be a JSON object")
    unknown = sorted(set(payload) - {"defaults", "sweep", "jobs", "note"})
    if unknown:
        raise SweepSpecError(
            f"sweep spec {path!r} has unknown key(s) {unknown}"
        )
    defaults = payload.get("defaults", {})
    if not isinstance(defaults, dict):
        raise SweepSpecError(f"sweep spec {path!r}: defaults must be an object")
    specs: list[JobSpec] = []
    if "sweep" in payload:
        axes = payload["sweep"]
        if not isinstance(axes, dict) or not axes:
            raise SweepSpecError(
                f"sweep spec {path!r}: sweep must be a non-empty object"
            )
        specs.extend(expand_sweep(axes, defaults))
    for job in payload.get("jobs", ()):
        if not isinstance(job, dict):
            raise SweepSpecError(f"sweep spec {path!r}: jobs entries must be objects")
        specs.append(JobSpec.from_dict({**defaults, **job}))
    if not specs:
        raise SweepSpecError(f"sweep spec {path!r} defines no jobs")
    return specs
