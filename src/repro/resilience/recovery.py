"""Checkpoint-based auto-recovery for the LULESH drivers.

The recovery manager wraps the existing checkpoint machinery
(:mod:`repro.lulesh.checkpoint`) into a rollback protocol:

* an initial checkpoint is written before the first cycle, then one every
  *K* successful cycles (atomic — see ``save_checkpoint``);
* when a cycle fails (physics abort, unrecovered task failure, detected
  state corruption) the last checkpoint is restored and the run resumes
  from there;
* if the failure was a *physics* abort (:class:`~repro.lulesh.errors.
  LuleshError` — deterministic, so plain re-execution would fail again),
  graceful degradation halves ``deltatime`` and clamps it by the last
  stable ``dtcourant``/``dthydro`` before resuming;
* injected/transient failures are replayed bit-identically (no
  degradation), so a recovered run converges to the fault-free result;
* after *M* consecutive rollbacks with no completed cycle in between the
  manager raises :class:`RecoveryExhausted`.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.amt.errors import TaskGroupError
from repro.lulesh.checkpoint import restore_checkpoint, save_checkpoint
from repro.lulesh.domain import Domain
from repro.lulesh.errors import LuleshError
from repro.resilience.errors import (
    CorruptedStateError,
    RecoveryExhausted,
    ResilienceError,
)
from repro.resilience.stats import ResilienceStats

__all__ = [
    "RecoveryManager", "run_with_recovery", "recoverable_types",
    "unwrap_physics_aborts",
]


def recoverable_types() -> tuple[type, ...]:
    """Failure types a rollback can meaningfully address.

    Programming errors (TypeError, AmtError misuse, ...) are deliberately
    NOT recoverable.  Resolved lazily because :mod:`repro.dist` imports the
    drivers, which import this module.
    """
    from repro.dist.comm import CommError

    return (LuleshError, TaskGroupError, ResilienceError, CommError)

#: Fields scanned for silent corruption after every cycle (the physics
#: state a NaN would poison first, plus the energy observable itself).
_SCAN_FIELDS = ("e", "p", "q", "v", "xd", "yd", "zd", "x", "y", "z")


def _physics_cause(exc: BaseException) -> LuleshError | None:
    """The deterministic physics abort behind *exc*, if that is what it is."""
    if isinstance(exc, LuleshError):
        return exc
    if isinstance(exc, TaskGroupError):
        cause = exc.common_cause(LuleshError)
        if isinstance(cause, LuleshError):
            return cause
    return None


@contextmanager
def unwrap_physics_aborts() -> Iterator[None]:
    """Re-raise a task-group failure as the physics abort behind it.

    A :class:`TaskGroupError` whose failures all share one
    :class:`LuleshError` type surfaces as that error, so physics aborts
    keep their class (``VolumeError``/``QStopError``) at the driver
    boundary; heterogeneous or injected failures pass through as the group
    error naming every failed task tag.
    """
    try:
        yield
    except TaskGroupError as group:
        cause = _physics_cause(group)
        if cause is None:
            raise
        raise cause from group


class RecoveryManager:
    """Rollback protocol around one domain and one checkpoint file.

    Args:
        domain: the live domain being advanced.
        checkpoint_path: where checkpoints live; ``None`` uses a temporary
            directory cleaned up with the manager.
        checkpoint_every: successful cycles between checkpoints (>= 1).
        max_rollbacks: consecutive restores tolerated before giving up.
        stats: shared resilience accounting.
    """

    def __init__(
        self,
        domain: Domain,
        checkpoint_path: str | None = None,
        checkpoint_every: int = 10,
        max_rollbacks: int = 3,
        stats: ResilienceStats | None = None,
    ) -> None:
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if max_rollbacks < 1:
            raise ValueError(
                f"max_rollbacks must be >= 1, got {max_rollbacks}"
            )
        self.domain = domain
        self.checkpoint_every = checkpoint_every
        self.max_rollbacks = max_rollbacks
        self.stats = stats if stats is not None else ResilienceStats()
        self._tmpdir: tempfile.TemporaryDirectory | None = None
        if checkpoint_path is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="lulesh-ckpt-")
            checkpoint_path = os.path.join(self._tmpdir.name, "recovery.npz")
        self.checkpoint_path = checkpoint_path
        self._since_checkpoint = 0
        self._consecutive_rollbacks = 0
        self._degraded = False
        self._checkpoint("initial")

    def close(self) -> None:
        """Release the temporary checkpoint directory (if owned)."""
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    def _checkpoint(self, why: str) -> None:
        save_checkpoint(self.domain, self.checkpoint_path)
        self.stats.checkpoints += 1
        self.stats.record(
            "checkpoint", cycle=self.domain.cycle, why=why,
            path=self.checkpoint_path,
        )

    # --- per-cycle protocol ------------------------------------------------

    def check_state(self) -> None:
        """Raise :class:`CorruptedStateError` on non-finite field values."""
        for name in _SCAN_FIELDS:
            arr = getattr(self.domain, name)
            if not np.isfinite(arr).all():
                bad = int(np.flatnonzero(~np.isfinite(arr))[0])
                raise CorruptedStateError(
                    f"non-finite value in field {name!r} at flat index "
                    f"{bad} after cycle {self.domain.cycle}"
                )

    def after_step(self) -> None:
        """Account one successful cycle; checkpoint if the interval is due."""
        self._consecutive_rollbacks = 0
        if self._degraded:
            self.stats.degraded_cycles += 1
        self._since_checkpoint += 1
        if self._since_checkpoint >= self.checkpoint_every:
            self._checkpoint("interval")
            self._since_checkpoint = 0
            # Degradation persisted into a stable checkpoint; stop counting.
            self._degraded = False

    def on_failure(self, exc: BaseException) -> None:
        """Roll back to the last checkpoint (or give up).

        Physics aborts additionally degrade the timestep — re-running the
        same cycle with the same ``deltatime`` would deterministically fail
        again.  Transient failures (injected faults, comm losses, detected
        corruption) restore and re-run bit-identically.
        """
        self._consecutive_rollbacks += 1
        if self._consecutive_rollbacks > self.max_rollbacks:
            raise RecoveryExhausted(
                f"giving up after {self.max_rollbacks} consecutive "
                f"rollbacks (last failure: {type(exc).__name__}: {exc})"
            ) from exc
        restore_checkpoint(self.domain, self.checkpoint_path)
        self.stats.rollbacks += 1
        self.stats.record(
            "rollback", to_cycle=self.domain.cycle,
            consecutive=self._consecutive_rollbacks,
            cause=type(exc).__name__, message=str(exc),
        )
        self._since_checkpoint = 0
        cause = _physics_cause(exc)
        if cause is not None:
            self._degrade(cause)

    def _degrade(self, cause: LuleshError) -> None:
        d = self.domain
        old = d.deltatime
        d.deltatime = min(
            d.deltatime * 0.5, d.dtcourant / 2.0, d.dthydro * (2.0 / 3.0)
        )
        self._degraded = True
        self.stats.record(
            "degrade", old_deltatime=old, new_deltatime=d.deltatime,
            cause=type(cause).__name__,
        )


def run_with_recovery(
    step: Callable[[], None],
    domain: Domain,
    iterations: int,
    manager: RecoveryManager,
    stoptime: float | None = None,
    recoverable: Sequence[type] | None = None,
) -> int:
    """Advance *domain* by *iterations* cycles under rollback protection.

    ``step()`` must execute exactly one leapfrog cycle (advancing
    ``domain.cycle``).  Returns the number of step attempts made (successful
    cycles plus failed attempts) — rollbacks rewind ``domain.cycle``, so the
    loop is driven by the domain's own cycle counter, exactly like a
    restarted production run.
    """
    recoverable = tuple(recoverable) if recoverable else recoverable_types()
    target = domain.cycle + iterations
    attempts = 0
    while domain.cycle < target and (
        stoptime is None or domain.time < stoptime
    ):
        attempts += 1
        try:
            step()
            manager.check_state()
        except RecoveryExhausted:
            raise
        except recoverable as exc:
            manager.on_failure(exc)
            continue
        manager.after_step()
    return attempts
