"""Errors of the process execution backend."""

from __future__ import annotations

__all__ = [
    "DataflowAborted",
    "GarbledReplyError",
    "ParallelBackendError",
    "PlanLoweringError",
    "SupervisionExhausted",
    "WorkerDiedError",
    "WorkerFailure",
    "WorkerHangError",
]


class ParallelBackendError(RuntimeError):
    """Infrastructure failure of the process backend.

    Raised for transport and lifecycle problems — a worker process died, a
    shared-memory segment vanished, the pool was used after ``close()`` —
    never for physics failures: a kernel exception raised inside a worker
    is shipped back over the pipe and re-raised in the main process with
    its original type, so ``QStopError``/``VolumeError`` semantics are
    identical across backends.
    """


class PlanLoweringError(ParallelBackendError):
    """A captured task graph could not be lowered to a wave schedule.

    Every work task the HPX program creates carries the spec its body runs
    (see :mod:`repro.parallel.plan`); a captured work task without one
    means the program and the lowering pass have drifted apart, which is a
    programming error — not something to silently fall back from.
    """


class WorkerFailure(ParallelBackendError):
    """One worker process failed; carries the supervision taxonomy.

    ``worker`` is the pool index, ``reason`` one of ``dead`` / ``hang`` /
    ``garble`` — the three failure classes the watchdog distinguishes
    (closed pipe, missed deadline, undecodable or malformed reply).
    """

    def __init__(self, worker: int, reason: str, message: str) -> None:
        super().__init__(message)
        self.worker = worker
        self.reason = reason


class WorkerDiedError(WorkerFailure):
    """A worker's pipe closed (process exited or was killed)."""

    def __init__(self, worker: int, message: str) -> None:
        super().__init__(worker, "dead", message)


class WorkerHangError(WorkerFailure):
    """A worker missed its wave deadline (watchdog timeout)."""

    def __init__(self, worker: int, message: str) -> None:
        super().__init__(worker, "hang", message)


class GarbledReplyError(WorkerFailure):
    """A worker's reply could not be decoded or failed validation."""

    def __init__(self, worker: int, message: str) -> None:
        super().__init__(worker, "garble", message)


class SupervisionExhausted(ParallelBackendError):
    """The supervisor ran out of respawn or retry budget.

    The backend catches this to degrade gracefully to the serial simulated
    path (when degradation is enabled); with ``--no-degrade`` it surfaces
    to the driver as a run failure.
    """


class DataflowAborted(SupervisionExhausted):
    """Supervision budgets ran out mid-dataflow-cycle.

    Unlike the wave path — where the failed wave's shadow has been fully
    restored and the backend re-executes whole remaining waves — a
    dataflow cycle aborts with work already retired.  The exception
    carries everything the backend needs to finish the cycle serially and
    bit-identically: ``partials`` maps retired constraint-spec indices to
    their ``(courant, hydro)`` values, and ``unretired`` is the ascending
    tuple of spec indices still to execute (creation order is topological,
    so executing them in index order respects every dependency edge; the
    shadows of any lost in-flight specs were restored before raising).
    """

    def __init__(self, message: str, partials=None, unretired=()) -> None:
        super().__init__(message)
        self.partials = dict(partials or {})
        self.unretired = tuple(unretired)
