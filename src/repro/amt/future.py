"""Futures: the state/result handle of an asynchronous task.

Mirrors the HPX/C++ ``hpx::future`` surface the paper's Fig. 1 demonstrates:
``async`` returns a future immediately, ``then`` attaches a continuation that
runs once the predecessor is ready, and ``get`` blocks for (here: forces
execution of) the result.

A future is bound to the :class:`~repro.amt.runtime.AmtRuntime` that created
it and wraps one :class:`~repro.simcore.pool.SimTask`.  Continuations receive
the *predecessor future* as their single leading argument — the
``f1.then([](hpx::future<int> &&f) { ... f.get() ... })`` idiom.

Futures carry exceptions, exactly like ``hpx::future``: a task body that
raises stores the exception instead of a value, ``get``/``result_nowait``
re-raise it, and the runtime short-circuits continuations and barriers over
failed futures (see :mod:`repro.amt.runtime`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.amt.errors import FutureError
from repro.simcore.pool import SimTask

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.amt.runtime import AmtRuntime

__all__ = ["Future", "SharedFuture"]


class Future:
    """Handle to the eventual result of an asynchronous task."""

    __slots__ = (
        "_runtime",
        "_task",
        "_value",
        "_exception",
        "_has_value",
        "_retrieved",
        "_failed_tag",
    )

    def __init__(self, runtime: "AmtRuntime", task: SimTask) -> None:
        self._runtime = runtime
        self._task = task
        self._value: Any = None
        self._exception: BaseException | None = None
        self._has_value = False
        self._retrieved = False
        self._failed_tag: str | None = None

    # --- runtime-internal ---------------------------------------------------

    @property
    def task(self) -> SimTask:
        """The underlying simulation task (runtime internal)."""
        return self._task

    def _set_value(self, value: Any) -> None:
        self._value = value
        self._has_value = True

    def _set_exception(
        self, exc: BaseException, failed_tag: str | None = None
    ) -> None:
        """Store *exc* as this future's outcome (``set_exception``).

        *failed_tag* names the task whose body raised *exc* when that is
        not this future's own task (a short-circuit passing it on).
        """
        self._exception = exc
        self._has_value = True
        self._failed_tag = self._task.tag if failed_tag is None else failed_tag

    def _reset_for_replay(self) -> None:
        """Clear the stored outcome so a captured graph can refill it.

        Part of the graph-replay re-arm protocol (:mod:`repro.amt.graph`):
        the future object identity is preserved — continuations and
        barriers captured in the template keep their references — while the
        value/exception/retrieved state returns to freshly-created.  In
        place, no allocation.
        """
        self._value = None
        self._exception = None
        self._has_value = False
        self._retrieved = False
        self._failed_tag = None

    # --- HPX-like public surface ----------------------------------------------

    def is_ready(self) -> bool:
        """True once the task has executed (value *or* exception stored)."""
        return self._has_value

    def has_exception(self) -> bool:
        """True if the task executed and its body raised."""
        return self._exception is not None

    @property
    def failed_tag(self) -> str | None:
        """Tag of the task whose body raised the stored exception.

        This future's own, or the root a short-circuit passed on; ``None``
        while there is no exception.
        """
        return self._failed_tag

    def exception_nowait(self) -> BaseException | None:
        """Non-consuming peek at the stored exception (``None`` if ok).

        Unlike :meth:`get`, this never raises and never invalidates the
        future; it requires the future to be ready.
        """
        if not self._has_value:
            raise FutureError("future is not ready; use get() or flush first")
        return self._exception

    def exception(self) -> BaseException | None:
        """Force execution, then return the stored exception (or ``None``).

        The future stays valid: unlike ``get``, checking for failure does
        not consume the one-shot value.
        """
        self._force()
        return self._exception

    def then(
        self,
        fn: Callable[..., Any],
        *args: Any,
        cost_ns: int = 0,
        tag: str | None = None,
    ) -> "Future":
        """Attach a continuation; returns the continuation's future.

        *fn* is called as ``fn(predecessor_future, *args)`` once this future
        is ready, exactly like ``hpx::future::then``.  ``cost_ns`` is the
        simulated work of the continuation.  If this future fails, the
        continuation is short-circuited and its future carries the same
        exception.
        """
        return self._runtime.continuation(self, fn, *args, cost_ns=cost_ns, tag=tag)

    def _force(self) -> None:
        if not self._has_value:
            self._runtime.flush()
            if not self._has_value:
                raise FutureError(
                    "future did not become ready after flush (task never ran)"
                )

    def get(self) -> Any:
        """Force execution up to this future and return its value.

        Like ``hpx::future::get``, the value may be retrieved once; HPX
        futures are move-only and ``get`` invalidates them.  We reproduce the
        single-retrieval contract to catch ports that would be invalid C++.
        A failed future re-raises the stored exception (and is consumed,
        matching HPX's rethrow-on-get).
        """
        if self._retrieved:
            raise FutureError("future value already retrieved (futures are one-shot)")
        self._force()
        self._retrieved = True
        if self._exception is not None:
            raise self._exception
        return self._value

    def result_nowait(self) -> Any:
        """Non-consuming read for continuations over already-ready futures.

        Re-raises the stored exception if the task failed.
        """
        if not self._has_value:
            raise FutureError("future is not ready; use get() or flush first")
        if self._exception is not None:
            raise self._exception
        return self._value

    def share(self) -> "SharedFuture":
        """Convert to a multiple-readers handle (``hpx::future::share``).

        Like HPX, sharing consumes the unique future: calling ``get`` on the
        original afterwards is invalid.
        """
        if self._retrieved:
            raise FutureError("cannot share a future whose value was retrieved")
        self._retrieved = True
        return SharedFuture(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self._has_value:
            state = "pending"
        elif self._exception is not None:
            state = f"failed({type(self._exception).__name__})"
        else:
            state = "ready"
        return f"Future({self._task.tag!r}, {state})"


class SharedFuture:
    """Multi-get view of a future (``hpx::shared_future``).

    ``get`` may be called any number of times, and continuations can still
    be attached.  A failed shared future re-raises on every ``get``.
    """

    __slots__ = ("_future",)

    def __init__(self, future: Future) -> None:
        self._future = future

    @property
    def task(self) -> SimTask:
        return self._future.task

    def is_ready(self) -> bool:
        """True once the underlying task has executed."""
        return self._future.is_ready()

    def has_exception(self) -> bool:
        """True if the underlying task executed and raised."""
        return self._future.has_exception()

    def get(self) -> Any:
        """Force execution if needed; repeatable."""
        if not self._future._has_value:
            self._future._runtime.flush()
            if not self._future._has_value:
                raise FutureError(
                    "shared future did not become ready after flush"
                )
        if self._future._exception is not None:
            raise self._future._exception
        return self._future._value

    def then(
        self,
        fn: Callable[..., Any],
        *args: Any,
        cost_ns: int = 0,
        tag: str | None = None,
    ) -> Future:
        """Attach a continuation (receives the underlying future)."""
        return self._future._runtime.continuation(
            self._future, fn, *args, cost_ns=cost_ns, tag=tag
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Shared{self._future!r}"
