"""Host-independent cost gate of the pool DES: queue operations per task.

Wall time depends on the host; the number of ready-queue operations the
simulator makes per simulated task does not.  A steal scan that probes
victims one by one makes dozens of ``WorkQueue.__len__`` calls per task at
48 workers; the bit-indexed scan makes a push, a pop or steal, and an
emptiness check.
"""

from repro.core import driver
from repro.lulesh.options import LuleshOptions
from repro.simcore.policy import WorkQueue

QUEUE_METHODS = ("__len__", "push", "pop_local", "steal")
MAX_QUEUE_OPS_PER_TASK = 6


def test_queue_operations_per_simulated_task(monkeypatch):
    calls = {name: 0 for name in QUEUE_METHODS}

    def counted(name):
        original = getattr(WorkQueue, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in QUEUE_METHODS:
        monkeypatch.setattr(WorkQueue, name, counted(name))

    result = driver.run_hpx(LuleshOptions(nx=45, numReg=11), 48, 2)

    assert result.n_tasks > 0
    per_task = sum(calls.values()) / result.n_tasks
    assert per_task <= MAX_QUEUE_OPS_PER_TASK, (per_task, calls)
