"""A campaign job computes exactly what the matching driver call computes.

Warm executors and the drivers build their stacks through one function
(``repro.core.driver.build_stack``); this pins that they also agree on
the result of a run, for every impl in both modes.
"""

import pytest

from repro.core.driver import run_hpx, run_naive_hpx, run_omp
from repro.lulesh.options import LuleshOptions
from repro.perf.registry import CounterRegistry
from repro.serve import JobSpec
from repro.serve.executor import SNAPSHOT_SKIP, WarmExecutor, _filtered_counters
from repro.serve.fingerprint import resolve_spec

DRIVERS = {"hpx": run_hpx, "naive": run_naive_hpx, "omp": run_omp}


@pytest.mark.parametrize("execute", [False, True])
@pytest.mark.parametrize("impl", sorted(DRIVERS))
def test_job_result_equals_driver_run(impl, execute):
    spec = JobSpec(s=5, r=3, i=3, threads=4, impl=impl, execute=execute)
    executor = WarmExecutor(resolve_spec(spec))
    try:
        result = executor.run_job(spec, registry=CounterRegistry()).result
    finally:
        executor.close()
    registry = CounterRegistry()
    run = DRIVERS[impl](
        LuleshOptions(nx=5, numReg=3), 4, 3, execute=execute,
        registry=registry,
    )
    assert result["runtime_ns"] == run.runtime_ns
    assert result["energy"] == (float(run.domain.e[0]) if execute else None)
    assert result["counters"] == _filtered_counters(registry, SNAPSHOT_SKIP)
    assert result["counters"]  # the comparison is not vacuous
