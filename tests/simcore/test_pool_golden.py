"""Differential golden of the pool DES: every policy, bit for bit.

The paper sweep only runs the default policy, so this is the gate that
keeps ``steal_half``, FIFO local access, LIFO stealing and priorities
exact.  Inputs and the regeneration script live in ``make_pool_golden.py``.
"""

import json

import pytest

from tests.simcore.make_pool_golden import (
    GOLDEN_PATH,
    WORKER_FIELDS,
    case_keys,
    run_case,
)

with open(GOLDEN_PATH, encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)


def test_golden_covers_every_case():
    assert GOLDEN["worker_fields"] == WORKER_FIELDS
    assert sorted(GOLDEN["cases"]) == sorted(case_keys())


@pytest.mark.parametrize("key", case_keys())
def test_pool_matches_golden(key):
    # Round-trip through JSON so tuples and lists compare alike.
    got = json.loads(json.dumps(run_case(key)))
    want = GOLDEN["cases"][key]
    for flush, (g, w) in enumerate(zip(got, want)):
        for field in ("makespan_ns", "spawn_total_ns", "n_tasks", "workers"):
            assert g[field] == w[field], (flush, field)
        assert g["spans"] == w["spans"], flush
    assert len(got) == len(want)
