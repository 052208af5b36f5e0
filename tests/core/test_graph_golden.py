"""Graph-structure golden of the HPX, naive and OpenMP orchestrations.

``perfbench/expected_sweep.json`` pins simulated totals only; this is the
gate for task tags, costs, priorities, specs, dependency edges and flush
boundaries of every ladder rung and knob, and for the OpenMP region and
loop sequence.  Inputs and the regeneration script live in
``make_graph_golden.py``.
"""

import json

import pytest

from tests.core.make_graph_golden import GOLDEN_PATH, case_keys, run_case

with open(GOLDEN_PATH, encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(case_keys())


@pytest.mark.parametrize("key", case_keys())
def test_graph_matches_golden(key):
    # Round-trip through JSON so tuples and lists compare alike.
    got = json.loads(json.dumps(run_case(key)))
    want = GOLDEN[key]
    assert sorted(got) == sorted(want)
    for field in sorted(want):
        if field in ("tasks", "loops"):
            assert len(got[field]) == len(want[field]), field
            for i, (g, w) in enumerate(zip(got[field], want[field])):
                assert g == w, (field, i)
        else:
            assert got[field] == want[field], field
