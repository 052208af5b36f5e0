"""``RegionSet``'s region assignment equals the reference loop, element for element.

``reference_reg_num_list`` is the straightforward assignment loop kept as
the specification: one ``Lcg`` method call per draw, the bin table as a
function, and ``np.searchsorted`` per region choice.  ``RegionSet`` draws
the same stream faster; every region list it builds must be identical.
"""

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lulesh.options import LuleshOptions
from repro.lulesh.regions import RegionSet
from repro.util.rng import Lcg


def _run_length(rng: Lcg) -> int:
    """Length of the next assignment run (reference bin table)."""
    bin_size = rng.next_in_range(1000)
    if bin_size < 773:
        return rng.next_in_range(15) + 1
    if bin_size < 937:
        return rng.next_in_range(16) + 16
    if bin_size < 970:
        return rng.next_in_range(32) + 32
    if bin_size < 974:
        return rng.next_in_range(64) + 64
    if bin_size < 978:
        return rng.next_in_range(128) + 128
    if bin_size < 981:
        return rng.next_in_range(256) + 256
    return rng.next_in_range(1537) + 512


def reference_reg_num_list(num_elem, num_reg, balance, seed):
    reg_num_list = np.empty(num_elem, dtype=np.int64)
    if num_reg == 1:
        reg_num_list.fill(1)
        return reg_num_list
    rng = Lcg(seed)
    # Region weights: chance of region i is proportional to (i+1)**balance.
    reg_bin_end = np.cumsum([(i + 1) ** balance for i in range(num_reg)])
    cost_denominator = int(reg_bin_end[-1])

    next_index = 0
    last_reg = -1
    while next_index < num_elem:
        region_var = rng.next_in_range(cost_denominator)
        i = int(np.searchsorted(reg_bin_end, region_var, side="right"))
        region_num = (i % num_reg) + 1
        while region_num == last_reg:
            region_var = rng.next_in_range(cost_denominator)
            i = int(np.searchsorted(reg_bin_end, region_var, side="right"))
            region_num = (i % num_reg) + 1
        elements = _run_length(rng)
        run_to = min(next_index + elements, num_elem)
        reg_num_list[next_index:run_to] = region_num
        next_index = run_to
        last_reg = region_num
    return reg_num_list


@given(
    num_elem=st.integers(1, 100_000),
    num_reg=st.integers(1, 32),
    balance=st.integers(1, 4),
    seed=st.integers(0, 2**40),
)
@settings(max_examples=60, deadline=None)
def test_assignment_matches_reference(num_elem, num_reg, balance, seed):
    regions = RegionSet(num_elem, num_reg, balance=balance, seed=seed)
    expected = reference_reg_num_list(num_elem, num_reg, balance, seed)
    assert regions.reg_num_list.dtype == expected.dtype
    np.testing.assert_array_equal(regions.reg_num_list, expected)


def test_default_s90_assignment_pinned():
    """The paper's s=90, 11-region layout (Table I, Fig. 9) never moves."""
    opts = LuleshOptions(nx=90, numReg=11)
    regions = RegionSet(
        opts.numElem, opts.numReg, opts.region_balance, opts.region_cost
    )
    digest = hashlib.sha256(
        regions.reg_num_list.astype("<i8").tobytes()
    ).hexdigest()
    assert digest == (
        "69ba634951f882986b17e0932fb994d0f3ae9b68356f5628335c86ff7264aabb"
    )
    assert regions.reg_elem_sizes.tolist() == [
        14881, 26773, 29223, 53080, 54394, 62458,
        81272, 78049, 97985, 101935, 128950,
    ]
