"""Material regions: imbalanced index sets and EOS cost replication.

Reproduces ``Domain::CreateRegionIndexSets`` from the reference: elements are
assigned to regions in random runs whose lengths follow LULESH's bin table
(mostly short runs of 1–15 elements, occasionally runs of up to 2048), with
region choice weighted by ``(r+1)**balance``.  This yields regions of quite
different sizes — the load imbalance the paper's region-parallel
``ApplyMaterialPropertiesForElems`` exploits.

Differences in computational intensity between materials are modeled by the
reference by *repeating* the EOS evaluation: with the default ``cost=1``,
regions in the lower half run it once, most others twice, and the top ~5%
twenty times (§II-B: "LULESH doubles the computation for 45% of the
regions, and increases it even by twenty times for 5%").
:func:`region_rep` reproduces that formula exactly.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate

import numpy as np

from repro.util.rng import Lcg

__all__ = ["RegionSet", "region_rep"]


def region_rep(r: int, num_reg: int, cost: int = 1) -> int:
    """EOS repetition count for region *r* (the reference's ``rep``)."""
    if not 0 <= r < num_reg:
        raise ValueError(f"region {r} out of range for {num_reg} regions")
    if r < num_reg // 2:
        return 1
    # "you don't get an expensive region unless you at least have 5 regions"
    if r < num_reg - (num_reg + 15) // 20:
        return 1 + cost
    return 10 * (1 + cost)


class RegionSet:
    """Region assignment of all mesh elements.

    Attributes:
        num_reg: number of regions.
        cost: the ``-c`` extra-cost flag (default 1).
        reg_num_list: 1-based region number of every element
            (``numElem``-long, like the reference's ``regNumList``).
        reg_elem_lists: per-region sorted element index arrays.
        reg_elem_sizes: per-region element counts.
    """

    def __init__(
        self,
        num_elem: int,
        num_reg: int,
        balance: int = 1,
        cost: int = 1,
        seed: int = 0,
    ) -> None:
        if num_elem < 1:
            raise ValueError(f"num_elem must be >= 1, got {num_elem}")
        if num_reg < 1:
            raise ValueError(f"num_reg must be >= 1, got {num_reg}")
        if balance < 1:
            raise ValueError(f"balance must be >= 1, got {balance}")
        self.num_reg = num_reg
        self.cost = cost
        if num_reg == 1:
            self.reg_num_list = np.ones(num_elem, dtype=np.int64)
        else:
            self.reg_num_list = self._assign(num_elem, num_reg, balance, seed)

        self.reg_elem_lists: list[np.ndarray] = []
        for r in range(num_reg):
            self.reg_elem_lists.append(
                np.flatnonzero(self.reg_num_list == r + 1).astype(np.int64)
            )
        self.reg_elem_sizes = np.array(
            [len(lst) for lst in self.reg_elem_lists], dtype=np.int64
        )

    @staticmethod
    def _assign(num_elem: int, num_reg: int, balance: int, seed: int) -> np.ndarray:
        """The reference's run-length assignment: 1-based region per element."""
        # Region weights: chance of region i is proportional to (i+1)**balance.
        reg_bin_end = list(accumulate((i + 1) ** balance for i in range(num_reg)))
        cost_denominator = reg_bin_end[-1]
        # The Lcg stream drawn as local integers: each draw advances the
        # state and reduces it like ``Lcg.next_in_range``.
        a, c, m = Lcg._A, Lcg._C, Lcg._M
        state = Lcg(seed).state

        regions: list[int] = []
        lengths: list[int] = []
        next_index = 0
        region_num = -1
        while next_index < num_elem:
            last_reg = region_num
            while region_num == last_reg:
                state = (a * state + c) % m
                region_num = bisect_right(reg_bin_end, state % cost_denominator) + 1
            # Run length from the reference bin table (mostly 1-15 elements,
            # occasionally up to 2048).
            state = (a * state + c) % m
            bin_size = state % 1000
            state = (a * state + c) % m
            if bin_size < 773:
                elements = state % 15 + 1
            elif bin_size < 937:
                elements = state % 16 + 16
            elif bin_size < 970:
                elements = state % 32 + 32
            elif bin_size < 974:
                elements = state % 64 + 64
            elif bin_size < 978:
                elements = state % 128 + 128
            elif bin_size < 981:
                elements = state % 256 + 256
            else:
                elements = state % 1537 + 512
            regions.append(region_num)
            lengths.append(elements)
            next_index += elements
        # The last run stops at the mesh's end.
        lengths[-1] -= next_index - num_elem
        return np.repeat(np.array(regions, dtype=np.int64), lengths)

    # --- decomposition -------------------------------------------------------

    def subset(self, lo_elem: int, hi_elem: int) -> "RegionSet":
        """Restriction to global elements ``[lo_elem, hi_elem)``.

        Returns a region set over *local* indices (global minus ``lo_elem``)
        with the same region count and cost — how the distributed
        decomposition shares one global material layout across ranks.
        Regions with no local elements get empty lists.
        """
        if not 0 <= lo_elem <= hi_elem <= len(self.reg_num_list):
            raise ValueError(
                f"invalid element range [{lo_elem}, {hi_elem}) for "
                f"{len(self.reg_num_list)} elements"
            )
        sub = RegionSet.__new__(RegionSet)
        sub.num_reg = self.num_reg
        sub.cost = self.cost
        sub.reg_num_list = self.reg_num_list[lo_elem:hi_elem].copy()
        sub.reg_elem_lists = [
            np.flatnonzero(sub.reg_num_list == r + 1).astype(np.int64)
            for r in range(self.num_reg)
        ]
        sub.reg_elem_sizes = np.array(
            [len(lst) for lst in sub.reg_elem_lists], dtype=np.int64
        )
        return sub

    # --- queries -------------------------------------------------------------

    def rep(self, r: int) -> int:
        """EOS repetition count for region *r*."""
        return region_rep(r, self.num_reg, self.cost)

    def total_eos_work_elems(self) -> int:
        """Σ over regions of ``size * rep`` — the EOS work in element-evals."""
        return int(
            sum(self.reg_elem_sizes[r] * self.rep(r) for r in range(self.num_reg))
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RegionSet(num_reg={self.num_reg}, "
            f"sizes={self.reg_elem_sizes.tolist()})"
        )
