"""Deterministic pseudo-random number generation.

LULESH 2.0 builds its region index sets with the C library ``rand()`` seeded
with ``srand(0)``.  The reproduction does not need glibc's exact stream,
only the *same* stream on every run, Python version and platform, so it
uses a small, well-understood LCG (the classic BSD/ANSI-C parameters) with
an explicit seed.
"""

from __future__ import annotations

__all__ = ["Lcg"]


class Lcg:
    """ANSI-C style linear congruential generator.

    ``next_int()`` reproduces the common ``rand()`` recipe::

        state = state * 1103515245 + 12345 (mod 2**31)

    and returns ``state`` (0 <= value < 2**31).  This matches the statistical
    role ``rand()`` plays in LULESH's ``CreateRegionIndexSets``: a cheap,
    repeatable source of region/chunk choices.
    """

    _A = 1103515245
    _C = 12345
    _M = 2**31

    def __init__(self, seed: int = 0) -> None:
        self._state = seed % self._M

    def next_int(self) -> int:
        """Return the next pseudo-random integer in ``[0, 2**31)``."""
        self._state = (self._A * self._state + self._C) % self._M
        return self._state

    def next_in_range(self, bound: int) -> int:
        """Return the next value reduced modulo ``bound`` (``rand() % bound``)."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return self.next_int() % bound

    def next_float(self) -> float:
        """Return the next value scaled to ``[0.0, 1.0)``."""
        return self.next_int() / self._M

    @property
    def state(self) -> int:
        """Current internal state (for checkpoint/restore in tests)."""
        return self._state

    @state.setter
    def state(self, value: int) -> None:
        self._state = value % self._M
