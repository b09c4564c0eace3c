"""Walls over the rank-n ground state, encoded as partitions of column heights.

Blocks in every column repeat the color pattern 0,1,...,n-1,n,n,n-1,...,1,0
with period 2*delta where delta = n+1, so any 2*delta consecutive blocks of a
column contain each color exactly twice.  A column whose block count is a
multiple of delta ends at half-integer height; all other columns are "full"
(integer height).  A wall is proper when no two full columns are equally
tall, which on partitions means equal adjacent parts occur only at multiples
of delta.  A proper wall is reduced when no single column can shed a
2*delta-block segment and leave a proper wall; on partitions this is the gap
condition: adjacent parts (the last one paired with 0) differ by at most
2*delta, with equality allowed only when the taller part is not a multiple
of delta.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate, repeat
from operator import index
from typing import Iterable

from .partitions import Partition, _count_window, _enumerate_window, _product_counts

#: Block counts per color (a_0, ..., a_n); always of length n+1.
WeightVector = tuple[int, ...]


class WallParams(namedtuple("WallParams", "n")):
    """Rank of the wall pattern; delta = n + 1 is the per-column color period's half.

    An immutable value, equal to and hashed as the tuple ``(n,)``.
    """

    __slots__ = ()

    def __new__(cls, n: int) -> WallParams:
        if (n := index(n)) < 2:
            raise ValueError(f"rank n must be at least 2, got {n}")
        return super().__new__(cls, n)

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> WallParams:
        """The named tuple's ``_make`` and ``_replace`` check the rank too."""
        return cls(*iterable)

    @property
    def delta(self) -> int:
        return self.n + 1

    @property
    def period(self) -> int:
        """Blocks per full color cycle in a column: 2 * delta."""
        return 2 * (self.n + 1)


def _proper_gap(a: int, b: int, delta: int) -> bool:
    """The proper rule on part ``a`` over ``b``: ``_reduced_gap`` without its cap."""
    return b < a or b == a and a % delta == 0


def is_proper(lam: Partition, params: WallParams) -> bool:
    """``_proper_gap`` holds on every adjacency, the last part against 0."""
    return all(map(_proper_gap, lam, lam[1:] + (0,), repeat(params.delta)))


def _reduced_gap(a: int, b: int, delta: int) -> bool:
    """The reduced-gap rule on one adjacency, part ``a`` over ``b`` (0 past
    the last part): ``b`` lies in ``a``'s window of ``partitions._windows``
    at gap 2*delta, [a - 2*delta + e, a - 1 + e], e = 1 when delta | a."""
    return 0 < a - b + (a % delta == 0) <= 2 * delta


def _removable_at(a: int, b: int, delta: int) -> bool:
    """Whether part ``a`` can shed 2*delta blocks over ``b`` and stay proper."""
    return _proper_gap(a - 2 * delta, b, delta)


def is_reduced(lam: Partition, params: WallParams) -> bool:
    """Proper, and every adjacent gap (last part against 0) is below 2*delta,
    or exactly 2*delta with the taller part not a multiple of delta."""
    return all(map(_reduced_gap, lam, lam[1:] + (0,), repeat(params.delta)))


def has_removable_delta(lam: Partition, params: WallParams) -> bool:
    """Whether some column can drop 2*delta blocks and leave a proper wall.

    Removal keeps the columns weakly decreasing only if the shortened column
    does not sink below its right neighbour.  It stays below its left one,
    and properness is adjacency-local, so the shortened wall is proper when
    the one adjacency it changes is.  Input must be proper.
    """
    if not is_proper(lam, params):
        raise ValueError(f"wall {lam!r} is not proper")
    return any(map(_removable_at, lam, lam[1:] + (0,), repeat(params.delta)))


def enumerate_proper(params: WallParams, m: int) -> list[Partition]:
    """All proper walls with ``m`` blocks, descending lexicographic."""
    return _enumerate_window(m, params.delta, m + 1)


def enumerate_reduced(params: WallParams, m: int) -> list[Partition]:
    """All reduced walls with ``m`` blocks, descending lexicographic."""
    return _enumerate_window(m, params.delta, params.period)


def proper_counts(params: WallParams, M: int) -> list[int]:
    """Numbers of proper walls with m = 0..M blocks by ``_product_counts``:
    the product of (1 + t^i) off the delta grid and 1/(1 - t^i) on it."""
    return _product_counts(M, params.delta)


def reduced_counts(params: WallParams, M: int) -> list[int]:
    """Numbers of reduced walls with m = 0..M blocks, by the window-rule DP."""
    return _count_window(M, params.delta)


def weight(lam: Partition, params: WallParams) -> WeightVector:
    """Per-color block counts (a_0, ..., a_n) over all columns.

    Defined for any partition; columns are tallied independently.  Within
    one period of 2*delta blocks color c sits at the 1-based positions c+1
    and 2n+2-c, so a column with q full cycles and remainder r holds
    2q + [c < r] + [c >= 2n+2-r] blocks of color c.  The two indicator
    ranges are tallied in a difference array: O(parts + n).
    """
    n, period = params.n, params.period
    # every column opens the range [0, r) at slot 0; slot n+1 lies past the
    # last color, so a range end or start beyond the colors lands there
    diff = [0] * (n + 2)
    diff[0] = len(lam)
    cycles = 0
    for height in lam:
        q, r = divmod(height, period)
        cycles += q
        diff[min(r, n + 1)] -= 1
        diff[min(period - r, n + 1)] += 1
    return tuple(2 * cycles + c for c in accumulate(diff[: n + 1]))


def column_codes(params: WallParams, M: int) -> list[int]:
    """codes[h]: the packed weight of one column of h blocks, h = 0..M: the
    base-(M+1) number with digit c the count of color c.  No color count of
    m <= M blocks exceeds M, so a wall's code is its columns' sum.  Block j
    (0-based) adds 1 to the digit of its color: r = j mod 2*delta, or
    2*delta - 1 - r once r passes n, the pattern of ``weight``."""
    base, period = M + 1, params.period
    offsets = (j % period for j in range(M))
    return list(accumulate((base ** min(r, period - 1 - r) for r in offsets),
                           initial=0))
