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

from dataclasses import dataclass
from itertools import accumulate

from .partitions import Partition, _count_window, _enumerate_window

#: Block counts per color (a_0, ..., a_n); always of length n+1.
WeightVector = tuple[int, ...]


@dataclass(frozen=True)
class WallParams:
    """Rank of the wall pattern; delta = n + 1 is the per-column color period's half."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"rank n must be at least 2, got {self.n}")

    @property
    def delta(self) -> int:
        return self.n + 1

    @property
    def period(self) -> int:
        """Blocks per full color cycle in a column: 2 * delta."""
        return 2 * (self.n + 1)


def is_proper(lam: Partition, params: WallParams) -> bool:
    """Equal adjacent positive parts are allowed only at multiples of delta."""
    delta = params.delta
    return all(a != b or a % delta == 0 for a, b in zip(lam, lam[1:]))


def is_reduced(lam: Partition, params: WallParams) -> bool:
    """Proper, and every adjacent gap (last part against 0) is below 2*delta,
    or exactly 2*delta with the taller part not a multiple of delta."""
    delta, period = params.delta, params.period
    for a, b in zip(lam, lam[1:] + (0,)):
        gap = a - b
        if a % delta:
            # gap 0 is an equal pair off the delta grid: not even proper
            if gap == 0 or gap > period:
                return False
        elif gap >= period:
            return False
    return True


def has_removable_delta(lam: Partition, params: WallParams) -> bool:
    """Whether some column can drop 2*delta blocks and leave a proper wall.

    Removal keeps the columns weakly decreasing only if the shortened column
    does not sink below its right neighbour, so a column qualifies when its
    height is at least 2*delta above that neighbour and the shortened wall is
    still proper.  Input must be proper.
    """
    if not is_proper(lam, params):
        raise ValueError(f"wall {lam!r} is not proper")
    period = params.period
    for i, (a, b) in enumerate(zip(lam, lam[1:] + (0,))):
        if a - period >= b:
            shortened = list(lam)
            shortened[i] -= period
            if is_proper(Partition(shortened), params):
                return True
    return False


def enumerate_proper(params: WallParams, m: int) -> list[Partition]:
    """All proper walls with ``m`` blocks, descending lexicographic."""
    return _enumerate_window(m, params.delta, m + 1)


def enumerate_reduced(params: WallParams, m: int) -> list[Partition]:
    """All reduced walls with ``m`` blocks, descending lexicographic."""
    return _enumerate_window(m, params.delta, params.period)


def proper_counts(params: WallParams, M: int) -> list[int]:
    """Numbers of proper walls with m = 0..M blocks, by the window-rule DP."""
    return _count_window(M, params.delta, M + 1)


def reduced_counts(params: WallParams, M: int) -> list[int]:
    """Numbers of reduced walls with m = 0..M blocks, by the window-rule DP."""
    return _count_window(M, params.delta, params.period)


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
