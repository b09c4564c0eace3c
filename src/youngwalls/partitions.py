"""Integer partitions: the canonical type, enumerators, and count tables.

A partition is stored in canonical form: a weakly decreasing tuple of
positive integers.  All counts use Python's arbitrary-precision integers, so
results are exact at any size.
"""

from __future__ import annotations

from itertools import accumulate
from operator import ge, gt
from typing import Iterable


def _canonical(parts: tuple) -> bool:
    """The one canonical-form rule: weakly decreasing down to a last part >= 1."""
    return all(map(ge, parts, parts[1:] + (1,)))


class Partition(tuple):
    """A weakly decreasing tuple of positive integers.

    The constructor drops trailing zeros, so callers may pad with them, and
    rejects what is then not canonical.  Indexing, equality, hashing and
    ordering are the tuple's.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()) -> Partition:
        parts = tuple(int(p) for p in parts)
        k = len(parts)
        while k and parts[k - 1] == 0:
            k -= 1
        if not _canonical(parts[:k]):
            raise ValueError(f"parts must be positive and weakly decreasing: {parts}")
        return super().__new__(cls, parts[:k])

    @property
    def size(self) -> int:
        """Total number of blocks, the sum of all parts."""
        return sum(self)

    def is_strict(self) -> bool:
        """True when the positive parts are strictly decreasing."""
        return all(map(gt, self, self[1:]))

    def __repr__(self) -> str:
        return f"Partition({tuple(self)!r})"

    def __str__(self) -> str:
        return ",".join(str(p) for p in self)


def _check_non_negative(m: int) -> None:
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")


def _enumerate_window(m: int, d: int, gap: int) -> list[Partition]:
    """All partitions of ``m`` whose adjacent parts obey one window rule,
    descending lexicographic.

    With e = 1 if part a is a multiple of ``d``, else 0, the part after a
    lies in [a - gap + e, a - 1 + e], and the partition may end after a
    exactly when that window reaches 0.  A ``d`` above ``m`` divides no
    part, so parts strictly decrease; a ``gap`` above ``m`` leaves the
    window unbounded below.
    """
    _check_non_negative(m)
    out: list[Partition] = []
    prefix: list[int] = []

    def rec(rest: int, hi: int, lo: int) -> None:
        # the next part lies in [lo, hi]; the partition may end here if lo <= 0
        if rest == 0:
            if lo <= 0:
                # the window rule keeps parts positive and weakly decreasing
                out.append(tuple.__new__(Partition, prefix))
            return
        if hi > rest:
            hi = rest
        if lo < 1:
            lo = 1
        for a in range(hi, lo - 1, -1):
            prefix.append(a)
            if a % d:
                rec(rest - a, a - 1, a - gap)
            else:
                rec(rest - a, a, a - gap + 1)
            prefix.pop()

    rec(m, m, 0)
    return out


def enumerate_partitions(m: int) -> list[Partition]:
    """All partitions of ``m`` in descending lexicographic order."""
    return _enumerate_window(m, 1, m + 1)


def enumerate_strict(m: int) -> list[Partition]:
    """All partitions of ``m`` into distinct parts, descending lexicographic."""
    return _enumerate_window(m, m + 1, m + 1)


def _count_window(M: int, d: int, gap: int) -> list[int]:
    """Numbers of partitions of m = 0..M obeying ``_enumerate_window``'s
    rule, filled bottom-up in O(M^2).

    ``after[r][a]`` counts the ways to place ``r`` more blocks after a part
    ``a``: the sum of ``after[r - b][b]`` (place ``b``, then the rest) over
    the ``b`` in ``a``'s window, read as a difference of prefix sums over
    ``b``.  A ``d`` or ``gap`` above ``M`` acts as in the enumerator.
    """
    _check_non_negative(M)
    # no window reaches below part 1, so a gap above M + 1 pads for nothing
    gap = min(gap, M + 1)
    # tops[a] = a - 1 + e is the top of a's window [a - gap + e, a - 1 + e];
    # a may end a partition when that window reaches 0, i.e. when top < gap
    tops = [a - 1 + (a % d == 0) for a in range(M + 1)]
    after = [[int(top < gap) for top in tops]]
    counts = [1]
    for r in range(1, M + 1):
        # prefix[x + gap]: the ways to place r blocks starting with a part
        # at most x, 0 for x <= 0; a's window sums to prefix[top + gap] - prefix[top]
        prefix = [0] * (gap + 1)
        prefix += accumulate(after[r - b][b] for b in range(1, r + 1))
        counts.append(prefix[-1])
        prefix += [prefix[-1]] * (M - r)
        after.append([prefix[top + gap] - prefix[top] for top in tops[: M - r + 1]])
    return counts


def _pentagonal(M: int) -> list[tuple[int, int]]:
    """The terms (degree, sign) of prod_{i >= 1} (1 - t^i) up to degree M:
    by Euler's pentagonal number theorem, degree k(3k-1)/2 with sign (-1)^k
    for k = 0, 1, -1, 2, -2, ..., in increasing degree."""
    terms = [(0, 1)]
    k = 1
    while k * (3 * k - 1) // 2 <= M:
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if g <= M:
                terms.append((g, -1 if k % 2 else 1))
        k += 1
    return terms


def _over_euler_product(numerator: list[int]) -> list[int]:
    """Coefficients of numerator(t) / prod_{i >= 1} (1 - t^i) to the same
    degree, by the pentagonal recurrence."""
    terms = _pentagonal(len(numerator) - 1)[1:]
    out: list[int] = []
    for n, c in enumerate(numerator):
        for g, sign in terms:
            if g > n:
                break
            c -= sign * out[n - g]
        out.append(c)
    return out


def partition_counts(M: int) -> list[int]:
    """Numbers of partitions of m = 0..M, by Euler's pentagonal recurrence."""
    _check_non_negative(M)
    return _over_euler_product([1] + [0] * M)


def strict_counts(M: int) -> list[int]:
    """Numbers of partitions of m = 0..M into distinct parts, by the
    pentagonal recurrence for
    prod (1 + t^i) = prod (1 - t^(2i)) / prod (1 - t^i)."""
    _check_non_negative(M)
    numerator = [0] * (M + 1)
    for g, sign in _pentagonal(M // 2):
        numerator[2 * g] = sign
    return _over_euler_product(numerator)


def odd_counts(M: int) -> list[int]:
    """Numbers of partitions of m = 0..M into odd parts, by the
    unbounded-parts DP over the odd parts."""
    _check_non_negative(M)
    dp = [0] * (M + 1)
    dp[0] = 1
    for part in range(1, M + 1, 2):
        for total in range(part, M + 1):
            dp[total] += dp[total - part]
    return dp


def count_partitions(m: int) -> int:
    """Number of partitions of ``m``."""
    return partition_counts(m)[m]


def count_strict(m: int) -> int:
    """Number of partitions of ``m`` into distinct parts."""
    return strict_counts(m)[m]


def count_odd(m: int) -> int:
    """Number of partitions of ``m`` into odd parts."""
    return odd_counts(m)[m]
