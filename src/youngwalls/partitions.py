"""Integer partitions: the canonical type, enumerators, and count tables.

A partition is stored in canonical form: a weakly decreasing tuple of
positive integers.  All counts use Python's arbitrary-precision integers, so
results are exact at any size.
"""

from __future__ import annotations

from itertools import accumulate
from operator import ge, gt, index
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
        parts = tuple(map(index, parts))
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


def _windows(M: int, d: int, gap: int) -> list[tuple[int, int, bool]]:
    """The one window rule on adjacent parts, for parts a = 0..M.

    With e = 1 if part a is a multiple of ``d``, else 0, the part after a
    lies in [a - gap + e, a - 1 + e], and a partition may end after a
    exactly when that window reaches 0.  Entry a is ``(lo, hi, ends)``: the
    window cut off below at part 1, and whether a partition may end after a;
    entry 0, (1, M, True), is the start of a partition.  A ``d`` above ``M``
    divides no part, and a ``gap`` above ``M`` cuts at part 1 alone.
    """
    his = (a - 1 + (a % d == 0) for a in range(1, M + 1))
    return [(1, M, True), *((max(1, hi - gap + 1), hi, hi < gap) for hi in his)]


def _enumerate_window(m: int, d: int, gap: int) -> list[Partition]:
    """All partitions of ``m`` whose adjacent parts obey ``_windows``'
    rule, descending lexicographic."""
    _check_non_negative(m)
    windows = _windows(m, d, gap)
    out: list[Partition] = []
    prefix: list[int] = []

    def rec(rest: int, a: int) -> None:
        lo, hi, ends = windows[a]
        if rest == 0:
            if ends:
                # the window rule keeps parts positive and weakly decreasing
                out.append(tuple.__new__(Partition, prefix))
            return
        for b in range(hi if hi < rest else rest, lo - 1, -1):
            prefix.append(b)
            rec(rest - b, b)
            prefix.pop()

    rec(m, 0)
    return out


def enumerate_partitions(m: int) -> list[Partition]:
    """All partitions of ``m`` in descending lexicographic order."""
    return _enumerate_window(m, 1, m + 1)


def enumerate_strict(m: int) -> list[Partition]:
    """All partitions of ``m`` into distinct parts, descending lexicographic."""
    return _enumerate_window(m, m + 1, m + 1)


def _count_window(M: int, d: int) -> list[int]:
    """Numbers of partitions of m = 0..M obeying ``_windows``' rule at gap
    2*d (the reduced walls at d = delta), filled bottom-up in O(M^2):
    ``after[r][a]`` counts the ways to place ``r`` more blocks after part
    ``a`` (after the start at a = 0), the sum of ``after[r - b][b]`` (place
    ``b``, then the rest) over the ``b`` in ``a``'s window, read as a
    difference of prefix sums over ``b``."""
    _check_non_negative(M)
    windows = _windows(M, d, 2 * d)
    after = [[int(ends) for _, _, ends in windows]]
    for r in range(1, M + 1):
        # prefix[x]: the ways to place r blocks starting with a part at most x
        prefix = [0, *accumulate(after[r - b][b] for b in range(1, r + 1))]
        prefix += [prefix[-1]] * (M - r)
        after.append([prefix[hi] - prefix[lo - 1]
                      for lo, hi, _ in windows[: M - r + 1]])
    return [row[0] for row in after]


def _add_shifted(acc: dict[int, int], terms: dict[int, int], shift: int) -> None:
    """Add ``terms``, every code moved by ``shift``, into ``acc``."""
    for code, count in terms.items():
        code += shift
        acc[code] = acc.get(code, 0) + count


def _product_table(M: int, d: int, codes: list[int]) -> list[dict[int, int]]:
    """Per m = 0..M, packed code -> number of the partitions of m whose parts
    off the multiples of ``d`` are distinct, part i adding ``codes[i]``: the
    product of (1 + x^codes[i] t^i), or 1/(1 - x^codes[i] t^i) where d | i,
    expanded one factor at a time, sizes descending where i is used once."""
    _check_non_negative(M)
    table: list[dict[int, int]] = [{} for _ in range(M + 1)]
    table[0][0] = 1
    for i in range(1, M + 1):
        for m in range(i, M + 1) if i % d == 0 else range(M, i - 1, -1):
            _add_shifted(table[m], table[m - i], codes[i])
    return table


def _product_counts(M: int, d: int) -> list[int]:
    """Numbers of the partitions of m = 0..M whose parts off the multiples of
    ``d`` are distinct: ``_product_table`` with every code 0, on plain ints."""
    _check_non_negative(M)
    counts = [1] + [0] * M
    for i in range(1, M + 1):
        for m in range(i, M + 1) if i % d == 0 else range(M, i - 1, -1):
            counts[m] += counts[m - i]
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
