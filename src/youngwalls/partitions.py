"""Integer partitions: the canonical type, enumerators, and count tables.

A partition is stored in canonical form: a weakly decreasing tuple of
positive integers.  All counts use Python's arbitrary-precision integers, so
results are exact at any size.
"""

from __future__ import annotations

from math import isqrt
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


def _width(M: int) -> int:
    """Bits B per coefficient of a series to degree M packed as the integer
    sum c_m 2^(m*B): whole bytes above 4*sqrt(M) > log2 p(M), as p(M) <
    e^(pi sqrt(2M/3)) (Apostol, Thm 14.5).  Each coefficient of the packed
    DPs counts distinct partitions of some m <= M, so no field carries; the
    window DP subtracts only a sum it added, so none borrows."""
    return 8 * ((4 * (isqrt(M) + 1) + 8) // 8)


def _shifted(series: int, i: int, M: int, B: int) -> int:
    """t^i times the packed series, truncated at degree M."""
    return (series & ((1 << (M + 1 - i) * B) - 1)) << i * B


def _over_one_minus(series: int, i: int, M: int, B: int) -> int:
    """The packed series over (1 - t^i) = (1 + t^i)(1 + t^(2i))..., to M."""
    while i <= M:
        series, i = series + _shifted(series, i, M, B), 2 * i
    return series


def _unpack(series: int, M: int, B: int) -> list[int]:
    """The coefficients c_0..c_M of a packed series."""
    raw, w = series.to_bytes((M + 1) * B // 8, "little"), B // 8
    return [int.from_bytes(raw[k : k + w], "little") for k in range(0, len(raw), w)]


def _count_window(M: int, d: int) -> list[int]:
    """Numbers of partitions of m = 0..M obeying ``_windows``' rule at gap
    2*d (the reduced walls at d = delta).  With ``after[r][a]`` the ways to
    place ``r`` more blocks after part ``a`` (a = 0: the start), the packed
    series T_a = sum_r after[r][a] t^r is [a may end] + sum t^b T_b over
    a's window, over (1 - t^a) where the window reaches a.  For a = 1..M, a
    running sum slides over the U_b = t^b T_b, keeping each only until a
    later window drops it; the counts are T_0 = 1 + sum U_b."""
    _check_non_negative(M)
    B, windows = _width(M), _windows(M, d, 2 * d)
    kept: dict[int, int] = {}
    running = total = 0
    for a, (lo, hi, ends) in enumerate(windows[1:], 1):
        for b in range(windows[a - 1][0], lo):
            running -= kept.pop(b)
        u = _shifted(running + ends, a, M, B)
        u = _over_one_minus(u, a, M, B) if hi == a else u
        running, total = running + u, total + u
        if a < windows[M][0]:
            kept[a] = u
    return _unpack(total + 1, M, B)


def _add_shifted(acc: dict[int, int], terms: dict[int, int], shift: int) -> None:
    """Add ``terms``, every code moved by ``shift``, into ``acc``."""
    for code, count in terms.items():
        code += shift
        acc[code] = acc.get(code, 0) + count


def _sub_shifted(acc: dict[int, int], terms: dict[int, int], shift: int) -> None:
    """Take back what ``_add_shifted(acc, terms, shift)`` added, deleting
    each code whose count returns to 0."""
    for code, count in terms.items():
        code += shift
        if acc[code] == count:
            del acc[code]
        else:
            acc[code] -= count


def _product_table(M: int, d: int, codes: list[int]) -> list[dict[int, int]]:
    """Per m = 0..M, packed code -> number of the partitions of m whose parts
    off the multiples of ``d`` are distinct, part i adding ``codes[i]``: the
    product of (1 + x^codes[i] t^i), or 1/(1 - x^codes[i] t^i) where d | i,
    expanded one factor at a time, sizes descending where i is used once.

    The factors run largest part first, so factor i reads at m - i only
    partitions into parts of at least i, of which there are none where
    0 < m - i < i: those empty entries are skipped, and a factor above M/2
    merges one entry.  Smallest part first, factor i would merge every
    partition into parts below i: 1.8 times the entries at rank 5, M = 40."""
    _check_non_negative(M)
    table: list[dict[int, int]] = [{} for _ in range(M + 1)]
    table[0][0] = 1
    for i in range(M, 0, -1):
        for m in range(i, M + 1) if i % d == 0 else range(M, i - 1, -1):
            if table[m - i]:
                _add_shifted(table[m], table[m - i], codes[i])
    return table


def _product_counts(M: int, d: int) -> list[int]:
    """Numbers of the partitions of m = 0..M whose parts off the multiples of
    ``d`` are distinct: ``_product_table`` with every code 0, as the packed
    series of the product of (1 + t^i) off the d grid and 1/(1 - t^i) on it."""
    _check_non_negative(M)
    B, series = _width(M), 1
    for i in range(1, M + 1):
        if i % d:
            series += _shifted(series, i, M, B)
        else:
            series = _over_one_minus(series, i, M, B)
    return _unpack(series, M, B)


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
    unbounded-parts DP over the odd parts, largest part first.

    Before part p, ``dp[s]`` counts the partitions of s into odd parts
    above p, of which there are none where 0 < s < p + 2: p's pass adds the
    partition (p) and reads from 2p on, about M^2/8 additions, not the
    M^2/4 of smallest part first, which reads every entry."""
    _check_non_negative(M)
    dp = [1] + [0] * M
    for part in range(M - 1 + M % 2, 0, -2):
        dp[part] += 1
        for total in range(2 * part, M + 1):
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
