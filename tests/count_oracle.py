"""The list-based count tables, the per-cell weight table, the
smallest-part-first product table and odd-part DP and the Fock convolution:
differential oracles of the packed-series kernels
``partitions._product_counts`` and ``partitions._count_window``, of the
running window of ``characters.reduced_weight_table``, of the
largest-part-first part order of ``partitions._product_table`` and
``partitions.odd_counts``, and of the division per residue class that
``verify.verify_fock`` takes for its decomposition side.

The kernels store a whole series as one integer and take a few big-integer
shifts and additions per factor or per column.  These are the plain-list
loops they replaced, one Python int addition per (factor, coefficient) or
per (row, part): the same recursions on independent arithmetic, so a field
that carried, borrowed or was cut at the wrong degree shows as a differing
count.  Both read ``partitions._windows`` or the ``d`` grid exactly as the
kernels do, which is the rule under test elsewhere, against enumeration.
The weight table's running window adds each term once and takes it back
once; the oracle sums every cell's window afresh, so a term taken back at
the wrong part, or a code left at count 0, shows as a differing table.  The
product table skips the entries that its factor order leaves empty; the
oracle expands the same product smallest part first and merges every entry,
so a skipped entry that was not empty shows as a differing weight table.
The odd-part DP likewise skips the entries its part order leaves empty; the
oracle runs the odd parts smallest first and reads every entry, so a read
that was skipped but not empty shows as a differing count.  The Fock
decomposition divides the reduced counts by prod (1 - t^(2*delta*k)), the
Euler product on each residue class mod 2*delta; the oracle convolves them
with the partition numbers P(k), one product per (m, k), so a class read
at the wrong stride or offset shows as a differing decomposition.

    PYTHONPATH=src:tests python -O tests/count_oracle.py

checks the kernels and ``odd_counts`` against these loops at the admitted
limit M = 2000, where the window DP below takes about half a second per
``d`` (CPython 3.11 on a 2-vCPU VM), too slow for the tier-1 suite, the
reduced weight table against the cells at ranks 2..5 and M = 120, where
rank 5 takes about a quarter second, and the strict and proper weight
tables against the ascending product at ranks 2..5 and M = 81, the largest
``--max-m`` that ``vch`` admits, and the Fock decomposition against the
convolution at ranks 2..5 and the admitted limit.
"""

from __future__ import annotations

import sys
from itertools import accumulate

from youngwalls.characters import (proper_weight_table, reduced_weight_table,
                                   strict_weight_table)
from youngwalls.partitions import (_add_shifted, _check_non_negative, _count_window,
                                   _product_counts, _windows, odd_counts,
                                   partition_counts)
from youngwalls.verify import verify_fock
from youngwalls.walls import WallParams, column_codes, proper_counts, reduced_counts


def product_counts_by_list(M: int, d: int) -> list[int]:
    """Numbers of the partitions of m = 0..M whose parts off the multiples of
    ``d`` are distinct, one factor at a time on a list: sizes descending
    where part i is used once, ascending on the d grid."""
    _check_non_negative(M)
    counts = [1] + [0] * M
    for i in range(1, M + 1):
        for m in range(i, M + 1) if i % d == 0 else range(M, i - 1, -1):
            counts[m] += counts[m - i]
    return counts


def count_window_by_list(M: int, d: int) -> list[int]:
    """Numbers of partitions of m = 0..M obeying ``_windows``' rule at gap
    2*d, filled bottom-up in O(M^2): ``after[r][a]`` counts the ways to
    place ``r`` more blocks after part ``a`` (after the start at a = 0), the
    sum of ``after[r - b][b]`` over the ``b`` in ``a``'s window, read as a
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


def product_table_by_ascending_factors(M: int, d: int,
                                       codes: list[int]) -> list[dict[int, int]]:
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


def odd_counts_by_ascending_parts(M: int) -> list[int]:
    """Numbers of partitions of m = 0..M into odd parts, by the
    unbounded-parts DP over the odd parts, smallest part first, reading
    every entry from the part up."""
    _check_non_negative(M)
    dp = [1] + [0] * M
    for part in range(1, M + 1, 2):
        for total in range(part, M + 1):
            dp[total] += dp[total - part]
    return dp


def reduced_weight_table_by_cells(params: WallParams, M: int) -> list[dict[int, int]]:
    """Weights of the reduced walls with m = 0..M blocks, each cell on its
    own: ``after[r][a]`` sums the entries ``after[r - b][b]``, shifted by
    column ``b``'s code, over every part ``b`` in ``a``'s window cut at r,
    with no running window carried from cell to cell."""
    _check_non_negative(M)
    codes, windows = column_codes(params, M), _windows(M, params.delta, params.period)
    after = [[{0: 1} if ends else {} for _, _, ends in windows]]
    for r in range(1, M + 1):
        row = []
        for lo, hi, _ in windows[: M - r + 1]:
            acc: dict[int, int] = {}
            for b in range(lo, (hi if hi < r else r) + 1):
                _add_shifted(acc, after[r - b][b], codes[b])
            row.append(acc)
        after.append(row)
    return [row[0] for row in after]


def fock_decomposition_by_convolution(params: WallParams, M: int) -> list[int]:
    """Numbers, for m = 0..M, of the reduced walls with m - 2*delta*k blocks
    weighted by the partition numbers P(k), summed over k: the reduced
    counts convolved with the pentagonal partition table."""
    period, reduced = params.period, reduced_counts(params, M)
    partitions = partition_counts(M // period)
    return [sum(reduced[m - period * k] * partitions[k]
                for k in range(m // period + 1))
            for m in range(M + 1)]


def fock_matches_convolution(params: WallParams, M: int) -> bool:
    """Whether ``verify_fock``'s decomposition equals the convolution at
    every m <= M: the convolution equals ``proper_counts``, and the check,
    which holds the decomposition against ``proper_counts``, passes."""
    convolution = fock_decomposition_by_convolution(params, M)
    return convolution == proper_counts(params, M) and verify_fock(params, M).passed


#: The admitted limit and the grids checked there: delta = 3 (rank 2), two
#: windows of about M / 4 and M / 2 parts, and a grid above M, whose window
#: never drops a column.
LIMIT, LIMIT_GRIDS = 2000, (3, 251, 500, 2001)
#: The bound and the ranks at which the weight table meets its cells, and
#: the Fock decomposition the convolution at ``LIMIT``.
WEIGHT_M, WEIGHT_RANKS = 120, (2, 3, 4, 5)
#: The largest ``--max-m`` that ``vch`` admits, where the product tables meet
#: the ascending product at ``WEIGHT_RANKS``.
PRODUCT_M = 81


def main() -> int:
    """Compare the kernels, ``odd_counts`` and the Fock decomposition with
    the lists at ``LIMIT``, the reduced weight table with its cells at
    ``WEIGHT_M`` and the strict and proper weight tables with the ascending
    product at ``PRODUCT_M``; exit 1 on a mismatch.  A plain comparison,
    not an assert, so that it also runs under -O."""
    failed = False
    for d in LIMIT_GRIDS:
        for kernel, oracle in ((_product_counts, product_counts_by_list),
                               (_count_window, count_window_by_list)):
            same = kernel(LIMIT, d) == oracle(LIMIT, d)
            failed |= not same
            print(f"{kernel.__name__}({LIMIT}, {d}): "
                  f"{'equal' if same else 'DIFFERS'}")
    same = odd_counts(LIMIT) == odd_counts_by_ascending_parts(LIMIT)
    failed |= not same
    print(f"odd_counts({LIMIT}): {'equal' if same else 'DIFFERS'}")
    for n in WEIGHT_RANKS:
        same = fock_matches_convolution(WallParams(n), LIMIT)
        failed |= not same
        print(f"verify_fock(WallParams({n}), {LIMIT}) decomposition: "
              f"{'equal' if same else 'DIFFERS'}")
    for n in WEIGHT_RANKS:
        params = WallParams(n)
        same = (reduced_weight_table(params, WEIGHT_M)
                == reduced_weight_table_by_cells(params, WEIGHT_M))
        failed |= not same
        print(f"reduced_weight_table(WallParams({n}), {WEIGHT_M}): "
              f"{'equal' if same else 'DIFFERS'}")
    for n in WEIGHT_RANKS:
        params = WallParams(n)
        codes = column_codes(params, PRODUCT_M)
        for table, d in ((strict_weight_table, PRODUCT_M + 1),
                         (proper_weight_table, params.delta)):
            same = (table(params, PRODUCT_M)
                    == product_table_by_ascending_factors(PRODUCT_M, d, codes))
            failed |= not same
            print(f"{table.__name__}(WallParams({n}), {PRODUCT_M}): "
                  f"{'equal' if same else 'DIFFERS'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
