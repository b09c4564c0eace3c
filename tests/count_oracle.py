"""The list-based count tables: the differential oracle of the packed-series
kernels ``partitions._product_counts`` and ``partitions._count_window``.

The kernels store a whole series as one integer and take a few big-integer
shifts and additions per factor or per column.  These are the plain-list
loops they replaced, one Python int addition per (factor, coefficient) or
per (row, part): the same recursions on independent arithmetic, so a field
that carried, borrowed or was cut at the wrong degree shows as a differing
count.  Both read ``partitions._windows`` or the ``d`` grid exactly as the
kernels do, which is the rule under test elsewhere, against enumeration.

    PYTHONPATH=src:tests python -O tests/count_oracle.py

checks the kernels against these loops at the admitted limit M = 2000, where
the window DP below takes about half a second per ``d`` (CPython 3.11 on a
2-vCPU VM), too slow for the tier-1 suite.
"""

from __future__ import annotations

import sys
from itertools import accumulate

from youngwalls.partitions import (_check_non_negative, _count_window,
                                   _product_counts, _windows)


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


#: The admitted limit and the grids checked there: delta = 3 (rank 2), two
#: windows of about M / 4 and M / 2 parts, and a grid above M, whose window
#: never drops a column.
LIMIT, LIMIT_GRIDS = 2000, (3, 251, 500, 2001)


def main() -> int:
    """Compare the kernels with the lists at ``LIMIT``; exit 1 on a mismatch.
    A plain comparison, not an assert, so that it also runs under -O."""
    failed = False
    for d in LIMIT_GRIDS:
        for kernel, oracle in ((_product_counts, product_counts_by_list),
                               (_count_window, count_window_by_list)):
            same = kernel(LIMIT, d) == oracle(LIMIT, d)
            failed |= not same
            print(f"{kernel.__name__}({LIMIT}, {d}): "
                  f"{'equal' if same else 'DIFFERS'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
