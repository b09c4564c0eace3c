"""Virtual characters of finite partition sets and the specialized character.

A virtual character is the multiset of weight vectors of a finite set of
walls, stored as a Counter keyed by weight vector; its total multiplicity is
the cardinality of the set.  The weight-graded tables give the same
multisets for every size m = 0..M at once, without enumerating: entry m maps
a packed weight code to the number of members with m blocks and that
weight.  A code packs the vector (a_0, ..., a_n) as the base-(M+1) number
with digit c equal to a_c (``walls.column_codes``), so adding the codes of
columns adds their weights.  The specialized character
collapses every color to a single grading variable: coefficient m counts
the reduced walls with m blocks.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from .partitions import (Partition, _add_shifted, _check_non_negative, _product_table,
                         _sub_shifted, _windows)
from .walls import WallParams, WeightVector, column_codes, reduced_counts, weight

#: One entry per size m: packed weight code -> number of members.
WeightTable = list[dict[int, int]]


def virtual_character(partitions: Iterable[Partition],
                      params: WallParams) -> "Counter[WeightVector]":
    """Multiset of the weight vectors of the given walls."""
    return Counter(weight(lam, params) for lam in partitions)


def strict_weight_table(params: WallParams, M: int) -> WeightTable:
    """Weights of the strict partitions of m = 0..M, from the product of
    (1 + x^w(i)) over the column heights i <= M."""
    return _product_table(M, M + 1, column_codes(params, M))


def proper_weight_table(params: WallParams, M: int) -> WeightTable:
    """Weights of the proper walls with m = 0..M blocks, from the product of
    (1 + x^w(i)) over heights i off the delta grid and 1/(1 - x^w(i)) on it."""
    return _product_table(M, params.delta, column_codes(params, M))


def reduced_weight_table(params: WallParams, M: int) -> WeightTable:
    """Weights of the reduced walls with m = 0..M blocks, row by row by the
    recursion of ``partitions._count_window`` on weight-graded entries:
    ``after[r][a]`` holds the weights of the ways to place ``r`` more blocks
    after part ``a`` (a = 0: the start), the entries ``after[r - b][b]``
    shifted by column ``b``'s code over the parts ``b`` in ``a``'s window.

    The start's window [1, r] is summed on its own.  For a = 1..M - r the
    window is [lo, min(hi, r)], and ``_windows`` gives hi = a - 1, or a on
    the delta grid, with lo = hi - 2*delta + 1 cut at 1: both ends only move
    right as a grows.  So one running dict per row takes each term when b
    enters the window and takes it back when b leaves, deleting a code whose
    count returns to 0.  Cell a is a copy of it, taken when the window moved
    (cells are read, never changed), and empty once lo passes r."""
    _check_non_negative(M)
    codes, windows = column_codes(params, M), _windows(M, params.delta, params.period)
    after = [[{0: 1} if ends else {} for _, _, ends in windows]]
    for r in range(1, M + 1):
        start: dict[int, int] = {}
        for b in range(1, r + 1):
            _add_shifted(start, after[r - b][b], codes[b])
        row, running, cell, first, last = [start], {}, {}, 1, 0
        for lo, hi, _ in windows[1 : M - r + 1]:
            if lo > r:  # the window has passed every part that fits
                row += [{}] * (M - r + 1 - len(row))
                break
            hi = hi if hi < r else r
            if first < lo or last < hi:
                for b in range(first, lo):
                    _sub_shifted(running, after[r - b][b], codes[b])
                for b in range(last + 1, hi + 1):
                    _add_shifted(running, after[r - b][b], codes[b])
                first, last, cell = lo, hi, dict(running)
            row.append(cell)
        after.append(row)
    return [row[0] for row in after]


def unpack_weight(code: int, params: WallParams, M: int) -> WeightVector:
    """The weight vector that a table built for bound ``M`` packs as ``code``."""
    vector = [0] * params.delta
    for c in range(params.delta):
        if not code:
            break
        code, vector[c] = divmod(code, M + 1)
    return tuple(vector)


def principal_character(params: WallParams, truncation: int) -> list[int]:
    """Series coefficients: entry m is the number of reduced walls with m
    blocks, up to the truncation degree (``ValueError`` below 0)."""
    return reduced_counts(params, truncation)
