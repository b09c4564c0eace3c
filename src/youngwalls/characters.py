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

from .partitions import Partition, _check_non_negative
from .walls import WallParams, WeightVector, column_codes, reduced_counts, weight

#: One entry per size m: packed weight code -> number of members.
WeightTable = list[dict[int, int]]


def virtual_character(partitions: Iterable[Partition],
                      params: WallParams) -> "Counter[WeightVector]":
    """Multiset of the weight vectors of the given walls."""
    return Counter(weight(lam, params) for lam in partitions)


def _add_shifted(acc: dict[int, int], terms: dict[int, int], shift: int) -> None:
    """Add ``terms``, every code moved by ``shift``, into ``acc``."""
    for code, count in terms.items():
        code += shift
        acc[code] = acc.get(code, 0) + count


def strict_weight_table(params: WallParams, M: int) -> WeightTable:
    """Weights of the strict partitions of m = 0..M, from the product of
    (1 + x^w(i)) over the column heights i <= M, expanded one factor at a
    time with the degrees descending so that each height is used once."""
    _check_non_negative(M)
    codes = column_codes(params, M)
    table: WeightTable = [{} for _ in range(M + 1)]
    table[0][0] = 1
    for i in range(1, M + 1):
        for m in range(M, i - 1, -1):
            _add_shifted(table[m], table[m - i], codes[i])
    return table


def reduced_weight_table(params: WallParams, M: int) -> WeightTable:
    """Weights of the reduced walls with m = 0..M blocks."""
    return _window_weight_table(params, M, params.period)


def proper_weight_table(params: WallParams, M: int) -> WeightTable:
    """Weights of the proper walls with m = 0..M blocks."""
    return _window_weight_table(params, M, M + 1)


def _window_weight_table(params: WallParams, M: int, gap: int) -> WeightTable:
    """Weights of the walls with m = 0..M blocks obeying the window rule of
    ``partitions._count_window``, by its DP with weight-graded entries: gap
    2*delta gives the reduced walls, a gap above M the proper walls.

    ``after[r][a]`` holds the weights of the ways to place ``r`` more blocks
    after a part ``a``: the entries ``after[r - b][b]`` shifted by column
    ``b``'s code, over the at most ``gap`` parts ``b`` in ``a``'s window.
    """
    _check_non_negative(M)
    codes = column_codes(params, M)
    # a's window is [top - gap + 1, top]; a may end a wall when top < gap
    tops = [a - 1 + (a % params.delta == 0) for a in range(M + 1)]
    after = [[{0: 1} if top < gap else {} for top in tops]]
    table: WeightTable = [{0: 1}]
    for r in range(1, M + 1):
        row = []
        for top in tops[: M - r + 1]:
            acc: dict[int, int] = {}
            for b in range(max(1, top - gap + 1), min(r, top) + 1):
                _add_shifted(acc, after[r - b][b], codes[b])
            row.append(acc)
        after.append(row)
        # the first part may be any b <= r
        whole: dict[int, int] = {}
        for b in range(1, r + 1):
            _add_shifted(whole, after[r - b][b], codes[b])
        table.append(whole)
    return table


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
