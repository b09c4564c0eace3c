"""Virtual characters of finite partition sets and the specialized character.

A virtual character is the multiset of weight vectors of a finite set of
walls, stored as a Counter keyed by weight vector; its total multiplicity is
the cardinality of the set.  The specialized character collapses every color
to a single grading variable: coefficient m counts the reduced walls with m
blocks.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from .partitions import Partition
from .walls import WallParams, WeightVector, reduced_counts, weight


def virtual_character(
    partitions: Iterable[Partition], params: WallParams
) -> "Counter[WeightVector]":
    """Multiset of the weight vectors of the given walls."""
    return Counter(weight(lam, params) for lam in partitions)


def principal_character(params: WallParams, truncation: int) -> list[int]:
    """Series coefficients: entry m is the number of reduced walls with m
    blocks, up to the truncation degree (``ValueError`` below 0)."""
    return reduced_counts(params, truncation)
