"""The two reduction maps on proper walls and their explicit inverses.

Both maps strip mass in quanta of 2*delta blocks and return a pair: a member
of the target family (reduced wall, respectively strict partition) plus a
bookkeeping partition recording how much was stripped where.  Each map is
one pass over the wall.

* ``psi`` shrinks the prefix above each gap too wide for the reduced-gap
  rule by that gap's largest quantum count, ending on a reduced wall.
* ``phi`` halves every run of equal parts (equal parts in a proper wall sit
  at multiples of delta), ending on a strict partition.

Each inverse is a rebuild core (``psi_rebuild``, ``phi_rebuild``) that
checks its arguments and rebuilds the wall without replaying anything.  The
public inverses ``psi_inv`` and ``phi_inv`` certify the core at runtime: they
replay the forward map on the rebuilt wall and insist on getting their
arguments back.  A failed certification raises ``CertificationError``, which
``python -O`` keeps.  ``verify`` calls the cores instead and compares the
rebuilt wall with the one it started from; the maps are deterministic, so
once that holds a replay would only return the result already checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, groupby, zip_longest

from .partitions import Partition
from .walls import WallParams, is_proper, is_reduced


class CertificationError(Exception):
    """A reduction map or its inverse broke one of its certified invariants."""


def _certify(ok: bool, what: str) -> None:
    if not ok:
        raise CertificationError(what)


@dataclass(frozen=True)
class MapStep:
    """One step of a reduction map applied one gap (``psi``) or one pair
    (``phi``) at a time, deepest first.

    ``l`` counts steps from 1, ``i`` is a 1-based position in the wall as it
    stands at that step (for ``psi`` the first column left unchanged, for
    ``phi`` the second member of the deleted pair), and ``value`` is the
    multiplier of 2*delta subtracted (``psi``) or the height of the deleted
    pair (``phi``).
    """

    l: int
    i: int
    value: int


@dataclass(frozen=True)
class MapResult:
    """Outcome of a reduction map: target-family partition, bookkeeping
    partition, total quanta k, and the per-step trace."""

    reduced_part: Partition
    hat_part: Partition
    k: int
    trace: tuple[MapStep, ...]

    def pair(self) -> tuple[Partition, Partition]:
        return (self.reduced_part, self.hat_part)


def _max_quanta(hi: int, lo: int, delta: int) -> int:
    """Largest t >= 0 with hi - lo >= 2*t*delta, where equality is
    permitted only if hi is a multiple of delta: off the delta grid the gap
    must exceed 2*t*delta, so it is counted one block short."""
    return (hi - lo - (hi % delta != 0)) // (2 * delta)


def psi(lam: Partition, params: WallParams) -> MapResult:
    """Carry a proper, non-reduced wall to a reduced wall plus bookkeeping.

    Gap j lies between parts j and j+1 (the last part is paired against 0)
    and admits t_j quanta, the largest count the reduced-gap rule allows.
    Shrinking the prefix above a gap changes no gap above it and no residue
    mod delta, so every t_j is read off the input: part j loses
    2*delta*(t_j + t_{j+1} + ...), and that suffix sum is part j of the
    bookkeeping partition.  The trace lists the nonzero t_j, deepest gap
    first, at i = j + 2.
    """
    if not is_proper(lam, params):
        raise ValueError(f"{lam!r} is not a proper wall")
    if is_reduced(lam, params):
        raise ValueError(f"{lam!r} is already reduced; nothing to strip")

    delta, parts = params.delta, lam.parts
    quanta = [_max_quanta(a, b, delta) for a, b in zip(parts, parts[1:] + (0,))]
    totals = list(accumulate(reversed(quanta)))[::-1]
    deepest_first = [(j + 2, t) for j, t in enumerate(quanta) if t][::-1]
    trace = [MapStep(l, i, t) for l, (i, t) in enumerate(deepest_first, 1)]

    reduced = Partition(a - 2 * delta * h for a, h in zip(parts, totals))
    _certify(is_reduced(reduced, params), "psi result not reduced")
    stripped = lam.size - reduced.size
    _certify(stripped > 0 and stripped % (2 * delta) == 0, "psi strip size")
    k = stripped // (2 * delta)
    hat = Partition(totals)
    _certify(hat.size == k, "psi hat size")
    return MapResult(reduced, hat, k, tuple(trace))


def psi_rebuild(reduced: Partition, hat: Partition, params: WallParams) -> Partition:
    """The wall ``psi`` maps to (reduced, hat), without certification.

    Adds 2 * hat_i * delta to part i of the reduced wall.
    """
    if not is_reduced(reduced, params):
        raise ValueError(f"{reduced!r} is not a reduced wall")
    if not hat:
        raise ValueError("bookkeeping partition must be non-empty")
    period = params.period
    return Partition(
        a + period * h
        for a, h in zip_longest(reduced.parts, hat.parts, fillvalue=0)
    )


def psi_inv(reduced: Partition, hat: Partition, params: WallParams) -> Partition:
    """Rebuild the proper wall mapped by ``psi`` to (reduced, hat), replaying
    the forward map to certify the round trip."""
    lam = psi_rebuild(reduced, hat, params)
    back = psi(lam, params)
    _certify(back.pair() == (reduced, hat), "psi_inv round trip mismatch")
    return lam


def phi(lam: Partition, params: WallParams) -> MapResult:
    """Carry a proper, non-strict partition to a strict one plus bookkeeping.

    A run of c equal parts v (necessarily a multiple of delta by
    properness) keeps c % 2 of them and gives the bookkeeping partition
    c // 2 parts v / delta.  Runs are deleted deepest first, each pair
    deepest first, so a run ending at 1-based position e logs its pairs at
    i = e, e - 2, ... with value v.
    """
    if not is_proper(lam, params):
        raise ValueError(f"{lam!r} is not a proper wall")
    if lam.is_strict():
        raise ValueError(f"{lam!r} is already strict; nothing to delete")

    delta = params.delta
    runs = [(height, len(list(run))) for height, run in groupby(lam.parts)]
    end = len(lam.parts)  # 1-based position of the current run's last part
    trace: list[MapStep] = []
    for height, count in reversed(runs):
        for i in range(end, end - count + 1, -2):
            _certify(height % delta == 0, "phi pair off the delta grid")
            trace.append(MapStep(len(trace) + 1, i, height))
        end -= count

    hat = Partition(step.value // delta for step in reversed(trace))
    strict_part = Partition(height for height, count in runs if count % 2)
    _certify(strict_part.is_strict(), "phi result not strict")
    k = hat.size
    _certify(lam.size - strict_part.size == k * params.period, "phi delete size")
    return MapResult(strict_part, hat, k, tuple(trace))


def phi_rebuild(
    strict_part: Partition, hat: Partition, params: WallParams
) -> Partition:
    """The proper partition ``phi`` maps to (strict_part, hat), without
    certification.

    Adds a pair of parts v * delta for each bookkeeping part v; a partition
    is the sorted multiset of its parts.
    """
    if not strict_part.is_strict():
        raise ValueError(f"{strict_part!r} is not strict")
    if not hat:
        raise ValueError("bookkeeping partition must be non-empty")
    pairs = [v * params.delta for v in hat for _ in range(2)]
    return Partition(sorted(strict_part.parts + tuple(pairs), reverse=True))


def phi_inv(strict_part: Partition, hat: Partition, params: WallParams) -> Partition:
    """Rebuild the proper partition mapped by ``phi`` to (strict_part, hat),
    replaying the forward map to certify the round trip."""
    lam = phi_rebuild(strict_part, hat, params)
    back = phi(lam, params)
    _certify(back.pair() == (strict_part, hat), "phi_inv round trip mismatch")
    return lam
