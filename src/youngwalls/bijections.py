"""The two reduction maps on proper walls and their explicit inverses.

Both maps strip mass in quanta of 2*delta blocks and return a pair: a member
of the target family (reduced wall, respectively strict partition) plus a
bookkeeping partition recording how much was stripped where.  Each map is
one pass over the wall.

* ``psi`` shrinks the prefix above each gap too wide for the reduced-gap
  rule by that gap's largest quantum count, ending on a reduced wall.
* ``phi`` halves every run of equal parts (equal parts in a proper wall sit
  at multiples of delta), ending on a strict partition.

Each map and each rebuild is a core on plain tuples (``_psi_core``,
``_phi_core``, ``_psi_rebuild_core``, ``_phi_rebuild_core``) that checks
nothing.  The public functions wrap the cores: ``psi`` and ``phi`` with
input guards (``ValueError``), the trace and a runtime certification of the
result; ``psi_rebuild`` and ``phi_rebuild`` with guards; ``psi_inv`` and
``phi_inv`` with a replay of the forward map that must give their arguments
back.  A failed certification raises ``CertificationError``, which
``python -O`` keeps.  ``verify`` calls the same cores on walls it has
classified, compares the rebuilt wall with the one it started from and
tests each image's membership itself; the maps are deterministic, so a
replay would only return the result already checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby, zip_longest

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


def _psi_core(lam: tuple, params: WallParams) -> tuple[tuple, tuple, int]:
    """``psi`` on a proper, non-reduced wall, unchecked, on plain tuples.

    Gap j lies between parts j and j+1 (the last part is paired against 0)
    and admits t_j quanta: the largest t with gap >= 2*t*delta, equality
    allowed only when part j is a multiple of delta.  Shrinking the prefix
    above a gap changes no gap above it and no residue mod delta, so every
    t_j is read off the input: part j loses 2*delta*(t_j + t_{j+1} + ...),
    and that suffix sum is part j of the bookkeeping partition.
    """
    delta, period = params.delta, params.period
    part, hat, total, lo = [], [], 0, 0
    for a in reversed(lam):
        # off the delta grid the gap must exceed 2*t*delta: one block short
        total += (a - lo - (a % delta != 0)) // period
        lo = a
        if total:
            hat.append(total)
            a -= period * total
        if a:
            part.append(a)
    return tuple(part[::-1]), tuple(hat[::-1]), sum(hat)


def psi(lam: Partition, params: WallParams) -> MapResult:
    """Carry a proper, non-reduced wall to a reduced wall plus bookkeeping
    (``_psi_core``).  The trace lists the nonzero t_j (bookkeeping part j
    less part j+1), deepest gap first, at i = j + 2."""
    if not is_proper(lam, params):
        raise ValueError(f"{lam!r} is not a proper wall")
    if is_reduced(lam, params):
        raise ValueError(f"{lam!r} is already reduced; nothing to strip")

    part, totals, k = _psi_core(lam, params)
    reduced, hat = Partition(part), Partition(totals)
    deepest_first = [(j + 2, a - b) for j, (a, b)
                     in enumerate(zip(hat, hat[1:] + (0,))) if a != b][::-1]
    trace = [MapStep(l, i, t) for l, (i, t) in enumerate(deepest_first, 1)]

    _certify(is_reduced(reduced, params), "psi result not reduced")
    stripped = lam.size - reduced.size
    _certify(stripped > 0 and stripped % params.period == 0, "psi strip size")
    _certify(hat.size == k == stripped // params.period, "psi hat size")
    return MapResult(reduced, hat, k, tuple(trace))


def _psi_rebuild_core(reduced: tuple, hat: tuple, params: WallParams) -> tuple:
    """``psi_rebuild`` unchecked: adds 2 * hat_i * delta to part i."""
    period = params.period
    return tuple(a + period * h for a, h in zip_longest(reduced, hat, fillvalue=0))


def psi_rebuild(reduced: Partition, hat: Partition, params: WallParams) -> Partition:
    """The wall ``psi`` maps to (reduced, hat), without certification."""
    if not is_reduced(reduced, params):
        raise ValueError(f"{reduced!r} is not a reduced wall")
    if not hat:
        raise ValueError("bookkeeping partition must be non-empty")
    return Partition(_psi_rebuild_core(reduced, hat, params))


def psi_inv(reduced: Partition, hat: Partition, params: WallParams) -> Partition:
    """Rebuild the proper wall mapped by ``psi`` to (reduced, hat), replaying
    the forward map to certify the round trip."""
    lam = psi_rebuild(reduced, hat, params)
    back = psi(lam, params)
    _certify(back.pair() == (reduced, hat), "psi_inv round trip mismatch")
    return lam


def _phi_core(lam: tuple, params: WallParams) -> tuple[tuple, tuple, int]:
    """``phi`` on a proper, non-strict partition, unchecked, on plain tuples.

    A run of c equal parts v (necessarily a multiple of delta by
    properness) keeps c % 2 of them and gives the bookkeeping partition
    c // 2 parts v / delta.
    """
    delta, part, hat = params.delta, [], []
    for height, run in groupby(lam):
        count = len(list(run))
        if count % 2:
            part.append(height)
        if count > 1:
            hat += [height // delta] * (count // 2)
    return tuple(part), tuple(hat), sum(hat)


def phi(lam: Partition, params: WallParams) -> MapResult:
    """Carry a proper, non-strict partition to a strict one plus bookkeeping
    (``_phi_core``).  Runs are deleted deepest first, each pair deepest
    first, so a run of v ending at 1-based position e logs its pairs at
    i = e, e - 2, ... with value v; the core's hat must list the trace's
    values over delta, deepest last."""
    if not is_proper(lam, params):
        raise ValueError(f"{lam!r} is not a proper wall")
    if lam.is_strict():
        raise ValueError(f"{lam!r} is already strict; nothing to delete")

    part, values, k = _phi_core(lam, params)
    delta, end, trace = params.delta, len(lam), []
    for height, count in reversed([(h, len(list(run))) for h, run in groupby(lam)]):
        for i in range(end, end - count + 1, -2):
            _certify(height % delta == 0, "phi pair off the delta grid")
            trace.append(MapStep(len(trace) + 1, i, height))
        end -= count

    strict_part, hat = Partition(part), Partition(values)
    _certify(hat == tuple(step.value // delta for step in reversed(trace)),
             "phi hat disagrees with its trace")
    _certify(strict_part.is_strict(), "phi result not strict")
    _certify(lam.size - strict_part.size == k * params.period, "phi delete size")
    return MapResult(strict_part, hat, k, tuple(trace))


def _phi_rebuild_core(strict_part: tuple, hat: tuple, params: WallParams) -> tuple:
    """``phi_rebuild`` unchecked: adds a pair of parts v * delta for each
    bookkeeping part v; a partition is the sorted multiset of its parts."""
    pairs = [v * params.delta for v in hat]
    return tuple(sorted([*strict_part, *pairs, *pairs], reverse=True))


def phi_rebuild(strict_part: Partition, hat: Partition,
                params: WallParams) -> Partition:
    """The partition ``phi`` maps to (strict_part, hat), without certification."""
    if not strict_part.is_strict():
        raise ValueError(f"{strict_part!r} is not strict")
    if not hat:
        raise ValueError("bookkeeping partition must be non-empty")
    return Partition(_phi_rebuild_core(strict_part, hat, params))


def phi_inv(strict_part: Partition, hat: Partition, params: WallParams) -> Partition:
    """Rebuild the proper partition mapped by ``phi`` to (strict_part, hat),
    replaying the forward map to certify the round trip."""
    lam = phi_rebuild(strict_part, hat, params)
    back = phi(lam, params)
    _certify(back.pair() == (strict_part, hat), "phi_inv round trip mismatch")
    return lam
