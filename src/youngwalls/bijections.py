"""The two reduction maps on proper walls and their explicit inverses.

Both maps strip mass in quanta of 2*delta blocks and return a pair: a member
of the target family (reduced wall, respectively strict partition) plus a
bookkeeping partition recording how much was stripped where.

* ``psi`` repeatedly finds the deepest adjacent gap that is too wide for the
  reduced-gap rule and shrinks the whole prefix above it, ending on a
  reduced wall.
* ``phi`` repeatedly deletes the deepest equal adjacent column pair (equal
  pairs in a proper wall sit at multiples of delta), ending on a strict
  partition.

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
from itertools import zip_longest

from .partitions import Partition
from .walls import WallParams, is_proper, is_reduced


class CertificationError(Exception):
    """A reduction map or its inverse broke one of its certified invariants."""


def _certify(ok: bool, what: str) -> None:
    if not ok:
        raise CertificationError(what)


@dataclass(frozen=True)
class MapStep:
    """One iteration of a reduction map.

    ``l`` counts iterations from 1, ``i`` is the 1-based position scanned by
    the algorithm (for ``psi`` the first column left unchanged, for ``phi``
    the second member of the deleted pair), and ``value`` is the multiplier
    of 2*delta subtracted (``psi``) or the height of the deleted pair
    (``phi``).
    """

    l: int
    i: int
    value: int


@dataclass(frozen=True)
class MapResult:
    """Outcome of a reduction map: target-family partition, bookkeeping
    partition, total quanta k, and the per-iteration trace."""

    reduced_part: Partition
    hat_part: Partition
    k: int
    trace: tuple[MapStep, ...]

    def pair(self) -> tuple[Partition, Partition]:
        return (self.reduced_part, self.hat_part)


def insert_blocks(lam: Partition, k: int, params: WallParams) -> Partition:
    """Insert a pair of parts ``k * delta`` into ``lam``.

    The pair goes right after the last part that is >= k * delta (all parts
    when none are smaller), so the result stays weakly decreasing.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    value = k * params.delta
    pos = 0
    while pos < len(lam) and lam[pos] >= value:
        pos += 1
    return Partition(lam.parts[:pos] + (value, value) + lam.parts[pos:])


def _max_quanta(hi: int, lo: int, delta: int) -> int:
    """Largest t >= 0 with hi - lo >= 2*t*delta, where equality is
    permitted only if hi is a multiple of delta."""
    t, rem = divmod(hi - lo, 2 * delta)
    if rem == 0 and hi % delta != 0:
        t -= 1
    return t


def psi(lam: Partition, params: WallParams) -> MapResult:
    """Carry a proper, non-reduced wall to a reduced wall plus bookkeeping.

    Each iteration locates the deepest position i (the last positive part is
    also paired against 0) whose gap to the part above admits a positive
    quantum count t under the reduced-gap rule, takes the largest such t,
    and subtracts 2*t*delta from every part above position i.  The
    bookkeeping partition divides the per-part totals by 2*delta.
    """
    if not is_proper(lam, params):
        raise ValueError(f"{lam!r} is not a proper wall")
    if is_reduced(lam, params):
        raise ValueError(f"{lam!r} is already reduced; nothing to strip")

    delta = params.delta
    cur = list(lam.parts)
    trace: list[MapStep] = []
    while True:
        hit = None
        for i in range(len(cur) + 1, 1, -1):
            hi = cur[i - 2]
            lo = cur[i - 1] if i - 1 < len(cur) else 0
            t = _max_quanta(hi, lo, delta)
            if t >= 1:
                hit = (i, t)
                break
        if hit is None:
            break
        i, t = hit
        step = 2 * t * delta
        for j in range(i - 1):
            cur[j] -= step
        while cur and cur[-1] == 0:
            cur.pop()
        trace.append(MapStep(len(trace) + 1, i, t))

    reduced = Partition(cur)
    _certify(is_reduced(reduced, params), "psi result not reduced")
    stripped = lam.size - reduced.size
    _certify(stripped > 0 and stripped % (2 * delta) == 0, "psi strip size")
    k = stripped // (2 * delta)
    hat = Partition(
        (a - b) // (2 * delta)
        for a, b in zip_longest(lam.parts, reduced.parts, fillvalue=0)
    )
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

    Each iteration deletes the deepest equal adjacent pair of positive parts
    (necessarily a multiple of delta by properness).  The deleted heights,
    read from last deletion to first, form the bookkeeping partition.
    """
    if not is_proper(lam, params):
        raise ValueError(f"{lam!r} is not a proper wall")
    if lam.is_strict():
        raise ValueError(f"{lam!r} is already strict; nothing to delete")

    delta = params.delta
    cur = list(lam.parts)
    trace: list[MapStep] = []
    values: list[int] = []
    while True:
        hit = None
        for i in range(len(cur), 1, -1):
            if cur[i - 2] == cur[i - 1]:
                hit = i
                break
        if hit is None:
            break
        i = hit
        height = cur[i - 1]
        _certify(height % delta == 0, "phi pair off the delta grid")
        del cur[i - 2 : i]
        values.append(height // delta)
        trace.append(MapStep(len(trace) + 1, i, height))

    hat = Partition(tuple(reversed(values)))
    strict_part = Partition(cur)
    _certify(strict_part.is_strict(), "phi result not strict")
    k = hat.size
    _certify(lam.size - strict_part.size == k * params.period, "phi delete size")
    return MapResult(strict_part, hat, k, tuple(trace))


def phi_rebuild(
    strict_part: Partition, hat: Partition, params: WallParams
) -> Partition:
    """The proper partition ``phi`` maps to (strict_part, hat), without
    certification.

    Inserts a pair of parts v * delta for each bookkeeping part v, largest
    first.
    """
    if not strict_part.is_strict():
        raise ValueError(f"{strict_part!r} is not strict")
    if not hat:
        raise ValueError("bookkeeping partition must be non-empty")
    lam = strict_part
    for v in hat:
        lam = insert_blocks(lam, v, params)
    return lam


def phi_inv(strict_part: Partition, hat: Partition, params: WallParams) -> Partition:
    """Rebuild the proper partition mapped by ``phi`` to (strict_part, hat),
    replaying the forward map to certify the round trip."""
    lam = phi_rebuild(strict_part, hat, params)
    back = phi(lam, params)
    _certify(back.pair() == (strict_part, hat), "phi_inv round trip mismatch")
    return lam
