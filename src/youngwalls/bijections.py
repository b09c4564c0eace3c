"""The two reduction maps on proper walls and their explicit inverses.

Both maps strip mass in quanta of 2*delta blocks and return a pair: a member
of the target family (reduced wall, respectively strict partition) plus a
bookkeeping partition hat recording how many quanta were stripped where,
k = |hat| in all.  Each map is one pass over the wall.

* ``psi`` shrinks the prefix above each gap too wide for the reduced-gap
  rule by that gap's largest quantum count, ending on a reduced wall.
* ``phi`` halves every run of equal parts (equal parts in a proper wall sit
  at multiples of delta), ending on a strict partition.

Each map and each rebuild is a core on plain tuples that checks nothing,
and ``_maps`` is the one table of each map's cores and target family.
``psi`` and ``phi`` share ``_forward``: the input guards (``ValueError``),
the core, and one certificate of the raw image (part, hat): part canonical
and in the target family, hat canonical and non-empty, and the rebuild core
gives the input wall back.  Each map derives its trace from that image.
``psi_inv`` and ``phi_inv`` share ``_inverse``: guards, rebuild core, and a
replay of the forward core.  No ``Partition`` wraps what is not yet
certified; a failed certification raises ``CertificationError``, which
``python -O`` keeps.  ``verify`` reads the same table and checks the same
facts itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby, zip_longest
from typing import Callable

from .partitions import Partition, _canonical
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
    partition, total quanta k = |hat|, and the per-step trace."""

    reduced_part: Partition
    hat_part: Partition
    k: int
    trace: tuple[MapStep, ...]


def _maps() -> dict[str, tuple[Callable, Callable, Callable, tuple[str, ...]]]:
    """Each map by name: (forward core, rebuild core, target-family test,
    words (family, verb, member)).  Built per call, so that it holds what
    the perfbench tracer or a test has rebound in this module's globals."""
    return {"psi": (_psi_core, _psi_rebuild_core, is_reduced,
                    ("reduced", "strip", "a reduced wall")),
            "phi": (_phi_core, _phi_rebuild_core,
                    lambda wall, _: Partition.is_strict(wall),
                    ("strict", "delete", "strict"))}


def _forward(name: str, lam: Partition,
             params: WallParams) -> tuple[Partition, Partition]:
    """Guard ``lam``, map it by the core of map ``name`` and certify the raw
    image (part, hat): part is canonical and in the target family, hat is
    canonical and non-empty, and the rebuild core gives ``lam`` back."""
    core, rebuild, in_target, (family, verb, _) = _maps()[name]
    if not is_proper(lam, params):
        raise ValueError(f"{lam!r} is not a proper wall")
    if in_target(lam, params):
        raise ValueError(f"{lam!r} is already {family}; nothing to {verb}")
    part, hat = core(lam, params)
    _certify(_canonical(part) and in_target(part, params),
             f"{name} result not {family}")
    _certify(_canonical(hat) and hat != (), f"{name} hat size")
    _certify(rebuild(part, hat, params) == lam, f"{name} round trip mismatch")
    return Partition(part), Partition(hat)


def _inverse(name: str, part: Partition, hat: Partition,
             params: WallParams) -> Partition:
    """Guard (part, hat), rebuild the wall by map ``name``'s rebuild core and
    certify all that a replay of the forward map would: the wall is
    canonical, proper, outside the target family and sent back to (part, hat)."""
    core, rebuild, in_target, (*_, member) = _maps()[name]
    if not in_target(part, params):
        raise ValueError(f"{part!r} is not {member}")
    if not hat:
        raise ValueError("bookkeeping partition must be non-empty")
    lam = rebuild(part, hat, params)
    _certify(_canonical(lam) and is_proper(lam, params)
             and not in_target(lam, params) and core(lam, params) == (part, hat),
             f"{name}_inv round trip mismatch")
    return Partition(lam)


def _psi_core(lam: tuple, params: WallParams) -> tuple[tuple, tuple]:
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
    return tuple(part[::-1]), tuple(hat[::-1])


def _psi_rebuild_core(reduced: tuple, hat: tuple, params: WallParams) -> tuple:
    """``psi_inv`` unchecked: adds 2 * hat_i * delta to part i."""
    period = params.period
    return tuple(a + period * h for a, h in zip_longest(reduced, hat, fillvalue=0))


def psi(lam: Partition, params: WallParams) -> MapResult:
    """Carry a proper, non-reduced wall to a reduced wall plus bookkeeping
    (``_psi_core``).  The trace lists the nonzero t_j (bookkeeping part j
    less part j+1), deepest gap first, at i = j + 2."""
    reduced, hat = _forward("psi", lam, params)
    steps = [(j + 2, a - b) for j, (a, b)
             in enumerate(zip(hat, hat[1:] + (0,))) if a != b][::-1]
    trace = tuple(MapStep(l, *step) for l, step in enumerate(steps, 1))
    return MapResult(reduced, hat, hat.size, trace)


def psi_inv(reduced: Partition, hat: Partition, params: WallParams) -> Partition:
    """Rebuild the proper wall mapped by ``psi`` to (reduced, hat), replaying
    the forward core to certify the round trip."""
    return _inverse("psi", reduced, hat, params)


def _phi_core(lam: tuple, params: WallParams) -> tuple[tuple, tuple]:
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
    return tuple(part), tuple(hat)


def _phi_rebuild_core(strict_part: tuple, hat: tuple, params: WallParams) -> tuple:
    """``phi_inv`` unchecked: adds a pair of parts v * delta for each
    bookkeeping part v; a partition is the sorted multiset of its parts."""
    pairs = [v * params.delta for v in hat]
    return tuple(sorted([*strict_part, *pairs, *pairs], reverse=True))


def phi(lam: Partition, params: WallParams) -> MapResult:
    """Carry a proper, non-strict partition to a strict one plus bookkeeping
    (``_phi_core``).  Pairs are deleted deepest first, so the pair of
    bookkeeping part j (from 0), of height h = hat_j * delta, goes from the
    strict part plus the pairs of parts 0..j and logs at
    i = #{strict parts >= h} + 2 * (j + 1) with value h."""
    part, hat = _forward("phi", lam, params)
    heights = [(j, v * params.delta) for j, v in enumerate(hat)][::-1]
    steps = [(sum(a >= h for a in part) + 2 * j + 2, h) for j, h in heights]
    trace = tuple(MapStep(l, *step) for l, step in enumerate(steps, 1))
    return MapResult(part, hat, hat.size, trace)


def phi_inv(strict_part: Partition, hat: Partition, params: WallParams) -> Partition:
    """Rebuild the proper partition mapped by ``phi`` to (strict_part, hat),
    replaying the forward core to certify the round trip."""
    return _inverse("phi", strict_part, hat, params)
