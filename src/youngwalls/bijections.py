"""The two reduction maps on proper walls and their explicit inverses.

Both maps strip mass in quanta of 2*delta blocks and return a pair: a member
of the target family (reduced wall, respectively strict partition) plus a
bookkeeping partition hat recording how many quanta were stripped where,
k = |hat| in all.  Each map is one pass over the wall, a fold of one local
step, and each rebuild maps one step over columns or pairs.

* ``psi`` shrinks the prefix above each gap too wide for the reduced-gap
  rule by that adjacency's quanta (``_psi_step``), ending on a reduced wall.
* ``phi`` halves each run of equal parts (a run of two or more sits on the
  delta grid in a proper wall) by ``_phi_step``, ending on a strict
  partition.

Each map and each rebuild is a core on plain tuples that checks nothing,
and ``_maps`` is the one table of each map's cores and target family.
``verify`` certifies the four steps over their whole state space and runs
no core.  ``_image`` is the one certificate of a core's raw image (part,
hat).  ``psi`` and ``phi`` share ``_forward``: the input guards
(``ValueError``), then that image; each map derives its trace from it.
``psi_inv`` and ``phi_inv`` share ``_inverse``: guards, rebuild core, and a
replay of the forward core.  No ``Partition`` wraps what is not yet
certified; a failed certification raises ``CertificationError``, which
``python -O`` keeps.
"""

from __future__ import annotations

from itertools import groupby, repeat
from typing import Callable, NamedTuple

from .partitions import Partition, _canonical
from .walls import WallParams, is_proper, is_reduced


class CertificationError(Exception):
    """A reduction map or its inverse broke one of its certified invariants."""


class MapStep(NamedTuple):
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


class MapResult(NamedTuple):
    """Outcome of a reduction map: target-family partition, bookkeeping
    partition, total quanta k = |hat|, and the per-step trace.  Like
    ``MapStep``, an immutable value equal to the plain tuple of its fields."""

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


def _image(name: str, lam: tuple, params: WallParams) -> tuple[tuple, tuple]:
    """Map ``name``'s core, certified: the raw image (part, hat) of a wall
    ``lam`` in the map's domain.  Raises ``CertificationError`` unless part
    is canonical and in the target family, hat is canonical and non-empty,
    |part| + 2*delta*|hat| == |lam|, and the rebuild core gives ``lam``
    back.  The one statement of these clauses."""
    core, rebuild, in_target, (family, *_) = _maps()[name]
    part, hat = core(lam, params)
    if not (_canonical(part) and in_target(part, params)):
        raise CertificationError(f"{name} result not {family}")
    if not (_canonical(hat) and hat):
        raise CertificationError(f"{name} hat size")
    if (sum(part) + params.period * sum(hat) != sum(lam)
            or rebuild(part, hat, params) != lam):
        raise CertificationError(f"{name} round trip mismatch")
    return part, hat


def _forward(name: str, lam: Partition,
             params: WallParams) -> tuple[Partition, Partition]:
    """Guard ``lam`` and map it by map ``name``'s certified image."""
    _, _, in_target, (family, verb, _) = _maps()[name]
    if not (_canonical(lam) and is_proper(lam, params)):
        raise ValueError(f"{lam!r} is not a proper wall")
    if in_target(lam, params):
        raise ValueError(f"{lam!r} is already {family}; nothing to {verb}")
    part, hat = _image(name, lam, params)
    return Partition(part), Partition(hat)


def _inverse(name: str, part: Partition, hat: Partition,
             params: WallParams) -> Partition:
    """Guard (part, hat), rebuild the wall by map ``name``'s rebuild core and
    certify all that a replay of the forward map would: the wall is
    canonical, proper, outside the target family and sent back to (part, hat)."""
    core, rebuild, in_target, (*_, member) = _maps()[name]
    if not (_canonical(part) and in_target(part, params)):
        raise ValueError(f"{part!r} is not {member}")
    if not _canonical(hat):
        raise ValueError(f"{hat!r} is not a partition")
    if not hat:
        raise ValueError("bookkeeping partition must be non-empty")
    lam = rebuild(part, hat, params)
    if not (_canonical(lam) and is_proper(lam, params) and not in_target(lam, params)
            and core(lam, params) == (part, hat)):
        raise CertificationError(f"{name}_inv round trip mismatch")
    return Partition(lam)


def _psi_step(a: int, b: int, delta: int) -> int:
    """The quanta t of part ``a`` over ``b`` (0 past the last part): the
    largest t with a - b >= 2*t*delta, equality allowed only when delta | a."""
    # off the delta grid the gap must exceed 2*t*delta: one block short
    return (a - b - (a % delta != 0)) // (2 * delta)


def _psi_core(lam: tuple, params: WallParams) -> tuple[tuple, tuple]:
    """``psi`` on a proper, non-reduced wall, unchecked, on plain tuples: a
    bottom-up fold of ``_psi_step`` over the adjacencies.

    Shrinking the prefix above a gap changes no gap above it and no residue
    mod delta, so every t_j is read off the input: part j loses
    2*delta*(t_j + t_{j+1} + ...), and that suffix sum is part j of the
    bookkeeping partition.
    """
    delta, period = params.delta, params.period
    part, hat, total, lo = [], [], 0, 0
    for a in reversed(lam):
        total += _psi_step(a, lo, delta)
        lo = a
        if total:
            hat.append(total)
            a -= period * total
        if a:
            part.append(a)
    return tuple(part[::-1]), tuple(hat[::-1])


def _psi_rebuild_step(x: int, h: int, delta: int) -> int:
    """One column of ``psi_inv``: part x with h quanta of 2*delta put back."""
    return x + 2 * delta * h


def _psi_rebuild_core(reduced: tuple, hat: tuple, params: WallParams) -> tuple:
    """``psi_inv`` unchecked: ``_psi_rebuild_step`` per column, 0 past either end."""
    pad = len(hat) - len(reduced)
    return tuple(map(_psi_rebuild_step, reduced + (0,) * pad, hat + (0,) * -pad,
                     repeat(params.delta)))


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


def _phi_step(v: int, r: int, delta: int) -> tuple[int, int, int]:
    """``phi`` on a run of r parts v: (kept, pairs, j), keeping r mod 2 of
    them and emitting r // 2 bookkeeping parts j = v / delta."""
    return r % 2, r // 2, v // delta


def _phi_core(lam: tuple, params: WallParams) -> tuple[tuple, tuple]:
    """``phi`` on a proper, non-strict partition, unchecked, on plain
    tuples: a fold of ``_phi_step`` over the runs of equal parts, tallest
    first."""
    part, hat = [], []
    for v, run in groupby(lam):
        kept, pairs, j = _phi_step(v, len(list(run)), params.delta)
        part += [v] * kept
        hat += [j] * pairs
    return tuple(part), tuple(hat)


def _phi_rebuild_step(j: int, delta: int) -> int:
    """The height of the pair of parts that bookkeeping part j puts back."""
    return j * delta


def _phi_rebuild_core(strict_part: tuple, hat: tuple, params: WallParams) -> tuple:
    """``phi_inv`` unchecked: a pair of parts ``_phi_rebuild_step`` per
    bookkeeping part; a partition is the sorted multiset of its parts."""
    pairs = [_phi_rebuild_step(j, params.delta) for j in hat]
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
