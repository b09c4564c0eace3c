"""The walk-based certifier of the reduction maps: the differential oracle of
``verify.verify_bijections``.

``verify`` certifies the maps' steps over their finite state space and lists
no wall.  This oracle certifies what those local claims imply, wall by wall:
one walk of the proper walls per rank, whose reduced and strict flags are
psi's and phi's domains and which carries each wall's packed weight, the
public maps' own certified image (``bijections._image``) on each domain
wall, the packed weight shift, and each map's images against its codomain
by count (the reduced or strict table times the partition table).  Its
reports have the shape and the witnesses of ``verify``'s.  The walk reads
``walls.column_codes`` and the image side this module's own binding, so a
test can perturb either side alone.

``verify_bijections_by_claims`` is ``verify``'s local check as it was
first written: one ``claim`` call per state, and each psi row's
periodicity claimed entry by entry.  It calls the same steps
on the same states in the same order, so on any steps, shipped or mutated,
its report must equal ``verify``'s, which builds a record only on failure.
"""

from __future__ import annotations

import time
from itertools import count
from typing import Callable, Iterator

from youngwalls import walls
from youngwalls.bijections import (CertificationError, _image, _phi_rebuild_step,
                                   _phi_step, _psi_rebuild_step, _psi_step)
from youngwalls.partitions import _check_non_negative, partition_counts, strict_counts
from youngwalls.verify import VerificationReport, _report
from youngwalls.walls import (WallParams, _proper_gap, _reduced_gap, column_codes,
                              reduced_counts)


def _walk_proper(params: WallParams, M: int) -> Iterator[tuple]:
    """Every proper wall of at most ``M`` blocks, the empty one included,
    once each as ``(m, lam, reduced, strict, code)``, in no fixed order.

    Dropping the tallest part of a proper wall leaves one, so the walk puts
    a part a >= b on a wall of tallest part b (0 if empty), a == b only when
    delta | b.  Each flag folds in its whole-wall test's rule (``is_reduced``,
    ``Partition.is_strict``) on the new adjacency (a, b), and the packed
    weight ``code`` adds ``walls.column_codes(params, M)[a]``."""
    delta, codes = params.delta, walls.column_codes(params, M)
    stack = [(0, (), True, True, 0)]
    while stack:
        node = stack.pop()
        yield node
        m, lam, reduced, strict, code = node
        b = lam[0] if lam else 0
        for a in range(b if lam and b % delta == 0 else b + 1, M - m + 1):
            stack.append((m + a, (a,) + lam, reduced and _reduced_gap(a, b, delta),
                          strict and a != b, code + codes[a]))


def verify_bijections_by_walk(params: WallParams, max_m: int) -> VerificationReport:
    """Both reduction maps are total on their domains, invert exactly, hit
    their full codomains injectively, and shift every color count by 2k,
    checked on every proper wall of at most max_m blocks.  When the images
    of m repeat none and number the tables' sum over k >= 1 of
    family(m - 2*delta*k) * P(k), they are the whole codomain."""
    started = time.perf_counter()
    period = params.period
    partitions = partition_counts(max_m // period)
    # a wall's code less its image's is k columns of 2*delta blocks; no
    # digit of a member's code borrows, so this is the per-color comparison
    codes = column_codes(params, max_m)
    cycle = codes[period] if period <= max_m else 0
    families = {"psi": reduced_counts(params, max_m), "phi": strict_counts(max_m)}
    # per map and m, the images keyed part + (0,) + hat
    images = {name: [[] for _ in range(max_m + 1)] for name in families}
    failures = []

    def certifier(name: str) -> Callable[[int, tuple, int], None]:
        found = images[name]

        def certify(m: int, lam: tuple, code: int) -> None:
            try:
                part, hat = _image(name, lam, params)
                if code - sum(map(codes.__getitem__, part)) != sum(hat) * cycle:
                    raise CertificationError("weight shift mismatch")
                found[m].append(part + (0,) + hat)
            except (ValueError, CertificationError) as exc:
                failures.append({"m": m, "map": name, "partition": lam,
                                 "error": str(exc)})

        return certify

    psi, phi = certifier("psi"), certifier("phi")
    for m, lam, reduced, strict, code in _walk_proper(params, max_m):
        if not reduced:
            psi(m, lam, code)
        if not strict:
            phi(m, lam, code)
    for m in range(max_m + 1):
        for name, family in families.items():
            expected = sum(family[m - period * k] * partitions[k]
                           for k in range(1, m // period + 1))
            if not len(set(images[name][m])) == len(images[name][m]) == expected:
                failures.append(
                    {"m": m, "map": name, "error": "image does not match codomain"})
    return _report("bijections", {"n": params.n, "max_m": max_m}, failures, started)


def verify_bijections_by_claims(params: WallParams, max_m: int) -> VerificationReport:
    """``verify.verify_bijections``' claims on the maps' steps and the column
    codes, one ``claim`` call per state, its arguments built whether or not
    it holds, and each psi row's periodicity claimed entry by entry."""
    _check_non_negative(max_m)
    started = time.perf_counter()
    delta, period = params.delta, params.period
    codes = column_codes(params, max_m)
    cycle = codes[period] if period <= max_m else 0
    failures = []

    def claim(holds: bool, name: str, error: str, *parts: int) -> None:
        if not holds:
            wall = tuple(filter(None, parts))
            failures.append({"m": sum(wall), "map": name, "partition": wall,
                             "error": error})

    for v in range(max_m + 1):
        claim(all(_psi_rebuild_step(v - period * h, h, delta) == v
                  for h in range(v // period + 1)), "psi", "psi round trip mismatch", v)
        if v + period <= max_m:
            claim(codes[v + period] - codes[v] == cycle, "psi",
                  "weight shift mismatch", v + period)
        # the runs (v, r) of proper walls: r >= 2 only where (v, v) is proper
        longest = 0 if not v else max_m // v if _proper_gap(v, v, delta) else 1
        if longest >= 2:
            claim(2 * codes[v] == v // delta * cycle, "phi",
                  "weight shift mismatch", v, v)
        for r in range(1, longest + 1):
            kept, pairs, j = _phi_step(v, r, delta)
            claim(kept in (0, 1), "phi", "phi result not strict", *(v,) * r)
            claim(kept + 2 * pairs == r and (not pairs or delta * j == v
                                             == _phi_rebuild_step(j, delta)),
                  "phi", "phi round trip mismatch", *(v,) * r)
    below = {}  # (t, g) over a = b..max_m - b, for the last P rows b
    for b in range(max_m // 2 + 1):
        row = [(_psi_step(a, b, delta), _reduced_gap(a, b, delta))
               for a in range(b, max_m - b + 1)]
        for a, now, then in zip(count(b), row, below.pop(b - period, row)):
            claim(now == then, "psi", "psi step not periodic", a, b)
        below[b] = row
        for a, (t, gap) in zip(count(b), row if b < period else ()):
            if _proper_gap(a, b, delta):  # (0, 0) included
                claim(t >= 0 and (t == 0) == gap, "psi", "psi hat size", a, b)
                claim(a - period * t >= b and _reduced_gap(a - period * t, b, delta),
                      "psi", "psi result not reduced", a, b)
        for a, (_, gap) in zip(count(b), row if b < period else ()):
            for d in range((max_m - a - b) // period + 1 if gap else 0):
                x, y = _psi_rebuild_step(a, d, delta), _psi_rebuild_step(b, 0, delta)
                claim(_proper_gap(x, y, delta) and _psi_step(x, y, delta) == d, "psi",
                      "image does not match codomain", a + period * d, b)
    return _report("bijections", {"n": params.n, "max_m": max_m}, failures, started)
