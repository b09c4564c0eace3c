"""Exhaustive verifiers for the counting and character identities.

The two sides of every identity come from different algorithms, and none
reads the identity it tests.  ``euler`` compares four at every degree: the
product series of (1 + t^i), the reciprocal odd-parts series, the pentagonal
strict table and the odd-part DP table.  ``counts`` compares the window-rule
DP table of reduced walls with the pentagonal strict table; ``fock``, the
window-rule table of proper walls with the reduced table convolved with the
pentagonal partition table.  ``vch`` compares two weight-graded tables
(weight multisets per size, by packed weight code): the product of
(1 + x^w(i)) over column heights i for strict partitions, and the
window-rule DP with weight-graded entries for reduced walls; it enumerates
nothing.  ``reduced-equivalence`` compares the gap rule with the
removable-segment rule on every adjacency a proper wall of at most max_m
blocks can have, which decides both whole-wall tests; it lists no wall.
Only ``bijections`` enumerates: one walk of the proper walls per rank,
whose reduced and strict flags are psi's and phi's domains.  It runs the
public maps' table of tuple cores (``bijections._maps``) on them,
compares the rebuilt wall with the wall mapped and the packed weights of
wall and image, and checks each map's images against its codomain by
count: the reduced or strict table times the partition table, never a
listing.  A failing report carries the smallest offending cell and,
where applicable, the lexicographically smallest offending object, so
failures reproduce deterministically.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

from .bijections import CertificationError, _maps
from .characters import reduced_weight_table, strict_weight_table, unpack_weight
from .partitions import _canonical, odd_counts, partition_counts, strict_counts
from .series import series_product_odd, series_product_strict
from .walls import (WallParams, _reduced_gap, _removable_at, _walk_proper,
                    column_codes, proper_counts, reduced_counts)


@dataclass
class VerificationReport:
    """Outcome of one identity check over a parameter range."""

    check: str
    params: dict[str, Any]
    passed: bool
    counterexample: dict[str, Any] | None = None
    elapsed: float = field(default=0.0, compare=False)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form; elapsed time is diagnostics and left out."""
        return {
            "check": self.check,
            "params": self.params,
            "passed": self.passed,
            "counterexample": self.counterexample,
        }


def _report(
    check: str,
    params: dict[str, Any],
    failures: list[dict[str, Any]],
    started: float,
) -> VerificationReport:
    witness = min(failures, key=_witness_key) if failures else None
    return VerificationReport(
        check=check,
        params=params,
        passed=not failures,
        counterexample=witness,
        elapsed=time.perf_counter() - started,
    )


def _witness_key(failure: dict[str, Any]) -> tuple:
    """Order failures by cell, then each wall's own failures before the
    cell-wide ones they cause (image loss), then by offending object."""
    return (failure.get("m", 0), "partition" not in failure,
            failure.get("partition", ()))


def _agree(check: str, params: dict[str, Any], max_m: int, started: float,
           /, record: Callable = dict, **columns: list) -> VerificationReport:
    """Report every m <= max_m where the named per-m columns do not all
    agree, as {"m": m, **record(<column>=value, ...)}; the default record is
    the values themselves.  A column that ends before m reads None there,
    so a short column fails at its first missing m."""
    failures = []
    for m in range(max_m + 1):
        values = {name: column[m] if m < len(column) else None
                  for name, column in columns.items()}
        first, *rest = values.values()
        if None in values.values() or any(value != first for value in rest):
            failures.append({"m": m, **record(**values)})
    return _report(check, params, failures, started)


def verify_euler(max_degree: int) -> VerificationReport:
    """Strict-parts and odd-parts products agree with each other and with
    the pentagonal strict table and the odd-part DP table at every degree up
    to the bound."""
    started = time.perf_counter()
    return _agree("euler", {"max_degree": max_degree}, max_degree, started,
                  strict_series=series_product_strict(max_degree),
                  odd_series=series_product_odd(max_degree),
                  strict_count=strict_counts(max_degree),
                  odd_count=odd_counts(max_degree))


def verify_count_identity(params: WallParams, max_m: int) -> VerificationReport:
    """Reduced walls with m blocks are equinumerous with strict partitions
    of m: the window-rule DP against the pentagonal recurrence."""
    started = time.perf_counter()
    return _agree("counts", {"n": params.n, "max_m": max_m}, max_m, started,
                  reduced=reduced_counts(params, max_m), strict=strict_counts(max_m))


def verify_fock(params: WallParams, max_m: int) -> VerificationReport:
    """Proper walls with m blocks decompose as reduced walls with
    m - 2*delta*k blocks weighted by the partition numbers P(k)."""
    started = time.perf_counter()
    period = params.period
    reduced = reduced_counts(params, max_m)
    partitions = partition_counts(max_m // period)
    decomposition = [sum(reduced[m - period * k] * partitions[k]
                         for k in range(m // period + 1)) for m in range(max_m + 1)]
    return _agree("fock", {"n": params.n, "max_m": max_m}, max_m, started,
                  proper=proper_counts(params, max_m), decomposition=decomposition)


def verify_vch_identity(params: WallParams, max_m: int) -> VerificationReport:
    """Strict partitions and reduced walls with m blocks carry identical
    weight multisets: the product of (1 + x^w(i)) over column heights
    against the weight-graded window-rule DP, one table each for every
    m <= max_m, with no enumeration.  A table that ends before m fails m."""
    started = time.perf_counter()

    def only(strict: dict | None, reduced: dict | None) -> dict[str, Any]:
        # each side's excess over the other, decoded; a missing entry is empty
        sides = {"strict_only": (strict, reduced), "reduced_only": (reduced, strict)}
        return {key: {str(unpack_weight(code, params, max_m)): count for code, count
                      in (Counter(excess or {}) - Counter(other or {})).items()}
                for key, (excess, other) in sides.items()}

    return _agree("vch", {"n": params.n, "max_m": max_m}, max_m, started, only,
                  strict=strict_weight_table(params, max_m),
                  reduced=reduced_weight_table(params, max_m))


def verify_reduced_equivalence(params: WallParams, max_m: int) -> VerificationReport:
    """The gap characterization of reducedness matches the removable-segment
    definition on every proper wall of at most max_m blocks, none listed:
    ``is_reduced`` is ``all`` of ``_reduced_gap`` and ``has_removable_delta``
    ``any`` of ``_removable_at`` over a wall's adjacencies (a, b), the last
    part against b = 0.  Each adjacency of such a wall has a >= 1,
    a + b <= max_m, and b < a or b == a with delta | a, so when the rules
    disagree on none of these O(max_m^2) pairs, the two tests agree on every
    such wall.  A failing pair is recorded as the wall (a, b), or (a,)."""
    started = time.perf_counter()
    delta = params.delta
    failures = [{"m": a + b, "partition": (a, b) if b else (a,)}
                for a in range(1, max_m + 1)
                for b in range(min(a + (a % delta == 0), max_m - a + 1))
                if _reduced_gap(a, b, delta) == _removable_at(a, b, delta)]
    return _report("reduced-equivalence", {"n": params.n, "max_m": max_m},
                   failures, started)


def verify_bijections(params: WallParams, max_m: int) -> VerificationReport:
    """Both reduction maps are total on their domains, invert exactly, hit
    their full codomains injectively, and shift every color count by 2k.

    Only proper walls are listed, by one walk whose reduced and strict flags
    are psi's and phi's domains.  An image counts only as a codomain
    member: both parts canonical, the first in the target family, the hat
    non-empty, |part| + 2*delta*|hat| == m.  When the distinct members number
    the domain's walls and the tables' sum over k >= 1 of
    family(m - 2*delta*k) * P(k), they are the whole codomain.
    """
    started = time.perf_counter()
    period = params.period
    partitions = partition_counts(max_m // period)
    # a column of 2*delta blocks holds every color twice, so the packed
    # weights of a wall and its image must differ by k = |hat| such columns,
    # (2k, ..., 2k).  A member has |part| = m - 2*delta*k, so
    # b_c + 2k <= m - 2*k*delta + 2k <= max_m for each color count b_c of
    # part: every digit of the difference lies in [-max_m, max_m], no borrow
    # crosses a digit, and the one comparison is the per-color one.  No wall
    # below 2*delta blocks is in a domain.
    codes = column_codes(params, max_m)
    cycle = codes[period] if period <= max_m else 0
    maps = _maps()
    families = {"psi": reduced_counts(params, max_m), "phi": strict_counts(max_m)}
    # per map and m, the domain size and the images, keyed part + (0,) + hat
    # (injective, as a member's parts are >= 1) and made a set after the walk
    domains, images = ({name: [0] * (max_m + 1) for name in maps},
                       {name: [[] for _ in range(max_m + 1)] for name in maps})
    failures = []

    def certify(name: str, m: int, lam: tuple) -> None:
        forward, rebuild, in_target, _ = maps[name]
        domains[name][m] += 1
        error = member = None
        try:
            part, hat = forward(lam, params)
            # a non-member is no image; its parts may lie outside codes
            member = (_canonical(part) and _canonical(hat) and hat
                      and in_target(part, params)
                      and sum(part) + period * sum(hat) == m)
            if rebuild(part, hat, params) != lam:
                error = "round trip mismatch"
            elif member and (sum(map(codes.__getitem__, lam))
                             - sum(map(codes.__getitem__, part)) != sum(hat) * cycle):
                error = "weight shift mismatch"
        except (ValueError, CertificationError) as exc:
            error = str(exc)
        if error is not None:
            failures.append({"m": m, "map": name, "partition": lam, "error": error})
        elif member:
            images[name][m].append(part + (0,) + hat)

    for m, lam, reduced, strict in _walk_proper(params, max_m):
        if not reduced:
            certify("psi", m, lam)
        if not strict:
            certify("phi", m, lam)
    for m in range(max_m + 1):
        for name, family in families.items():
            expected = sum(family[m - period * k] * partitions[k]
                           for k in range(1, m // period + 1))
            if not len(set(images[name][m])) == domains[name][m] == expected:
                failures.append(
                    {"m": m, "map": name, "error": "image does not match codomain"})
    return _report("bijections", {"n": params.n, "max_m": max_m}, failures, started)


#: Check names accepted by run_checks, in canonical execution order.
ALL_CHECKS = (
    "euler",
    "counts",
    "fock",
    "vch",
    "bijections",
    "reduced-equivalence",
)


def run_checks(n_values: tuple[int, ...], max_m: int, euler_degree: int,
               checks: tuple[str, ...] = ALL_CHECKS) -> list[VerificationReport]:
    """Run the selected checks over all ranks; reports come back ordered by
    (check, n) so identical invocations produce identical output."""
    unknown = [c for c in checks if c not in ALL_CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(unknown)}")
    # built per call, not at module level: the perfbench tracer rebinds the
    # module's verify_* globals, and a module-level dict would keep calling
    # the unwrapped functions and read zero for every verify.* layer metric
    runners = {"counts": verify_count_identity, "fock": verify_fock,
               "vch": verify_vch_identity, "bijections": verify_bijections,
               "reduced-equivalence": verify_reduced_equivalence}
    reports = [verify_euler(euler_degree)] if "euler" in checks else []
    return reports + [run(WallParams(n), max_m) for check, run in runners.items()
                      if check in checks for n in n_values]
