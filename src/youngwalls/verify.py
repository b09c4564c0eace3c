"""Exhaustive verifiers for the counting and character identities.

The two sides of every identity come from different algorithms, and none
reads the identity it tests.  ``euler`` compares four at every degree: the
product series of (1 + t^i), the reciprocal odd-parts series, the pentagonal
strict table and the odd-part DP table.  ``counts`` compares the window-rule
DP table of reduced walls with the pentagonal strict table; ``fock``, the
window-rule table of proper walls with the reduced table convolved with the
pentagonal partition table.  ``vch``, ``bijections`` and
``reduced-equivalence`` enumerate, so the enumerators stay covered.
``bijections`` maps each wall once and inverts through the rebuild cores,
not the replaying public inverses: it compares the rebuilt wall with the
wall mapped, the round trip the replay exists to certify.  A failing
report carries the smallest offending cell and, where applicable, the
lexicographically smallest offending object, so failures reproduce
deterministically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cache
from itertools import product
from typing import Any

from .bijections import CertificationError, phi, phi_rebuild, psi, psi_rebuild
from .characters import virtual_character
from .partitions import (
    enumerate_partitions,
    enumerate_strict,
    odd_counts,
    partition_counts,
    strict_counts,
)
from .series import series_product_odd, series_product_strict
from .walls import (
    WallParams,
    enumerate_proper,
    enumerate_reduced,
    has_removable_delta,
    is_reduced,
    proper_counts,
    reduced_counts,
    weight,
)


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


def verify_euler(max_degree: int) -> VerificationReport:
    """Strict-parts and odd-parts products agree with each other and with
    the pentagonal strict table and the odd-part DP table at every degree up
    to the bound."""
    started = time.perf_counter()
    strict_series = series_product_strict(max_degree)
    odd_series = series_product_odd(max_degree)
    strict_table = strict_counts(max_degree)
    odd_table = odd_counts(max_degree)
    failures = []
    for m in range(max_degree + 1):
        values = {
            "strict_series": strict_series[m],
            "odd_series": odd_series[m],
            "strict_count": strict_table[m],
            "odd_count": odd_table[m],
        }
        if len(set(values.values())) != 1:
            failures.append({"m": m, **values})
    return _report("euler", {"max_degree": max_degree}, failures, started)


def verify_count_identity(params: WallParams, max_m: int) -> VerificationReport:
    """Reduced walls with m blocks are equinumerous with strict partitions
    of m: the window-rule DP against the pentagonal recurrence."""
    started = time.perf_counter()
    failures = []
    reduced_table = reduced_counts(params, max_m)
    strict_table = strict_counts(max_m)
    for m, (reduced, strict) in enumerate(zip(reduced_table, strict_table)):
        if reduced != strict:
            failures.append({"m": m, "reduced": reduced, "strict": strict})
    return _report(
        "counts", {"n": params.n, "max_m": max_m}, failures, started
    )


def verify_fock(params: WallParams, max_m: int) -> VerificationReport:
    """Proper walls with m blocks decompose as reduced walls with
    m - 2*delta*k blocks weighted by the partition numbers P(k)."""
    started = time.perf_counter()
    period = params.period
    failures = []
    proper = proper_counts(params, max_m)
    reduced = reduced_counts(params, max_m)
    partitions = partition_counts(max_m // period)
    for m in range(max_m + 1):
        lhs = proper[m]
        rhs = sum(
            reduced[m - period * k] * partitions[k] for k in range(m // period + 1)
        )
        if lhs != rhs:
            failures.append({"m": m, "proper": lhs, "decomposition": rhs})
    return _report("fock", {"n": params.n, "max_m": max_m}, failures, started)


def verify_vch_identity(params: WallParams, max_m: int) -> VerificationReport:
    """Strict partitions and reduced walls with m blocks carry identical
    weight multisets."""
    started = time.perf_counter()
    failures = []
    for m in range(max_m + 1):
        strict_vch = virtual_character(enumerate_strict(m), params)
        reduced_vch = virtual_character(enumerate_reduced(params, m), params)
        if strict_vch != reduced_vch:
            diff = strict_vch - reduced_vch
            failures.append(
                {
                    "m": m,
                    "strict_only": {str(k): v for k, v in diff.items()},
                    "reduced_only": {
                        str(k): v for k, v in (reduced_vch - strict_vch).items()
                    },
                }
            )
    return _report("vch", {"n": params.n, "max_m": max_m}, failures, started)


def verify_reduced_equivalence(params: WallParams, max_m: int) -> VerificationReport:
    """The gap characterization of reducedness matches the removable-segment
    definition on every proper wall up to the block bound."""
    started = time.perf_counter()
    failures = []
    for m in range(max_m + 1):
        for lam in enumerate_proper(params, m):
            if is_reduced(lam, params) != (not has_removable_delta(lam, params)):
                failures.append({"m": m, "partition": lam})
    return _report(
        "reduced-equivalence", {"n": params.n, "max_m": max_m}, failures, started
    )


def _codomain(listed, family, params: WallParams, m: int) -> set:
    """All (family member of size m - 2*delta*k, partition of k) pairs, k >= 1,
    as tuples; ``listed(enumerator, size)`` supplies each enumeration."""
    period = params.period
    pairs = set()
    for k in range(1, m // period + 1):
        pairs.update(
            product(listed(family, m - period * k), listed(enumerate_partitions, k))
        )
    return pairs


def verify_bijections(params: WallParams, max_m: int) -> VerificationReport:
    """Both reduction maps are total on their domains, invert exactly, hit
    their full codomains injectively, and shift every color count by 2k."""
    started = time.perf_counter()
    failures = []
    jobs = (
        ("psi", psi, psi_rebuild, is_reduced, lambda m: enumerate_reduced(params, m)),
        ("phi", phi, phi_rebuild, lambda lam, p: lam.is_strict(), enumerate_strict),
    )
    # one enumeration per (family, size) and per k, kept for this call only
    listed = cache(lambda enumerator, size: enumerator(size))
    for m in range(max_m + 1):
        images = {name: set() for name, *_ in jobs}
        domain_sizes = dict.fromkeys(images, 0)
        for lam in enumerate_proper(params, m):
            full = None
            for name, forward, rebuild, in_target, _ in jobs:
                if in_target(lam, params):
                    continue
                domain_sizes[name] += 1
                try:
                    result = forward(lam, params)
                    rebuilt = rebuild(result.reduced_part, result.hat_part, params)
                except (ValueError, CertificationError) as exc:
                    failures.append({"m": m, "map": name, "partition": lam,
                                     "error": str(exc)})
                    continue
                if rebuilt != lam:
                    failures.append({"m": m, "map": name, "partition": lam,
                                     "error": "round trip mismatch"})
                    continue
                if full is None:
                    full = weight(lam, params)
                target = weight(result.reduced_part, params)
                shift = 2 * result.k
                if any(a - b != shift for a, b in zip(full, target)):
                    failures.append({"m": m, "map": name, "partition": lam,
                                     "error": "weight shift mismatch"})
                    continue
                images[name].add(result.pair())
        for name, _, _, _, family in jobs:
            expected = _codomain(listed, family, params, m)
            if len(images[name]) != domain_sizes[name] or images[name] != expected:
                failures.append({"m": m, "map": name,
                                 "error": "image does not match codomain"})
    return _report(
        "bijections", {"n": params.n, "max_m": max_m}, failures, started
    )


#: Check names accepted by run_checks, in canonical execution order.
ALL_CHECKS = (
    "euler",
    "counts",
    "fock",
    "vch",
    "bijections",
    "reduced-equivalence",
)


def run_checks(
    n_values: tuple[int, ...],
    max_m: int,
    euler_degree: int,
    checks: tuple[str, ...] = ALL_CHECKS,
) -> list[VerificationReport]:
    """Run the selected checks over all ranks; reports come back ordered by
    (check, n) so identical invocations produce identical output."""
    unknown = [c for c in checks if c not in ALL_CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(unknown)}")
    # built per call, not at module level: the perfbench tracer rebinds the
    # module's verify_* globals, and a module-level dict would keep calling
    # the unwrapped functions and read zero for every verify.* layer metric
    runners = {
        "counts": verify_count_identity,
        "fock": verify_fock,
        "vch": verify_vch_identity,
        "bijections": verify_bijections,
        "reduced-equivalence": verify_reduced_equivalence,
    }
    reports = []
    for check in ALL_CHECKS:
        if check not in checks:
            continue
        if check == "euler":
            reports.append(verify_euler(euler_degree))
            continue
        for n in n_values:
            reports.append(runners[check](WallParams(n), max_m))
    return reports
