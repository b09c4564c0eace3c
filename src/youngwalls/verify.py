"""Exhaustive verifiers for the counting and character identities.

The two sides of every identity come from different algorithms, and none
reads the identity it tests.  ``euler`` compares the product series of
(1 + t^i) with the odd-part DP table at every degree (the pentagonal strict
table would read the identity).  ``counts`` compares the window-rule
DP table of reduced walls with the pentagonal strict table; ``fock``, the
product table of proper walls (distinct parts off the delta grid) with that
reduced table over prod (1 - t^(2*delta*k)), pentagonally.  ``vch``
compares two weight-graded tables (weight multisets per size, by packed
weight code): the product of (1 + x^w(i)) over column heights i for strict
partitions, and the window-rule DP with weight-graded entries for reduced
walls; it enumerates nothing.  ``reduced-equivalence`` compares the gap rule with the
removable-segment rule on every adjacency a proper wall of at most max_m
blocks can have, which decides both whole-wall tests; it lists no wall.
``bijections`` lists no wall either.  It checks the steps that the maps'
cores fold (``bijections._psi_step`` per adjacency, ``_phi_step`` per run,
a rebuild step per column or pair) and the column codes on every state a
wall of at most max_m blocks can show them.  With P = 2*delta, t the psi
step, g ``_reduced_gap`` and p ``_proper_gap``: (1) on every (a, b) with p,
b = 0 past the last part, (0, 0) included, t >= 0, t == 0 exactly when
g(a, b), a - P*t >= b and g(a - P*t, b); (2) t and g keep their values when
a and b both grow by P; (3) the psi rebuild puts column x with h quanta
back as x + P*h; (4) from a reduced adjacency (x, y), (0, 0) included, and
each d >= 0, the rebuilt (x + P*d, y) has p and t == d; (5) phi splits a
run (v, r), r >= 2 only with p(v, v), into kept in {0, 1} parts v and
(r - kept) / 2 parts j with delta*j == v, which the rebuild puts back at v;
(6) codes[a + P] equals codes[a] + codes[P], and 2*codes[j*delta] equals
j*codes[P].  (1) and (4) are checked for b < P, and (2) carries them on.

These imply each whole-wall clause.  Let T_i be the sum of t over the
adjacencies i, i+1, ... of a proper wall lam: psi gives part
lam_i - P*T_i and hat T_i.  By (1) the hat is a partition, empty exactly
on the reduced walls; part_i - part_(i+1) >= 0, so the part is canonical,
and each of its adjacencies is (lam_i - P*t_i, lam_(i+1)) lowered by
P*T_(i+1), reduced by (1) and (2).  Sizes add up per column, which (3)
rebuilds.  Rebuilding a reduced wall mu with a hat H puts
(mu_i + P*d_i, mu_(i+1)), d_i = H_i - H_(i+1), raised by P*H_(i+1), at
adjacency i: proper with quanta d_i by (4) and (2), so psi maps it back to
(mu, H), and psi is onto its codomain and, by the round trip, one-to-one.
phi maps each run on its own, so (5) gives a strict part, a hat that is a
partition, empty exactly when no run repeats, and the sizes and the round
trip; a run (j*delta, 2) in (5) fixes the pair rebuilt for each j, so
rebuilding a strict part with any hat gives runs that phi maps back.  By
(6), a column lam_i outweighs part_i by T_i*codes[P], and two columns
j*delta weigh j*codes[P], so the packed weights of a wall and its image
differ by k = |hat| such columns, which per color is 2k: no digit of a
member's code exceeds max_m - 2k, so adding them carries none.

A failing report carries the smallest offending cell and, where
applicable, the lexicographically smallest offending object, so failures
reproduce deterministically.  A check is one ``_CHECKS`` entry: its runner,
and its cost, a closed form that ``plan`` reads before any table is built.
``run_checks`` and the CLI both refuse, with its ValueError, a run over
``MAX_SIZE`` or ``MAX_OBJECTS``.  Every refusal of an option as too large
or negative, the CLI's too, is ``admit``'s, against a cap its caller
passes (``MAX_RANK`` for a rank).
"""

from __future__ import annotations

import time
from collections import Counter
from itertools import repeat, zip_longest
from typing import Any, Callable

from .bijections import (_phi_rebuild_step, _phi_step, _psi_rebuild_step,
                         _psi_step)
from .characters import reduced_weight_table, strict_weight_table, unpack_weight
from .partitions import (_check_non_negative, _over_euler_product, odd_counts,
                         strict_counts)
from .series import series_product_strict
from .walls import (WallParams, _proper_gap, _reduced_gap, _removable_at,
                    column_codes, proper_counts, reduced_counts)


class VerificationReport:
    """Outcome of one identity check over a parameter range.  Reports are
    equal when all but their ``elapsed`` times are; they are not hashable."""

    def __init__(self, check: str, params: dict[str, Any], passed: bool,
                 counterexample: dict[str, Any] | None = None,
                 elapsed: float = 0.0) -> None:
        self.check, self.params, self.passed = check, params, passed
        self.counterexample, self.elapsed = counterexample, elapsed

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form; elapsed time is diagnostics and left out."""
        return {key: value for key, value in vars(self).items() if key != "elapsed"}

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        fields = ", ".join(f"{key}={value!r}" for key, value in vars(self).items())
        return f"{self.__class__.__qualname__}({fields})"


def _report(check: str, params: dict[str, Any], failures: list[dict[str, Any]],
            started: float) -> VerificationReport:
    witness = min(failures, key=_witness_key) if failures else None
    return VerificationReport(check, params, passed=not failures,
                              counterexample=witness,
                              elapsed=time.perf_counter() - started)


def _witness_key(failure: dict[str, Any]) -> tuple:
    """Order failures by cell, then each wall's own failures before the
    cell-wide ones they cause (image loss), then by offending object."""
    return (failure.get("m", 0), "partition" not in failure,
            failure.get("partition", ()))


def _agree(check: str, params: dict[str, Any], max_m: int, started: float,
           /, record: Callable = dict, **columns: list) -> VerificationReport:
    """Report every m <= max_m where the two named per-m columns differ, as
    {"m": m, **record(<column>=value, ...)}; the default record is the
    values themselves.  A column that ends before m reads None there, so a
    short column fails at its first missing m.  Columns that agree, cut at
    max_m + 1, pass on one list comparison, with no record built."""
    (one, xs), (other, ys) = columns.items()
    xs, ys, failures = xs[: max_m + 1], ys[: max_m + 1], []
    if xs != ys or len(xs) <= max_m:
        pad = [None] * (max_m + 1)
        failures = [{"m": m, **record(**{one: x, other: y})}
                    for m, x, y in zip(range(max_m + 1), xs + pad, ys + pad)
                    if x is None or x != y]
    return _report(check, params, failures, started)


def verify_euler(max_degree: int) -> VerificationReport:
    """Euler's identity to the bound: the strict partitions counted by
    number of parts, the product of (1 + t^i), against the odd-part DP
    table; not the pentagonal strict table, which is the odd-parts series
    once its even factors cancel."""
    started = time.perf_counter()
    return _agree("euler", {"max_degree": max_degree}, max_degree, started,
                  strict_series=series_product_strict(max_degree),
                  odd_count=odd_counts(max_degree))


def verify_count_identity(params: WallParams, max_m: int) -> VerificationReport:
    """Reduced walls with m blocks are equinumerous with strict partitions
    of m: the window-rule DP against the pentagonal recurrence."""
    started = time.perf_counter()
    return _agree("counts", {"n": params.n, "max_m": max_m}, max_m, started,
                  reduced=reduced_counts(params, max_m), strict=strict_counts(max_m))


def verify_fock(params: WallParams, max_m: int) -> VerificationReport:
    """Proper walls with m blocks decompose as reduced walls with
    m - 2*delta*k blocks weighted by the partition numbers P(k): the
    product table of proper walls against the window-rule DP of reduced
    walls over prod (1 - t^(2*delta*k)), by the pentagonal recurrence."""
    started = time.perf_counter()
    period, reduced = params.period, reduced_counts(params, max_m)
    # Euler's product on each class mod 2*delta; a short class pads with None
    classes = [_over_euler_product(reduced[r::period]) for r in range(period)]
    decomposition = [count for row in zip_longest(*classes) for count in row]
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
    a + b <= max_m, and b < a, or b == a where ``_proper_gap(a, a)``, so
    when the rules disagree on none of these O(max_m^2) pairs, the two tests
    agree on every such wall.  A failing pair is recorded as (a, b), or (a,)."""
    _check_non_negative(max_m)
    started = time.perf_counter()
    delta = params.delta
    failures = [{"m": a + b, "partition": (a, b) if b else (a,)}
                for a in range(1, max_m + 1)
                for b in range(min(a + _proper_gap(a, a, delta), max_m - a + 1))
                if _reduced_gap(a, b, delta) == _removable_at(a, b, delta)]
    return _report("reduced-equivalence", {"n": params.n, "max_m": max_m},
                   failures, started)


def verify_bijections(params: WallParams, max_m: int) -> VerificationReport:
    """Both reduction maps are total on their domains, invert exactly, hit
    their full codomains one-to-one, and shift every color count by 2k: the
    module docstring's local claims on the maps' steps and the column codes,
    checked over every state a wall of at most max_m blocks can show them.
    A failing state is recorded as the wall it stands for: an adjacency,
    one or two columns, or a run."""
    _check_non_negative(max_m)
    started = time.perf_counter()
    delta, period = params.delta, params.period
    codes = column_codes(params, max_m)
    # below the period a run of two sits at v < delta, where 0 is owed
    cycle = codes[period] if period <= max_m else 0
    failures = []

    def fail(name: str, error: str, *parts: int) -> None:
        wall = tuple(filter(None, parts))
        failures.append({"m": sum(wall), "map": name, "partition": wall,
                         "error": error})

    for v in range(max_m + 1):
        if not all(_psi_rebuild_step(v - period * h, h, delta) == v
                   for h in range(v // period + 1)):
            fail("psi", "psi round trip mismatch", v)
        if v + period <= max_m and codes[v + period] - codes[v] != cycle:
            fail("psi", "weight shift mismatch", v + period)
        # the runs (v, r) of proper walls: r >= 2 only where (v, v) is proper
        longest = 0 if not v else max_m // v if _proper_gap(v, v, delta) else 1
        if longest >= 2 and 2 * codes[v] != v // delta * cycle:
            fail("phi", "weight shift mismatch", v, v)
        for r in range(1, longest + 1):
            kept, pairs, j = _phi_step(v, r, delta)
            if kept not in (0, 1):
                fail("phi", "phi result not strict", *(v,) * r)
            if not (kept + 2 * pairs == r and (not pairs or delta * j == v
                                               == _phi_rebuild_step(j, delta))):
                fail("phi", "phi round trip mismatch", *(v,) * r)
    below = {}  # (t, g) over a = b..max_m - b, for the last P rows b
    for b in range(max_m // 2 + 1):
        span = range(b, max_m - b + 1)
        row = list(zip(map(_psi_step, span, repeat(b), repeat(delta)),
                       map(_reduced_gap, span, repeat(b), repeat(delta))))
        # the row P below, one entry per a - b, is longer by 2P
        then = below.pop(b - period, row)
        if row != then[:len(row)]:
            for a, now, was in zip(span, row, then):
                if now != was:
                    fail("psi", "psi step not periodic", a, b)
        below[b] = row
        for a, (t, gap) in zip(span, row if b < period else ()):
            if _proper_gap(a, b, delta):  # (0, 0) included
                if not (t >= 0 and (t == 0) == gap):
                    fail("psi", "psi hat size", a, b)
                if not (a - period * t >= b
                        and _reduced_gap(a - period * t, b, delta)):
                    fail("psi", "psi result not reduced", a, b)
        for a, (_, gap) in zip(span, row if b < period else ()):
            for d in range((max_m - a - b) // period + 1 if gap else 0):
                x, y = _psi_rebuild_step(a, d, delta), _psi_rebuild_step(b, 0, delta)
                if not (_proper_gap(x, y, delta) and _psi_step(x, y, delta) == d):
                    fail("psi", "image does not match codomain", a + period * d, b)
    return _report("bijections", {"n": params.n, "max_m": max_m}, failures, started)


#: Each check in canonical execution order: its runner's name, read from the
#: globals per call (the perfbench tracer and tests rebind it), and its cost:
#: None for one run at the degree and no per-rank table, else (ranks, M) ->
#: its objects per budget, (table entries, walked states), one per rank or none.
_CHECKS: dict[str, tuple[str, Callable | None]] = {
    "euler": ("verify_euler", None),
    "counts": ("verify_count_identity", lambda ranks, M: ((), ())),
    "fock": ("verify_fock", lambda ranks, M: ((), ())),
    # each table holds at most one weight per strict partition of each m <= M
    "vch": ("verify_vch_identity",
            lambda ranks, M: ([sum(strict_counts(M))] * len(ranks), ())),
    # the psi rows (a, b): b <= M // 2 and b <= a <= M - b
    "bijections": ("verify_bijections",
                   lambda ranks, M: ((), [(M + 2) ** 2 // 4] * len(ranks))),
    # the pairs (a, b): 1 <= a <= M and b < min(a + [(n + 1) | a], M + 1 - a)
    "reduced-equivalence": ("verify_reduced_equivalence", lambda ranks, M: (
        (), [(M + 1) ** 2 // 4 + M // (2 * n + 2) for n in ranks])),
}

#: Check names accepted by run_checks, in canonical execution order.
ALL_CHECKS = tuple(_CHECKS)


#: Most objects a request may handle, read off count tables or closed forms
#: before anything is built: the members of an ``enum`` or ``vch`` set, the
#: numbers ``vch``'s terms may print, and each of ``plan``'s three sums.
MAX_OBJECTS = 10**6

#: Largest accepted ``--m``, ``--max-m`` and ``--degree``: a count table is
#: O(M log M) shift-and-adds of an O(M^1.5)-bit packed series, and ``verify
#: --max-m 2000 --degree 2000 --checks counts,fock`` at one rank takes 0.25 s.
MAX_SIZE = 2000

#: Largest accepted ``--n`` and ``--n-range`` top: a weight vector holds n + 1
#: counts, so a rank near ``sys.maxsize`` would fail on memory, not as a usage error.
MAX_RANK = 10**6


def admit(option: str, value: int, cap: int) -> None:
    """Refuse ``value`` for ``option`` when it is above ``cap``, then when it
    is negative: the one statement of both rules, for the CLI and the library."""
    if value > cap:
        raise ValueError(f"{option} is too large")
    if value < 0:
        raise ValueError(f"{option} must be non-negative")


def plan(n_values: tuple[int, ...], max_m: int, euler_degree: int,
         checks: tuple[str, ...]) -> int:
    """The table cells the checks build, once they are admitted: a
    ValueError names an unknown check, else, in this order, ``admit``
    refuses max_m and then the degree against MAX_SIZE, ``WallParams`` a
    rank below 2 when a selected check has a cost, and ``admit`` the cells
    and the larger budget summed from the ``_CHECKS`` costs against
    MAX_OBJECTS, naming the option to mend."""
    if unknown := [c for c in checks if c not in _CHECKS]:
        raise ValueError(f"unknown checks: {', '.join(unknown)}")
    admit("--max-m", max_m, MAX_SIZE)
    admit("--degree", euler_degree, MAX_SIZE)
    costs = [cost for check, (_, cost) in _CHECKS.items() if check in checks and cost]
    # per-rank tables grow with n too: a weight code holds delta = n + 1
    # counts, read through WallParams, which refuses a rank below 2
    cells = (max_m + 1) * sum(WallParams(n).delta for n in n_values) if costs else 0
    admit("--n-range", cells, MAX_OBJECTS)
    # each check's objects at each rank, per budget; a sum only grows with the
    # ranks, so the total decides, and the first rank which option to name
    entries, states = zip(((), ()), *[cost(n_values, max_m) for cost in costs])
    total = max(sum(map(sum, entries)), sum(map(sum, states)))
    if total > MAX_OBJECTS:
        admit("--max-m", max(sum(sum(objects[:1]) for objects in budget)
                             for budget in (entries, states)), MAX_OBJECTS)
    admit("--n-range", total, MAX_OBJECTS)
    return cells


def run_checks(n_values: tuple[int, ...], max_m: int, euler_degree: int,
               checks: tuple[str, ...] = ALL_CHECKS) -> list[VerificationReport]:
    """Run the selected checks over all ranks once ``plan`` admits them, a
    check without a cost once, at the degree; reports come back ordered by
    (check, n), so identical invocations produce identical output."""
    plan(n_values, max_m, euler_degree, checks)
    reports = []
    for check, (runner, cost) in _CHECKS.items():
        if check in checks:
            run = globals()[runner]
            reports += ([run(euler_degree)] if cost is None
                        else [run(WallParams(n), max_m) for n in n_values])
    return reports
