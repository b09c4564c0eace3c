"""``verify.plan`` as it was before the check table: its per-check branches
and ``_states``, copied verbatim with the ``ALL_CHECKS`` tuple they read, as
the differential oracle for the table-driven ``plan``.  It reads the object
cap as this module's ``MAX_OBJECTS``, so a test patches it here as well as
in ``verify``."""

from youngwalls.partitions import strict_counts
from youngwalls.verify import MAX_OBJECTS, MAX_SIZE, admit

#: Check names accepted by run_checks, in canonical execution order.
ALL_CHECKS = (
    "euler",
    "counts",
    "fock",
    "vch",
    "bijections",
    "reduced-equivalence",
)


def _states(checks: set[str], n: int, M: int) -> int:
    """The (a, b) states that the selected O(M^2) checks visit at rank n:
    bijections' psi rows, b <= M // 2 and b <= a <= M - b, and
    reduced-equivalence's pairs, 1 <= a <= M and
    b < min(a + [(n + 1) | a], M + 1 - a)."""
    rows, pairs = (M + 2) ** 2 // 4, (M + 1) ** 2 // 4 + M // (2 * n + 2)
    return (rows * ("bijections" in checks)
            + pairs * ("reduced-equivalence" in checks))


def plan(n_values: tuple[int, ...], max_m: int, euler_degree: int,
         checks: tuple[str, ...]) -> int:
    """The table cells the checks build, once they are admitted: a
    ValueError names an unknown check, else ``admit`` refuses, in this
    order, max_m and then the degree against MAX_SIZE, and the cells, then
    the vch entries and the walked states, against MAX_OBJECTS, naming the
    option to mend."""
    if unknown := [c for c in checks if c not in ALL_CHECKS]:
        raise ValueError(f"unknown checks: {', '.join(unknown)}")
    admit("--max-m", max_m, MAX_SIZE)
    admit("--degree", euler_degree, MAX_SIZE)
    # per-rank tables grow with n too: vch's weight codes hold n + 1 counts
    tables = any(check != "euler" for check in checks)
    cells = (max_m + 1) * (sum(n_values) + len(n_values)) if tables else 0
    admit("--n-range", cells, MAX_OBJECTS)
    # per rank, each vch table holds at most one weight per strict partition
    # of each m, and bijections and reduced-equivalence visit O(max_m^2) states
    walked = {"bijections", "reduced-equivalence"} & set(checks)
    per_rank = sum(strict_counts(max_m)) if "vch" in checks else 0
    entries = states = 0
    for rank, n in enumerate(n_values if per_rank or walked else ()):
        entries += per_rank
        states += _states(walked, n, max_m)
        admit("--n-range" if rank else "--max-m", max(entries, states), MAX_OBJECTS)
    return cells
