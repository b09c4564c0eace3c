"""The query-mix workload: seeded CLI argv lists and the checks on their stdout.

Only the argv lists reach the program.  The checks use this file's own
reference arithmetic (strict/all partition counts, the Fock decomposition,
weights, the wall predicates), so they do not trust the code under test;
the round-trip check runs the program's opposite map.
"""

from __future__ import annotations

import json
import random

#: Queries of each kind in one batch.  A pass times the whole batch, and
#: p99 is read over all queries timed, so each batch alone has ten samples
#: beyond its p99.  Most queries act on one wall; the set queries are a
#: minority at small m, with `pschar` at a fixed degree as the slow tail.
BATCH = {
    "psi": 170,
    "phi": 170,
    "psi-inv": 110,
    "phi-inv": 110,
    "weight": 240,
    "count": 60,
    "enum": 60,
    "vch": 50,
    "pschar": 30,
}
PSCHAR_DEGREE = 35
SETS = ("proper", "reduced", "strict")


def _literal(parts) -> str:
    return ",".join(str(p) for p in parts)


# --- reference arithmetic, independent of the package -----------------------

def is_proper(parts, n) -> bool:
    d = n + 1
    return all(a != b or a % d == 0 for a, b in zip(parts, parts[1:]))


def is_reduced(parts, n) -> bool:
    d, period = n + 1, 2 * (n + 1)
    if not is_proper(parts, n):
        return False
    for a, b in zip(parts, tuple(parts[1:]) + (0,)):
        if a - b > period or (a - b == period and a % d == 0):
            return False
    return True


def is_partition(parts) -> bool:
    return all(p > 0 for p in parts) and all(
        a >= b for a, b in zip(parts, parts[1:])
    )


def is_strict(parts) -> bool:
    return all(a > b for a, b in zip(parts, parts[1:]))


def ref_weight(parts, n) -> list[int]:
    """Per-color block counts, walking every block of every column."""
    period, counts = 2 * (n + 1), [0] * (n + 1)
    for height in parts:
        for k in range(height):
            r = k % period
            counts[r if r <= n else 2 * n + 1 - r] += 1
    return counts


def _counts(max_m: int, parts, once: bool) -> list[int]:
    dp = [1] + [0] * max_m
    for p in parts:
        span = range(max_m, p - 1, -1) if once else range(p, max_m + 1)
        for t in span:
            dp[t] += dp[t - p]
    return dp


class Reference:
    """Set cardinalities up to ``max_m``, from partition counting alone:
    reduced walls number like strict partitions, and proper walls with m
    blocks decompose as sum_k reduced(m - 2*delta*k) * p(k)."""

    def __init__(self, max_m: int):
        self.strict = _counts(max_m, range(1, max_m + 1), once=True)
        self.all = _counts(max_m, range(1, max_m + 1), once=False)

    def count(self, set_name: str, n: int | None, m: int) -> int:
        if set_name != "proper":
            return self.strict[m]
        period = 2 * (n + 1)
        return sum(
            self.strict[m - period * k] * self.all[k] for k in range(m // period + 1)
        )

    def member(self, set_name: str, n: int | None, parts) -> bool:
        if set_name == "strict":
            return is_strict(parts)
        return (is_reduced if set_name == "reduced" else is_proper)(parts, n)


# --- generation ---------------------------------------------------------------

def _strict_parts(rng: random.Random, lo: int = 1) -> list[int]:
    return sorted(rng.sample(range(1, 61), rng.randint(lo, 8)), reverse=True)


def _with_pairs(rng: random.Random, parts: list[int], n: int, pairs: int):
    """Add ``pairs`` equal column pairs at multiples of delta (still proper)."""
    extra = []
    for _ in range(pairs):
        extra += [rng.randint(1, 8) * (n + 1)] * 2
    return tuple(sorted(parts + extra, reverse=True))


def _reduced_parts(rng: random.Random, n: int) -> tuple[int, ...]:
    """A reduced wall built bottom-up from admissible gaps."""
    d, period = n + 1, 2 * (n + 1)
    parts: list[int] = []
    for _ in range(rng.randint(0, 8)):
        below = parts[-1] if parts else 0
        while True:
            gap = rng.randint(0 if parts else 1, period)
            top = below + gap
            if (gap == 0 and top % d) or (gap == period and top % d == 0):
                continue
            break
        parts.append(top)
    return tuple(reversed(parts))


def _hat(rng: random.Random) -> tuple[int, ...]:
    return tuple(sorted((rng.randint(1, 6) for _ in range(rng.randint(1, 4))),
                        reverse=True))


def _object_query(rng: random.Random, kind: str, n: int) -> dict:
    q = {"kind": kind, "n": n}
    if kind == "psi":
        while True:
            lam = _with_pairs(rng, _strict_parts(rng), n, rng.randint(0, 1))
            if not is_reduced(lam, n):
                break
        q["input"] = lam
    elif kind == "phi":
        q["input"] = _with_pairs(rng, _strict_parts(rng, lo=0), n, rng.randint(1, 2))
    elif kind == "weight":
        q["input"] = _with_pairs(rng, _strict_parts(rng), n, rng.randint(0, 1))
    elif kind == "psi-inv":
        q["input"], q["hat"] = _reduced_parts(rng, n), _hat(rng)
    else:
        q["input"], q["hat"] = tuple(_strict_parts(rng, lo=0)), _hat(rng)
    return q


def _argv(q: dict) -> list[str]:
    kind, n = q["kind"], q["n"]
    if kind in ("psi", "phi"):
        argv = ["map", "--alg", kind, "--n", str(n), "--partition",
                _literal(q["input"]), "--trace"]
    elif kind in ("psi-inv", "phi-inv"):
        argv = ["map", "--alg", kind, "--n", str(n), "--partition",
                _literal(q["input"]), "--hat", _literal(q["hat"])]
    elif kind == "weight":
        argv = ["weight", "--n", str(n), "--partition", _literal(q["input"])]
    elif kind == "pschar":
        argv = ["pschar", "--n", str(n), "--degree", str(q["degree"])]
    else:
        bound = ["--max-m", str(q["max_m"])] if kind == "count" else ["--m", str(q["m"])]
        argv = [kind, "--set", q["set"]] + (["--n", str(n)] if n else []) + bound
    return argv + ["--format", q["format"]]


def generate(seed: int) -> list[dict]:
    """One batch: every query has ``kind``, ``format`` and ``argv``.

    The set queries (``count``, ``enum``, ``vch``, ``pschar``) and the rank
    of every query are the same for every seed, so each seed does the same
    amount of set work; the seed picks the walls, the order and the formats.
    Every ``enum`` and ``vch`` query is drawn from a ``count`` query, so a
    count for the same set, rank and size is always in the batch.
    """
    rng = random.Random(seed)
    queries = []
    for kind in ("psi", "phi", "psi-inv", "phi-inv", "weight"):
        queries += [_object_query(rng, kind, 2 + i % 4) for i in range(BATCH[kind])]
    counts = []
    for i in range(BATCH["count"]):
        set_name = SETS[i % 3]
        n = None if set_name == "strict" else 2 + i // 3 % 3
        counts.append({"kind": "count", "set": set_name, "n": n,
                       "max_m": 16 + i % 9})
    queries += counts
    for kind in ("enum", "vch"):
        for i in range(BATCH[kind]):
            base = counts[i % len(counts)]
            n = base["n"] if kind == "enum" or base["n"] else 2 + i % 3
            queries.append({"kind": kind, "set": base["set"], "n": n, "m": 8 + i % 9})
    queries += [{"kind": "pschar", "n": 2 + i % 3, "degree": PSCHAR_DEGREE}
                for i in range(BATCH["pschar"])]
    rng.shuffle(queries)
    formats = ["text", "json"] * (len(queries) // 2) + ["text"] * (len(queries) % 2)
    rng.shuffle(formats)
    for q, fmt in zip(queries, formats):
        q["format"] = fmt
        q["argv"] = _argv(q)
    return queries


# --- checking -----------------------------------------------------------------

def _parts(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(",")) if text else ()


def _vector(text: str) -> list[int]:
    return [int(t) for t in text.strip("[]").split(",")]


def parse(q: dict, stdout: str) -> dict:
    """Normalize a query's stdout, text or JSON, to one payload shape."""
    if q["format"] == "json":
        payload = json.loads(stdout)["payload"]
        if q["kind"] in ("psi", "phi"):
            payload["steps"] = len(payload.pop("trace"))
        if q["kind"] == "vch":
            payload = {"terms": [(t["weight"], t["multiplicity"])
                                 for t in payload["terms"]]}
        return payload
    lines = stdout.splitlines()
    kind = q["kind"]
    fields = dict(line.split(": ", 1) for line in lines if ": " in line)
    if kind in ("psi", "phi"):
        return {"reduced": list(_parts(fields["reduced"])),
                "hat": list(_parts(fields["hat"])), "k": int(fields["k"]),
                "steps": sum(line.startswith("step ") for line in lines)}
    if kind in ("psi-inv", "phi-inv"):
        return {"result": list(_parts(fields["result"]))}
    if kind == "weight":
        return {"weight": _vector(fields["weight"]), "total": int(fields["total"])}
    if kind == "enum":
        return {"count": int(fields["count"]),
                "partitions": [list(_parts(x)) for x in lines[1:]]}
    if kind == "count":
        return {"counts": [int(line.split(": ")[1]) for line in lines]}
    if kind == "vch":
        terms = []
        for line in lines[1:]:
            vec, mult = line.split(" x")
            terms.append((_vector(vec), int(mult)))
        if len(terms) != int(fields["terms"]):
            raise ValueError("term count line disagrees with the terms listed")
        return {"terms": terms}
    return {"coefficients": [int(c) for c in fields["coefficients"].split(",")]}


def _round_trip(q: dict, out: dict) -> dict:
    """The opposite map applied to a map query's output, as a text query."""
    n = str(q["n"])
    if q["kind"] in ("psi", "phi"):
        kind = q["kind"] + "-inv"
        argv = ["map", "--alg", kind, "--n", n, "--partition",
                _literal(out["reduced"]), "--hat", _literal(out["hat"])]
    else:
        kind = q["kind"][:3]
        argv = ["map", "--alg", kind, "--n", n, "--partition",
                _literal(out["result"])]
    return {"kind": kind, "format": "text", "argv": argv}


def check(q: dict, out: dict, ref: Reference, counts: dict, invoke) -> list[str]:
    """Problems with one query's parsed output; empty when it is correct.

    ``counts`` maps (set, n) to the counts the batch's ``count`` queries
    printed; ``invoke(argv)`` runs the program and returns (exit, stdout).
    """
    kind, n = q["kind"], q.get("n")
    problems = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    if kind in ("psi", "phi", "psi-inv", "phi-inv"):
        period = 2 * (n + 1)
        if kind in ("psi", "phi"):
            lam, small, hat = q["input"], tuple(out["reduced"]), tuple(out["hat"])
            target = is_reduced(small, n) if kind == "psi" else is_strict(small)
            expect(target, "image is outside the target family")
            expect(out["k"] == sum(hat) >= 1 and out["steps"] >= 1,
                   "k, hat and trace disagree")
        else:
            lam, small, hat = tuple(out["result"]), q["input"], q["hat"]
            expect(is_proper(lam, n), "preimage is not proper")
        expect(is_partition(hat), "hat is not a partition")
        expect(sum(lam) == sum(small) + period * sum(hat),
               "block count is not conserved")
        trip = _round_trip(q, out)
        code, text = invoke(trip["argv"])
        back = parse(trip, text) if code == 0 else None
        if kind in ("psi", "phi"):
            expect(back is not None and tuple(back["result"]) == lam,
                   "inverse does not return the input")
        else:
            expect(back is not None and (tuple(back["reduced"]), tuple(back["hat"]))
                   == (small, hat), "forward map does not return the input")
    elif kind == "weight":
        expect(out["weight"] == ref_weight(q["input"], n), "wrong weight")
        expect(out["total"] == sum(q["input"]), "wrong total")
    elif kind == "count":
        want = [ref.count(q["set"], n, m) for m in range(q["max_m"] + 1)]
        expect(out["counts"] == want, "wrong counts")
    elif kind == "enum":
        walls = [tuple(p) for p in out["partitions"]]
        expect(out["count"] == len(walls) == ref.count(q["set"], n, q["m"]),
               "wrong count")
        listed = counts.get((q["set"], n), [])
        expect(q["m"] < len(listed) and out["count"] == listed[q["m"]],
               "count line disagrees with the count query")
        expect(walls == sorted(set(walls), reverse=True),
               "not distinct in descending lexicographic order")
        expect(all(sum(w) == q["m"] and ref.member(q["set"], n, w) for w in walls),
               "a listed partition is outside the set")
    elif kind == "vch":
        mult = [m for _, m in out["terms"]]
        expect(sum(mult) == ref.count(q["set"], n, q["m"]), "wrong total multiplicity")
        expect(all(len(w) == n + 1 and sum(w) == q["m"] for w, _ in out["terms"]),
               "a weight vector has the wrong shape or size")
    else:
        expect(out["coefficients"] == ref.strict[: q["degree"] + 1],
               "coefficients differ from the strict partition numbers")
    return problems
