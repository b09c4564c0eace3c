"""Command-line surface: enumeration, weights, maps, characters, verify suite.

Every command returns one ``(params, payload)`` record; ``main`` writes it to
stdout as one JSON document or as text lines rendered from the payload, and
diagnostics such as elapsed times go to stderr.  Exit codes: 0 on success,
1 when a verification check fails, 2 on usage or domain errors, 3 on any
other (internal) error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Any, Iterator

from .bijections import phi, phi_inv, psi, psi_inv
from .characters import (principal_character, proper_weight_table,
                         reduced_weight_table, strict_weight_table, unpack_weight)
from .partitions import Partition, _canonical, enumerate_strict, strict_counts
from .verify import ALL_CHECKS, run_checks
from .walls import (
    WallParams,
    enumerate_proper,
    enumerate_reduced,
    proper_counts,
    reduced_counts,
    weight,
)

Record = tuple[dict[str, Any], dict[str, Any]]


def parse_partition(text: str) -> Partition:
    """Parse the comma literal: ASCII-digit positive integers, weakly
    decreasing, with optional surrounding whitespace; the empty string is
    the empty partition."""
    text = text.strip()
    if not text:
        return Partition()
    if not re.fullmatch(r"[0-9]+(,[0-9]+)*", text):
        raise ValueError(f"bad partition literal {text!r}: not integers")
    parts = tuple(int(tok) for tok in text.split(","))
    if not _canonical(parts):
        raise ValueError(f"bad partition literal {text!r}: "
                         "parts must be positive and weakly decreasing")
    return Partition(parts)


def parse_n_range(text: str) -> tuple[int, ...]:
    """Parse 'A..B' (or a single rank 'A') into an inclusive tuple of ranks."""
    match = re.fullmatch(r"([0-9]+)(?:\.\.([0-9]+))?", text.strip())
    if not match:
        raise ValueError(f"bad n-range {text!r}: expected A..B")
    a = int(match[1])
    b = int(match[2] or a)
    if a < 2 or b < a:
        raise ValueError(f"bad n-range {text!r}: need 2 <= A <= B")
    if b > MAX_RANK:
        raise ValueError("--n-range is too large")
    return tuple(range(a, b + 1))


def _literal(values) -> str:
    return ",".join(str(v) for v in values)


def _scope(params: dict[str, Any]) -> str:
    return " ".join(f"{k}={v}" for k, v in params.items())


def _within_budget(objects: int, option: str) -> None:
    if objects > MAX_OBJECTS:
        raise ValueError(f"{option} is too large")


def _counts(set_name: str, n: int | None, M: int) -> list[int]:
    """The set's count table for m = 0..M."""
    if set_name == "strict":
        return strict_counts(M)
    count_walls = proper_counts if set_name == "proper" else reduced_counts
    return count_walls(WallParams(n), M)


def _members(set_name: str, n: int | None, m: int) -> list[Partition]:
    """The set's members of size m, after its count table says they fit."""
    _within_budget(_counts(set_name, n, m)[m], "--m")
    if set_name == "strict":
        return enumerate_strict(m)
    enumerate_walls = enumerate_proper if set_name == "proper" else enumerate_reduced
    return enumerate_walls(WallParams(n), m)


def cmd_enum(args: argparse.Namespace) -> Record:
    members = _members(args.set, args.n, args.m)
    params = {"set": args.set, "n": args.n, "m": args.m}
    return params, {"count": len(members), "partitions": members}


def text_enum(payload: dict[str, Any]) -> Iterator[str]:
    yield f"count: {payload['count']}"
    yield from map(_literal, payload["partitions"])


def cmd_weight(args: argparse.Namespace) -> Record:
    lam = parse_partition(args.partition)
    vec = list(weight(lam, WallParams(args.n)))
    params = {"n": args.n, "partition": lam}
    return params, {"weight": vec, "total": sum(vec)}


def text_weight(payload: dict[str, Any]) -> Iterator[str]:
    yield f"weight: [{_literal(payload['weight'])}]"
    yield f"total: {payload['total']}"


def cmd_map(args: argparse.Namespace) -> Record:
    params = WallParams(args.n)
    lam = parse_partition(args.partition)
    record_params = {"alg": args.alg, "n": args.n, "partition": lam}
    if args.alg.endswith("-inv"):
        if args.hat is None:
            raise ValueError(f"{args.alg} needs --hat")
        hat = parse_partition(args.hat)
        record_params["hat"] = hat
        inverse = psi_inv if args.alg == "psi-inv" else phi_inv
        return record_params, {"result": inverse(lam, hat, params)}
    if args.hat is not None:
        raise ValueError(f"--hat is only for the inverse maps, not {args.alg}")
    result = (psi if args.alg == "psi" else phi)(lam, params)
    payload: dict[str, Any] = {"reduced": result.reduced_part,
                               "hat": result.hat_part, "k": result.k}
    if args.trace:
        key = "t" if args.alg == "psi" else "pair"
        payload["trace"] = [{"l": s.l, "i": s.i, key: s.value} for s in result.trace]
    return record_params, payload


def text_map(payload: dict[str, Any]) -> Iterator[str]:
    if "result" in payload:
        yield f"result: {_literal(payload['result'])}"
        return
    yield f"reduced: {_literal(payload['reduced'])}"
    yield f"hat: {_literal(payload['hat'])}"
    yield f"k: {payload['k']}"
    for step in payload.get("trace", []):
        key = "t" if "t" in step else "pair"
        yield f"step {step['l']}: i={step['i']} {key}={step[key]}"


def cmd_vch(args: argparse.Namespace) -> Record:
    wall_params, m = WallParams(args.n), args.m
    members = _counts(args.set, args.n, m)[m]
    _within_budget(members, "--m")
    # a table entry has at most one term per member, each of n + 1 numbers
    _within_budget(members * (args.n + 1), "--n")
    tables = {"proper": proper_weight_table, "reduced": reduced_weight_table,
              "strict": strict_weight_table}
    entry = tables[args.set](wall_params, m)[m]
    vch = sorted((unpack_weight(code, wall_params, m), c) for code, c in entry.items())
    terms = [{"weight": list(v), "multiplicity": c} for v, c in vch]
    params = {"set": args.set, "n": args.n, "m": m}
    return params, {"total": sum(entry.values()), "terms": terms}


def text_vch(payload: dict[str, Any]) -> Iterator[str]:
    yield f"terms: {len(payload['terms'])}"
    for term in payload["terms"]:
        yield f"[{_literal(term['weight'])}] x{term['multiplicity']}"


def cmd_pschar(args: argparse.Namespace) -> Record:
    coeffs = principal_character(WallParams(args.n), args.degree)
    payload = {"degree": args.degree, "coefficients": coeffs}
    return {"n": args.n, "degree": args.degree}, payload


def text_pschar(payload: dict[str, Any]) -> Iterator[str]:
    yield f"degree: {payload['degree']}"
    yield "coefficients: " + _literal(payload["coefficients"])


def cmd_count(args: argparse.Namespace) -> Record:
    counts = _counts(args.set, args.n, args.max_m)
    return {"set": args.set, "n": args.n, "max_m": args.max_m}, {"counts": counts}


def text_count(payload: dict[str, Any]) -> Iterator[str]:
    for m, c in enumerate(payload["counts"]):
        yield f"{m}: {c}"


def cmd_verify(args: argparse.Namespace) -> Record:
    n_values = parse_n_range(args.n_range)
    names = ALL_CHECKS if args.checks is None else args.checks.split(",")
    if "" in names:
        raise ValueError("--checks has an empty check name")
    checks = tuple(dict.fromkeys(names))
    # per-rank tables grow with n too: vch's weight codes hold n + 1 counts
    if any(check != "euler" for check in checks):
        _within_budget((args.max_m + 1) * (sum(n_values) + len(n_values)), "--n-range")
    # bijections walks every proper wall of each rank; no other check lists any
    walls = 0
    for n in n_values if "bijections" in checks else ():
        walls += sum(proper_counts(WallParams(n), args.max_m))
        _within_budget(walls, "--max-m" if n == n_values[0] else "--n-range")
    reports = run_checks(n_values, args.max_m, args.degree, checks)
    for r in reports:
        print(f"# {r.check} {_scope(r.params)} elapsed={r.elapsed:.3f}s",
              file=sys.stderr)
    params = {"n_range": list(n_values), "max_m": args.max_m,
              "degree": args.degree, "checks": list(checks)}
    payload = {"reports": [r.to_dict() for r in reports],
               "all_passed": all(r.passed for r in reports)}
    return params, payload


def text_verify(payload: dict[str, Any]) -> Iterator[str]:
    for r in payload["reports"]:
        line = f"{'PASS' if r['passed'] else 'FAIL'} {r['check']} {_scope(r['params'])}"
        if not r["passed"]:
            line += f" counterexample={json.dumps(r['counterexample'], sort_keys=True)}"
        yield line


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="youngwalls",
        description="Enumerate constrained walls and strict partitions, compute "
        "weights and characters, run the reduction maps, and verify the "
        "counting and character identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_n(p: argparse.ArgumentParser, required: bool) -> None:
        p.add_argument("--n", type=int, required=required,
                       help="wall rank, at least 2")

    p = sub.add_parser("enum", help="list a set of partitions of m")
    p.add_argument("--set", choices=("proper", "reduced", "strict"), required=True)
    add_n(p, required=False)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=cmd_enum, text=text_enum)

    p = sub.add_parser("weight", help="per-color block counts of a wall")
    add_n(p, required=True)
    p.add_argument("--partition", required=True,
                   help="comma literal, e.g. '5,2,1'; empty string for ()")
    p.set_defaults(func=cmd_weight, text=text_weight)

    p = sub.add_parser("map", help="run a reduction map or its inverse")
    p.add_argument("--alg", choices=("psi", "phi", "psi-inv", "phi-inv"),
                   required=True)
    add_n(p, required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--hat", help="bookkeeping partition literal (inverse maps)")
    p.add_argument("--trace", action="store_true",
                   help="print one line per algorithm step")
    p.set_defaults(func=cmd_map, text=text_map)

    p = sub.add_parser("vch", help="virtual character of a set")
    p.add_argument("--set", choices=("proper", "reduced", "strict"), required=True)
    add_n(p, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=cmd_vch, text=text_vch)

    p = sub.add_parser("pschar", help="reduced-wall counting series")
    add_n(p, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(func=cmd_pschar, text=text_pschar)

    p = sub.add_parser("count", help="cardinalities of a set for m = 0..max-m")
    p.add_argument("--set", choices=("proper", "reduced", "strict"), required=True)
    add_n(p, required=False)
    p.add_argument("--max-m", type=int, required=True)
    p.set_defaults(func=cmd_count, text=text_count)

    p = sub.add_parser("verify", help="run the identity verification suite")
    p.add_argument("--n-range", default="2..4", help="inclusive rank range A..B")
    p.add_argument("--max-m", type=int, default=24)
    p.add_argument("--degree", type=int, default=200,
                   help="degree bound for the series identity")
    p.add_argument("--checks",
                   help="comma list from: " + ",".join(ALL_CHECKS))
    p.set_defaults(func=cmd_verify, text=text_verify)

    for p in sub.choices.values():
        p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


#: Largest accepted ``--n``: a weight vector holds n + 1 counts, so a rank
#: near ``sys.maxsize`` would fail on memory rather than as a usage error.
MAX_RANK = 10**6

#: Largest accepted ``--m``, ``--max-m`` and ``--degree``: the window-rule
#: count tables hold O(M^2) big integers, and ``count --set proper`` at this
#: size already takes about a second and 90 MB.
MAX_SIZE = 2000

#: Most objects a request may handle, read off the count tables first: the
#: members of an ``enum`` or ``vch`` set, the numbers ``vch``'s terms may
#: print (members * (n + 1)), the proper walls of every rank that
#: ``verify``'s ``bijections`` walks, and the table cells,
#: (n + 1) * (max_m + 1) per rank, that ``verify``'s per-rank checks build.
MAX_OBJECTS = 10**6


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "set", "strict") != "strict" and args.n is None:
        parser.error(f"--n is required for --set {args.set}")
    try:
        for bound in ("n", "m", "max_m", "degree"):
            value = getattr(args, bound, None)
            if value is None:
                continue
            option = "--" + bound.replace("_", "-")
            if value > (MAX_RANK if bound == "n" else MAX_SIZE):
                raise ValueError(f"{option} is too large")
            if bound == "n" and value < 2:
                raise ValueError(f"rank n must be at least 2, got {value}")
            if value < 0:
                raise ValueError(f"{option} must be non-negative")
        params, payload = args.func(args)
        if args.format == "json":
            record = {"command": args.command, "params": params, "payload": payload}
            out = json.dumps(record, sort_keys=True)
        else:
            out = "\n".join(args.text(payload))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    print(out)
    return 0 if payload.get("all_passed", True) else 1


if __name__ == "__main__":
    sys.exit(main())
