"""Command-line surface: enumeration, weights, maps, characters, verify suite.

Every command writes a single deterministic payload to stdout (text lines or
one JSON document) and keeps diagnostics such as elapsed times on stderr.
Exit codes: 0 on success, 1 when a verification check fails, 2 on usage or
domain errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from .bijections import phi, phi_inv, psi, psi_inv
from .characters import principal_character, virtual_character
from .partitions import Partition, count_strict, enumerate_strict
from .verify import ALL_CHECKS, run_checks
from .walls import WallParams, enumerate_proper, enumerate_reduced, weight


def parse_partition(text: str) -> Partition:
    """Parse the comma literal: positive integers, weakly decreasing;
    the empty string is the empty partition."""
    text = text.strip()
    if not text:
        return Partition()
    try:
        parts = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"bad partition literal {text!r}: not integers")
    if any(p < 1 for p in parts):
        raise ValueError(f"bad partition literal {text!r}: parts must be positive")
    if any(a < b for a, b in zip(parts, parts[1:])):
        raise ValueError(
            f"bad partition literal {text!r}: parts must be weakly decreasing"
        )
    return Partition(parts)


def _vector(values) -> str:
    return "[" + ",".join(str(v) for v in values) + "]"


def _emit(record: dict[str, Any], fmt: str, text_lines: list[str]) -> None:
    if fmt == "json":
        print(json.dumps(record, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _enumerator(set_name: str, n: int | None):
    """Resolve a set name to its enumeration function of m."""
    if set_name == "strict":
        return enumerate_strict
    params = WallParams(n)
    if set_name == "proper":
        return lambda m: enumerate_proper(params, m)
    return lambda m: enumerate_reduced(params, m)


def _require_n(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    if args.set != "strict" and args.n is None:
        parser.error(f"--n is required for --set {args.set}")


def cmd_enum(args: argparse.Namespace) -> int:
    members = _enumerator(args.set, args.n)(args.m)
    record = {
        "command": "enum",
        "params": {"set": args.set, "n": args.n, "m": args.m},
        "payload": {
            "count": len(members),
            "partitions": [list(lam.parts) for lam in members],
        },
    }
    lines = [f"count: {len(members)}"]
    lines += [str(lam) for lam in members]
    _emit(record, args.format, lines)
    return 0


def cmd_weight(args: argparse.Namespace) -> int:
    lam = parse_partition(args.partition)
    vec = weight(lam, WallParams(args.n))
    record = {
        "command": "weight",
        "params": {"n": args.n, "partition": list(lam.parts)},
        "payload": {"weight": list(vec), "total": sum(vec)},
    }
    _emit(record, args.format, [f"weight: {_vector(vec)}", f"total: {sum(vec)}"])
    return 0


def cmd_map(args: argparse.Namespace) -> int:
    params = WallParams(args.n)
    lam = parse_partition(args.partition)
    forward = args.alg in ("psi", "phi")
    if forward and args.hat is not None:
        raise ValueError(f"--hat is only for the inverse maps, not {args.alg}")
    if not forward and args.hat is None:
        raise ValueError(f"{args.alg} needs --hat")

    record: dict[str, Any] = {
        "command": "map",
        "params": {"alg": args.alg, "n": args.n, "partition": list(lam.parts)},
    }
    if forward:
        result = (psi if args.alg == "psi" else phi)(lam, params)
        value_key = "t" if args.alg == "psi" else "pair"
        record["payload"] = {
            "reduced": list(result.reduced_part.parts),
            "hat": list(result.hat_part.parts),
            "k": result.k,
        }
        lines = [
            f"reduced: {result.reduced_part}",
            f"hat: {result.hat_part}",
            f"k: {result.k}",
        ]
        if args.trace:
            record["payload"]["trace"] = [
                {"l": s.l, "i": s.i, value_key: s.value} for s in result.trace
            ]
            lines += [
                f"step {s.l}: i={s.i} {value_key}={s.value}" for s in result.trace
            ]
    else:
        hat = parse_partition(args.hat)
        record["params"]["hat"] = list(hat.parts)
        inverse = psi_inv if args.alg == "psi-inv" else phi_inv
        rebuilt = inverse(lam, hat, params)
        record["payload"] = {"result": list(rebuilt.parts)}
        lines = [f"result: {rebuilt}"]
    _emit(record, args.format, lines)
    return 0


def cmd_vch(args: argparse.Namespace) -> int:
    params = WallParams(args.n)
    members = _enumerator(args.set, args.n)(args.m)
    vch = virtual_character(members, params)
    terms = sorted(vch.items())
    record = {
        "command": "vch",
        "params": {"set": args.set, "n": args.n, "m": args.m},
        "payload": {
            "total": sum(vch.values()),
            "terms": [
                {"weight": list(vec), "multiplicity": mult} for vec, mult in terms
            ],
        },
    }
    lines = [f"terms: {len(terms)}"]
    lines += [f"{_vector(vec)} x{mult}" for vec, mult in terms]
    _emit(record, args.format, lines)
    return 0


def cmd_pschar(args: argparse.Namespace) -> int:
    series = principal_character(WallParams(args.n), args.degree)
    record = {
        "command": "pschar",
        "params": {"n": args.n, "degree": args.degree},
        "payload": {"degree": args.degree, "coefficients": list(series.coeffs)},
    }
    lines = [
        f"degree: {args.degree}",
        "coefficients: " + ",".join(str(c) for c in series.coeffs),
    ]
    _emit(record, args.format, lines)
    return 0


def cmd_count(args: argparse.Namespace) -> int:
    if args.set == "strict":
        counts = [count_strict(m) for m in range(args.max_m + 1)]
    else:
        enumerate_set = _enumerator(args.set, args.n)
        counts = [len(enumerate_set(m)) for m in range(args.max_m + 1)]
    record = {
        "command": "count",
        "params": {"set": args.set, "n": args.n, "max_m": args.max_m},
        "payload": {"counts": counts},
    }
    lines = [f"{m}: {c}" for m, c in enumerate(counts)]
    _emit(record, args.format, lines)
    return 0


def parse_n_range(text: str) -> tuple[int, ...]:
    """Parse 'A..B' (or a single rank 'A') into an inclusive tuple of ranks."""
    lo, sep, hi = text.partition("..")
    try:
        a = int(lo)
        b = int(hi) if sep else a
    except ValueError:
        raise ValueError(f"bad n-range {text!r}: expected A..B")
    if a < 2 or b < a:
        raise ValueError(f"bad n-range {text!r}: need 2 <= A <= B")
    return tuple(range(a, b + 1))


def cmd_verify(args: argparse.Namespace) -> int:
    n_values = parse_n_range(args.n_range)
    checks = tuple(args.checks.split(",")) if args.checks else ALL_CHECKS
    reports = run_checks(n_values, args.max_m, args.degree, checks)
    record = {
        "command": "verify",
        "params": {
            "n_range": list(n_values),
            "max_m": args.max_m,
            "degree": args.degree,
            "checks": list(checks),
        },
        "payload": {
            "reports": [r.to_dict() for r in reports],
            "all_passed": all(r.passed for r in reports),
        },
    }
    lines = []
    for r in reports:
        scope = " ".join(f"{k}={v}" for k, v in r.params.items())
        status = "PASS" if r.passed else "FAIL"
        line = f"{status} {r.check} {scope}"
        if not r.passed:
            line += f" counterexample={json.dumps(r.counterexample, sort_keys=True)}"
        lines.append(line)
        print(f"# {r.check} {scope} elapsed={r.elapsed:.3f}s", file=sys.stderr)
    _emit(record, args.format, lines)
    return 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="youngwalls",
        description="Enumerate constrained walls and strict partitions, compute "
        "weights and characters, run the reduction maps, and verify the "
        "counting and character identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")

    def add_n(p: argparse.ArgumentParser, required: bool) -> None:
        p.add_argument("--n", type=int, required=required,
                       help="wall rank, at least 2")

    p = sub.add_parser("enum", help="list a set of partitions of m")
    p.add_argument("--set", choices=("proper", "reduced", "strict"), required=True)
    add_n(p, required=False)
    p.add_argument("--m", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_enum, needs_set_n=True)

    p = sub.add_parser("weight", help="per-color block counts of a wall")
    add_n(p, required=True)
    p.add_argument("--partition", required=True,
                   help="comma literal, e.g. '5,2,1'; empty string for ()")
    add_format(p)
    p.set_defaults(func=cmd_weight)

    p = sub.add_parser("map", help="run a reduction map or its inverse")
    p.add_argument("--alg", choices=("psi", "phi", "psi-inv", "phi-inv"),
                   required=True)
    add_n(p, required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--hat", help="bookkeeping partition literal (inverse maps)")
    p.add_argument("--trace", action="store_true",
                   help="print one line per algorithm step")
    add_format(p)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("vch", help="virtual character of a set")
    p.add_argument("--set", choices=("proper", "reduced", "strict"), required=True)
    add_n(p, required=True)
    p.add_argument("--m", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_vch)

    p = sub.add_parser("pschar", help="reduced-wall counting series")
    add_n(p, required=True)
    p.add_argument("--degree", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_pschar)

    p = sub.add_parser("count", help="cardinalities of a set for m = 0..max-m")
    p.add_argument("--set", choices=("proper", "reduced", "strict"), required=True)
    add_n(p, required=False)
    p.add_argument("--max-m", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_count, needs_set_n=True)

    p = sub.add_parser("verify", help="run the identity verification suite")
    p.add_argument("--n-range", default="2..4", help="inclusive rank range A..B")
    p.add_argument("--max-m", type=int, default=24)
    p.add_argument("--degree", type=int, default=200,
                   help="degree bound for the series identity")
    p.add_argument("--checks",
                   help="comma list from: " + ",".join(ALL_CHECKS))
    add_format(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "needs_set_n", False):
        _require_n(args, parser)
    try:
        if getattr(args, "n", None) is not None and args.n < 2:
            raise ValueError(f"rank n must be at least 2, got {args.n}")
        for bound in ("m", "max_m", "degree"):
            value = getattr(args, bound, None)
            if value is not None and value < 0:
                raise ValueError(f"--{bound.replace('_', '-')} must be non-negative")
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
