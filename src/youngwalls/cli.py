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
import os
import re
import sys
from typing import Any, Iterator

from .bijections import phi, phi_inv, psi, psi_inv
from .characters import (proper_weight_table, reduced_weight_table,
                         strict_weight_table, unpack_weight)
from .partitions import Partition, _canonical, enumerate_strict, strict_counts
from .verify import (ALL_CHECKS, MAX_OBJECTS, MAX_RANK, MAX_SIZE, admit, plan,
                     run_checks)
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
    admit("--n-range", b, MAX_RANK)
    return tuple(range(a, b + 1))


def _literal(values) -> str:
    return ",".join(str(v) for v in values)


def _scope(params: dict[str, Any]) -> str:
    return " ".join(f"{k}={v}" for k, v in params.items())


def _counts(set_name: str, n: int | None, M: int) -> list[int]:
    """The set's count table for m = 0..M."""
    if set_name == "strict":
        return strict_counts(M)
    count_walls = proper_counts if set_name == "proper" else reduced_counts
    return count_walls(WallParams(n), M)


def _members(set_name: str, n: int | None, m: int) -> list[Partition]:
    """The set's members of size m, after its count table says they fit."""
    admit("--m", _counts(set_name, n, m)[m], MAX_OBJECTS)
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
    admit("--m", members, MAX_OBJECTS)
    # a table entry has at most one term per member, each of n + 1 numbers
    admit("--n", members * (args.n + 1), MAX_OBJECTS)
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
    coeffs = reduced_counts(WallParams(args.n), args.degree)
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
    cells = plan(n_values, args.max_m, args.degree, checks)
    print(f"# plan table_cells={cells}", file=sys.stderr)
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


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser.  Given a command's name, it holds that command's
    subparser alone, so a call builds only what it runs; otherwise, as for
    ``--help``, it holds all of them, and an unknown name exits as a usage
    error."""
    sets = {"choices": ("proper", "reduced", "strict"), "required": True}
    rank = {"type": int, "required": True, "help": "wall rank, at least 2"}
    optional_rank = {**rank, "required": False}
    size = {"type": int, "required": True}
    # name: (help, command, text renderer, {option: add_argument keywords});
    # built per call, so a patched ``cmd_*`` is the one that runs
    commands = {
        "enum": ("list a set of partitions of m", cmd_enum, text_enum,
                 {"--set": sets, "--n": optional_rank, "--m": size}),
        "weight": ("per-color block counts of a wall", cmd_weight, text_weight, {
            "--n": rank,
            "--partition": {"required": True, "help":
                            "comma literal, e.g. '5,2,1'; empty string for ()"}}),
        "map": ("run a reduction map or its inverse", cmd_map, text_map, {
            "--alg": {"choices": ("psi", "phi", "psi-inv", "phi-inv"),
                      "required": True},
            "--n": rank,
            "--partition": {"required": True},
            "--hat": {"help": "bookkeeping partition literal (inverse maps)"},
            "--trace": {"action": "store_true",
                        "help": "print one line per algorithm step"}}),
        "vch": ("virtual character of a set", cmd_vch, text_vch,
                {"--set": sets, "--n": rank, "--m": size}),
        "pschar": ("reduced-wall counting series", cmd_pschar, text_pschar,
                   {"--n": rank, "--degree": size}),
        "count": ("cardinalities of a set for m = 0..max-m", cmd_count, text_count,
                  {"--set": sets, "--n": optional_rank, "--max-m": size}),
        "verify": ("run the identity verification suite", cmd_verify, text_verify, {
            "--n-range": {"default": "2..4", "help": "inclusive rank range A..B"},
            "--max-m": {"type": int, "default": 24},
            "--degree": {"type": int, "default": 200,
                         "help": "degree bound for the series identity"},
            "--checks": {"help": "comma list from: " + ",".join(ALL_CHECKS)}}),
    }
    parser = argparse.ArgumentParser(
        prog="youngwalls",
        description="Enumerate constrained walls and strict partitions, compute "
        "weights and characters, run the reduction maps, and verify the "
        "counting and character identities.",
    )
    metavar = None
    if only in commands:
        # the usage line that errors print still lists every command
        metavar = "{" + ",".join(commands) + "}"
        commands = {only: commands[only]}
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, func, text, options) in commands.items():
        p = sub.add_parser(name, help=help_text)
        for option, keywords in options.items():
            p.add_argument(option, **keywords)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(func=func, text=text)
    if only not in commands and only is not None and not only.startswith("-"):
        # worded here, since argparse drops its quotes on some Python versions
        parser.error(f"argument command: invalid choice: {only!r} "
                     f"(choose from {', '.join(map(repr, commands))})")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    if getattr(args, "set", "strict") != "strict" and args.n is None:
        parser.error(f"--n is required for --set {args.set}")
    try:
        if getattr(args, "n", None) is not None:
            WallParams(args.n)  # the rank floor, even where the set reads no rank
        for bound in ("n", "m", "max_m", "degree"):
            value = getattr(args, bound, None)
            if value is not None:
                admit("--" + bound.replace("_", "-"), value,
                      MAX_RANK if bound == "n" else MAX_SIZE)
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
    try:
        print(out)
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # the reader closed stdout: point it at devnull so that the flush at
        # exit stays quiet too (the SIGPIPE note in Python's ``signal`` docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0 if payload.get("all_passed", True) else 1


if __name__ == "__main__":
    sys.exit(main())
