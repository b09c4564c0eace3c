"""Command-line surface: enumeration, weights, maps, characters, verify suite.

Every command returns ``(params, payload, lines)``: its JSON record and its
text lines, both built from the same values; ``main`` writes one of them to
stdout, and diagnostics such as elapsed times go to stderr.  Exit codes: 0
on success, 1 when a verification check fails, 2 on usage or domain errors,
3 on any other (internal) error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
from functools import partial
from itertools import chain
from typing import Any, Callable, Iterable

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

Record = tuple[dict[str, Any], dict[str, Any], Iterable[str]]


def parse_int(text: str) -> int:
    """Parse an integer option by ``parse_partition``'s digit rule: ASCII
    digits, an optional leading minus, optional surrounding whitespace."""
    with contextlib.suppress(ValueError):  # int() refuses past its digit limit
        if re.fullmatch(r"-?[0-9]+", text.strip()):
            return int(text)
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


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


def _set(name: str, n: int | None) -> list[Callable[[int], Any]]:
    """The named set's count table, enumerator and weight table at rank n,
    each on a size alone; looked up per call, so a patched global runs."""
    tables = {"proper": (proper_counts, enumerate_proper, proper_weight_table),
              "reduced": (reduced_counts, enumerate_reduced, reduced_weight_table),
              "strict": (lambda _, M: strict_counts(M),
                         lambda _, m: enumerate_strict(m), strict_weight_table)}[name]
    params = None if n is None else WallParams(n)
    return [partial(table, params) for table in tables]


def _admitted(args: argparse.Namespace) -> tuple[int, Callable, Callable]:
    """The set's member count at --m within MAX_OBJECTS, enumerator, weight table."""
    counts, members, weights = _set(args.set, args.n)
    size = counts(args.m)[args.m]
    admit("--m", size, MAX_OBJECTS)
    return size, members, weights


def cmd_enum(args: argparse.Namespace) -> Record:
    members = _admitted(args)[1](args.m)
    params = {"set": args.set, "n": args.n, "m": args.m}
    lines = chain([f"count: {len(members)}"], map(_literal, members))
    return params, {"count": len(members), "partitions": members}, lines


def cmd_weight(args: argparse.Namespace) -> Record:
    lam = parse_partition(args.partition)
    vec = list(weight(lam, WallParams(args.n)))
    params = {"n": args.n, "partition": lam}
    lines = [f"weight: [{_literal(vec)}]", f"total: {sum(vec)}"]
    return params, {"weight": vec, "total": sum(vec)}, lines


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
        wall = inverse(lam, hat, params)
        return record_params, {"result": wall}, [f"result: {_literal(wall)}"]
    if args.hat is not None:
        raise ValueError(f"--hat is only for the inverse maps, not {args.alg}")
    result = (psi if args.alg == "psi" else phi)(lam, params)
    payload: dict[str, Any] = {"reduced": result.reduced_part,
                               "hat": result.hat_part, "k": result.k}
    lines = [f"reduced: {_literal(result.reduced_part)}",
             f"hat: {_literal(result.hat_part)}", f"k: {result.k}"]
    if args.trace:
        key = "t" if args.alg == "psi" else "pair"
        payload["trace"] = [{"l": s.l, "i": s.i, key: s.value} for s in result.trace]
        lines += [f"step {s.l}: i={s.i} {key}={s.value}" for s in result.trace]
    return record_params, payload, lines


def cmd_vch(args: argparse.Namespace) -> Record:
    wall_params, m = WallParams(args.n), args.m
    size, _, weights = _admitted(args)
    # a table entry has at most one term per member, each of n + 1 numbers
    admit("--n", size * (args.n + 1), MAX_OBJECTS)
    entry = weights(m)[m]
    vch = sorted((unpack_weight(code, wall_params, m), c) for code, c in entry.items())
    terms = [{"weight": list(v), "multiplicity": c} for v, c in vch]
    lines = [f"terms: {len(terms)}", *(f"[{_literal(v)}] x{c}" for v, c in vch)]
    params = {"set": args.set, "n": args.n, "m": m}
    return params, {"total": sum(entry.values()), "terms": terms}, lines


def cmd_pschar(args: argparse.Namespace) -> Record:
    coeffs = _set("reduced", args.n)[0](args.degree)
    payload = {"degree": args.degree, "coefficients": coeffs}
    lines = [f"degree: {args.degree}", "coefficients: " + _literal(coeffs)]
    return {"n": args.n, "degree": args.degree}, payload, lines


def cmd_count(args: argparse.Namespace) -> Record:
    counts = _set(args.set, args.n)[0](args.max_m)
    params = {"set": args.set, "n": args.n, "max_m": args.max_m}
    return params, {"counts": counts}, (f"{m}: {c}" for m, c in enumerate(counts))


def _note(line: str) -> None:
    """Print a diagnostic line to stderr.  Python sets a stderr closed before
    start-up to None, and ``print`` would then write to stdout instead."""
    if sys.stderr is None:
        raise OSError("stderr is closed")
    print(line, file=sys.stderr)


def cmd_verify(args: argparse.Namespace) -> Record:
    n_values = parse_n_range(args.n_range)
    names = ALL_CHECKS if args.checks is None else args.checks.split(",")
    if "" in names:
        raise ValueError("--checks has an empty check name")
    checks = tuple(dict.fromkeys(names))
    cells = plan(n_values, args.max_m, args.degree, checks)
    _note(f"# plan table_cells={cells}")
    reports = run_checks(n_values, args.max_m, args.degree, checks)
    for r in reports:
        _note(f"# {r.check} {_scope(r.params)} elapsed={r.elapsed:.3f}s")
    lines = [f"{'PASS' if r.passed else 'FAIL'} {r.check} {_scope(r.params)}"
             + ("" if r.passed else " counterexample="
                + json.dumps(r.counterexample, sort_keys=True)) for r in reports]
    params = {"n_range": list(n_values), "max_m": args.max_m,
              "degree": args.degree, "checks": list(checks)}
    payload = {"reports": [r.to_dict() for r in reports],
               "all_passed": all(r.passed for r in reports)}
    return params, payload, lines


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser.  Given a command's name, it holds that command's
    subparser alone, so a call builds only what it runs; otherwise, as for
    ``--help``, it holds all of them, and an unknown name exits as a usage
    error."""
    sets = {"choices": ("proper", "reduced", "strict"), "required": True}
    rank = {"type": parse_int, "required": True, "help": "wall rank, at least 2"}
    optional_rank = {**rank, "required": False}
    size = {"type": parse_int, "required": True}
    # name: (help, command, options); built per call, so a patched cmd_* runs
    commands = {
        "enum": ("list a set of partitions of m", cmd_enum,
                 {"--set": sets, "--n": optional_rank, "--m": size}),
        "weight": ("per-color block counts of a wall", cmd_weight, {
            "--n": rank,
            "--partition": {"required": True, "help":
                            "comma literal, e.g. '5,2,1'; empty string for ()"}}),
        "map": ("run a reduction map or its inverse", cmd_map, {
            "--alg": {"choices": ("psi", "phi", "psi-inv", "phi-inv"),
                      "required": True},
            "--n": rank,
            "--partition": {"required": True},
            "--hat": {"help": "bookkeeping partition literal (inverse maps)"},
            "--trace": {"action": "store_true",
                        "help": "print one line per algorithm step"}}),
        "vch": ("virtual character of a set", cmd_vch,
                {"--set": sets, "--n": rank, "--m": size}),
        "pschar": ("reduced-wall counting series", cmd_pschar,
                   {"--n": rank, "--degree": size}),
        "count": ("cardinalities of a set for m = 0..max-m", cmd_count,
                  {"--set": sets, "--n": optional_rank, "--max-m": size}),
        "verify": ("run the identity verification suite", cmd_verify, {
            "--n-range": {"default": "2..4", "help": "inclusive rank range A..B"},
            "--max-m": {"type": parse_int, "default": 24},
            "--degree": {"type": parse_int, "default": 200,
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
    for name, (help_text, func, options) in commands.items():
        p = sub.add_parser(name, help=help_text)
        for option, keywords in options.items():
            p.add_argument(option, **keywords)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(func=func)
    if only not in commands and only is not None and not only.startswith("-"):
        # worded here, since argparse drops its quotes on some Python versions
        parser.error(f"argument command: invalid choice: {only!r} "
                     f"(choose from {', '.join(map(repr, commands))})")
    return parser


def _to_devnull(stream: Any) -> None:
    """Point a stream whose writes fail at devnull, so that the flush at exit
    stays quiet too (the SIGPIPE note in Python's ``signal`` docs)."""
    with contextlib.suppress(AttributeError, OSError, ValueError):
        fd = stream.fileno()
        os.dup2(os.open(os.devnull, os.O_WRONLY), fd)


def _report(line: str, code: int) -> int:
    """Print a diagnostic line to stderr and return the exit ``code``, or 3
    if stderr refuses it (closed, or its reader gone; a closed file object
    raises ``ValueError``): exit 1 stays a failed check's."""
    try:
        _note(line)
    except (OSError, ValueError):
        _to_devnull(sys.stderr)
        return 3
    return code


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
        params, payload, lines = args.func(args)
        record = {"command": args.command, "params": params, "payload": payload}
        out = (json.dumps(record, sort_keys=True) if args.format == "json"
               else "\n".join(lines))
    # a "# plan" line that stderr refused lands below too, and _report's own
    # line then fails the same way and returns 3
    except ValueError as exc:
        return _report(f"error: {exc}", 2)
    except Exception as exc:
        return _report(f"internal error: {type(exc).__name__}: {exc}", 3)
    try:
        if sys.stdout is None:  # closed before start-up: print would drop out
            raise OSError("stdout is closed")
        print(out)
        sys.stdout.flush()
    except (OSError, ValueError) as exc:
        # the reader closed stdout, its device is full, or a caller closed it
        _to_devnull(sys.stdout)
        return _report(f"internal error: {type(exc).__name__}: {exc}", 3)
    return 0 if payload.get("all_passed", True) else 1


if __name__ == "__main__":
    sys.exit(main())
