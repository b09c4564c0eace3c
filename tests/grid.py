"""The CLI contract grid: a fixed set of calls and a digest of what each gives.

Each case is an argv, run in-process by ``youngwalls.cli.main`` at
``COLUMNS=80``, some with one function of ``verify`` perturbed so that a
check fails.  Its digest is the sha256 of its exit code, its stdout and its
stderr with every ``elapsed=`` time masked.  ``golden/grid.json`` holds the
recorded digests, and ``test_grid.py`` holds every case to them: a changed
digest is a change to the CLI contract.

Run ``PYTHONPATH=src python tests/grid.py`` to print each case whose digest
differs from the record, with its outputs now, or ``--record`` to write the
digests of this tree.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import sys
from pathlib import Path
from typing import Callable
from unittest import mock

from youngwalls import verify
from youngwalls.cli import main

RECORD = Path(__file__).parent / "golden" / "grid.json"


def off_by_one_at(fn: Callable, m0: int) -> Callable:
    """``fn`` with the degree-``m0`` entry of its table or series raised by 1."""

    def bumped(*args):
        values = list(fn(*args))
        values[m0] += 1
        return values

    return bumped


def term_off_by_one_at(fn: Callable, m0: int) -> Callable:
    """``fn`` with one weight term of the degree-``m0`` entry of its weight
    table raised by 1."""

    def bumped(*args):
        table = [dict(entry) for entry in fn(*args)]
        table[m0][min(table[m0])] += 1
        return table

    return bumped


def changed_at(fn: Callable, state: tuple[int, int]) -> Callable:
    """A step or rule on (a, b, delta) with its value at (a, b) == ``state``
    flipped (a bool) or its lowest bit flipped (an int)."""
    return lambda a, b, delta: fn(a, b, delta) ^ ((a, b) == state)


#: One failing run per check: (argv, the ``verify`` global it perturbs, how,
#: where).
PERTURBED = {
    "euler": (["verify", "--checks", "euler", "--degree", "40"],
              "odd_counts", off_by_one_at, 17),
    "counts": (["verify", "--n-range", "2", "--max-m", "20", "--checks", "counts"],
               "reduced_counts", off_by_one_at, 11),
    "fock": (["verify", "--n-range", "2", "--max-m", "20", "--checks", "fock"],
             "proper_counts", off_by_one_at, 11),
    "vch": (["verify", "--n-range", "2", "--max-m", "20", "--checks", "vch"],
            "strict_weight_table", term_off_by_one_at, 11),
    "bijections": (["verify", "--n-range", "2", "--max-m", "20", "--checks",
                    "bijections"], "_psi_step", changed_at, (13, 1)),
    "reduced-equivalence": (["verify", "--n-range", "2", "--max-m", "20",
                             "--checks", "reduced-equivalence"],
                            "_removable_at", changed_at, (7, 1)),
}


def _verify_argvs() -> list[list[str]]:
    argvs = [["verify"], ["verify", "--n-range", "2..5", "--max-m", "40"]]
    argvs += [["verify", "--n-range", "2..3", "--max-m", "20", "--checks", check]
              for check in verify.ALL_CHECKS]
    argvs += [["verify", "--checks", "euler", "--degree", str(degree)]
              for degree in (0, 1, 2, 5, 17, 200, 250, 500, 2000)]
    # the O(max_m^2) checks at sizes that one rank, or two, would walk long
    argvs += [["verify", "--n-range", "2", "--max-m", "1999", "--checks", check]
              for check in ("bijections", "reduced-equivalence")]
    argvs += [["verify", "--n-range", "2..3", "--max-m", "1500", "--checks",
               "bijections"]]
    return argvs


#: Walls for each map, valid and hitting each error branch: n, partition
#: and hat (None for no ``--hat``).
MAP_CALLS = {
    "psi": [(2, "7", None), (2, "14,1", None), (3, "20,9,1", None),
            (2, "", None), (2, "5,2,1", None), (2, "2,2", None),
            (2, "1,2", None), (2, "5,x", None), (2, "7", "1"), (1, "7", None)],
    "phi": [(2, "6,6,3,3", None), (2, "9,9,9", None), (3, "8,8,4,4,4", None),
            (2, "7", None), (2, "", None), (2, "2,2", None), (2, "6,6", "1")],
    "psi-inv": [(2, "2,1", "2"), (2, "", "3,1"), (2, "7", "1"), (2, "2,1", None),
                (2, "2,1", ""), (2, "2,1", "1,2"), (2, "1", "2,1"),
                (2, "3,3", "1")],
    "phi-inv": [(2, "", "2,1"), (2, "4", "1"), (2, "3,3", "1"), (2, "5", None),
                (2, "5", ""), (2, "5", "0"), (2, "3", "1,1")],
}


def _other_argvs() -> list[list[str]]:
    argvs = []
    for alg, calls in MAP_CALLS.items():
        for n, partition, hat in calls:
            argv = ["map", "--alg", alg, "--n", str(n), "--partition", partition]
            argv += [] if hat is None else ["--hat", hat]
            argvs += [argv, argv + ["--trace"]]
    for set_name, n in (("strict", None), ("reduced", 2), ("reduced", 3),
                        ("proper", 2), ("proper", 5)):
        rank = [] if n is None else ["--n", str(n)]
        argvs += [["count", "--set", set_name, *rank, "--max-m", "20"]]
    argvs += [["enum", "--set", "strict", "--m", str(m)] for m in (0, 1, 13)]
    argvs += [[command, "--set", set_name, "--n", str(n), "--m", str(m)]
              for command in ("enum", "vch")
              for set_name in ("proper", "reduced", "strict")
              for n in (2, 3, 5) for m in (0, 1, 7, 13, 20)]
    argvs += [["pschar", "--n", str(n), "--degree", "30"] for n in (2, 5)]
    argvs += [["weight", "--n", str(n), "--partition", partition]
              for n, partition in ((2, "7"), (2, ""), (3, "20,9,9,1"), (2, "1,2"))]
    # usage and domain errors
    argvs += [["--help"], ["weight", "--help"], ["verify", "--help"], ["bogus"],
              ["enum", "--set", "proper", "--m", "5"],
              ["weight", "--n", "3", "--partition", "1", "extra"],
              ["enum", "--set", "strict", "--m", "-1"],
              ["enum", "--set", "strict", "--m", "2000"],
              ["count", "--set", "proper", "--n", "2", "--max-m", "2001"],
              ["vch", "--set", "strict", "--n", "1000000", "--m", "7"],
              ["verify", "--checks", "bogus"], ["verify", "--checks", "euler,"],
              ["verify", "--n-range", "1..2"], ["verify", "--n-range", "2..1000001"],
              ["verify", "--max-m", "82"], ["verify", "--degree", "2001"]]
    # integer options by the digit rule of partition literals and --n-range
    argvs += [["count", "--set", "strict", "--max-m", "1_0"],
              ["count", "--set", "strict", "--max-m", "\u0663"],
              ["enum", "--set", "strict", "--m", "+3"],
              ["enum", "--set", "strict", "--m", "0x3"]]
    # the rank floor, a given --n below 2 on any command, below 0 too
    argvs += [["enum", "--set", "strict", "--n", "1", "--m", "3"],
              ["count", "--set", "strict", "--n", "0", "--max-m", "2"],
              ["vch", "--set", "strict", "--n", "1", "--m", "2"],
              ["weight", "--n", "-1", "--partition", "1"]]
    return argvs


def cases() -> dict[str, tuple[list[str], tuple | None]]:
    """Every case by name: (argv, perturbation), where a perturbation is
    (name of a ``verify`` global, how, where) as in ``PERTURBED``; each argv
    comes in text and in JSON."""
    grid = {shlex.join(argv): (argv, None)
            for argv in _verify_argvs() + _other_argvs()}
    for argv, *perturbation in PERTURBED.values():
        grid[f"[{perturbation[0]} perturbed] {shlex.join(argv)}"] = (
            argv, tuple(perturbation))
    return {**grid, **{f"{key} --format json": (argv + ["--format", "json"], how)
                       for key, (argv, how) in grid.items()}}


def outcome(argv: list[str], perturbation: tuple | None) -> tuple[int, str, str]:
    """(exit code, stdout, stderr with ``elapsed=`` masked) of one case."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.dict(os.environ, COLUMNS="80"))
        if perturbation:
            name, how, where = perturbation
            stack.enter_context(mock.patch.object(
                verify, name, how(getattr(verify, name), where)))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    masked = re.sub(r"elapsed=[0-9.]+s", "elapsed=*", err.getvalue())
    return code, out.getvalue(), masked


def digest(result: tuple[int, str, str]) -> str:
    return hashlib.sha256(json.dumps(result).encode()).hexdigest()


def recorded() -> dict[str, str]:
    return json.loads(RECORD.read_text())


def run(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help="write this tree's digests to golden/grid.json")
    args = parser.parse_args(argv)
    results = {key: outcome(*case) for key, case in cases().items()}
    if args.record:
        digests = {key: digest(result) for key, result in results.items()}
        RECORD.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(digests)} cases")
        return 0
    before = recorded()
    changed = [key for key in results.keys() | before.keys()
               if key not in results or digest(results[key]) != before.get(key)]
    for key in sorted(changed):
        print(f"== {key}")
        if key not in results:
            print("   no longer in the grid")
        elif key not in before:
            print("   not recorded")
        if key in results:
            code, out, err = results[key]
            print(f"   exit {code}\n-- stdout\n{out}-- stderr\n{err}", end="")
    print(f"{len(changed)} of {len(results)} cases differ from the record")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(run())
