"""A seeded argv fuzz of the CLI, and the parse step held to the full parser.

``fuzz_argv`` draws one argv from a command's options, with values in and
out of range.  ``differences(count)`` parses ``count`` argvs, drawn from
``random.Random(0)``, twice: with ``cli.parse``, which builds only the
parser of the command an argv names first, and with ``full_parse``, which
builds all seven.  It lists each argv on which the two differ, in the
namespace or, where one exits, in the exit code, stdout and stderr.

Tier-1 runs 300 argvs (``tests/test_cli.py``).  Run ``PYTHONPATH=src python
-O tests/argv_fuzz.py`` for FULL_PASS argvs: it prints each difference and
exits 1 if there is one.  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import random
import sys
from typing import Any, Callable

from youngwalls import cli
from youngwalls.verify import ALL_CHECKS

#: The number of argvs in the larger pass.
FULL_PASS = 3000

#: The values the argv fuzz draws, per kind: those in range, then those out
#: of range, negative, non-ASCII, with an underscore or malformed.
FUZZ_VALUES = {
    "rank": (["2", "3", "5", "2001"],
             ["1000001", "1", "-2", "３", "3_0", "", "2.0", "0x2"]),
    "size": (["0", "3", "7", "12"],
             ["2001", "9" * 20, "-1", "٣", "1_0", " ", "+3", "3e1"]),
    "partition": (["5,2,1", "14,1", "6,6", "7", "", "9" * 20],
                  ["1,2", "3,0", "-1", "٧", "1_0", "5, 2", "3,x", ","]),
    "range": (["2..3", "3..3", "5..6"],
              ["3..2", "1..3", "2..1000001", "-1..2", "2..", "..3", "2-3",
               "２..3", "2_0..30", ""]),
    "set": (["proper", "reduced", "strict"], ["Strict", "walls", ""]),
    "alg": (["psi", "phi", "psi-inv", "phi-inv"], ["psi_inv", "chi"]),
    "checks": ([*ALL_CHECKS, "fock,counts", "vch,euler"],
               ["euler,,vch", "bogus", "FOCK", ""]),
    "format": (["text", "json"], ["xml", ""]),
}

#: Each command's options and the kind of value each takes; ``verify``'s
#: sizes are FUZZ_VALUES' small ones or are refused.
FUZZ_OPTIONS = {
    "enum": {"--set": "set", "--n": "rank", "--m": "size"},
    "count": {"--set": "set", "--n": "rank", "--max-m": "size"},
    "weight": {"--n": "rank", "--partition": "partition"},
    "map": {"--alg": "alg", "--n": "rank", "--partition": "partition",
            "--hat": "partition"},
    "vch": {"--set": "set", "--n": "rank", "--m": "size"},
    "pschar": {"--n": "rank", "--degree": "size"},
    "verify": {"--n-range": "range", "--max-m": "size", "--degree": "size",
               "--checks": "checks"},
}


def fuzz_argv(rng: random.Random) -> list[str]:
    """One argv: a command and each of its options and ``--format``, left
    out one time in ten, given a value out of range or malformed one time
    in five and cut to a prefix one time in twenty, a map's ``--trace`` at
    random, and now and then an unknown option, a stray argument, ``--`` or
    ``-h`` at a random place after the command."""
    command = rng.choice(sorted(FUZZ_OPTIONS))
    argv = [command]
    for option, kind in [*FUZZ_OPTIONS[command].items(), ("--format", "format")]:
        draw = rng.random()
        if draw >= 0.1:
            if rng.random() < 0.05:  # "--hat" becomes "--h", which "--help" shares
                option = option[:max(3, len(option) - 2)]
            argv += [option, rng.choice(FUZZ_VALUES[kind][draw < 0.3])]
    if command == "map" and rng.random() < 0.3:
        argv.append("--trace")
    if rng.random() < 0.05:
        argv.insert(rng.randint(1, len(argv)),
                    rng.choice(["--bogus", "extra", "--", "-h"]))
    return argv


def outcome(parse: Callable[[list[str]], argparse.Namespace],
            argv: list[str]) -> Any:
    """``vars`` of ``parse(argv)``, or its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


def full_parse(argv: list[str]) -> argparse.Namespace:
    """``argv`` parsed with all seven commands built."""
    return cli.build_parser().parse_args(argv)


def differences(count: int) -> list[tuple[list[str], Any, Any]]:
    """Each of ``count`` seeded argvs that ``cli.parse`` and ``full_parse``
    take differently, with both outcomes."""
    rng = random.Random(0)
    found = []
    for _ in range(count):
        argv = fuzz_argv(rng)
        own, full = outcome(cli.parse, argv), outcome(full_parse, argv)
        if own != full:
            found.append((argv, own, full))
    return found


def main() -> int:
    found = differences(FULL_PASS)
    for argv, own, full in found:
        print(f"{argv}:\n  cli.parse:  {own!r}\n  full_parse: {full!r}")
    print(f"{FULL_PASS} argvs, {len(found)} parsed differently")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
