"""Byte-for-byte stdout of every README CLI example, in both formats.

The fixtures under ``golden/`` are the recorded stdout of each command; any
change to them is a change to the CLI contract.
"""

from pathlib import Path

import pytest

from youngwalls.cli import main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "enum-reduced": ["enum", "--set", "reduced", "--n", "2", "--m", "8"],
    "weight": ["weight", "--n", "2", "--partition", "7"],
    "map-psi-trace": ["map", "--alg", "psi", "--n", "2", "--partition", "14,1",
                      "--trace"],
    "map-psi-inv": ["map", "--alg", "psi-inv", "--n", "2", "--partition", "2,1",
                    "--hat", "2"],
    "vch-strict": ["vch", "--set", "strict", "--n", "2", "--m", "7"],
    "pschar": ["pschar", "--n", "4", "--degree", "10"],
    "count-reduced": ["count", "--set", "reduced", "--n", "3", "--max-m", "24"],
    "verify": ["verify"],
    "verify-deep": ["verify", "--n-range", "2..5", "--max-m", "30",
                    "--checks", "counts,bijections"],
    "enum-strict": ["enum", "--set", "strict", "--m", "7"],
    "enum-proper": ["enum", "--set", "proper", "--n", "2", "--m", "9"],
    "count-strict": ["count", "--set", "strict", "--max-m", "30"],
    "count-proper": ["count", "--set", "proper", "--n", "2", "--max-m", "20"],
    "count-proper-60": ["count", "--set", "proper", "--n", "2", "--max-m", "60"],
    "map-psi": ["map", "--alg", "psi", "--n", "2", "--partition", "7"],
    "map-phi-trace": ["map", "--alg", "phi", "--n", "2", "--partition",
                      "6,6,3,3", "--trace"],
    "map-phi-inv": ["map", "--alg", "phi-inv", "--n", "2", "--partition", "",
                    "--hat", "2,1"],
    "vch-reduced": ["vch", "--set", "reduced", "--n", "3", "--m", "7"],
    "vch-proper": ["vch", "--set", "proper", "--n", "2", "--m", "12"],
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_golden(name, fmt, capsys):
    assert main(COMMANDS[name] + ["--format", fmt]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / f"{name}.{fmt}").read_bytes()
