"""Rules on the package source that no installed linter enforces.

Runtime certification must not live in ``assert``: ``python -O`` strips
every assert statement, so a check written as one silently stops running.
No line is longer than 88 characters, so the source line count cannot be
brought down by joining lines.  Stdout carries one record per command: only
``cli.main`` writes it, and every other ``print`` goes to stderr.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "youngwalls").glob("*.py"))


def test_sources_found():
    assert SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_statement(path):
    lines = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_line_over_88_characters(path):
    long_lines = [number for number, line
                  in enumerate(path.read_text().splitlines(), 1) if len(line) > 88]
    assert long_lines == [], f"{path.name}: lines over 88 characters: {long_lines}"


def _prints(tree):
    """(top-level definition, call source, whether to stderr) of every
    ``print`` call in a module."""
    return [(getattr(top, "name", None), ast.unparse(node),
             any(kw.arg == "file" and ast.unparse(kw.value) == "sys.stderr"
                 for kw in node.keywords))
            for top in tree.body for node in ast.walk(top)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "print"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_main_prints_to_stdout(path):
    prints = _prints(ast.parse(path.read_text()))
    if path.name != "cli.py":
        assert prints == [], f"{path.name}: print outside cli.py: {prints}"
        return
    to_stdout = [(owner, call) for owner, call, to_stderr in prints if not to_stderr]
    assert to_stdout == [("main", "print(out)")]
