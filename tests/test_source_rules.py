"""Rules on the package source that no installed linter enforces.

Runtime certification must not live in ``assert``: ``python -O`` strips
every assert statement, so a check written as one silently stops running.
No line is longer than 88 characters, so the source line count cannot be
brought down by joining lines.
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
