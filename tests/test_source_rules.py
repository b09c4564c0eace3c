"""Rules on the package source that no installed linter enforces.

Runtime certification must not live in ``assert``: ``python -O`` strips
every assert statement, so a check written as one silently stops running.
No line is longer than 88 characters, so the source line count cannot be
brought down by joining lines.  Stdout carries one record per command: only
``cli.main`` writes it, and every other ``print`` goes to stderr.  The
reduction maps' cores are paired with their rebuilds and target families in
one table, ``bijections._maps``: no other module names a core.  Each core is
the fold (a rebuild core, the map) of one step function, and does none of
the step's arithmetic, so ``verify``, which certifies the steps, certifies
what the cores run; ``verify`` names the four steps and no core, image,
table, walk or enumerator.  The window
DP counts the reduced walls alone: outside ``partitions`` only
``walls.reduced_counts`` names it, and the product tables name no window
routine, not even the window table ``partitions._windows`` that the
enumerator and both window DPs read, so the two sides of ``fock`` and
``vch`` stay independent code.  The product is expanded by two routines
alone: ``partitions._product_counts`` for the count table
``proper_counts``, and ``partitions._product_table`` for the two weight
tables.
``_product_counts`` and the window DP ``_count_window`` both run on one
packed integer per series and share its helpers, which read no window
routine, nor does ``_product_counts``: only ``_count_window`` reads
``_windows``' rule among the packed kernels.  The proper rule
on one adjacency is stated once, in ``walls._proper_gap``, which
``is_proper``, ``_removable_at`` and ``verify`` read: ``verify`` holds no
``%`` at all, and in ``walls`` a ``%`` by delta sits only there and in
``_reduced_gap``, the rule with its cap.
``euler``'s two sides are the strict partitions counted by number of
parts and the odd-part DP: ``verify`` names neither ``series_product_odd``
nor ``reciprocal``, a second odd-parts side, ``odd_counts`` stays a
plain-list DP that names neither the packed product nor any of its
helpers, and ``series_product_strict`` reaches, through the functions it
calls, no product routine, window routine, pentagonal routine or odd-parts
routine: its sum over the numbers of parts is a count of its own, not
another table's.  ``verify`` owns its
work budget, so that a library ``run_checks`` refuses what the CLI
refuses: ``cli`` imports no private ``verify`` name, ``cmd_verify`` holds
no check name, and ``MAX_OBJECTS``, ``MAX_SIZE`` and ``MAX_RANK`` are each
assigned in ``verify`` alone.
Each check is stated once, as a ``verify._CHECKS`` entry (its runner and
its cost): outside docstrings a check name is a table key or the name its
runner reports, and ``plan`` and ``run_checks`` name no check and no
runner.  Each refusal is worded once: an option that is too large or
negative only in ``verify.admit``, which the CLI calls too, a negative
size passed to the library only in ``partitions``, and a rank below 2
only in ``walls``.
Each CLI command builds its JSON payload and its text lines from the same
values, so ``cli`` has no ``text_*`` renderer, and it dispatches on a set
name once: only ``cli._set`` names the sets' count tables, enumerators and
weight tables.

Every ``youngwalls`` process pays the package's imports before its first
command, so they stay small and all up front: no module imports
``dataclasses`` (which alone loads ``inspect``, ``ast``, ``dis`` and
``tokenize``), and no import hides in a function body, a module
``__getattr__`` or an ``importlib`` call, where a benchmark's warm-up would
pay it instead of its set-up.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from youngwalls.verify import ALL_CHECKS

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "youngwalls").glob("*.py"))


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


def _names(tree):
    """Name ids, attribute names, import aliases and definition names."""
    return {value for node in ast.walk(tree) for attr in ("id", "attr", "name")
            if isinstance(value := getattr(node, attr, None), str)}


CORES = {"_psi_core", "_phi_core", "_psi_rebuild_core", "_phi_rebuild_core"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_bijections_names_a_core(path):
    names = _names(ast.parse(path.read_text()))
    if path.name != "bijections.py":
        assert names & CORES == set(), f"{path.name} names a core"
    else:
        assert CORES <= names


STEPS = {"_psi_core": "_psi_step", "_phi_core": "_phi_step",
         "_psi_rebuild_core": "_psi_rebuild_step",
         "_phi_rebuild_core": "_phi_rebuild_step"}


def test_each_core_is_the_fold_of_its_step():
    tree = ast.parse((ROOT / "src" / "youngwalls" / "bijections.py").read_text())
    functions = {top.name: top for top in tree.body
                 if isinstance(top, ast.FunctionDef)}
    for core, step in STEPS.items():
        assert step in _names(functions[core]), core
        # the quanta, the halving and the height are the step's alone
        ops = {type(node.op) for node in ast.walk(functions[core])
               if isinstance(node, ast.BinOp)}
        assert ops & {ast.FloorDiv, ast.Mod} == set(), core
        # a step is one expression on one state: no loop, branch or call
        *_, body = functions[step].body
        assert isinstance(body, ast.Return), step
        assert not any(isinstance(node, (ast.comprehension, ast.IfExp, ast.Call))
                       for node in ast.walk(body)), step


def test_verify_reaches_the_maps_only_through_their_steps():
    names = _names(ast.parse((ROOT / "src" / "youngwalls" / "verify.py").read_text()))
    assert set(STEPS.values()) <= names
    assert names & (CORES | {"_image", "_maps", "_canonical", "_walk_proper"}) == set()
    assert not any(name.startswith("enumerate_") for name in names)


def _mods(tree):
    """(top-level definition, divisor) of every ``%`` in a module."""
    return [(getattr(top, "name", None), ast.unparse(node.right))
            for top in tree.body for node in ast.walk(top)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)]


def test_the_proper_rule_is_stated_once():
    source = ROOT / "src" / "youngwalls"
    assert _mods(ast.parse((source / "verify.py").read_text())) == []
    walls = ast.parse((source / "walls.py").read_text())
    owners = {owner for owner, divisor in _mods(walls)
              if divisor.split(".")[-1] == "delta"}
    assert owners == {"_proper_gap", "_reduced_gap"}


def test_euler_has_one_odd_parts_side():
    names = _names(ast.parse((ROOT / "src" / "youngwalls" / "verify.py").read_text()))
    assert names & {"series_product_odd", "reciprocal"} == set()
    assert {"series_product_strict", "odd_counts"} <= names
    source = (ROOT / "src" / "youngwalls" / "partitions.py").read_text()
    odd_counts, = [top for top in ast.parse(source).body
                   if getattr(top, "name", None) == "odd_counts"]
    assert _names(odd_counts) & (PACKED_HELPERS | {"_product_counts"}) == set()


def test_verify_owns_its_budget():
    cli = ast.parse((ROOT / "src" / "youngwalls" / "cli.py").read_text())
    imported = {alias.name for node in ast.walk(cli)
                if isinstance(node, ast.ImportFrom)
                and node.module in ("verify", "youngwalls.verify")
                for alias in node.names}
    assert "plan" in imported
    assert [name for name in imported if name.startswith("_")] == []
    cmd_verify, = [top for top in cli.body
                   if getattr(top, "name", None) == "cmd_verify"]
    constants = {node.value for node in ast.walk(cmd_verify)
                 if isinstance(node, ast.Constant)}
    assert constants & set(ALL_CHECKS) == set()
    for constant in ("MAX_OBJECTS", "MAX_SIZE", "MAX_RANK"):
        owners = [path.name for path in SOURCES
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Name) and node.id == constant
                  and isinstance(node.ctx, ast.Store)]
        assert owners == ["verify.py"], constant


def test_each_check_is_stated_once_in_verify():
    # docstrings aside, a check name is a _CHECKS key and a string in the
    # runner that reports it: plan and run_checks read every check, and its
    # runner, off the table
    tree = ast.parse((ROOT / "src" / "youngwalls" / "verify.py").read_text())
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                  and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)}
    tables = [top.value for top in tree.body if isinstance(top, ast.AnnAssign)
              and top.target.id == "_CHECKS"]
    assert len(tables) == 1, "no single _CHECKS table"
    keys = {id(key) for key in tables[0].keys}
    runners = {key.value: value.elts[0].value
               for key, value in zip(tables[0].keys, tables[0].values)}
    assert tuple(runners) == ALL_CHECKS
    named = [(node.value, "_CHECKS" if id(node) in keys else getattr(top, "name", None))
             for top in tree.body for node in ast.walk(top)
             if isinstance(node, ast.Constant) and node.value in ALL_CHECKS
             and id(node) not in docstrings]
    assert sorted(named) == sorted([(check, "_CHECKS") for check in ALL_CHECKS]
                                   + list(runners.items()))
    tops = {top.name: top for top in tree.body if isinstance(top, ast.FunctionDef)}
    for caller in ("plan", "run_checks"):
        assert [name for name in _names(tops[caller])
                if name.startswith("verify_")] == [], caller


#: What ``cli`` reads of the three sets: count tables, enumerators, weight tables.
SET_TABLES = {"proper_counts", "reduced_counts", "strict_counts",
              "enumerate_proper", "enumerate_reduced", "enumerate_strict",
              "proper_weight_table", "reduced_weight_table", "strict_weight_table"}


def test_cli_renders_no_payload_and_dispatches_on_the_set_once():
    # the top-level definitions; an import names no caller
    source = (ROOT / "src" / "youngwalls" / "cli.py").read_text()
    tops = [top for top in ast.parse(source).body
            if not isinstance(top, ast.ImportFrom)]
    names = [getattr(top, "name", None) for top in tops]
    assert [name for name in names if str(name).startswith("text_")] == []
    readers = [(name, _names(top) & SET_TABLES) for name, top in zip(names, tops)]
    assert [(name, read) for name, read in readers if read] == [("_set", SET_TABLES)]


def _strings(path):
    """(module, top-level definition, text) of every string constant in a
    module, the literal parts of f-strings included."""
    return [(path.name, getattr(top, "name", None), node.value)
            for top in ast.parse(path.read_text()).body for node in ast.walk(top)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)]


def test_each_refusal_is_worded_once():
    strings = [string for path in SOURCES for string in _strings(path)]
    assert [s for s in strings if s[2].endswith("is too large")] == [
        ("verify.py", "admit", " is too large")]
    assert [s for s in strings if "must be non-negative" in s[2]] == [
        ("partitions.py", "_check_non_negative", "m must be non-negative, got "),
        ("verify.py", "admit", " must be non-negative")]
    assert [s[:2] for s in strings if "rank n must be at least 2" in s[2]] == [
        ("walls.py", "WallParams")]


WINDOW_ROUTINES = {"_windows", "_count_window", "_enumerate_window", "reduced_counts",
                   "reduced_weight_table"}
#: Each product table and the one routine that expands its product.
PRODUCT_TABLES = {"strict_weight_table": "_product_table",
                  "proper_weight_table": "_product_table",
                  "proper_counts": "_product_counts"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_reduced_counts_names_the_window_dp(path):
    if path.name == "partitions.py":
        return
    # the top-level definitions that name it; an import names no caller
    owners = {getattr(top, "name", None) for top in ast.parse(path.read_text()).body
              if not isinstance(top, ast.ImportFrom)
              and "_count_window" in _names(top)}
    assert owners == ({"reduced_counts"} if path.name == "walls.py" else set())


def test_product_tables_name_no_window_routine():
    # the top-level definitions other than the routine itself that name it;
    # an import names no caller
    tops = [top for path in SOURCES for top in ast.parse(path.read_text()).body
            if not isinstance(top, ast.ImportFrom)]
    for routine in set(PRODUCT_TABLES.values()):
        callers = {getattr(top, "name", None) for top in tops
                   if routine in _names(top) and getattr(top, "name", None) != routine}
        assert callers == {table for table, expands in PRODUCT_TABLES.items()
                           if expands == routine}, routine
    tables = {top.name: _names(top) for top in tops
              if getattr(top, "name", None) in PRODUCT_TABLES}
    assert tables.keys() == PRODUCT_TABLES.keys()
    for name, names in tables.items():
        assert names & WINDOW_ROUTINES == set(), name


#: What ``euler``'s strict side may not reach: the product routines, the
#: window routines, the pentagonal routines and the odd-parts routines.
OTHER_COUNTS = {"_product_counts", "_product_table", *WINDOW_ROUTINES,
                "_pentagonal", "_over_euler_product", "strict_counts",
                "partition_counts", "odd_counts", "series_product_odd", "reciprocal"}


def test_strict_series_reads_no_other_count():
    # every top-level function of the package, by name; a name defined twice
    # reaches what either definition names
    calls: dict[str, set[str]] = {}
    for path in SOURCES:
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, ast.FunctionDef):
                calls.setdefault(top.name, set()).update(_names(top) - {top.name})
    reached, todo = set(), ["series_product_strict"]
    while todo:
        for name in calls.get(todo.pop(), set()) - reached:
            reached.add(name)
            todo.append(name)
    assert "_over_one_minus" in reached
    assert reached & OTHER_COUNTS == set()


#: The packed-series helpers that _product_counts and _count_window share.
PACKED_HELPERS = {"_width", "_shifted", "_over_one_minus", "_unpack"}


def test_packed_kernels_share_helpers_that_read_no_window():
    source = (ROOT / "src" / "youngwalls" / "partitions.py").read_text()
    tops = {top.name: _names(top) for top in ast.parse(source).body
            if isinstance(top, ast.FunctionDef)}
    assert PACKED_HELPERS <= tops.keys()
    for kernel in ("_product_counts", "_count_window"):
        assert PACKED_HELPERS <= tops[kernel], kernel
    for name in PACKED_HELPERS | {"_product_counts"}:
        assert tops[name] & WINDOW_ROUTINES == set(), name
    assert "_windows" in tops["_count_window"]


def _imported_packages(tree):
    """The top-level package of every module an absolute import names."""
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names]
    names += [node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and not node.level]
    return {name.split(".")[0] for name in names}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_dataclasses_import(path):
    assert "dataclasses" not in _imported_packages(ast.parse(path.read_text()))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_at_module_level(path):
    tree = ast.parse(path.read_text())
    nested = [(function.name, node.lineno) for function in ast.walk(tree)
              if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(function)
              if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == [], f"{path.name}: import inside a function: {nested}"
    assert "__getattr__" not in {getattr(top, "name", None) for top in tree.body}
    assert _names(tree) & {"__import__", "import_module", "importlib"} == set()


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # -S: no site hook may load either module first and hide an import
    probe = ("import sys, youngwalls.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"
