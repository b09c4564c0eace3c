import argparse
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from youngwalls import (
    Partition,
    WallParams,
    bijections,
    cli,
    enumerate_proper,
    enumerate_reduced,
    enumerate_strict,
    proper_counts,
    reduced_counts,
    strict_counts,
    verify,
    virtual_character,
)
from youngwalls.cli import main, parse_n_range, parse_partition
from youngwalls.verify import VerificationReport

from argv_fuzz import FUZZ_OPTIONS, differences, fuzz_argv
from test_golden import COMMANDS, GOLDEN


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLiteralParsing:
    def test_empty_is_empty_partition(self):
        assert parse_partition("") == ()
        assert parse_partition("  ") == ()

    def test_plain_literal(self):
        assert parse_partition("5,2,1") == (5, 2, 1)

    @pytest.mark.parametrize(
        "bad", ["1,2", "3,x", "0", "3,0", "-1", "1_0", "+7", "\u0667", "5, 2"]
    )
    def test_bad_literals_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_partition(bad)

    @given(st.text() | st.text("0123456789,_+- \u0667"))
    @example("1_0")
    def test_accepted_literals_are_ascii_and_round_trip(self, text):
        try:
            p = parse_partition(text)
        except ValueError:
            return
        assert set(text.strip()) <= set("0123456789,")
        assert parse_partition(str(p)) == p

    def test_n_range(self):
        assert parse_n_range("2..4") == (2, 3, 4)
        assert parse_n_range("3") == (3,)
        for bad in ("1..3", "4..2", "a..b", "+2..3", "2..1_0", "\u0662..3"):
            with pytest.raises(ValueError):
                parse_n_range(bad)


def test_internal_error_exits_three(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_weight", broken)
    code, out, err = run_cli(capsys, "weight", "--n", "2", "--partition", "1")
    assert code == 3
    assert out == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_closed_stdout_exits_three():
    # the 10,880 strict partitions of 60 fill more than a pipe's buffer, so
    # the write is still going when the reader leaves after one line
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "youngwalls.cli", "enum", "--set", "strict", "--m", "60"],
        env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline() == "count: 10880\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 3
    # one line on stderr, no traceback from the write or from the exit flush
    assert err.startswith("internal error: BrokenPipeError: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("shell", ["", "2>&-"], ids=["closed-pipe", "closed-fd"])
def test_closed_stderr_exits_three(shell):
    # the "# plan" line is the first write; exit 1 would claim a failed check
    src = str(Path(cli.__file__).resolve().parents[1])
    argv = [sys.executable, "-m", "youngwalls.cli", "verify", "--n-range", "2",
            "--max-m", "4"]
    if shell:
        argv = ["sh", "-c", f'exec "$@" {shell}', "sh", *argv]
    read, stderr = os.pipe()
    os.close(read)  # a write to stderr gets EPIPE; "2>&-" closes it outright
    try:
        proc = subprocess.run(argv, env={**os.environ, "PYTHONPATH": src},
                              stdout=subprocess.PIPE, stderr=stderr, timeout=60)
    finally:
        os.close(stderr)
    assert (proc.returncode, proc.stdout) == (3, b"")


class _RefusingStream:
    """A stderr whose reader is gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def _closed_file():
    stream = io.StringIO()
    stream.close()
    return stream


@pytest.mark.parametrize("argv", [
    ["verify", "--n-range", "2", "--max-m", "4"],  # the "# plan" line
    ["enum", "--set", "strict", "--m", "-1"],  # a domain error, else exit 2
    ["weight", "--n", "2", "--partition", "1"],  # an internal error below
], ids=["plan", "domain-error", "internal-error"])
@pytest.mark.parametrize("stderr", [_RefusingStream, lambda: None, _closed_file],
                         ids=["refusing", "closed-at-start-up", "closed-file"])
def test_refusing_stderr_returns_three(capsys, monkeypatch, argv, stderr):
    # Python sets a stderr closed before start-up to None, and print(file=None)
    # writes to stdout; a closed file object raises ValueError, not OSError
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_weight", broken)
    monkeypatch.setattr(sys, "stderr", stderr())
    assert main(argv) == 3
    assert capsys.readouterr().out == ""


def _closed_real_file():
    stream = open(os.devnull, "w")
    stream.close()
    return stream


@pytest.mark.parametrize("stdout, stop", [(_closed_file, ""),
                                          (_closed_real_file, ".")],
                         ids=["closed-string-io", "closed-real-file"])
def test_closed_stdout_file_returns_three(capsys, monkeypatch, stdout, stop):
    # an in-process caller that closed stdout: print raises ValueError, and
    # so does a closed real file's fileno() when stdout is pointed at devnull
    monkeypatch.setattr(sys, "stdout", stdout())
    assert main(["count", "--set", "strict", "--max-m", "4"]) == 3
    assert capsys.readouterr().err == (
        f"internal error: ValueError: I/O operation on closed file{stop}\n")


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_to_devnull_closes_the_descriptor_it_opens():
    read, write = os.pipe()
    try:
        with open(write, "w") as stream:
            before = os.listdir("/dev/fd")
            cli._to_devnull(stream)
            assert sorted(os.listdir("/dev/fd")) == sorted(before)
            # and the stream's own descriptor now writes to devnull
            assert os.fstat(write).st_rdev == os.stat(os.devnull).st_rdev
    finally:
        os.close(read)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_exits_three():
    # ENOSPC, not EPIPE: an error on stdout is internal whatever its errno
    src = str(Path(cli.__file__).resolve().parents[1])
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "youngwalls.cli", "count", "--set", "strict",
             "--max-m", "4"], env={**os.environ, "PYTHONPATH": src}, stdout=full,
            stderr=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode == 3
    assert proc.stderr == (
        "internal error: OSError: [Errno 28] No space left on device\n")


def test_stdout_closed_at_start_up_exits_three():
    # Python sets a stdout closed before start-up to None (or, should the fd
    # be reused at start-up, to a stream that refuses writes)
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "youngwalls.cli",
         "count", "--set", "strict", "--max-m", "4"],
        env={**os.environ, "PYTHONPATH": src}, stderr=subprocess.PIPE, text=True,
        timeout=60)
    assert proc.returncode == 3
    assert proc.stderr.startswith("internal error: OSError: ")
    assert proc.stderr.count("\n") == 1


TOO_LARGE = str(sys.maxsize + 1)


@pytest.mark.parametrize(
    "argv, option",
    [
        (["weight", "--n", TOO_LARGE, "--partition", "1"], "--n"),
        (["enum", "--set", "strict", "--m", TOO_LARGE], "--m"),
        (["count", "--set", "proper", "--n", "2", "--max-m", TOO_LARGE], "--max-m"),
        (["verify", "--max-m", TOO_LARGE], "--max-m"),
        (["pschar", "--n", "2", "--degree", TOO_LARGE], "--degree"),
        (["weight", "--n", "1000000000000000000", "--partition", "7"], "--n"),
        (["weight", "--n", "1000001", "--partition", "7"], "--n"),
        (["verify", "--n-range", "2..10000000000000000000000"], "--n-range"),
        (["verify", "--n-range", "2..1000001"], "--n-range"),
        (["count", "--set", "proper", "--n", "2", "--max-m", "2001"], "--max-m"),
        (["pschar", "--n", "2", "--degree", "2001"], "--degree"),
        (["verify", "--degree", "2001"], "--degree"),
        # within MAX_SIZE, but more than MAX_OBJECTS members or walls to list
        (["enum", "--set", "strict", "--m", "2000"], "--m"),
        (["vch", "--set", "strict", "--n", "2", "--m", "2000"], "--m"),
        (["enum", "--set", "proper", "--n", "2", "--m", "200"], "--m"),
        (["enum", "--set", "reduced", "--n", "2", "--m", "200"], "--m"),
        (["verify", "--max-m", "100"], "--max-m"),
        (["verify", "--n-range", "2..1000000", "--max-m", "20"], "--n-range"),
        # 64 members within the member budget, but each prints 10**6 + 1 numbers
        (["vch", "--set", "strict", "--n", "1000000", "--m", "20"], "--n"),
    ],
)
def test_too_large_input_exits_two(capsys, argv, option):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {option} is too large\n"


@pytest.mark.parametrize(
    "argv, option",
    [(["enum", "--set", "strict", "--m", "-1"], "--m"),
     (["count", "--set", "proper", "--n", "2", "--max-m", "-3"], "--max-m"),
     (["verify", "--degree", "-1"], "--degree")],
)
def test_negative_size_exits_two(capsys, argv, option):
    assert run_cli(capsys, *argv) == (2, "", f"error: {option} must be non-negative\n")


@pytest.mark.parametrize("value", ["1_0", "+3", "\u0663", "\uff11\uff12", "0x3",
                                   "abc", "3.0", "", "- 3"])
@pytest.mark.parametrize("command, option", [
    (["weight", "--partition", "1", "--n"], "--n"),
    (["enum", "--set", "strict", "--m"], "--m"),
    (["count", "--set", "strict", "--max-m"], "--max-m"),
    (["verify", "--degree"], "--degree"),
])
def test_integer_options_follow_the_digit_rule(capsys, command, option, value):
    # the grammar of partition literals and --n-range: ASCII digits only
    with pytest.raises(SystemExit) as excinfo:
        main(command + [value])
    out, err = capsys.readouterr()
    assert (excinfo.value.code, out) == (2, "")
    assert err.count("error:") == 1
    assert err.splitlines()[-1] == (f"youngwalls {command[0]}: error: argument "
                                    f"{option}: invalid int value: {value!r}")


def test_integer_options_take_surrounding_whitespace(capsys):
    assert run_cli(capsys, "count", "--set", "strict", "--max-m", " 3 ") == (
        0, "0: 1\n1: 1\n2: 1\n3: 2\n", "")


@pytest.mark.parametrize(
    "argv, n",
    [(["enum", "--set", "strict", "--n", "1", "--m", "3"], 1),
     (["count", "--set", "strict", "--n", "0", "--max-m", "2"], 0),
     (["vch", "--set", "strict", "--n", "1", "--m", "2"], 1),
     # below 0 too, the rank floor is the refusal, not the sign
     (["weight", "--n", "-1", "--partition", "1"], -1),
     (["pschar", "--n", "1", "--degree", "3"], 1),
     (["map", "--alg", "psi", "--n", "0", "--partition", "7"], 0)],
)
def test_rank_below_two_exits_two(capsys, argv, n):
    # a strict set reads no rank, but a given --n is still held to the floor
    error = f"error: rank n must be at least 2, got {n}\n"
    assert run_cli(capsys, *argv) == (2, "", error)


def test_admit_refuses_above_the_cap_then_below_zero():
    for value in (0, 2000):
        verify.admit("--m", value, 2000)
    with pytest.raises(ValueError, match="^--m is too large$"):
        verify.admit("--m", 2001, 2000)
    with pytest.raises(ValueError, match="^--m must be non-negative$"):
        verify.admit("--m", -1, 2000)
    # the cap is read first
    with pytest.raises(ValueError, match="^--m is too large$"):
        verify.admit("--m", -1, -2)


def test_largest_size_is_accepted(capsys):
    assert cli.MAX_SIZE == 2000
    code, out, _ = run_cli(capsys, "count", "--set", "strict", "--max-m", "2000")
    assert code == 0
    assert out.splitlines()[-1].startswith("2000: ")


def test_enumeration_budget_boundary(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_OBJECTS", 10)
    code, out, _ = run_cli(capsys, "enum", "--set", "strict", "--m", "10")
    assert (code, out.splitlines()[0]) == (0, "count: 10")
    code, out, err = run_cli(capsys, "enum", "--set", "strict", "--m", "11")
    assert (code, out, err) == (2, "", "error: --m is too large\n")


def test_vch_width_budget_boundary(capsys, monkeypatch):
    # strict partitions of 7: 5 members, each weight of n + 1 = 3 numbers
    argv = ["vch", "--set", "strict", "--n", "2", "--m", "7"]
    monkeypatch.setattr(cli, "MAX_OBJECTS", 15)
    code, out, _ = run_cli(capsys, *argv)
    assert (code, out.splitlines()[0]) == (0, "terms: 3")
    monkeypatch.setattr(cli, "MAX_OBJECTS", 14)
    assert run_cli(capsys, *argv) == (2, "", "error: --n is too large\n")
    # the member count is checked first, with its own message
    monkeypatch.setattr(cli, "MAX_OBJECTS", 4)
    assert run_cli(capsys, *argv) == (2, "", "error: --m is too large\n")


def test_verify_budget_counts_only_enumerating_checks(capsys, monkeypatch):
    # n=2, m <= 16: (2 + 1) * 17 = 51 table cells, 81 bijections states and
    # 74 reduced-equivalence states, 155 in all, and 169 strict partitions,
    # at most one vch table entry each; the entries bound vch alone
    argv = ["verify", "--n-range", "2", "--max-m", "16", "--checks"]
    monkeypatch.setattr(verify, "MAX_OBJECTS", 155)
    assert run_cli(capsys, *argv, "bijections,reduced-equivalence")[0] == 0
    assert run_cli(capsys, *argv, "bijections,reduced-equivalence,counts")[0] == 0
    code, out, err = run_cli(capsys, *argv, "bijections,vch")
    assert (code, out, err) == (2, "", "error: --max-m is too large\n")
    monkeypatch.setattr(verify, "MAX_OBJECTS", 81)
    assert run_cli(capsys, *argv, "bijections")[0] == 0
    assert run_cli(capsys, *argv, "reduced-equivalence,counts")[0] == 0
    code, out, err = run_cli(capsys, *argv, "bijections,reduced-equivalence")
    assert (code, out, err) == (2, "", "error: --max-m is too large\n")
    monkeypatch.setattr(verify, "MAX_OBJECTS", 50)
    for checks in ("counts", "euler,fock"):
        code, out, err = run_cli(capsys, *argv, checks)
        assert (code, out, err) == (2, "", "error: --n-range is too large\n")
    assert run_cli(capsys, *argv, "euler")[0] == 0


@pytest.mark.parametrize("n", [2, 3, 7])
@pytest.mark.parametrize("M", [0, 1, 2, 13, 24, 31])
def test_verify_budget_counts_the_states_each_check_visits(monkeypatch, n, M):
    # the distinct (a, b) that bijections' psi step and reduced-equivalence's
    # removal rule are called on
    seen = {"bijections": set(), "reduced-equivalence": set()}
    for check, name in (("bijections", "_psi_step"),
                        ("reduced-equivalence", "_removable_at")):
        def logged(a, b, delta, real=getattr(verify, name), states=seen[check]):
            states.add((a, b))
            return real(a, b, delta)

        monkeypatch.setattr(verify, name, logged)
    assert all(report.passed for report in verify.run_checks(
        (n,), M, 0, ("bijections", "reduced-equivalence")))
    # each walked check's cost at the one rank: no table entries, its states
    for check, states in seen.items():
        assert verify._CHECKS[check][1]((n,), M) == ((), [len(states)]), check
    assert sum(verify._CHECKS[check][1]((n,), M)[1][0] for check in seen) == sum(
        map(len, seen.values()))
    # the other checks with a per-rank table hold no states
    assert verify._CHECKS["counts"][1]((n,), M) == ((), ())
    assert verify._CHECKS["fock"][1]((n,), M) == ((), ())
    assert verify._CHECKS["vch"][1]((n,), M) == ([sum(strict_counts(M))], ())


def test_verify_state_budget_boundary(capsys, monkeypatch):
    # at m <= 16, rank 2 counts 81 + 74 states and rank 3 counts 81 + 72 + 2
    argv = ["verify", "--n-range", "2..3", "--max-m", "16", "--checks",
            "bijections,reduced-equivalence"]
    monkeypatch.setattr(verify, "MAX_OBJECTS", 310)
    assert run_cli(capsys, *argv)[0] == 0
    monkeypatch.setattr(verify, "MAX_OBJECTS", 309)
    assert run_cli(capsys, *argv) == (2, "", "error: --n-range is too large\n")
    monkeypatch.setattr(verify, "MAX_OBJECTS", 155)
    assert run_cli(capsys, *argv[:2], "2", *argv[3:])[0] == 0
    monkeypatch.setattr(verify, "MAX_OBJECTS", 154)
    assert run_cli(capsys, *argv[:2], "2", *argv[3:]) == (
        2, "", "error: --max-m is too large\n")


QUADRATIC = [
    # one rank over: 1,002,001 states, though 986,493 table cells fit
    ["--n-range", "2..30", "--max-m", "2000", "--checks", "bijections"],
    ["--n-range", "2..30", "--max-m", "2000", "--checks", "reduced-equivalence"],
    # 1,001,000 and 1,000,333 states at one rank, just over 10**6
    ["--n-range", "2", "--max-m", "1999", "--checks", "bijections"],
    ["--n-range", "2", "--max-m", "1999", "--checks", "reduced-equivalence"],
]


@pytest.mark.parametrize("argv", QUADRATIC)
def test_verify_refuses_quadratic_checks_fast(capsys, argv):
    # admitted, each would run 0.2 s to 18 s (CPython 3.11.7, 2-vCPU VM)
    started = time.perf_counter()
    assert run_cli(capsys, "verify", *argv) == (2, "", "error: --max-m is too large\n")
    assert time.perf_counter() - started < 1


@pytest.mark.parametrize("argv", QUADRATIC + [
    ["--n-range", "2", "--max-m", "2000", "--checks", "vch"],
    # over MAX_SIZE: admitted, each would run 1 s to 3 s
    ["--degree", "4000", "--checks", "euler"],
    ["--max-m", "3000", "--checks", "counts,fock"]])
def test_run_checks_refuses_what_verify_refuses_fast(capsys, monkeypatch, argv):
    # the library call gets the CLI's refusal, before any table or state
    def refuse(*args):
        raise AssertionError("work done before the budget")

    for name in ("strict_weight_table", "reduced_weight_table", "_psi_step",
                 "_removable_at", "series_product_strict", "odd_counts",
                 "reduced_counts", "proper_counts"):
        monkeypatch.setattr(verify, name, refuse)
    options = {"--n-range": "2", "--max-m": "0", "--degree": "0",
               **dict(zip(argv[::2], argv[1::2]))}
    # only the degree case sets --degree, and it is the option refused there
    option = "--degree" if "--degree" in argv else "--max-m"
    started = time.perf_counter()
    with pytest.raises(ValueError, match=f"^{option} is too large$"):
        verify.run_checks(parse_n_range(options["--n-range"]),
                          int(options["--max-m"]), int(options["--degree"]),
                          tuple(options["--checks"].split(",")))
    assert time.perf_counter() - started < 1
    error = f"error: {option} is too large\n"
    assert run_cli(capsys, "verify", *argv) == (2, "", error)


@pytest.mark.parametrize("max_m, degree, checks, option", [
    (-1, 0, "bijections", "--max-m"),
    (-1, 0, "reduced-equivalence", "--max-m"),
    (-1, 0, "counts", "--max-m"),
    (0, -1, "euler", "--degree"),
    # the CLI's order: --max-m is refused before --degree
    (-1, -1, "euler", "--max-m")])
def test_run_checks_refuses_negative_sizes(capsys, monkeypatch, max_m, degree,
                                           checks, option):
    # the library call gets the CLI's refusal, not a table's or a passing report
    def refuse(*args):
        raise AssertionError("work done before the budget")

    for name in ("_psi_step", "_removable_at", "series_product_strict",
                 "odd_counts", "reduced_counts", "proper_counts"):
        monkeypatch.setattr(verify, name, refuse)
    with pytest.raises(ValueError, match=f"^{option} must be non-negative$"):
        verify.run_checks((2,), max_m, degree, (checks,))
    argv = ["--max-m", str(max_m), "--degree", str(degree), "--checks", checks]
    error = f"error: {option} must be non-negative\n"
    assert run_cli(capsys, "verify", *argv) == (2, "", error)


def test_verify_refuses_many_ranks_before_any_table(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("per-rank table built")

    monkeypatch.setattr(cli, "proper_counts", refuse)
    monkeypatch.setattr(verify, "reduced_counts", refuse)
    argv = ["verify", "--n-range", "2..1000000", "--max-m", "8", "--checks"]
    code, out, err = run_cli(capsys, *argv, "counts")
    assert (code, out, err) == (2, "", "error: --n-range is too large\n")
    # euler builds no per-rank table, so the ranks do not bound it, nor are
    # they walked to size the other checks
    started = time.perf_counter()
    assert run_cli(capsys, *argv, "euler")[0] == 0
    assert time.perf_counter() - started < 1


def test_verify_rank_budget_boundary(capsys, monkeypatch):
    # ranks 2 and 3 at max_m 7: (3 + 4) * 8 = 56 table cells
    argv = ["verify", "--n-range", "2..3", "--max-m", "7", "--checks", "counts"]
    monkeypatch.setattr(verify, "MAX_OBJECTS", 56)
    assert run_cli(capsys, *argv)[0] == 0
    monkeypatch.setattr(verify, "MAX_OBJECTS", 55)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", "error: --n-range is too large\n")


@pytest.mark.parametrize(
    "argv, option",
    [(["--n-range", "100", "--max-m", "110"], "--max-m"),
     # one rank counts 826,605 entries at max_m 80; two ranks do not fit
     (["--n-range", "100..101", "--max-m", "80"], "--n-range")],
)
def test_verify_refuses_vch_tables_before_any_is_built(capsys, monkeypatch,
                                                       argv, option):
    # within the cell budget, but each table of a rank may hold one entry
    # per strict partition of each m <= max_m
    def refuse(*args):
        raise AssertionError("weight table built")

    monkeypatch.setattr(verify, "strict_weight_table", refuse)
    monkeypatch.setattr(verify, "reduced_weight_table", refuse)
    code, out, err = run_cli(capsys, "verify", *argv, "--checks", "vch")
    assert (code, out, err) == (2, "", f"error: {option} is too large\n")


def test_verify_vch_entry_budget_boundary(capsys, monkeypatch):
    # n = 30, max_m = 30: 31 * 31 = 961 table cells fit where the 2,035
    # strict partitions of m <= 30 do not
    argv = ["verify", "--n-range", "30", "--max-m", "30", "--checks", "vch"]
    monkeypatch.setattr(verify, "MAX_OBJECTS", 2035)
    assert run_cli(capsys, *argv)[0] == 0
    monkeypatch.setattr(verify, "MAX_OBJECTS", 2034)
    assert run_cli(capsys, *argv) == (2, "", "error: --max-m is too large\n")


def test_default_verify_budget_boundary(capsys):
    # the strict partitions of m <= 81 number 1e6 or fewer, of m <= 82 more:
    # vch's table bound, not a walk of the proper walls, sets the limit
    argv = ["verify", "--n-range", "2", "--max-m"]
    code, out, _ = run_cli(capsys, *argv, "81")
    assert code == 0 and out.count("PASS") == 6
    assert run_cli(capsys, *argv, "82") == (2, "", "error: --max-m is too large\n")


def test_widest_default_verify_at_the_real_cap(capsys, monkeypatch):
    # at max_m 40 each rank's vch tables may hold 8,697 entries: 115 ranks
    # (2..116) hold 1,000,155, over 10**6, and 114 ranks fit
    assert verify.plan(tuple(range(2, 116)), 40, 200, verify.ALL_CHECKS) == 278103

    def refuse(*args):
        raise AssertionError("weight table built")

    monkeypatch.setattr(verify, "strict_weight_table", refuse)
    monkeypatch.setattr(verify, "reduced_weight_table", refuse)
    argv = ["verify", "--n-range", "2..116", "--max-m", "40"]
    assert run_cli(capsys, *argv) == (2, "", "error: --n-range is too large\n")


def test_verify_refuses_cubic_vch_tables_fast(capsys):
    # these tables would take minutes to build; the bound is read first
    started = time.perf_counter()
    argv = ["verify", "--n-range", "2", "--max-m", "2000", "--checks", "vch"]
    assert run_cli(capsys, *argv) == (2, "", "error: --max-m is too large\n")
    assert time.perf_counter() - started < 1


def test_verify_budget_counts_a_repeated_check_once(capsys, monkeypatch):
    # n=2, m <= 7: 24 table cells and 20 bijections states; counted twice,
    # the states would be 40
    monkeypatch.setattr(verify, "MAX_OBJECTS", 24)
    argv = ["verify", "--n-range", "2", "--max-m", "7", "--checks"]
    code, once, _ = run_cli(capsys, *argv, "bijections")
    assert code == 0
    assert run_cli(capsys, *argv, "bijections,bijections")[:2] == (0, once)
    code, out, _ = run_cli(capsys, *argv, "counts,bijections,counts",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["params"]["checks"] == ["counts", "bijections"]


class TestEnum:
    def test_reduced_eight(self, capsys):
        code, out, _ = run_cli(
            capsys, "enum", "--set", "reduced", "--n", "2", "--m", "8"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "count: 6"
        assert lines[1:] == ["7,1", "6,2", "5,3", "5,2,1", "4,3,1", "3,3,2"]

    def test_strict_seven_without_n(self, capsys):
        code, out, _ = run_cli(capsys, "enum", "--set", "strict", "--m", "7")
        assert code == 0
        assert out.splitlines()[0] == "count: 5"

    def test_proper_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "enum", "--set", "proper", "--n", "2", "--m", "0"
        )
        assert code == 0
        assert out.splitlines()[0] == "count: 1"
        assert out.splitlines()[1] == ""

    def test_missing_n_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["enum", "--set", "proper", "--m", "3"])
        assert excinfo.value.code == 2

    def test_low_rank_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "enum", "--set", "proper", "--n", "1", "--m", "3"
        )
        assert code == 2
        assert "rank" in err

    def test_text_lines_roundtrip_as_literals(self, capsys):
        _, out, _ = run_cli(
            capsys, "enum", "--set", "reduced", "--n", "3", "--m", "9"
        )
        for line in out.splitlines()[1:]:
            parse_partition(line)

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "enum", "--set", "reduced", "--n", "2", "--m", "8",
            "--format", "json",
        )
        assert code == 0
        record = json.loads(out)
        assert set(record) == {"command", "params", "payload"}
        assert record["command"] == "enum"
        assert record["params"] == {"set": "reduced", "n": 2, "m": 8}
        assert record["payload"]["count"] == 6
        assert [7, 1] in record["payload"]["partitions"]

    def test_byte_identical_runs(self, capsys):
        _, first, _ = run_cli(
            capsys, "enum", "--set", "proper", "--n", "2", "--m", "10"
        )
        _, second, _ = run_cli(
            capsys, "enum", "--set", "proper", "--n", "2", "--m", "10"
        )
        assert first == second


class TestWeight:
    def test_known_weight(self, capsys):
        code, out, _ = run_cli(capsys, "weight", "--n", "2", "--partition", "7")
        assert code == 0
        assert out.splitlines() == ["weight: [3,2,2]", "total: 7"]

    def test_rank_three(self, capsys):
        _, out, _ = run_cli(capsys, "weight", "--n", "3", "--partition", "7")
        assert out.splitlines()[0] == "weight: [1,2,2,2]"

    def test_empty_partition(self, capsys):
        code, out, _ = run_cli(capsys, "weight", "--n", "2", "--partition", "")
        assert code == 0
        assert out.splitlines() == ["weight: [0,0,0]", "total: 0"]

    def test_non_monotone_literal(self, capsys):
        code, _, err = run_cli(capsys, "weight", "--n", "2", "--partition", "1,2")
        assert code == 2
        assert "weakly decreasing" in err


class TestMap:
    def test_forward_strip(self, capsys):
        code, out, _ = run_cli(
            capsys, "map", "--alg", "psi", "--n", "2", "--partition", "7"
        )
        assert code == 0
        assert out.splitlines() == ["reduced: 1", "hat: 1", "k: 1"]

    def test_forward_delete(self, capsys):
        code, out, _ = run_cli(
            capsys, "map", "--alg", "phi", "--n", "2", "--partition", "3,3,1"
        )
        assert code == 0
        assert out.splitlines() == ["reduced: 1", "hat: 1", "k: 1"]

    def test_trace_lines(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "map", "--alg", "psi", "--n", "2", "--partition", "14,1", "--trace",
        )
        assert out.splitlines()[-1] == "step 1: i=2 t=2"
        _, out, _ = run_cli(
            capsys,
            "map", "--alg", "phi", "--n", "2", "--partition", "6,6,3,3",
            "--trace",
        )
        assert out.splitlines()[-2:] == ["step 1: i=4 pair=3", "step 2: i=2 pair=6"]

    def test_inverse_maps(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "map", "--alg", "psi-inv", "--n", "2",
            "--partition", "2,1", "--hat", "2",
        )
        assert code == 0
        assert out.splitlines() == ["result: 14,1"]
        code, out, _ = run_cli(
            capsys,
            "map", "--alg", "phi-inv", "--n", "2",
            "--partition", "", "--hat", "2,1",
        )
        assert code == 0
        assert out.splitlines() == ["result: 6,6,3,3"]

    @pytest.mark.parametrize(
        "core, image, argv, failed",
        # a malformed image is neither repaired nor a usage error
        [("_psi_core", ((1,), (2, 0)), ["psi", "13"], "psi hat size"),
         ("_psi_rebuild_core", (1, 3), ["psi-inv", "1", "--hat", "2"],
          "psi_inv round trip mismatch"),
         # psi maps (7, 0) to ((1,), (1,)), yet it is no wall to print
         ("_psi_rebuild_core", (7, 0), ["psi-inv", "1", "--hat", "1"],
          "psi_inv round trip mismatch"),
         ("_phi_rebuild_core", (3, -3), ["phi-inv", "", "--hat", "1"],
          "phi_inv round trip mismatch")],
        ids=["psi_hat", "psi_inv_increasing", "psi_inv_trailing_zero",
             "phi_inv_negative"],
    )
    def test_malformed_image_fails_its_certificate(self, capsys, monkeypatch,
                                                   core, image, argv, failed):
        monkeypatch.setattr(bijections, core, lambda *args: image)
        alg, partition, *hat = argv
        assert run_cli(capsys, "map", "--alg", alg, "--n", "2",
                       "--partition", partition, *hat) == (
            3, "", f"internal error: CertificationError: {failed}\n")

    def test_already_reduced_is_domain_error(self, capsys):
        code, _, err = run_cli(
            capsys, "map", "--alg", "psi", "--n", "2", "--partition", "5,1"
        )
        assert code == 2
        assert err == "error: Partition((5, 1)) is already reduced; nothing to strip\n"

    def test_hat_flag_misuse(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "map", "--alg", "psi", "--n", "2", "--partition", "7", "--hat", "1",
        )
        assert code == 2
        code, _, _ = run_cli(
            capsys, "map", "--alg", "psi-inv", "--n", "2", "--partition", "1"
        )
        assert code == 2

    def test_json_trace(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "map", "--alg", "psi", "--n", "2", "--partition", "7",
            "--trace", "--format", "json",
        )
        record = json.loads(out)
        assert record["payload"]["trace"] == [{"l": 1, "i": 2, "t": 1}]


class TestVch:
    def test_strict_seven(self, capsys):
        code, out, _ = run_cli(
            capsys, "vch", "--set", "strict", "--n", "2", "--m", "7"
        )
        assert code == 0
        assert out.splitlines() == [
            "terms: 3",
            "[2,2,3] x1",
            "[2,3,2] x1",
            "[3,2,2] x3",
        ]

    def test_reduced_side_matches(self, capsys):
        _, strict_out, _ = run_cli(
            capsys, "vch", "--set", "strict", "--n", "3", "--m", "7"
        )
        _, reduced_out, _ = run_cli(
            capsys, "vch", "--set", "reduced", "--n", "3", "--m", "7"
        )
        assert strict_out == reduced_out

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize(
        "set_name, enumerate_set, counts",
        [("strict", lambda params, m: enumerate_strict(m),
          lambda params, M: strict_counts(M)),
         ("reduced", enumerate_reduced, reduced_counts),
         ("proper", enumerate_proper, proper_counts)],
        ids=["strict", "reduced", "proper"],
    )
    def test_terms_match_enumeration(self, capsys, set_name, enumerate_set, counts, n):
        params = WallParams(n)
        totals = counts(params, 20)
        for m in range(21):
            code, out, _ = run_cli(capsys, "vch", "--set", set_name, "--n", str(n),
                                   "--m", str(m), "--format", "json")
            assert code == 0
            payload = json.loads(out)["payload"]
            oracle = virtual_character(enumerate_set(params, m), params)
            assert payload["terms"] == [{"weight": list(w), "multiplicity": c}
                                        for w, c in sorted(oracle.items())], m
            assert payload["total"] == totals[m], m

    @pytest.mark.parametrize("set_name", ["strict", "reduced", "proper"])
    def test_reads_the_weight_tables_only(self, capsys, monkeypatch, set_name):
        def refuse(*args):
            raise AssertionError("vch enumerated or weighed a member")

        for name in ("enumerate_strict", "enumerate_reduced", "enumerate_proper",
                     "weight"):
            monkeypatch.setattr(cli, name, refuse)
        code, out, _ = run_cli(capsys, "vch", "--set", set_name, "--n", "3",
                               "--m", "12")
        assert code == 0
        assert out.startswith("terms: ")


class TestPschar:
    def test_coefficients(self, capsys):
        code, out, _ = run_cli(capsys, "pschar", "--n", "4", "--degree", "10")
        assert code == 0
        assert out.splitlines() == [
            "degree: 10",
            "coefficients: 1,1,1,2,2,3,4,5,6,8,10",
        ]


class TestCount:
    def test_reduced_counts(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--set", "reduced", "--n", "2", "--max-m", "8"
        )
        assert code == 0
        assert out.splitlines() == [
            "0: 1", "1: 1", "2: 1", "3: 2", "4: 2", "5: 3", "6: 4", "7: 5",
            "8: 6",
        ]

    def test_strict_without_n(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--set", "strict", "--max-m", "8"
        )
        assert code == 0
        assert out.splitlines()[-1] == "8: 6"


@pytest.mark.parametrize("argv", [["count", "--set", "strict", "--max-m", "2000"],
                                  ["enum", "--set", "strict", "--m", "60"]])
def test_long_text_lines_are_built_lazily(argv):
    # a JSON call at the limits formats none of them
    args = cli.parse(argv)
    *_, lines = args.func(args)
    assert iter(lines) is lines


class TestVerify:
    def test_small_suite_passes(self, capsys):
        code, out, err = run_cli(
            capsys,
            "verify", "--n-range", "2..3", "--max-m", "10", "--degree", "40",
        )
        assert code == 0
        lines = out.splitlines()
        assert all(line.startswith("PASS") for line in lines)
        assert len(lines) == 11  # euler once + five checks x two ranks
        assert "elapsed" in err  # diagnostics stay off stdout
        assert "elapsed" not in out

    @pytest.mark.parametrize("checks, bijections", [(None, True),
                                                    ("bijections", True),
                                                    ("euler,counts", False),
                                                    ("euler", False)])
    def test_the_plan_line_counts_what_the_budget_admitted(self, capsys, checks,
                                                           bijections):
        # bijections lists no wall, so the plan counts the table cells alone
        argv = ["verify", "--n-range", "2..4", "--max-m", "16"]
        code, _, err = run_cli(capsys, *argv, *(["--checks", checks] if checks else []))
        assert code == 0
        cells = 17 * (2 + 3 + 4 + 3) if checks != "euler" else 0
        first, *rest = err.splitlines()
        assert first == f"# plan table_cells={cells}"
        ran = [line.split()[2] for line in rest if line.startswith("# bijections ")]
        assert ran == ["n=2", "n=3", "n=4"] * bijections

    def test_check_selection_and_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--n-range", "2..2", "--max-m", "8", "--degree", "20",
            "--checks", "euler,counts", "--format", "json",
        )
        assert code == 0
        record = json.loads(out)
        assert record["payload"]["all_passed"] is True
        checks = [r["check"] for r in record["payload"]["reports"]]
        assert checks == ["euler", "counts"]
        for report in record["payload"]["reports"]:
            assert set(report) == {"check", "params", "passed", "counterexample"}

    def test_unknown_check_is_usage_error(self, capsys):
        # refused before any budget: no plan line, and no budget error first
        for argv in (["--checks", "euler,bogus", "--max-m", "4"],
                     ["--checks", "bogus"],
                     ["--checks", "euler,bogus", "--n-range", "2..3000"]):
            assert run_cli(capsys, "verify", *argv) == (
                2, "", "error: unknown checks: bogus\n"), argv

    @pytest.mark.parametrize("checks", ["", ",", "euler,,counts", "euler,"])
    def test_empty_check_name_is_usage_error(self, capsys, checks):
        # an empty value must not fall back to all six checks
        assert run_cli(capsys, "verify", "--max-m", "4", "--checks", checks) == (
            2, "", "error: --checks has an empty check name\n")

    def test_bad_range_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--n-range", "1..2")
        assert code == 2

    def test_failing_report(self, capsys, monkeypatch):
        # verify stores the Partition itself; it must serialize as a list
        for partition in ((5, 2, 1), Partition((5, 2, 1))):
            report = VerificationReport(
                "counts", {"n": 2, "max_m": 8}, False,
                {"m": 5, "partition": partition, "reduced": 3, "strict": 4},
            )
            monkeypatch.setattr(cli, "run_checks", lambda *args: [report])
            code, out, _ = run_cli(capsys, "verify")
            assert code == 1
            assert out == (
                "FAIL counts n=2 max_m=8 counterexample="
                '{"m": 5, "partition": [5, 2, 1], "reduced": 3, "strict": 4}\n'
            )
            code, out, _ = run_cli(capsys, "verify", "--format", "json")
            assert code == 1
            assert '"all_passed": false' in out
            assert '"partition": [5, 2, 1]' in out

    def test_byte_identical_runs(self, capsys):
        args = ("verify", "--n-range", "2..2", "--max-m", "8", "--degree", "30")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


#: Help and a call with an abbreviated option (stdout, exit 0) and usage
#: errors (stderr, exit 2), recorded with every subparser built, at
#: COLUMNS=80 (WIDE: 100) under CPython 3.11; argparse words some of them
#: differently in other versions.
USAGE = {
    "help.stdout": ["--help"],
    "enum-help.stdout": ["enum", "--help"],
    "weight-help.stdout": ["weight", "--help"],
    "map-help.stdout": ["map", "--help"],
    "vch-help.stdout": ["vch", "--help"],
    "pschar-help.stdout": ["pschar", "--help"],
    "count-help.stdout": ["count", "--help"],
    "verify-help.stdout": ["verify", "--help"],
    "count-abbreviated-option.stdout": ["count", "--set", "strict", "--max", "3"],
    "enum-proper-without-n.stderr": ["enum", "--set", "proper", "--m", "5"],
    "weight-extra-argument.stderr": ["weight", "--n", "3", "--partition", "1",
                                     "extra"],
    "weight-double-dash.stderr": ["weight", "--n", "3", "--", "--partition", "1"],
    "verify-unknown-option.stderr": ["verify", "--bogus"],
    "unknown-command.stderr": ["bogus"],
}

#: At 80 columns, argparse 3.10 to 3.12 wrap these usage lines between an
#: option and its value, and 3.13 does not.
WIDE = {"map-help.stdout", "count-help.stdout"}


class TestParser:
    """``main`` builds one parser, the command's own, for a call that names
    its command first; the full parser of all seven is built for the rest
    and for the usage errors it words.  Help and usage errors read as they
    do with all seven built."""

    @pytest.fixture
    def built(self, monkeypatch):
        """The parsers constructed so far, subparsers included."""
        parsers = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            parsers.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        return parsers

    @pytest.mark.parametrize("name", sorted(USAGE))
    def test_help_and_usage_text(self, capsys, monkeypatch, name):
        monkeypatch.setenv("COLUMNS", "100" if name in WIDE else "80")
        try:
            code = main(USAGE[name])
        except SystemExit as exc:  # help and usage errors
            code = exc.code
        out, err = capsys.readouterr()
        if name.endswith(".stdout"):
            expected_code, text, rest = 0, out, err
        else:
            expected_code, text, rest = 2, err, out
        assert code == expected_code
        assert text.encode() == (GOLDEN / "usage" / name).read_bytes()
        assert rest == ""

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_a_call_builds_its_command_alone(self, capsys, built, name):
        argv = COMMANDS[name]
        assert main(argv) == 0
        assert len(built) == 1
        # the command's own parser drops no option or default, --format included
        assert vars(cli.parse(argv)) == vars(cli.build_parser().parse_args(argv))

    @pytest.mark.parametrize("argv", [["--help"], ["bogus"], [],
                                      ["--format", "json", "weight"]])
    def test_no_command_name_first_builds_every_command(self, capsys, built,
                                                        argv):
        with pytest.raises(SystemExit):
            main(argv)
        assert len(built) == 8

    def test_a_command_patched_after_first_use_runs(self, capsys, monkeypatch):
        argv = ["verify", "--checks", "euler", "--degree", "5"]
        assert run_cli(capsys, *argv)[:2] == (0, "PASS euler max_degree=5\n")

        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_verify", broken)
        assert run_cli(capsys, *argv) == (3, "", "internal error: RuntimeError: boom\n")


def test_seeded_argv_fuzz_parses_as_the_full_parser():
    # the larger pass of 3,000 argvs runs in CI: python -O tests/argv_fuzz.py
    assert differences(300) == []


def test_seeded_argv_fuzz_exits_zero_or_two(capsys):
    # the shipped identities hold, so no argv exits 1, and none may exit 3
    # or raise; a refused argv prints nothing on stdout
    rng, passed = random.Random(0), set()
    for _ in range(300):
        argv = fuzz_argv(rng)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        if code not in (0, 2) or code == 2 and out or "Traceback" in err:
            pytest.fail(f"{argv}: exit {code}, stdout {out!r}, stderr {err!r}")
        if code == 0:
            passed.add(argv[0])
    # every command runs to exit 0 at least once, as well as being refused
    assert passed == FUZZ_OPTIONS.keys()
