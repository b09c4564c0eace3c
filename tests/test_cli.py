import json
import sys

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
    # n=2, m <= 8 has 1+1+1+2+2+3+5+6+7 = 28 proper walls, which only
    # bijections walks, and (2 + 1) * 9 = 27 table cells
    argv = ["verify", "--n-range", "2", "--max-m", "8", "--checks"]
    monkeypatch.setattr(cli, "MAX_OBJECTS", 28)
    assert run_cli(capsys, *argv, "bijections,reduced-equivalence")[0] == 0
    assert run_cli(capsys, *argv, "bijections,reduced-equivalence,counts")[0] == 0
    monkeypatch.setattr(cli, "MAX_OBJECTS", 27)
    assert run_cli(capsys, *argv, "reduced-equivalence")[0] == 0
    for checks in ("bijections,reduced-equivalence", "bijections"):
        code, out, err = run_cli(capsys, *argv, checks)
        assert (code, out, err) == (2, "", "error: --max-m is too large\n")


def test_verify_refuses_many_ranks_before_any_table(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("per-rank table built")

    monkeypatch.setattr(cli, "proper_counts", refuse)
    monkeypatch.setattr(verify, "reduced_counts", refuse)
    argv = ["verify", "--n-range", "2..1000000", "--max-m", "8", "--checks"]
    code, out, err = run_cli(capsys, *argv, "counts")
    assert (code, out, err) == (2, "", "error: --n-range is too large\n")
    # euler builds no per-rank table, so the ranks do not bound it
    assert run_cli(capsys, *argv, "euler")[0] == 0


def test_verify_rank_budget_boundary(capsys, monkeypatch):
    # ranks 2 and 3 at max_m 7: (3 + 4) * 8 = 56 table cells
    argv = ["verify", "--n-range", "2..3", "--max-m", "7", "--checks", "counts"]
    monkeypatch.setattr(cli, "MAX_OBJECTS", 56)
    assert run_cli(capsys, *argv)[0] == 0
    monkeypatch.setattr(cli, "MAX_OBJECTS", 55)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", "error: --n-range is too large\n")


def test_verify_budget_counts_a_repeated_check_once(capsys, monkeypatch):
    # n=2, m <= 7: 21 proper walls for bijections, 24 table cells
    monkeypatch.setattr(cli, "MAX_OBJECTS", 24)
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
        code, _, err = run_cli(
            capsys, "verify", "--checks", "euler,bogus", "--max-m", "4"
        )
        assert code == 2
        assert "unknown checks" in err

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
