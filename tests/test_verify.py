import pytest

from youngwalls import (
    ALL_CHECKS,
    WallParams,
    run_checks,
    verify_bijections,
    verify_count_identity,
    verify_euler,
    verify_fock,
    verify_reduced_equivalence,
    verify_vch_identity,
)
from youngwalls.verify import _report, _witness_key


class TestIndividualVerifiers:
    def test_euler(self):
        report = verify_euler(200)
        assert report.passed
        assert report.counterexample is None
        assert report.check == "euler"
        assert report.elapsed >= 0

    def test_euler_degree_zero(self):
        assert verify_euler(0).passed

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_counts(self, n):
        assert verify_count_identity(WallParams(n), 16).passed

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_fock(self, n):
        assert verify_fock(WallParams(n), 16).passed

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_vch(self, n):
        assert verify_vch_identity(WallParams(n), 14).passed

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_bijections(self, n):
        assert verify_bijections(WallParams(n), 16).passed

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_reduced_equivalence(self, n):
        assert verify_reduced_equivalence(WallParams(n), 16).passed

    def test_vacuous_bijection_domain(self):
        # below one quantum of blocks the complement domains are empty
        params = WallParams(2)
        assert verify_bijections(params, params.period - 1).passed


class TestReportPlumbing:
    def test_to_dict_omits_elapsed_by_default(self):
        report = verify_euler(10)
        data = report.to_dict()
        assert set(data) == {"check", "params", "passed", "counterexample"}

    def test_failing_report_carries_minimal_witness(self):
        failures = [
            {"m": 9, "partition": (5, 4)},
            {"m": 4, "partition": (3, 1)},
            {"m": 4, "partition": (2, 2)},
        ]
        report = _report("fake", {"n": 2}, failures, started=0.0)
        assert not report.passed
        assert report.counterexample == {"m": 4, "partition": (2, 2)}

    def test_witness_key_handles_missing_fields(self):
        assert _witness_key({"m": 3}) == (3, ())
        assert _witness_key({}) == (0, ())


class TestRunChecks:
    def test_all_pass_small_bounds(self):
        reports = run_checks((2, 3), max_m=10, euler_degree=40)
        assert [r.check for r in reports] == [
            "euler",
            "counts", "counts",
            "fock", "fock",
            "vch", "vch",
            "bijections", "bijections",
            "reduced-equivalence", "reduced-equivalence",
        ]
        assert all(r.passed for r in reports)

    def test_check_selection(self):
        reports = run_checks((2,), 8, 20, checks=("counts", "euler"))
        assert [r.check for r in reports] == ["euler", "counts"]

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            run_checks((2,), 8, 20, checks=("nonsense",))

    def test_euler_runs_once_regardless_of_ranks(self):
        reports = run_checks((2, 3, 4), 6, 20, checks=("euler",))
        assert len(reports) == 1

    def test_deterministic_ordering(self):
        a = run_checks((2, 3), 8, 30)
        b = run_checks((2, 3), 8, 30)
        assert [(r.check, tuple(r.params.items())) for r in a] == [
            (r.check, tuple(r.params.items())) for r in b
        ]

    def test_all_checks_constant_matches_runners(self):
        reports = run_checks((2,), 6, 10, checks=ALL_CHECKS)
        assert {r.check for r in reports} == set(ALL_CHECKS)
