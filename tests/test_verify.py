import re
import time

import pytest

from youngwalls import (
    ALL_CHECKS,
    Partition,
    WallParams,
    run_checks,
    verify_bijections,
    verify_count_identity,
    verify_euler,
    verify_fock,
    verify_reduced_equivalence,
    verify_vch_identity,
)
from youngwalls import enumerate_proper, enumerate_strict, is_reduced, verify
from youngwalls import proper_counts, reduced_counts, strict_counts
from youngwalls import bijections, virtual_character, weight
from youngwalls.bijections import _phi_core, _psi_core
from youngwalls.walls import column_codes
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

    def test_vch_at_a_high_rank_is_fast(self):
        # 20001-digit weight codes: packing must not cost a power per color
        started = time.perf_counter()
        assert verify_vch_identity(WallParams(20000), 8).passed
        assert time.perf_counter() - started < 5

    @pytest.mark.parametrize("n, max_m", [(100000, 8), (500000, 1)])
    def test_bijections_at_a_high_rank_is_fast(self, n, max_m):
        # both domains are empty below 2*delta blocks; the packed cycle
        # code must not cost a power per color either
        started = time.perf_counter()
        assert verify_bijections(WallParams(n), max_m).passed
        assert time.perf_counter() - started < 5

    def test_reduced_equivalence_at_the_size_bound_lists_no_wall(self,
                                                                 monkeypatch):
        def refuse(*args):
            raise AssertionError("reduced-equivalence enumerated")

        monkeypatch.setattr(verify, "_walk_proper", refuse)
        started = time.perf_counter()
        assert verify_reduced_equivalence(WallParams(2), 2000).passed
        assert time.perf_counter() - started < 5

    def test_reduced_equivalence_reads_every_proper_adjacency_once(self,
                                                                   monkeypatch):
        # the pairs compared are exactly the adjacencies (the last part
        # against 0) of the proper walls of at most max_m blocks
        params, max_m, pairs = WallParams(2), 20, []
        real = verify._reduced_gap

        def recorded(a, b, delta):
            pairs.append((a, b))
            return real(a, b, delta)

        monkeypatch.setattr(verify, "_reduced_gap", recorded)
        assert verify_reduced_equivalence(params, max_m).passed
        adjacencies = {pair for m in range(max_m + 1)
                       for lam in enumerate_proper(params, m)
                       for pair in zip(lam, lam[1:] + (0,))}
        assert len(pairs) == len(set(pairs))
        assert set(pairs) == adjacencies

    def test_vch_enumerates_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("vch enumerated")

        monkeypatch.setattr(verify, "_walk_proper", refuse)
        assert verify_vch_identity(WallParams(3), 30).passed

    def test_verify_enumerates_only_proper_walls(self):
        # codomains are counted from the tables, never listed; the one walk
        # of the proper walls is verify's only enumerator
        names = [name for name, value in vars(verify).items()
                 if name.startswith(("enumerate_", "_walk_"))
                 and getattr(value, "__module__", None) != verify.__name__]
        assert names == ["_walk_proper"]

    def test_each_map_runs_once_per_domain_wall(self, monkeypatch):
        # the walk's flags decide both domains, so no whole-wall predicate
        # runs on a walked wall: Partition.is_strict reads phi's images only
        params, max_m = WallParams(2), 20
        calls = {"_psi_core": [], "_phi_core": [], "is_strict": []}

        def counted(name, fn):
            def wrapper(*args):
                result = fn(*args)
                calls[name].append((args[0], result))
                return result

            return wrapper

        for name in ("_psi_core", "_phi_core"):
            monkeypatch.setattr(bijections, name,
                                counted(name, getattr(bijections, name)))
        monkeypatch.setattr(Partition, "is_strict",
                            counted("is_strict", Partition.is_strict))
        assert verify_bijections(params, max_m).passed
        proper = sum(proper_counts(params, max_m))
        assert len(calls["_psi_core"]) == proper - sum(reduced_counts(params, max_m))
        assert len(calls["_phi_core"]) == proper - sum(strict_counts(max_m)) == 169
        assert len(calls["_psi_core"]) == 169
        assert [lam for lam, _ in calls["is_strict"]] == [
            part for _, (part, _) in calls["_phi_core"]]

    def test_vacuous_bijection_domain(self):
        # below one quantum of blocks the complement domains are empty
        params = WallParams(2)
        assert verify_bijections(params, params.period - 1).passed


def off_by_one_at(fn, m0):
    """``fn`` with the degree-``m0`` entry of its table or series raised by 1."""

    def bumped(*args):
        values = list(fn(*args))
        values[m0] += 1
        return values

    return bumped


def term_off_by_one_at(fn, m0):
    """``fn`` with one weight term of the degree-``m0`` entry of its weight
    table raised by 1."""

    def bumped(*args):
        table = [dict(entry) for entry in fn(*args)]
        table[m0][min(table[m0])] += 1
        return table

    return bumped


def truncated(fn, drop):
    """``fn`` with the last ``drop`` entries of its table cut off."""

    def short(*args):
        return list(fn(*args))[:-drop]

    return short


def table_bumped_at(side, index):
    def perturb(monkeypatch):
        monkeypatch.setattr(verify, side, off_by_one_at(getattr(verify, side), index))

    return perturb


def walls_edited_at(m0, edit):
    """``verify``'s walk with its walls of ``m0`` blocks, in descending
    lexicographic order, replaced by ``edit`` of them."""

    def perturb(monkeypatch):
        real = verify._walk_proper

        def edited(params, M):
            nodes = list(real(params, M))
            at_m0 = sorted((node for node in nodes if node[0] == m0),
                           key=lambda node: node[1], reverse=True)
            return [node for node in nodes if node[0] != m0] + edit(at_m0)

        monkeypatch.setattr(verify, "_walk_proper", edited)

    return perturb


def walk_flag_flipped(wall, index):
    """``verify``'s walk with field ``index`` of ``wall``'s node negated."""

    def perturb(monkeypatch):
        real = verify._walk_proper

        def flipped(params, M):
            for node in real(params, M):
                if node[1] == wall:
                    node = node[:index] + (not node[index],) + node[index + 1:]
                yield node

        monkeypatch.setattr(verify, "_walk_proper", flipped)

    return perturb


def psi_image_forged(wall, part, hat):
    """A ``psi`` core sending ``wall`` to (part, hat), and a rebuild core
    that still returns ``wall`` from it, so only the membership test can
    tell."""

    def perturb(monkeypatch):
        real_psi, real_rebuild = bijections._psi_core, bijections._psi_rebuild_core

        def forged(lam, params):
            if lam == wall:
                return part, hat
            return real_psi(lam, params)

        def rebuild(reduced, bookkeeping, params):
            if (reduced, bookkeeping) == (part, hat):
                return tuple(wall)
            return real_rebuild(reduced, bookkeeping, params)

        monkeypatch.setattr(bijections, "_psi_core", forged)
        monkeypatch.setattr(bijections, "_psi_rebuild_core", rebuild)

    return perturb


def unchecked(*parts):
    """A ``Partition`` built without validation, as only a forgery would."""
    return tuple.__new__(Partition, parts)


class TestEverySideIsRead:
    """Each check fails, at the perturbed degree, when any one of its
    independent sides is off by one there."""

    @pytest.mark.parametrize(
        "side",
        ["series_product_strict", "series_product_odd", "strict_counts", "odd_counts"],
    )
    def test_euler(self, monkeypatch, side):
        monkeypatch.setattr(verify, side, off_by_one_at(getattr(verify, side), 17))
        report = verify_euler(40)
        assert not report.passed
        assert report.counterexample["m"] == 17
        assert set(report.counterexample) == {
            "m", "strict_series", "odd_series", "strict_count", "odd_count"
        }

    @pytest.mark.parametrize("side", ["reduced_counts", "strict_counts"])
    def test_counts(self, monkeypatch, side):
        monkeypatch.setattr(verify, side, off_by_one_at(getattr(verify, side), 11))
        report = verify_count_identity(WallParams(2), 20)
        assert not report.passed
        assert report.counterexample["m"] == 11
        assert set(report.counterexample) == {"m", "reduced", "strict"}

    @pytest.mark.parametrize(
        "side, index, m",
        # P(1) first enters the decomposition at m = 2*delta = 6
        [("proper_counts", 11, 11), ("reduced_counts", 11, 11),
         ("partition_counts", 1, 6)],
    )
    def test_fock(self, monkeypatch, side, index, m):
        monkeypatch.setattr(verify, side, off_by_one_at(getattr(verify, side), index))
        report = verify_fock(WallParams(2), 20)
        assert not report.passed
        assert report.counterexample["m"] == m
        assert set(report.counterexample) == {"m", "proper", "decomposition"}

    @pytest.mark.parametrize(
        "side, excess, other",
        [("strict_weight_table", "strict_only", "reduced_only"),
         ("reduced_weight_table", "reduced_only", "strict_only")],
        ids=["strict_weight_table", "reduced_weight_table"],
    )
    def test_vch(self, monkeypatch, side, excess, other):
        monkeypatch.setattr(verify, side, term_off_by_one_at(getattr(verify, side), 11))
        report = verify_vch_identity(WallParams(2), 20)
        assert not report.passed
        witness = report.counterexample
        assert witness["m"] == 11
        assert set(witness) == {"m", "strict_only", "reduced_only"}
        (key, count), = witness[excess].items()
        assert count == 1
        assert re.fullmatch(r"\(\d+, \d+, \d+\)", key)
        weights = virtual_character(enumerate_strict(11), WallParams(2))
        assert key in {str(w) for w in weights}
        assert witness[other] == {}

    @pytest.mark.parametrize(
        "perturb, m, name",
        # with delta = 3, family entry m0 is read first at m0 + 6, P(k) at 6k
        [(table_bumped_at("reduced_counts", 7), 13, "psi"),
         (table_bumped_at("strict_counts", 7), 13, "phi"),
         (table_bumped_at("partition_counts", 2), 12, "psi"),
         (walls_edited_at(13, lambda walls: walls[1:]), 13, "psi"),
         (walls_edited_at(13, lambda walls: walls[:1] + walls), 13, "psi"),
         # (13,) twice and (12, 1) not at all: the counts still match, and
         # only the image set sees that one image is missing
         (walls_edited_at(13, lambda walls: walls[:1] + walls[:1] + walls[2:]),
          13, "psi"),
         # psi sends (13,) to ((1,), (2,)); each forgery keeps the round trip
         # and the weight shift
         (psi_image_forged((13,), Partition((1,)), unchecked(2, 0)), 13, "psi"),
         (psi_image_forged((13,), unchecked(1, 0), Partition((2,))), 13, "psi"),
         (psi_image_forged((13,), Partition((1,)), Partition((2, 1))), 13, "psi"),
         (psi_image_forged((13,), Partition((7,)), Partition((1,))), 13, "psi"),
         # a reduced wall of the same size and weight, nothing stripped
         (psi_image_forged((13,), Partition((8, 4, 1)), Partition()), 13, "psi"),
         # parts that no column code covers: no image, and no crash
         (psi_image_forged((13,), unchecked(25), unchecked(-2)), 13, "psi"),
         (psi_image_forged((13,), unchecked(-5), Partition((3,))), 13, "psi"),
         # phi's domain is read off the walk's strict flag: (3, 3) leaves it,
         # and (6,) joins it with an image of an empty hat, no member
         (walk_flag_flipped((3, 3), 3), 6, "phi"),
         (walk_flag_flipped((6,), 3), 6, "phi")],
        ids=["reduced_counts", "strict_counts", "partition_counts",
             "enumerate_proper", "enumerate_proper_twice",
             "walk_duplicates_one_and_drops_another", "non_canonical_hat",
             "non_canonical_part", "outside_codomain", "outside_family",
             "empty_hat", "part_above_max_m", "negative_part",
             "strict_flag_drops_a_wall", "strict_flag_adds_a_wall"],
    )
    def test_bijections(self, monkeypatch, perturb, m, name):
        perturb(monkeypatch)
        report = verify_bijections(WallParams(2), 20)
        assert report.counterexample == {
            "m": m, "map": name, "error": "image does not match codomain"
        }

    @pytest.mark.parametrize("rule", ["_reduced_gap", "_removable_at"],
                             ids=["is_reduced", "has_removable_delta"])
    def test_reduced_equivalence(self, monkeypatch, rule):
        # (7,) is a proper wall of n = 2 that is not reduced: its one
        # adjacency, 7 over 0, has a gap above 2*delta and a removable segment
        real = getattr(verify, rule)

        def negated_at_7_0(a, b, delta):
            return real(a, b, delta) != ((a, b) == (7, 0))

        monkeypatch.setattr(verify, rule, negated_at_7_0)
        report = verify_reduced_equivalence(WallParams(2), 20)
        assert not report.passed
        assert report.counterexample == {"m": 7, "partition": (7,)}

    @pytest.mark.parametrize(
        "sides, check",
        [(("reduced_counts",), verify_count_identity),
         (("strict_counts",), verify_count_identity),
         (("reduced_counts", "strict_counts"), verify_count_identity),
         (("proper_counts",), verify_fock),
         (("strict_weight_table",), verify_vch_identity),
         (("reduced_weight_table",), verify_vch_identity),
         (("strict_weight_table", "reduced_weight_table"), verify_vch_identity)],
        ids=["reduced_counts", "strict_counts", "both_counts", "proper_counts",
             "strict_weight_table", "reduced_weight_table", "both_weight_tables"],
    )
    def test_short_table(self, monkeypatch, sides, check):
        # a table five entries short fails at its first missing m, 16
        for side in sides:
            monkeypatch.setattr(verify, side, truncated(getattr(verify, side), 5))
        report = check(WallParams(2), 20)
        assert not report.passed
        assert report.counterexample["m"] == 16


class TestPackedWeightCheck:
    def test_the_packed_check_is_read(self, monkeypatch):
        real = verify.column_codes

        def one_color_off(params, M):
            codes = real(params, M)
            codes[1] += 1  # color 0 of a one-block column counts twice
            return codes

        monkeypatch.setattr(verify, "column_codes", one_color_off)
        report = verify_bijections(WallParams(2), 20)
        # psi sends (7,) to ((1,), (1,)), the first image with a one-block
        # column that its wall lacks
        assert report.counterexample == {"m": 7, "map": "psi", "partition": (7,),
                                         "error": "weight shift mismatch"}

    @pytest.mark.parametrize("n", [2, 3])
    def test_packed_comparison_matches_per_color_weights(self, n):
        params, max_m = WallParams(n), 30
        codes = column_codes(params, max_m)
        cycle = codes[params.period]
        compared = 0
        for m in range(max_m + 1):
            for lam in enumerate_proper(params, m):
                for core, in_domain in ((_psi_core, not is_reduced(lam, params)),
                                        (_phi_core, not lam.is_strict())):
                    if not in_domain:
                        continue
                    part, hat = core(lam, params)
                    k = sum(hat)
                    shift = sum(codes[a] for a in lam) - sum(codes[a] for a in part)
                    # a wrong k must fail both ways as well
                    for j in (k - 1, k, k + 1):
                        per_color = all(a - b == 2 * j for a, b in
                                        zip(weight(lam, params), weight(part, params)))
                        assert (shift == j * cycle) == per_color == (j == k)
                    compared += 1
        assert compared > 1000


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
        wall, cell = {"m": 3, "partition": (9, 1)}, {"m": 3}
        later = {"m": 4, "partition": (1,)}
        # within a cell, a wall's own failure precedes the cell-wide one
        assert sorted([later, cell, wall, {}], key=_witness_key) == [
            {}, wall, cell, later
        ]


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

    def test_only_bijections_walks_the_proper_walls(self, monkeypatch):
        real, walks = verify._walk_proper, []

        def counted(params, M):
            walks.append(params.n)
            return real(params, M)

        monkeypatch.setattr(verify, "_walk_proper", counted)
        reports = run_checks((2, 3), 20, 50, checks=("reduced-equivalence",))
        assert walks == []
        assert all(r.passed for r in reports)
        shuffled = ("reduced-equivalence", "counts", "bijections", "euler")
        reports = run_checks((2, 3), 20, 50, checks=shuffled)
        assert walks == [2, 3]
        assert [(r.check, r.params.get("n")) for r in reports] == [
            ("euler", None), ("counts", 2), ("counts", 3),
            ("bijections", 2), ("bijections", 3),
            ("reduced-equivalence", 2), ("reduced-equivalence", 3),
        ]
        assert all(r.passed and r.elapsed > 0 for r in reports)

    def test_all_checks_constant_matches_runners(self):
        reports = run_checks((2,), 6, 10, checks=ALL_CHECKS)
        assert {r.check for r in reports} == set(ALL_CHECKS)
