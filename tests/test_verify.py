import re
import time
from itertools import product

import pytest

from youngwalls import (
    ALL_CHECKS,
    CertificationError,
    Partition,
    VerificationReport,
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
from youngwalls import bijections, psi, virtual_character, walls, weight
from youngwalls.bijections import _phi_core, _psi_core
from youngwalls.cli import main
from youngwalls.walls import column_codes
from youngwalls.verify import _agree, _report, _witness_key

import plan_oracle
import walk_oracle
from count_oracle import fock_matches_convolution
from grid import off_by_one_at, term_off_by_one_at
from walk_oracle import verify_bijections_by_claims, verify_bijections_by_walk


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

    @pytest.mark.parametrize("n", range(2, 9))
    def test_fock_decomposition_equals_the_convolution(self, n):
        # the division per residue class against one product per (m, k),
        # below, at and past the period
        params = WallParams(n)
        for M in (0, 1, params.period - 1, params.period, 40, 300):
            assert fock_matches_convolution(params, M), M

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

    def test_bijections_at_the_size_bound_lists_no_wall(self, monkeypatch):
        # O(max_m^2) states of the steps; walking the proper walls of up to
        # 2000 blocks would never end
        def refuse(*args):
            raise AssertionError("bijections walked the proper walls")

        monkeypatch.setattr(walk_oracle, "_walk_proper", refuse)
        started = time.perf_counter()
        assert verify_bijections(WallParams(2), 2000).passed
        assert time.perf_counter() - started < 5

    def test_bijections_runs_no_core_and_no_image(self, monkeypatch):
        # verify checks the steps that the cores fold, never a core or the
        # certified image that the public maps run
        def refuse(*args):
            raise AssertionError("verify ran a core or an image")

        for name in ("_psi_core", "_phi_core", "_psi_rebuild_core",
                     "_phi_rebuild_core", "_image"):
            monkeypatch.setattr(bijections, name, refuse)
        assert verify_bijections(WallParams(3), 30).passed

    def test_reduced_equivalence_at_the_size_bound_lists_no_wall(self,
                                                                 monkeypatch):
        def refuse(*args):
            raise AssertionError("reduced-equivalence enumerated")

        monkeypatch.setattr(walk_oracle, "_walk_proper", refuse)
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

        monkeypatch.setattr(walk_oracle, "_walk_proper", refuse)
        assert verify_vch_identity(WallParams(3), 30).passed

    def test_verify_enumerates_only_proper_walls(self):
        # and not even those: every check reads tables or local states, and
        # the walk of the proper walls lives on in the tests' oracle alone
        names = [name for name, value in vars(verify).items()
                 if name.startswith(("enumerate_", "_walk_"))
                 and getattr(value, "__module__", None) != verify.__name__]
        assert names == []

    def test_each_map_runs_once_per_domain_wall(self, monkeypatch):
        # in the walk oracle the walk's flags decide both domains, so no
        # whole-wall predicate runs on a walked wall: Partition.is_strict
        # reads phi's images only
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
        assert verify_bijections_by_walk(params, max_m).passed
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

    @pytest.mark.parametrize("check", [
        lambda m: verify_euler(m),
        lambda m: verify_count_identity(WallParams(2), m),
        lambda m: verify_fock(WallParams(2), m),
        lambda m: verify_vch_identity(WallParams(2), m),
        lambda m: verify_bijections(WallParams(2), m),
        lambda m: verify_reduced_equivalence(WallParams(2), m),
    ], ids=ALL_CHECKS)
    def test_a_negative_size_raises(self, check):
        # a walked check visits no state below 0, but must not pass vacuously
        with pytest.raises(ValueError, match="^m must be non-negative, got -1$"):
            check(-1)


def truncated(fn, drop):
    """``fn`` with the last ``drop`` entries of its table cut off."""

    def short(*args):
        return list(fn(*args))[:-drop]

    return short


def table_bumped_at(side, index):
    """The walk oracle with its ``side`` table off by one at ``index``."""

    def perturb(monkeypatch):
        real = getattr(walk_oracle, side)
        monkeypatch.setattr(walk_oracle, side, off_by_one_at(real, index))

    return perturb


def walls_edited_at(m0, edit):
    """The oracle's walk with its walls of ``m0`` blocks, in descending
    lexicographic order, replaced by ``edit`` of them."""

    def perturb(monkeypatch):
        real = walk_oracle._walk_proper

        def edited(params, M):
            nodes = list(real(params, M))
            at_m0 = sorted((node for node in nodes if node[0] == m0),
                           key=lambda node: node[1], reverse=True)
            return [node for node in nodes if node[0] != m0] + edit(at_m0)

        monkeypatch.setattr(walk_oracle, "_walk_proper", edited)

    return perturb


def walk_flag_flipped(wall, index):
    """The oracle's walk with field ``index`` of ``wall``'s node negated."""

    def perturb(monkeypatch):
        real = walk_oracle._walk_proper

        def flipped(params, M):
            for node in real(params, M):
                if node[1] == wall:
                    node = node[:index] + (not node[index],) + node[index + 1:]
                yield node

        monkeypatch.setattr(walk_oracle, "_walk_proper", flipped)

    return perturb


def image_lost(m, name):
    """The cell-wide failure of map ``name`` at ``m``: its images there are
    not its codomain."""
    return {"m": m, "map": name, "error": "image does not match codomain"}


def wall_failed(m, name, wall, error):
    """The failure of map ``name`` on ``wall`` of ``m`` blocks."""
    return {"m": m, "map": name, "partition": wall, "error": error}


def psi_image_forged(wall, part, hat):
    """A ``psi`` core sending ``wall`` to (part, hat), and a rebuild core
    that still returns ``wall`` from it, so only the image certificate's
    other clauses can tell."""

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

    @pytest.mark.parametrize("side", ["series_product_strict", "odd_counts"])
    def test_euler(self, monkeypatch, side):
        monkeypatch.setattr(verify, side, off_by_one_at(getattr(verify, side), 17))
        report = verify_euler(40)
        assert not report.passed
        assert report.counterexample["m"] == 17
        assert set(report.counterexample) == {"m", "strict_series", "odd_count"}

    def test_euler_reads_no_pentagonal_strict_table(self, monkeypatch):
        # prod (1 - t^(2i)) / prod (1 - t^i) is the odd-parts series once
        # the even factors cancel: as a side it would read the identity
        def refuse(*args):
            raise AssertionError("euler built the pentagonal strict table")

        monkeypatch.setattr(verify, "strict_counts", refuse)
        assert verify_euler(200).passed

    @pytest.mark.parametrize("side", ["reduced_counts", "strict_counts"])
    def test_counts(self, monkeypatch, side):
        monkeypatch.setattr(verify, side, off_by_one_at(getattr(verify, side), 11))
        report = verify_count_identity(WallParams(2), 20)
        assert not report.passed
        assert report.counterexample["m"] == 11
        assert set(report.counterexample) == {"m", "reduced", "strict"}

    @pytest.mark.parametrize(
        "side, index, m",
        # entry 1 of each residue class's division is m = 2*delta + r, from 6
        [("proper_counts", 11, 11), ("reduced_counts", 11, 11),
         ("_over_euler_product", 1, 6)],
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
        "perturb, witness",
        # with delta = 3, family entry m0 is read first at m0 + 6, P(k) at 6k
        [(table_bumped_at("reduced_counts", 7), image_lost(13, "psi")),
         (table_bumped_at("strict_counts", 7), image_lost(13, "phi")),
         (table_bumped_at("partition_counts", 2), image_lost(12, "psi")),
         (walls_edited_at(13, lambda walls: walls[1:]), image_lost(13, "psi")),
         (walls_edited_at(13, lambda walls: walls[:1] + walls),
          image_lost(13, "psi")),
         # (13,) twice and (12, 1) not at all: the counts still match, and
         # only the image set sees that one image is missing
         (walls_edited_at(13, lambda walls: walls[:1] + walls[:1] + walls[2:]),
          image_lost(13, "psi")),
         # psi sends (13,) to ((1,), (2,)); each forgery keeps the round trip
         # and the weight shift, and fails the wall on the clause it breaks
         (psi_image_forged((13,), Partition((1,)), unchecked(2, 0)),
          wall_failed(13, "psi", (13,), "psi hat size")),
         (psi_image_forged((13,), unchecked(1, 0), Partition((2,))),
          wall_failed(13, "psi", (13,), "psi result not reduced")),
         # 19 blocks for a 13-block wall: only the size clause tells
         (psi_image_forged((13,), Partition((1,)), Partition((2, 1))),
          wall_failed(13, "psi", (13,), "psi round trip mismatch")),
         (psi_image_forged((13,), Partition((7,)), Partition((1,))),
          wall_failed(13, "psi", (13,), "psi result not reduced")),
         # a reduced wall of the same size and weight, nothing stripped
         (psi_image_forged((13,), Partition((8, 4, 1)), Partition()),
          wall_failed(13, "psi", (13,), "psi hat size")),
         # parts that no column code covers: no image, and no crash
         (psi_image_forged((13,), unchecked(25), unchecked(-2)),
          wall_failed(13, "psi", (13,), "psi result not reduced")),
         (psi_image_forged((13,), unchecked(-5), Partition((3,))),
          wall_failed(13, "psi", (13,), "psi result not reduced")),
         # phi's domain is read off the walk's strict flag: (3, 3) leaves it,
         # and (6,) joins it with an image of an empty hat
         (walk_flag_flipped((3, 3), 3), image_lost(6, "phi")),
         (walk_flag_flipped((6,), 3), wall_failed(6, "phi", (6,), "phi hat size"))],
        ids=["reduced_counts", "strict_counts", "partition_counts",
             "enumerate_proper", "enumerate_proper_twice",
             "walk_duplicates_one_and_drops_another", "non_canonical_hat",
             "non_canonical_part", "outside_codomain", "outside_family",
             "empty_hat", "part_above_max_m", "negative_part",
             "strict_flag_drops_a_wall", "strict_flag_adds_a_wall"],
    )
    def test_bijections(self, monkeypatch, perturb, witness):
        # verify reads neither the walk nor these tables: its oracle does
        perturb(monkeypatch)
        report = verify_bijections_by_walk(WallParams(2), 20)
        assert report.counterexample == witness

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
         (("reduced_counts",), verify_fock),
         (("strict_weight_table",), verify_vch_identity),
         (("reduced_weight_table",), verify_vch_identity),
         (("strict_weight_table", "reduced_weight_table"), verify_vch_identity)],
        ids=["reduced_counts", "strict_counts", "both_counts", "proper_counts",
             "fock_reduced_counts", "strict_weight_table", "reduced_weight_table",
             "both_weight_tables"],
    )
    def test_short_table(self, monkeypatch, sides, check):
        # a table five entries short fails at its first missing m, 16
        for side in sides:
            monkeypatch.setattr(verify, side, truncated(getattr(verify, side), 5))
        report = check(WallParams(2), 20)
        assert not report.passed
        assert report.counterexample["m"] == 16

    def test_short_residue_class(self, monkeypatch):
        # each class mod 2*delta = 6 one entry short: at M = 20 classes 3..5
        # end at 9, so m = 15 is the first missing, and fails without raising
        real = verify._over_euler_product
        monkeypatch.setattr(verify, "_over_euler_product", truncated(real, 1))
        report = verify_fock(WallParams(2), 20)
        assert not report.passed
        assert report.counterexample == {"m": 15, "proper": 39, "decomposition": None}


def test_size_clause_fails_the_public_map_and_verify(monkeypatch):
    # 19 blocks for the 13-block wall (13,), and a rebuild that still gives
    # (13,) back: only |part| + 2*delta*|hat| == |lam| tells
    psi_image_forged((13,), Partition((1,)), Partition((2, 1)))(monkeypatch)
    with pytest.raises(CertificationError, match="^psi round trip mismatch$"):
        psi(Partition((13,)), WallParams(2))
    assert verify_bijections_by_walk(WallParams(2), 20).counterexample == wall_failed(
        13, "psi", (13,), "psi round trip mismatch")


def one_column_off(real, h):
    """``column_codes`` with color 0 of a column of ``h`` blocks counted twice."""

    def codes_off(params, M):
        codes = real(params, M)
        codes[h] += 1
        return codes

    return codes_off


class TestPackedWeightCheck:
    """``verify`` compares its own ``column_codes`` per column; in the walk
    oracle the wall's packed weight comes from the walk and the image's from
    the oracle's ``column_codes``: perturbing any side is caught."""

    def test_the_packed_check_is_read(self, monkeypatch):
        off = one_column_off(verify.column_codes, 1)
        monkeypatch.setattr(verify, "column_codes", off)
        report = verify_bijections(WallParams(2), 20)
        # a column of 7 blocks must outweigh one of 1 by a column of 6
        assert report.counterexample == {"m": 7, "map": "psi", "partition": (7,),
                                         "error": "weight shift mismatch"}

    def test_the_walks_packed_weight_is_read(self, monkeypatch):
        off = one_column_off(walls.column_codes, 7)
        monkeypatch.setattr(walls, "column_codes", off)
        report = verify_bijections_by_walk(WallParams(2), 20)
        # psi sends (7,) to ((1,), (1,)), the first domain wall with a
        # seven-block column; only the walk's code for it is off
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


# Mutants of the four steps, each a body for the step's one function object:
# the cores fold the mutated step, so the walk oracle sees it through
# ``bijections._image``, and ``verify`` evaluates the same object.
STEP_MUTANTS = {
    "e_term_flipped": ("_psi_step", lambda a, b, delta:
                       (a - b - (a % delta == 0)) // (2 * delta)),
    "e_term_dropped": ("_psi_step", lambda a, b, delta: (a - b) // (2 * delta)),
    "period_plus_one": ("_psi_step", lambda a, b, delta:
                        (a - b - (a % delta != 0)) // (2 * delta + 1)),
    "period_minus_one": ("_psi_step", lambda a, b, delta:
                         (a - b - (a % delta != 0)) // (2 * delta - 1)),
    "gap_plus_one": ("_psi_step", lambda a, b, delta:
                     (a - b + 1 - (a % delta != 0)) // (2 * delta)),
    "t_capped_at_1": ("_psi_step", lambda a, b, delta:
                      min((a - b - (a % delta != 0)) // (2 * delta), 1)),
    "kept_min_r_1": ("_phi_step", lambda v, r, delta: (min(r, 1), r // 2, v // delta)),
    "pairs_rounded_up": ("_phi_step", lambda v, r, delta:
                         (r % 2, (r + 1) // 2, v // delta)),
    "j_plus_one": ("_phi_step", lambda v, r, delta: (r % 2, r // 2, v // delta + 1)),
    "column_off_by_one": ("_psi_rebuild_step", lambda x, h, delta:
                          x + 2 * delta * h + (h > 1)),
    "pair_off_by_one": ("_phi_rebuild_step", lambda j, delta: j * delta + (j > 1)),
}


# Mutants of the proper rule, each a whole ``walls._proper_gap``, written in
# the window form 0 < a - b + e: the walk oracle keeps its own rule, so the
# checks that must see one are ``bijections`` and ``reduced-equivalence``
GAP_MUTANTS = {
    "proper_e_term_dropped": lambda a, b, delta: 0 < a - b,
    "proper_e_term_flipped": lambda a, b, delta: 0 < a - b + (a % delta != 0),
    "proper_weak_bound": lambda a, b, delta: 0 <= a - b + (a % delta == 0),
    "proper_bound_plus_one": lambda a, b, delta: 1 < a - b + (a % delta == 0),
}


#: A psi step off at the one pair (8, 7): at rank 2, b = 7 >= 2*delta, so only
#: the periodicity claim against the row 2*delta below reads that pair
ONE_PAIR_OFF = ("_psi_step", lambda a, b, delta:
                (a - b - (a % delta != 0)) // (2 * delta) + ((a, b) == (8, 7)))


def seven_as_six(real):
    """``column_codes`` with a column of 7 blocks weighed as one of 6."""

    def codes(params, M):
        codes = real(params, M)
        if M >= 7:
            codes[7] = codes[6]
        return codes

    return codes


def mutate(monkeypatch, mutant):
    """Put a mutant of a step, of the codes or of the proper rule in every
    binding that ``verify``, ``walls`` and ``walk_oracle`` read."""
    if mutant in GAP_MUTANTS:
        # walls reads the rule in is_proper and _removable_at
        for module in (walls, verify, walk_oracle):
            monkeypatch.setattr(module, "_proper_gap", GAP_MUTANTS[mutant])
    elif mutant == "codes_7_as_6":
        # the walk reads walls' binding, the images the oracle's own
        for module in (verify, walls, walk_oracle):
            monkeypatch.setattr(module, "column_codes",
                                seven_as_six(module.column_codes))
    else:
        step, body = {**STEP_MUTANTS, "one_pair_off": ONE_PAIR_OFF}[mutant]
        monkeypatch.setattr(getattr(bijections, step), "__code__", body.__code__)


class TestLocalAgainstWalk:
    """``verify``'s local check and the walk oracle agree: both pass on the
    shipped steps, and both fail on every mutant of a step or the codes.  A
    mutant of the proper rule fails both checks of ``verify`` that read it."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_both_pass(self, n):
        assert verify_bijections(WallParams(n), 24).passed
        assert verify_bijections_by_walk(WallParams(n), 24).passed

    # at n = 5 two mutants give the reduced adjacencies (13, 1) and (12, 1)
    # a quantum, and no non-reduced wall of m <= 24 holds them: the walk
    # passes there, and the local claims, sufficient but not necessary, fail
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("mutant", [*STEP_MUTANTS, "codes_7_as_6", *GAP_MUTANTS])
    def test_both_fail_on_each_mutant(self, monkeypatch, mutant, n):
        mutate(monkeypatch, mutant)
        checks = ((verify_bijections, verify_reduced_equivalence)
                  if mutant in GAP_MUTANTS
                  else (verify_bijections, verify_bijections_by_walk))
        for check in checks:
            assert not check(WallParams(n), 24).passed, check.__name__

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("mutant", [None, *STEP_MUTANTS, "one_pair_off",
                                        "codes_7_as_6", *GAP_MUTANTS])
    def test_reports_equal_the_claim_per_state_body(self, monkeypatch, mutant, n):
        # a record only on failure and one comparison per row's periodicity
        # give the same report, witness included, as a claim call per state;
        # every size to the period, where the codes end before codes[2*delta]
        if mutant:
            mutate(monkeypatch, mutant)
        params = WallParams(n)
        for max_m in (*range(params.period + 1), 16, 24, 40):
            assert verify_bijections(params, max_m) == (
                verify_bijections_by_claims(params, max_m)), max_m

    @pytest.mark.parametrize("mutant", GAP_MUTANTS)
    def test_a_proper_rule_mutant_fails_below_the_period(self, monkeypatch, mutant):
        # the codes end before codes[2*delta] up to M = 2*delta - 1; the weak
        # bound first shows on the wall (1, 1), the others on (0, 0)
        mutate(monkeypatch, mutant)
        for n in (2, 3, 4, 5):
            for max_m in range(2, WallParams(n).period + 1):
                assert not verify_bijections(WallParams(n), max_m).passed, (n, max_m)

    def test_a_proper_rule_mutant_exits_one_below_the_period(self, monkeypatch,
                                                             capsys):
        mutate(monkeypatch, "proper_weak_bound")
        assert main(["verify", "--n-range", "3", "--max-m", "7",
                     "--checks", "bijections"]) == 1
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == (
            'FAIL bijections n=3 max_m=7 counterexample={"error": "weight shift '
            'mismatch", "m": 2, "map": "phi", "partition": [1, 1]}')


def psi_claim(m, wall, error):
    return {"m": m, "map": "psi", "partition": wall, "error": error}


def phi_claim(m, wall, error):
    return {"m": m, "map": "phi", "partition": wall, "error": error}


class TestLocalClaims:
    """Each mutant fails ``verify``'s local check on the smallest state it
    breaks, recorded as the wall that state stands for (n = 2, delta = 3)."""

    @pytest.mark.parametrize("mutant, witness", [
        # (0, 0) past the last part gets t = -1
        ("e_term_flipped", psi_claim(0, (), "psi hat size")),
        # a quantum on the reduced adjacency (7, 1): the hat is non-empty on it
        ("e_term_dropped", psi_claim(8, (7, 1), "psi hat size")),
        # no quantum on the non-reduced (6, 0)
        ("period_plus_one", psi_claim(6, (6,), "psi hat size")),
        ("period_minus_one", psi_claim(7, (6, 1), "psi hat size")),
        ("gap_plus_one", psi_claim(7, (6, 1), "psi hat size")),
        # (12, 0) keeps 6 over 0 after one quantum: not a reduced adjacency
        ("t_capped_at_1", psi_claim(12, (12,), "psi result not reduced")),
        ("kept_min_r_1", phi_claim(6, (3, 3), "phi round trip mismatch")),
        ("pairs_rounded_up", phi_claim(1, (1,), "phi round trip mismatch")),
        ("j_plus_one", phi_claim(6, (3, 3), "phi round trip mismatch")),
        ("column_off_by_one", psi_claim(12, (12,), "psi round trip mismatch")),
        ("pair_off_by_one", phi_claim(12, (6, 6), "phi round trip mismatch"))])
    def test_each_step_mutant(self, monkeypatch, mutant, witness):
        step, body = STEP_MUTANTS[mutant]
        monkeypatch.setattr(getattr(bijections, step), "__code__", body.__code__)
        assert verify_bijections(WallParams(2), 20).counterexample == witness

    def test_periodicity_is_read(self, monkeypatch):
        # one pair off at b >= 2*delta, where only the row 2*delta below reads it
        mutate(monkeypatch, "one_pair_off")
        assert verify_bijections(WallParams(2), 20).counterexample == psi_claim(
            15, (8, 7), "psi step not periodic")

    def test_the_pair_weight_is_read(self, monkeypatch):
        # two columns of delta blocks must weigh one column of 2*delta
        off = one_column_off(verify.column_codes, 3)
        monkeypatch.setattr(verify, "column_codes", off)
        assert verify_bijections(WallParams(2), 20).counterexample == phi_claim(
            6, (3, 3), "weight shift mismatch")


class TestReportPlumbing:
    def test_to_dict_omits_elapsed_by_default(self):
        report = verify_euler(10)
        data = report.to_dict()
        assert set(data) == {"check", "params", "passed", "counterexample"}

    def test_to_dict_keys_in_field_order(self):
        report = VerificationReport("counts", {"n": 2}, False, {"m": 3}, 1.5)
        assert list(report.to_dict()) == ["check", "params", "passed", "counterexample"]
        assert report.to_dict() == {"check": "counts", "params": {"n": 2},
                                    "passed": False, "counterexample": {"m": 3}}

    def test_construction_and_defaults(self):
        positional = VerificationReport("euler", {"max_degree": 4}, True)
        keyword = VerificationReport(check="euler", params={"max_degree": 4},
                                     passed=True, counterexample=None, elapsed=0.0)
        for report in (positional, keyword):
            assert (report.check, report.params, report.passed) == (
                "euler", {"max_degree": 4}, True)
            assert report.counterexample is None and report.elapsed == 0.0
        assert positional == keyword
        assert repr(positional) == (
            "VerificationReport(check='euler', params={'max_degree': 4}, "
            "passed=True, counterexample=None, elapsed=0.0)")

    def test_equality_ignores_elapsed_alone(self):
        report = VerificationReport("counts", {"n": 2}, False, {"m": 3}, elapsed=1.5)
        assert report == VerificationReport("counts", {"n": 2}, False, {"m": 3}, 9.0)
        for other in (VerificationReport("fock", {"n": 2}, False, {"m": 3}),
                      VerificationReport("counts", {"n": 3}, False, {"m": 3}),
                      VerificationReport("counts", {"n": 2}, True, {"m": 3}),
                      VerificationReport("counts", {"n": 2}, False, {"m": 4}),
                      VerificationReport("counts", {"n": 2}, False)):
            assert report != other
        assert report != report.to_dict()
        with pytest.raises(TypeError):
            hash(report)

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


def agree_by_walk(max_m, record=dict, **columns):
    """The failure records ``_agree`` must give, by a walk over every m that
    reads a missing value as None."""
    failures = []
    for m in range(max_m + 1):
        values = {name: column[m] if m < len(column) else None
                  for name, column in columns.items()}
        first, *rest = values.values()
        if None in values.values() or any(value != first for value in rest):
            failures.append({"m": m, **record(**values)})
    return failures


def named(**values):
    return {"named": list(values.items())}


class TestAgree:
    def test_passing_columns_build_no_record(self):
        def record(**values):
            raise AssertionError("a record built for agreeing columns")

        for left, right, max_m in (([1, 2, 3], [1, 2, 3], 2),
                                   ([1, 2, 3, 4], [1, 2, 3, 9], 2),
                                   ([{}, {5: 1}], [{}, {5: 1}, {7: 2}], 1)):
            assert _agree("fake", {}, max_m, 0.0, record, left=left,
                          right=right).passed

    @pytest.mark.parametrize("left, right, max_m", [
        ([1, 2, 3], [1, 2, 3], 4),           # both short
        ([1, 2, 3, 4], [1, 2], 3),           # one short
        ([1, 2], [1, 5, 3, 4], 3),           # one short, one differing
        ([1, 7, 3, 4, 9], [1, 2, 3, 5], 2),  # long: past max_m is not read
        ([1, 7, 3, 8], [1, 2, 3, 5], 3),
        ([{}, {4: 1}, {6: 2, 7: 1}], [{}, {4: 1}, {6: 2}], 2),
        ([{}, {4: 1}], [{}, {4: 1, 5: 0}, {6: 1}], 3),
    ])
    def test_failing_columns_give_the_walks_records(self, monkeypatch, left, right,
                                                    max_m):
        monkeypatch.setattr(verify, "_report", lambda *args: args[2])
        for record in (dict, named):
            got = _agree("fake", {}, max_m, 0.0, record, left=left, right=right)
            assert got == agree_by_walk(max_m, record, left=left, right=right)
            assert got


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

    @pytest.mark.parametrize("check", ALL_CHECKS)
    def test_a_rebound_runner_runs_once_per_rank(self, monkeypatch, check):
        # runners are read from the module globals per call, so the one a
        # tracer or test rebinds is the one that runs; euler runs once
        runner = verify._CHECKS[check][0]
        real, calls = getattr(verify, runner), []

        def counted(*args):
            calls.append(getattr(args[0], "n", None))
            return real(*args)

        monkeypatch.setattr(verify, runner, counted)
        others = tuple(c for c in ALL_CHECKS if c != check)
        reports = run_checks((2, 3), 20, 50, checks=others)
        assert calls == []
        assert all(r.passed for r in reports)
        shuffled = (*others[::-1], check, check)
        reports = run_checks((2, 3), 20, 50, checks=shuffled)
        assert calls == ([None] if check == "euler" else [2, 3])
        assert [(r.check, r.params.get("n")) for r in reports] == [
            (c, n) for c in ALL_CHECKS
            for n in ((None,) if c == "euler" else (2, 3))]
        assert all(r.passed and r.elapsed > 0 for r in reports)

    @pytest.mark.parametrize("n", [-5, -2, -1, 0, 1])
    @pytest.mark.parametrize("check", [check for check, (_, cost)
                                       in verify._CHECKS.items() if cost])
    def test_a_rank_below_two_is_refused_by_every_check_with_a_cost(self, check, n):
        # before any cost: reduced-equivalence's divides by 2n + 2, which is
        # 0 at n = -1, and the cells are negative from n = -2
        with pytest.raises(ValueError, match=rf"^rank n must be at least 2, got {n}$"):
            run_checks((2, n), 5, 0, (check,))
        # euler holds no per-rank table and reads no rank
        assert run_checks((n,), 5, 10, ("euler",))[0].passed

    def test_all_checks_constant_matches_runners(self):
        reports = run_checks((2,), 6, 10, checks=ALL_CHECKS)
        assert {r.check for r in reports} == set(ALL_CHECKS)


#: plan's differential grid: every subset of the checks, a repeated name and
#: unknown ones; ranks, sizes, degrees and object caps on both sides of each
#: refusal
PLAN_CHECKS = [tuple(c for i, c in enumerate(ALL_CHECKS) if subset >> i & 1)
               for subset in range(2 ** len(ALL_CHECKS))] + [
    ("bijections", "vch", "bijections"), ("bogus",), ("counts", "nope", "vch", "x")]
PLAN_RANKS = [(), (2,), (2, 3), (2, 3, 4, 5), (7, 8, 9), tuple(range(2, 40))]
PLAN_SIZES = [-1, 0, 1, 7, 16, 30, 40, 82, 2001]
PLAN_DEGREES = [-1, 0, 200, 2001]
PLAN_CAPS = [24, 55, 155, 309, 2034, 10**6]


def _outcome(plan, *args):
    try:
        return plan(*args)
    except ValueError as exc:
        return str(exc)


def test_plan_matches_the_per_check_plan(monkeypatch):
    # the table-driven plan against the per-check branches and _states it
    # replaced: the same cells, or the same refusal, on every case
    cases = list(product(PLAN_RANKS, PLAN_SIZES, PLAN_DEGREES, PLAN_CHECKS))
    assert len(PLAN_CAPS) * len(cases) == 86832
    for cap in PLAN_CAPS:
        monkeypatch.setattr(verify, "MAX_OBJECTS", cap)
        monkeypatch.setattr(plan_oracle, "MAX_OBJECTS", cap)
        for args in cases:
            assert _outcome(verify.plan, *args) == _outcome(
                plan_oracle.plan, *args), (cap, *args)
