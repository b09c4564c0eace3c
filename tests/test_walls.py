import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from youngwalls import (
    Partition,
    WallParams,
    count_partitions,
    enumerate_partitions,
    enumerate_proper,
    enumerate_reduced,
    enumerate_strict,
    has_removable_delta,
    is_proper,
    is_reduced,
    proper_counts,
    reduced_counts,
    strict_counts,
    weight,
)
from youngwalls.characters import proper_weight_table
from youngwalls.partitions import _windows
from youngwalls.walls import _proper_gap, _reduced_gap, column_codes

from walk_oracle import _walk_proper

P2 = WallParams(2)
P3 = WallParams(3)


def block_color(k, params):
    """Oracle: color of the k-th block from the bottom of a column (k is
    1-based), read off the pattern 0, 1, ..., n, n, ..., 1, 0."""
    if k < 1:
        raise ValueError(f"block position must be >= 1, got {k}")
    r = (k - 1) % params.period
    return r if r <= params.n else 2 * params.n + 1 - r


def branching_reduced_gap(a, b, delta):
    """Oracle: the reduced-gap rule branching on the delta grid."""
    gap = a - b
    return 0 < gap <= 2 * delta if a % delta else gap < 2 * delta


def branching_proper_gap(a, b, delta):
    """Oracle: the proper rule branching on the delta grid."""
    return a > b if a % delta else a >= b


def naive_weight(lam, params):
    """Oracle: tally one block at a time, no period shortcut."""
    counts = [0] * (params.n + 1)
    for height in lam:
        for k in range(1, height + 1):
            counts[block_color(k, params)] += 1
    return tuple(counts)


ranks = st.integers(min_value=2, max_value=6).map(WallParams)
partitions = st.integers(min_value=0, max_value=18).flatmap(
    lambda m: st.sampled_from(enumerate_partitions(m))
)


class TestWallParams:
    def test_delta_and_period(self):
        assert P2.delta == 3
        assert P2.period == 6
        assert P3.delta == 4

    def test_rank_below_two_rejected(self):
        for n in (1, 0, -3):
            with pytest.raises(ValueError, match=rf"^rank n must be at least 2, got {n}$"):
                WallParams(n)

    def test_replace_checks_the_rank(self):
        assert WallParams(3)._replace(n=5) == WallParams(5)
        with pytest.raises(ValueError, match="got 1$"):
            WallParams(3)._replace(n=1)

    @pytest.mark.parametrize("n", [2.5, 3.0, "3", None])
    def test_non_integer_rank_rejected(self, n):
        # a float rank would give a float delta and float weights
        with pytest.raises(TypeError):
            WallParams(n)
        with pytest.raises(TypeError):
            WallParams(3)._replace(n=n)

    def test_bool_rank_is_an_int_and_meets_the_rank_rule(self):
        with pytest.raises(ValueError, match="got 1$"):
            WallParams(True)

    def test_keyword_construction_and_repr(self):
        assert WallParams(n=3) == WallParams(3)
        assert repr(WallParams(n=3)) == "WallParams(n=3)"
        assert WallParams(n=3).n == 3

    def test_equal_and_hashed_by_rank(self):
        assert WallParams(3) == WallParams(3)
        assert WallParams(3) != WallParams(4)
        assert hash(WallParams(3)) == hash(WallParams(3))
        assert len({WallParams(3), WallParams(3), WallParams(4)}) == 2
        assert {WallParams(2): "two"}[WallParams(2)] == "two"

    def test_immutable(self):
        params = WallParams(3)
        with pytest.raises(AttributeError):
            params.n = 4
        with pytest.raises(AttributeError):
            params.delta = 5
        assert params.n == 3 and params.delta == 4


class TestBlockColor:
    @pytest.mark.parametrize(
        "k,params,expected",
        [(1, P2, 0), (4, P2, 2), (7, P2, 0), (5, P3, 3)],
    )
    def test_known_colors(self, k, params, expected):
        assert block_color(k, params) == expected

    @given(ranks)
    def test_periodicity(self, params):
        assert block_color(params.period + 1, params) == 0
        for k in range(1, 3 * params.period):
            assert block_color(k, params) == block_color(k + params.period, params)

    @given(ranks)
    def test_each_period_covers_every_color_twice(self, params):
        seen = [0] * (params.n + 1)
        for k in range(1, params.period + 1):
            seen[block_color(k, params)] += 1
        assert seen == [2] * (params.n + 1)

    def test_position_must_be_positive(self):
        with pytest.raises(ValueError):
            block_color(0, P2)


class TestColumnPredicates:
    def test_proper(self):
        assert is_proper(Partition((3, 3, 1)), P2)
        assert not is_proper(Partition((2, 2, 2)), P2)
        # a part below its right neighbour is no wall
        assert not is_proper((1, 2), P2)
        assert is_proper(Partition(), P2)
        assert is_proper(Partition(), P3)

    def test_reduced(self):
        assert not is_reduced(Partition((6,)), P2)
        assert not is_reduced(Partition((7,)), P2)
        assert is_reduced(Partition((3, 3, 1)), P2)
        assert is_reduced(Partition(), P2)

    def test_reduced_set_of_seven(self):
        expected = {(6, 1), (5, 2), (4, 3), (4, 2, 1), (3, 3, 1)}
        actual = {
            lam
            for lam in enumerate_partitions(7)
            if is_reduced(lam, P2)
        }
        assert actual == expected

    @pytest.mark.parametrize("delta", [1, 2, 3, 4, 5, 7, 11])
    def test_reduced_gap_matches_the_branching_form(self, delta):
        # every adjacency a weakly decreasing wall can have, on and off the grid
        for a in range(80):
            for b in range(a + 1):
                assert _reduced_gap(a, b, delta) == branching_reduced_gap(
                    a, b, delta), (a, b)
            # the proper rule also refuses a part below its right neighbour
            for b in range(a + 2):
                assert _proper_gap(a, b, delta) == branching_proper_gap(
                    a, b, delta), (a, b)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_scalar_rules_read_the_window_table(self, n):
        # the walk's per-adjacency rules and the enumerator's and DPs' table
        # must not drift apart: entry a is (lo, hi, ends), a = 0 the start
        params, M = WallParams(n), 30
        delta = params.delta
        for gap, rule in ((2 * delta, lambda a, b: _reduced_gap(a, b, delta)),
                          (M + 1, lambda a, b: _proper_gap(a, b, delta)),
                          (M + 1, lambda a, b: is_proper(Partition((a, b)), params))):
            windows = _windows(M, delta, gap)
            assert len(windows) == M + 1
            for a, (lo, hi, ends) in enumerate(windows):
                for b in range(a + 1):
                    assert rule(a, b) == (lo <= b <= hi if b else ends), (gap, a, b)

    def test_removable_segment(self):
        assert has_removable_delta(Partition((7,)), P2)
        assert not has_removable_delta(Partition((6, 1)), P2)
        assert not has_removable_delta(Partition((3, 3)), P2)
        assert not has_removable_delta(Partition((4, 4)), P3)

    def test_removable_rejects_improper(self):
        with pytest.raises(ValueError):
            has_removable_delta(Partition((2, 2)), P2)

    def test_removal_must_leave_proper_wall(self):
        # (8,2) can shed blocks arithmetically but only into improper (2,2)
        assert not has_removable_delta(Partition((8, 2)), P2)
        assert is_reduced(Partition((8, 2)), P2)


class TestEnumerators:
    def test_proper_of_six(self):
        assert enumerate_proper(P2, 6) == [
            (6,), (5, 1), (4, 2), (3, 3), (3, 2, 1),
        ]

    def test_proper_of_two(self):
        assert enumerate_proper(P2, 2) == [(2,)]

    def test_proper_of_zero(self):
        assert enumerate_proper(P2, 0) == [Partition()]

    def test_reduced_of_six(self):
        assert enumerate_reduced(P2, 6) == [
            (5, 1), (4, 2), (3, 3), (3, 2, 1),
        ]

    def test_reduced_of_eight_both_ranks(self):
        assert len(enumerate_reduced(P2, 8)) == 6
        assert len(enumerate_reduced(P3, 8)) == 6

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_proper_matches_predicate_filter(self, n):
        params = WallParams(n)
        for m in range(16):
            expected = [
                lam
                for lam in enumerate_partitions(m)
                if is_proper(lam, params)
            ]
            walls = enumerate_proper(params, m)
            assert walls == expected
            assert all(
                isinstance(lam, Partition) and lam == Partition(tuple(lam))
                for lam in walls
            )

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_reduced_matches_predicate_filter(self, n):
        params = WallParams(n)
        for m in range(20):
            expected = [
                lam
                for lam in enumerate_proper(params, m)
                if is_reduced(lam, params)
            ]
            walls = enumerate_reduced(params, m)
            assert walls == expected
            assert all(
                isinstance(lam, Partition) and lam == Partition(tuple(lam))
                for lam in walls
            )

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_strict_partitions_are_proper(self, n):
        params = WallParams(n)
        for m in range(31):
            proper = set(enumerate_proper(params, m))
            assert set(enumerate_strict(m)) <= proper

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError):
            enumerate_proper(P2, -1)
        with pytest.raises(ValueError):
            enumerate_reduced(P2, -3)


class TestWeight:
    @pytest.mark.parametrize(
        "parts,params,expected",
        [
            ((7,), P2, (3, 2, 2)),
            ((5, 2), P2, (2, 3, 2)),
            ((4, 3), P2, (2, 2, 3)),
            ((7,), P3, (1, 2, 2, 2)),
            ((), P2, (0, 0, 0)),
            ((), P3, (0, 0, 0, 0)),
        ],
    )
    def test_known_weights(self, parts, params, expected):
        assert weight(Partition(parts), params) == expected

    @given(partitions, ranks)
    def test_matches_block_by_block_oracle(self, lam, params):
        assert weight(lam, params) == naive_weight(lam, params)

    @given(st.data())
    def test_matches_oracle_over_full_periods(self, data):
        params = WallParams(data.draw(st.integers(min_value=2, max_value=9)))
        heights = data.draw(
            st.lists(st.integers(min_value=0, max_value=5 * params.period),
                     max_size=8)
        )
        lam = Partition(sorted(heights, reverse=True))
        assert weight(lam, params) == naive_weight(lam, params)

    @given(partitions, ranks)
    def test_total_equals_block_count(self, lam, params):
        assert sum(weight(lam, params)) == lam.size


def removable_by_whole_wall(lam, params):
    """Oracle: shorten each column that stays at or above its right
    neighbour and test the whole shortened wall for properness."""
    period = params.period
    for i, (a, b) in enumerate(zip(lam, lam[1:] + (0,))):
        if a - period >= b:
            shortened = list(lam)
            shortened[i] -= period
            if is_proper(Partition(shortened), params):
                return True
    return False


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_removable_segment_matches_whole_wall_oracle(n):
    params = WallParams(n)
    for m in range(31):
        for lam in enumerate_proper(params, m):
            assert has_removable_delta(lam, params) == removable_by_whole_wall(
                lam, params
            ), (n, lam)
    for m in range(13):
        for lam in enumerate_partitions(m):
            if not is_proper(lam, params):
                with pytest.raises(ValueError):
                    has_removable_delta(lam, params)


class TestWalk:
    """The walk oracle's ``_walk_proper`` against ``enumerate_proper``, the
    whole-wall flags, the columns' packed weights and the count tables."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_enumerator_and_flags(self, n):
        params, M = WallParams(n), 30
        codes = column_codes(params, M)
        nodes = list(_walk_proper(params, M))
        walls = [(m, lam) for m, lam, *_ in nodes]
        assert len(walls) == len(set(walls))
        counts = proper_counts(params, M)
        for m in range(M + 1):
            at_m = {lam for size, lam in walls if size == m}
            assert at_m == set(enumerate_proper(params, m))
            assert len(at_m) == counts[m]
        for m, lam, reduced, strict, code in nodes:
            assert sum(lam) == m
            assert reduced == is_reduced(lam, params)
            assert strict == Partition(lam).is_strict()
            assert code == sum(codes[h] for h in lam)

    def test_no_blocks_yields_the_empty_wall(self):
        # and the empty wall's packed weight is 0
        assert list(_walk_proper(P2, 0)) == [(0, (), True, True, 0)]

    def test_a_high_rank_is_fast(self):
        started = time.perf_counter()
        walls = [lam for _, lam, *_ in _walk_proper(WallParams(100000), 8)]
        assert len(walls) == sum(proper_counts(WallParams(100000), 8))
        assert time.perf_counter() - started < 5

    def test_reduced_counts_at_a_high_rank_are_fast(self):
        # a window of 2*delta parts reaches below part 1 once delta > M, so
        # the count table must not pad its rows by delta
        started = time.perf_counter()
        assert reduced_counts(WallParams(10**6), 1000) == strict_counts(1000)
        assert time.perf_counter() - started < 2


class TestCountingIdentities:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_reduced_iff_no_removable_segment(self, n):
        params = WallParams(n)
        for m in range(15):
            for lam in enumerate_proper(params, m):
                assert is_reduced(lam, params) == (
                    not has_removable_delta(lam, params)
                )

    def test_fock_cells_by_hand(self):
        # m below one 2*delta quantum: proper and reduced sets coincide
        for m in range(6):
            assert len(enumerate_proper(P2, m)) == len(enumerate_reduced(P2, m))
        assert len(enumerate_proper(P2, 6)) == 5
        assert len(enumerate_reduced(P2, 6)) == 4
        assert len(enumerate_proper(P2, 7)) == 6
        assert len(enumerate_reduced(P2, 7)) == 5

    @pytest.mark.parametrize("n", [2, 3])
    def test_fock_identity(self, n):
        params = WallParams(n)
        for m in range(25):
            lhs = len(enumerate_proper(params, m))
            rhs = sum(
                len(enumerate_reduced(params, m - params.period * k))
                * count_partitions(k)
                for k in range(m // params.period + 1)
            )
            assert lhs == rhs, (n, m)


class TestCountTables:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_tables_match_enumeration_to_forty(self, n):
        params = WallParams(n)
        assert proper_counts(params, 40) == [
            len(enumerate_proper(params, m)) for m in range(41)
        ]
        assert reduced_counts(params, 40) == [
            len(enumerate_reduced(params, m)) for m in range(41)
        ]

    def test_table_prefix(self):
        params = WallParams(3)
        assert proper_counts(params, 9) == proper_counts(params, 30)[:10]
        assert reduced_counts(params, 9) == reduced_counts(params, 30)[:10]

    def test_proper_tables_run_no_window_dp(self, monkeypatch):
        # the proper tables are one side of the Fock check and the reduced
        # window DPs the other, so a fault in one cannot cancel in both
        def refuse(*args):
            raise AssertionError("a proper table ran a reduced-wall DP")

        for target in ("partitions._count_window", "walls._count_window",
                       "characters.reduced_weight_table"):
            monkeypatch.setattr("youngwalls." + target, refuse)
        M = 30
        for params in (P2, P3):
            listings = [enumerate_proper(params, m) for m in range(M + 1)]
            codes = column_codes(params, M)
            assert proper_counts(params, M) == [len(lams) for lams in listings]
            assert proper_weight_table(params, M) == [
                Counter(sum(codes[h] for h in lam) for lam in lams) for lams in listings
            ]

    def test_proper_counts_stream(self):
        # the product keeps one packed series of M + 1 counts (32 kB here),
        # not an O(M^2) table of them (1.8 MB in count_oracle's window DP)
        tracemalloc.start()
        try:
            proper_counts(P2, 500)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_proper_is_strict_when_delta_exceeds_m(self):
        # no part of at most 40 blocks is a multiple of delta = 51
        assert proper_counts(WallParams(50), 40) == strict_counts(40)
