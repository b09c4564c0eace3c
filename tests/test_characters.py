from collections import Counter

import pytest

from youngwalls import (
    Partition,
    WallParams,
    count_strict,
    enumerate_proper,
    enumerate_reduced,
    enumerate_strict,
    principal_character,
    series_product_strict,
    strict_counts,
    virtual_character,
    weight,
)
from youngwalls.characters import (
    proper_weight_table,
    reduced_weight_table,
    strict_weight_table,
    unpack_weight,
)
from youngwalls import characters
from youngwalls.partitions import _add_shifted, _sub_shifted
from youngwalls.walls import column_codes

from count_oracle import reduced_weight_table_by_cells

P2 = WallParams(2)
P3 = WallParams(3)


def closed_form_column_codes(params, M):
    """Oracle: ``column_codes`` by the period's closed form.  As in
    ``weight``, q cycles and remainder r give every digit 2q, plus 1 on the
    colors c < r and c >= 2*delta - r: two geometric runs of ones."""
    base, delta, period = M + 1, params.delta, params.period

    def run(k):  # digits 0..k-1 set to 1; M = 0 packs nothing
        return (base ** k - 1) // M if M else 0

    ones = run(delta) if M > delta else 0  # read only by columns above delta
    return [2 * q * ones + run(min(r, delta))
            + (ones - run(period - r) if r > delta else 0)
            for q, r in (divmod(h, period) for h in range(M + 1))]


class TestVirtualCharacter:
    def test_strict_of_seven_rank_two(self):
        vch = virtual_character(enumerate_strict(7), P2)
        assert vch == Counter({(3, 2, 2): 3, (2, 3, 2): 1, (2, 2, 3): 1})

    def test_strict_of_seven_rank_three(self):
        vch = virtual_character(enumerate_strict(7), P3)
        assert vch == Counter(
            {
                (3, 2, 1, 1): 1,
                (2, 2, 2, 1): 1,
                (2, 2, 1, 2): 1,
                (2, 1, 2, 2): 1,
                (1, 2, 2, 2): 1,
            }
        )

    def test_empty_set(self):
        assert virtual_character([], P2) == Counter()

    @pytest.mark.parametrize("n", [2, 3])
    def test_strict_and_reduced_sides_agree(self, n):
        params = WallParams(n)
        for m in range(18):
            strict_side = virtual_character(enumerate_strict(m), params)
            reduced_side = virtual_character(enumerate_reduced(params, m), params)
            assert strict_side == reduced_side, (n, m)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_total_multiplicity_is_strict_count(self, n):
        params = WallParams(n)
        for m in range(15):
            for vch in (
                virtual_character(enumerate_strict(m), params),
                virtual_character(enumerate_reduced(params, m), params),
            ):
                assert sum(vch.values()) == count_strict(m)


def decoded(table, params, M):
    """Each entry of a weight table as a Counter of weight vectors."""
    return [
        Counter({unpack_weight(code, params, M): c for code, c in entry.items()})
        for entry in table
    ]


class TestWeightTables:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize(
        "table, enumerate_side",
        [(strict_weight_table, lambda params, m: enumerate_strict(m)),
         (reduced_weight_table, enumerate_reduced),
         (proper_weight_table, enumerate_proper)],
        ids=["strict", "reduced", "proper"],
    )
    def test_matches_enumeration_to_thirty(self, n, table, enumerate_side):
        params = WallParams(n)
        for m, vch in enumerate(decoded(table(params, 30), params, 30)):
            assert vch == virtual_character(enumerate_side(params, m), params), m

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_sides_agree_to_eighty(self, n):
        params = WallParams(n)
        strict = strict_weight_table(params, 80)
        assert strict == reduced_weight_table(params, 80)
        assert [sum(entry.values()) for entry in strict] == strict_counts(80)

    def test_code_packs_the_weight_vector(self):
        # strict partitions of 7 at rank 2, packed base 8: (3,2,2) -> 3 + 16 + 128
        table = strict_weight_table(P2, 7)
        assert table[7] == {3 + 16 + 128: 3, 2 + 24 + 128: 1, 2 + 16 + 192: 1}
        assert unpack_weight(147, P2, 7) == (3, 2, 2)

    @pytest.mark.parametrize(
        "M, n", [(M, n) for M in (0, 1, 5, 20, 60) for n in (2, 3, 7, 20)]
        + [(1, 500_000), (8, 100_000)])
    def test_column_codes_pack_each_column_weight(self, n, M):
        # zero digits are skipped: at a high rank most colors are absent
        params = WallParams(n)
        assert column_codes(params, M) == [
            sum(a * (M + 1) ** c
                for c, a in enumerate(weight(Partition((h,)), params)) if a)
            for h in range(M + 1)
        ]

    @pytest.mark.parametrize(
        "n, M", [(n, M) for n in (2, 3, 4, 5, 7, 20)
                 for M in (0, 1, 5, 20, 40, 60, 200, 2000)]
        + [(20_000, 8), (100_000, 8), (500_000, 1), (10**6, 0), (10**6, 2),
           (1000, 998), (500, 1995)])
    def test_column_codes_match_the_closed_form(self, n, M):
        assert column_codes(WallParams(n), M) == closed_form_column_codes(
            WallParams(n), M)

    @pytest.mark.parametrize("n, M", [(20, 20), (30, 25)])
    def test_strict_weights_are_distinct_up_to_the_rank(self, n, M):
        # a column of at most n + 1 blocks holds colors 0..h-1 once each, so
        # a strict partition of m <= n has its conjugate as its weight, and
        # ``verify``'s vch budget counts one table entry per member
        table = strict_weight_table(WallParams(n), M)
        assert [len(entry) for entry in table] == strict_counts(M)

    @pytest.mark.parametrize("table", [strict_weight_table, reduced_weight_table,
                                       proper_weight_table])
    def test_degree_zero_and_negative(self, table):
        assert table(P2, 0) == [{0: 1}]
        with pytest.raises(ValueError):
            table(P2, -1)


class TestReducedWindow:
    """The running window of ``reduced_weight_table`` against the per-cell
    sums of ``count_oracle``, and the merges it does."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 12])
    def test_matches_the_cells_to_forty(self, n):
        params = WallParams(n)
        for M in range(41):
            # dict equality: a code left at count 0 differs
            assert reduced_weight_table(params, M) == reduced_weight_table_by_cells(
                params, M), M

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_the_cells_at_eighty(self, n):
        params = WallParams(n)
        assert reduced_weight_table(params, 80) == reduced_weight_table_by_cells(
            params, 80)

    def test_taking_back_deletes_the_codes_left_at_zero(self):
        # a 0 left in a window cell reached no start cell at the sizes the
        # table is tested at, so the helper is held to it directly
        running = {}
        _add_shifted(running, {0: 2, 3: 1}, 4)
        _add_shifted(running, {1: 1, 2: 5}, 3)
        _sub_shifted(running, {0: 2, 3: 1}, 4)
        assert running == {4: 1, 5: 5}
        _sub_shifted(running, {1: 1, 2: 5}, 3)
        assert running == {}

    @pytest.mark.parametrize("n", [5, 12])
    def test_each_term_is_merged_a_bounded_number_of_times(self, monkeypatch, n):
        # one merge per term into the start cell, at most one in and one out
        # of the running window: re-summing each cell's window does 4,250
        # additive merges at n = 5, M = 40, over the M(M + 1) = 1,640 bound
        calls = Counter()

        def counted(name):
            merge = getattr(characters, name)

            def count_call(*args):
                calls[name] += 1
                merge(*args)
            return count_call

        for name in ("_add_shifted", "_sub_shifted"):
            monkeypatch.setattr(characters, name, counted(name))
        M = 40
        assert reduced_weight_table(WallParams(n), M) == reduced_weight_table_by_cells(
            WallParams(n), M)
        assert 0 < calls["_add_shifted"] <= M * (M + 1)
        assert calls["_sub_shifted"] <= M * (M + 1) // 2


class TestPrincipalCharacter:
    def test_degree_eight_coefficient(self):
        assert principal_character(P2, 8)[8] == 6

    def test_rank_independence_to_degree_eight(self):
        assert principal_character(P2, 8) == principal_character(P3, 8)

    def test_degree_zero(self):
        assert principal_character(P2, 0) == [1]
        assert principal_character(WallParams(5), 0) == [1]

    def test_matches_strict_generating_function(self):
        assert principal_character(P2, 12) == series_product_strict(12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_strict_generating_function_to_two_hundred(self, n):
        assert principal_character(WallParams(n), 200) == series_product_strict(200)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            principal_character(P2, -1)
