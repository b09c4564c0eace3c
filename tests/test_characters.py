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
    _window_weight_table,
    reduced_weight_table,
    strict_weight_table,
    unpack_weight,
)
from youngwalls.walls import column_codes

P2 = WallParams(2)
P3 = WallParams(3)


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
         # a gap above M leaves every window unbounded below: proper walls
         (lambda params, M: _window_weight_table(params, M, M + 1), enumerate_proper)],
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

    @pytest.mark.parametrize("n", [2, 3, 7, 20])
    @pytest.mark.parametrize("M", [0, 1, 5, 20, 60])
    def test_column_codes_pack_each_column_weight(self, n, M):
        params = WallParams(n)
        assert column_codes(params, M) == [
            sum(a * (M + 1) ** c for c, a in enumerate(weight(Partition((h,)), params)))
            for h in range(M + 1)
        ]

    @pytest.mark.parametrize("table", [strict_weight_table, reduced_weight_table])
    def test_degree_zero_and_negative(self, table):
        assert table(P2, 0) == [{0: 1}]
        with pytest.raises(ValueError):
            table(P2, -1)


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
