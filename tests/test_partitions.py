import pytest
from hypothesis import given, strategies as st

from youngwalls import (
    Partition,
    count_odd,
    count_partitions,
    count_strict,
    enumerate_partitions,
    enumerate_strict,
    odd_counts,
    partition_counts,
    reciprocal,
    series_product_odd,
    series_product_strict,
    strict_counts,
)
from youngwalls.partitions import _count_window


def ascending_partitions(m, least=1):
    """Independent oracle: builds parts smallest-first, so it shares no code
    path with the library's largest-first backtracker."""
    if m == 0:
        yield ()
        return
    for p in range(least, m + 1):
        for rest in ascending_partitions(m - p, p):
            yield (p,) + rest


def oracle_partition_set(m):
    return {tuple(reversed(t)) for t in ascending_partitions(m)}


class TestPartitionType:
    def test_canonical_form_drops_zeros(self):
        assert Partition((3, 1, 0, 0)) == (3, 1)
        assert Partition((0, 0)) == ()
        assert Partition() == ()

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Partition((3, -1))

    def test_indexing_and_hash_are_the_tuples(self):
        lam = Partition((4, 2))
        assert lam[0] == 4
        assert lam[-1] == 2
        with pytest.raises(IndexError):
            lam[2]
        assert type(lam[1:]) is tuple
        assert hash(lam) == hash(tuple(lam))

    def test_size_and_length(self):
        lam = Partition((4, 2, 1))
        assert lam.size == 7
        assert len(lam) == 3
        assert Partition().size == 0

    def test_is_strict(self):
        assert Partition((4, 2, 1)).is_strict()
        assert Partition().is_strict()
        assert not Partition((3, 3, 1)).is_strict()

    def test_equality_and_hash_match_tuples(self):
        assert Partition((3, 1)) == Partition((3, 1))
        assert Partition((3, 1)) == (3, 1)
        assert hash(Partition((3, 1))) == hash((3, 1))

    def test_ordering_is_lexicographic(self):
        assert Partition((3, 1)) < Partition((4,))
        assert Partition((2, 1, 1)) < Partition((2, 2))

    def test_immutable(self):
        lam = Partition((2, 1))
        with pytest.raises(AttributeError):
            lam.extra = (5,)
        with pytest.raises(TypeError):
            lam[0] = 5

    def test_str_roundtrips_comma_literal(self):
        assert str(Partition((5, 2, 1))) == "5,2,1"
        assert str(Partition()) == ""


class TestEnumeration:
    def test_empty_partition_of_zero(self):
        assert enumerate_partitions(0) == [Partition()]
        assert enumerate_strict(0) == [Partition()]

    def test_partitions_of_four(self):
        assert enumerate_partitions(4) == [
            (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1),
        ]

    def test_partitions_of_five_count(self):
        assert len(enumerate_partitions(5)) == 7

    def test_strict_of_seven(self):
        assert enumerate_strict(7) == [
            (7,), (6, 1), (5, 2), (4, 3), (4, 2, 1),
        ]

    def test_strict_of_eight_count(self):
        assert len(enumerate_strict(8)) == 6

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError):
            enumerate_partitions(-1)
        with pytest.raises(ValueError):
            count_partitions(-1)

    @pytest.mark.parametrize("m", range(0, 26))
    def test_matches_ascending_oracle(self, m):
        oracle = oracle_partition_set(m)
        assert set(enumerate_partitions(m)) == oracle
        assert set(enumerate_strict(m)) == {
            t for t in oracle if len(set(t)) == len(t)
        }

    @given(st.integers(min_value=0, max_value=28))
    def test_descending_lex_and_duplicate_free(self, m):
        for listing in (enumerate_partitions(m), enumerate_strict(m)):
            assert listing == sorted(listing, reverse=True)
            assert len(set(listing)) == len(listing)
            for lam in listing:
                # built without validation, so check it against the validator
                assert isinstance(lam, Partition)
                assert lam == Partition(tuple(lam))

    @given(st.integers(min_value=0, max_value=30))
    def test_strict_subset_of_all(self, m):
        assert set(enumerate_strict(m)) <= set(enumerate_partitions(m))


class TestCounts:
    @pytest.mark.parametrize(
        "m,expected", [(0, 1), (5, 7), (6, 11)]
    )
    def test_count_partitions_known(self, m, expected):
        assert count_partitions(m) == expected

    @pytest.mark.parametrize("m,expected", [(1, 1), (7, 5), (8, 6)])
    def test_count_strict_known(self, m, expected):
        assert count_strict(m) == expected

    @pytest.mark.parametrize("m,expected", [(1, 1), (7, 5), (8, 6)])
    def test_count_odd_known(self, m, expected):
        assert count_odd(m) == expected

    def test_odd_of_eight_by_enumeration(self):
        odd = [
            lam for lam in enumerate_partitions(8)
            if all(p % 2 == 1 for p in lam)
        ]
        assert len(odd) == 6
        assert count_odd(8) == 6

    def test_counts_agree_with_enumeration_to_forty(self):
        for m in range(41):
            assert count_partitions(m) == len(enumerate_partitions(m))
            assert count_strict(m) == len(enumerate_strict(m))

    @given(st.integers(min_value=0, max_value=200))
    def test_euler_counts_agree(self, m):
        assert count_strict(m) == count_odd(m)


class TestCountTables:
    def test_window_counts_match_enumeration(self):
        M = 30
        assert _count_window(M, 1, M + 1) == [
            len(enumerate_partitions(m)) for m in range(M + 1)
        ]
        assert _count_window(M, M + 1, M + 1) == [
            len(enumerate_strict(m)) for m in range(M + 1)
        ]

    def test_tables_match_enumeration_to_thirty(self):
        M = 30
        listings = [enumerate_partitions(m) for m in range(M + 1)]
        assert partition_counts(M) == [len(lams) for lams in listings]
        assert strict_counts(M) == [
            sum(lam.is_strict() for lam in lams) for lams in listings
        ]
        assert odd_counts(M) == [
            sum(all(p % 2 for p in lam) for lam in lams) for lams in listings
        ]

    def test_tables_match_series_to_five_hundred(self):
        M = 500
        # prod (1 - t^i) expanded factor by factor, then inverted
        euler = [1] + [0] * M
        for i in range(1, M + 1):
            for j in range(M, i - 1, -1):
                euler[j] -= euler[j - i]
        assert partition_counts(M) == reciprocal(euler)
        assert strict_counts(M) == series_product_strict(M)
        assert odd_counts(M) == series_product_odd(M)

    @pytest.mark.parametrize("table", [partition_counts, strict_counts, odd_counts])
    def test_table_prefixes_and_bounds(self, table):
        assert table(0) == [1]
        assert table(12) == table(40)[:13]
        with pytest.raises(ValueError):
            table(-1)

    def test_window_count_of_nothing(self):
        assert _count_window(0, 1, 1) == [1]
        with pytest.raises(ValueError):
            _count_window(-1, 1, 1)
