import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from youngwalls import (
    Partition,
    WallParams,
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
from youngwalls import partitions
from youngwalls.characters import proper_weight_table, strict_weight_table
from youngwalls.partitions import (_count_window, _enumerate_window, _product_counts,
                                   _product_table, _width)
from youngwalls.verify import MAX_SIZE
from youngwalls.walls import column_codes

from count_oracle import (count_window_by_list, odd_counts_by_ascending_parts,
                          product_counts_by_list, product_table_by_ascending_factors)


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

    @pytest.mark.parametrize("parts", [(2.5, 1), (3.0,), ("3",), (3, None)])
    def test_rejects_non_integer_parts(self, parts):
        # a float part was truncated and a string one parsed
        with pytest.raises(TypeError):
            Partition(parts)

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
        # d = 1 gives all partitions, d = M + 1 the strict ones; at
        # d = M // 2 + 1 a gap of 2*d first exceeds M + 1 parts; codes[i] = 1
        # keys each partition by its number of parts, and with every code 0
        # the table is _product_counts' one count per size
        M = 30
        codes = [0] + [1] * M
        for d in (1, 2, 3, 4, M // 2 + 1, M + 1):
            listings = [_enumerate_window(m, d, m + 1) for m in range(M + 1)]
            assert _product_table(M, d, codes) == [
                Counter(map(len, lams)) for lams in listings
            ], d
            assert _product_counts(M, d) == [len(lams) for lams in listings] == [
                sum(entry.values()) for entry in _product_table(M, d, [0] * (M + 1))
            ], d
            assert _count_window(M, d) == [
                len(_enumerate_window(m, d, 2 * d)) for m in range(M + 1)
            ], d

    def test_packed_kernels_match_list_oracles(self):
        # the d grids of test_window_counts_match_enumeration and their
        # neighbours, a window of a quarter and of half the parts, and none
        for M in range(121):
            for d in sorted({*range(1, 8), M // 4 + 1, M // 2 + 1, M + 1}):
                assert _product_counts(M, d) == product_counts_by_list(M, d), (M, d)
                assert _count_window(M, d) == count_window_by_list(M, d), (M, d)

    @pytest.mark.parametrize("d", [2, 3, 126, 251, 501])
    def test_packed_kernels_match_list_oracles_at_five_hundred(self, d):
        assert _product_counts(500, d) == product_counts_by_list(500, d)
        assert _count_window(500, d) == count_window_by_list(500, d)

    @pytest.mark.parametrize(
        "n, bounds",
        [*((n, range(41)) for n in (*range(2, 9), 12)),
         *((n, [81]) for n in range(2, 6))],
        ids=lambda value: str(value) if isinstance(value, int) else
        f"M{value[0]}..{value[-1]}")
    def test_weight_tables_match_the_ascending_product(self, n, bounds):
        # every bound to 40, and 81, the largest --max-m that vch admits
        params = WallParams(n)
        for M in bounds:
            codes = column_codes(params, M)
            assert strict_weight_table(params, M) == (
                product_table_by_ascending_factors(M, M + 1, codes)), M
            assert proper_weight_table(params, M) == (
                product_table_by_ascending_factors(M, params.delta, codes)), M

    def test_strict_weight_table_merges_few_entries(self, monkeypatch):
        # largest part first, factor i reads only partitions into parts of
        # at least i and skips the empty ones; smallest part first made 820
        # calls merging 5,896 entries here
        entries = []  # len(terms) per call
        add_shifted = partitions._add_shifted

        def counted(acc, terms, shift):
            entries.append(len(terms))
            add_shifted(acc, terms, shift)

        monkeypatch.setattr(partitions, "_add_shifted", counted)
        strict_weight_table(WallParams(5), 40)
        assert 0 < len(entries) <= 420
        assert sum(entries) <= 3309
        assert 0 not in entries

    def test_packed_width_holds_every_count(self):
        # no coefficient of the packed kernels exceeds p(M), and each field
        # is whole bytes, which _unpack slices
        counts = partition_counts(MAX_SIZE)
        for M, count in enumerate(counts):
            assert _width(M) >= count.bit_length() and _width(M) % 8 == 0, M

    @pytest.mark.parametrize("d, list_mib", [(3, 22.9), (251, 59.1), (500, 69.3),
                                             (10**6 + 1, 76.5)])
    def test_window_count_memory(self, d, list_mib):
        # below the traced peak of count_oracle's list DP at the admitted
        # limit (CPython 3.11); a narrow window, or one that never drops a
        # column, keeps a few packed series, not one per column to drop
        tracemalloc.start()
        try:
            _count_window(MAX_SIZE, d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < list_mib * 2**20
        if d in (3, 10**6 + 1):
            assert peak < 2**21

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

    def test_odd_counts_match_the_ascending_parts(self):
        # largest part first, part p skips the entries below 2p, which hold
        # no partition into odd parts above p but the empty one
        for M in range(301):
            assert odd_counts(M) == odd_counts_by_ascending_parts(M), M

    @pytest.mark.parametrize("table", [partition_counts, strict_counts, odd_counts])
    def test_table_prefixes_and_bounds(self, table):
        assert table(0) == [1]
        assert table(12) == table(40)[:13]
        with pytest.raises(ValueError):
            table(-1)

    def test_window_count_of_nothing(self):
        assert _count_window(0, 1) == [1]
        assert _product_table(0, 1, [0]) == [{0: 1}]
        assert _product_counts(0, 1) == [1]
        with pytest.raises(ValueError):
            _count_window(-1, 1)
        with pytest.raises(ValueError):
            _product_counts(-1, 1)
        with pytest.raises(ValueError):
            _product_table(-1, 1, [])
