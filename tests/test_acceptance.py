"""Acceptance suite: every release gate as one test with one PASS/FAIL line.

All identities here are exact integer statements; there are no tolerances.
Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.
"""

from collections import Counter
from contextlib import contextmanager

from youngwalls import (
    Partition,
    WallParams,
    count_partitions,
    count_strict,
    enumerate_proper,
    enumerate_reduced,
    enumerate_strict,
    has_removable_delta,
    is_reduced,
    principal_character,
    series_product_odd,
    series_product_strict,
    verify_bijections,
    virtual_character,
    weight,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def test_criterion_1_reduced_counts_match_strict_counts():
    with criterion(1, "reduced-wall counts equal strict counts, n in 2..5, m <= 30"):
        for n in (2, 3, 4, 5):
            params = WallParams(n)
            for m in range(31):
                assert len(enumerate_reduced(params, m)) == count_strict(m), (n, m)


def test_criterion_2_eight_block_walls():
    with criterion(2, "the six reduced walls with 8 blocks, ranks 2 and 3"):
        expected_n2 = {(7, 1), (6, 2), (5, 3), (5, 2, 1), (4, 3, 1), (3, 3, 2)}
        actual_n2 = set(enumerate_reduced(WallParams(2), 8))
        assert actual_n2 == expected_n2
        assert len(actual_n2) == 6
        assert len(enumerate_reduced(WallParams(3), 8)) == 6


def test_criterion_3_virtual_characters():
    with criterion(3, "worked character multisets and strict/reduced agreement, m <= 20"):
        p2, p3 = WallParams(2), WallParams(3)
        assert virtual_character(enumerate_strict(7), p2) == Counter(
            {(3, 2, 2): 3, (2, 3, 2): 1, (2, 2, 3): 1}
        )
        assert virtual_character(enumerate_strict(7), p3) == Counter(
            {
                (3, 2, 1, 1): 1,
                (2, 2, 2, 1): 1,
                (2, 2, 1, 2): 1,
                (2, 1, 2, 2): 1,
                (1, 2, 2, 2): 1,
            }
        )
        for params in (p2, p3):
            for m in range(21):
                assert virtual_character(
                    enumerate_strict(m), params
                ) == virtual_character(enumerate_reduced(params, m), params), (
                    params.n,
                    m,
                )


def test_criterion_4_series_identity_to_200():
    with criterion(4, "distinct-parts and odd-parts products agree to degree 200"):
        strict_series = series_product_strict(200)
        odd_series = series_product_odd(200)
        assert strict_series == odd_series
        for m in range(201):
            assert strict_series[m] == count_strict(m)


def test_criterion_5_specialized_character_rank_independent():
    with criterion(5, "counting series identical for n in 2..5 and equal to the product"):
        reference = series_product_strict(25)
        for n in (2, 3, 4, 5):
            assert principal_character(WallParams(n), 25) == reference, n


def test_criterion_6_proper_wall_decomposition():
    with criterion(6, "proper walls decompose over reduced walls with partition weights"):
        for n in (2, 3):
            params = WallParams(n)
            for m in range(25):
                lhs = len(enumerate_proper(params, m))
                rhs = sum(
                    len(enumerate_reduced(params, m - params.period * k))
                    * count_partitions(k)
                    for k in range(m // params.period + 1)
                )
                assert lhs == rhs, (n, m)
        # hand-checked cells
        assert len(enumerate_proper(WallParams(2), 6)) == 5 == 4 + 1
        assert len(enumerate_proper(WallParams(2), 7)) == 6 == 5 + 1


def test_criterion_7_map_certification():
    with criterion(7, "both maps biject with exact inverses and 2k weight shift, m <= 30"):
        for n in (2, 3):
            report = verify_bijections(WallParams(n), 30)
            assert report.passed, report.counterexample


def test_criterion_8_reducedness_definitions_agree():
    with criterion(8, "gap rule equals no-removable-segment rule, n in 2..4, m <= 24"):
        for n in (2, 3, 4):
            params = WallParams(n)
            for m in range(25):
                for lam in enumerate_proper(params, m):
                    assert is_reduced(lam, params) == (
                        not has_removable_delta(lam, params)
                    ), (n, m, lam)


def test_criterion_9_color_map_gate():
    with criterion(9, "worked weight vectors pin the block color pattern"):
        assert weight(Partition((7,)), WallParams(2)) == (3, 2, 2)
        assert weight(Partition((5, 2)), WallParams(2)) == (2, 3, 2)
        assert weight(Partition((4, 3)), WallParams(2)) == (2, 2, 3)
        assert weight(Partition((7,)), WallParams(3)) == (1, 2, 2, 2)
