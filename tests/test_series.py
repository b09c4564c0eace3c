import pytest
from hypothesis import given, strategies as st

from youngwalls import (
    count_odd,
    count_strict,
    odd_counts,
    reciprocal,
    series_product_odd,
    series_product_strict,
    strict_counts,
)

coeff_lists = st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=12)


def multiply(a, b):
    """Oracle: the schoolbook product of two coefficient lists, truncated to
    the shorter one."""
    M = min(len(a), len(b)) - 1
    out = [0] * (M + 1)
    for i, x in enumerate(a[: M + 1]):
        for j in range(M + 1 - i):
            out[i + j] += x * b[j]
    return out


class TestPowerSeries:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            reciprocal([])

    def test_arithmetic_truncates_to_shorter(self):
        assert multiply([1, 1, 1, 1], [1, 2]) == [1, 3]

    def test_multiplication_known(self):
        # (1 + t)^2 = 1 + 2t + t^2
        assert multiply([1, 1, 0], [1, 1, 0]) == [1, 2, 1]

    def test_reciprocal_of_one_minus_t(self):
        assert reciprocal([1, -1, 0, 0, 0, 0, 0]) == [1] * 7

    def test_reciprocal_requires_unit_constant(self):
        with pytest.raises(ValueError):
            reciprocal([2, 1])

    @given(coeff_lists, st.sampled_from([1, -1]))
    def test_reciprocal_inverts(self, tail, unit):
        s = [unit] + tail
        assert multiply(s, reciprocal(s)) == [1] + [0] * len(tail)

    @given(coeff_lists, coeff_lists)
    def test_multiplication_commutes(self, a, b):
        assert multiply(a, b) == multiply(b, a)


class TestGeneratingProducts:
    def test_strict_product_degree_three(self):
        # (1+t)(1+t^2)(1+t^3) mod t^4
        assert series_product_strict(3) == [1, 1, 1, 2]

    def test_strict_product_degree_zero(self):
        assert series_product_strict(0) == [1]

    def test_odd_product_degree_four(self):
        assert series_product_odd(4) == [1, 1, 1, 2, 2]

    def test_odd_product_degree_zero(self):
        assert series_product_odd(0) == [1]

    def test_strict_coefficient_eight(self):
        assert series_product_strict(8)[8] == 6

    def test_negative_truncation_rejected(self):
        # both products refuse as the count tables do
        for product in (series_product_strict, series_product_odd):
            with pytest.raises(ValueError, match="^m must be non-negative, got -1$"):
                product(-1)

    def test_euler_identity_to_five_hundred(self):
        strict_series = series_product_strict(500)
        odd_series = series_product_odd(500)
        assert strict_series == odd_series
        strict_table, odd_table = strict_counts(500), odd_counts(500)
        for m in range(501):
            assert strict_series[m] == strict_table[m] == odd_table[m]

    @given(st.integers(min_value=0, max_value=120))
    def test_coefficients_match_counting_dp(self, m):
        assert series_product_strict(m)[m] == count_strict(m)
        assert series_product_odd(m)[m] == count_odd(m)
