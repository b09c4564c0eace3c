import pytest
from hypothesis import given, strategies as st

from youngwalls import (
    PowerSeries,
    count_odd,
    count_strict,
    odd_counts,
    series_product_odd,
    series_product_strict,
    strict_counts,
)

coeff_lists = st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=12)


class TestPowerSeries:
    def test_construction_and_truncation(self):
        s = PowerSeries((1, 2, 3))
        assert s.truncation == 2
        assert s.coeffs == (1, 2, 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PowerSeries(())

    def test_coeff_bounds(self):
        s = PowerSeries((1, 2))
        assert s[1] == 2
        with pytest.raises(IndexError):
            s.coeff(2)
        with pytest.raises(IndexError):
            s.coeff(-1)

    def test_arithmetic_truncates_to_shorter(self):
        a = PowerSeries((1, 1, 1, 1))
        b = PowerSeries((1, 2))
        assert (a * b).coeffs == (1, 3)

    def test_multiplication_known(self):
        # (1 + t)^2 = 1 + 2t + t^2
        a = PowerSeries((1, 1, 0))
        assert (a * a).coeffs == (1, 2, 1)

    def test_reciprocal_of_one_minus_t(self):
        geom = PowerSeries((1, -1, 0, 0, 0, 0, 0)).reciprocal()
        assert geom.coeffs == (1,) * 7

    def test_reciprocal_requires_unit_constant(self):
        with pytest.raises(ValueError):
            PowerSeries((2, 1)).reciprocal()

    @given(coeff_lists)
    def test_reciprocal_inverts(self, tail):
        s = PowerSeries([1] + tail)
        product = s * s.reciprocal()
        assert product.coeffs == (1,) + (0,) * s.truncation

    @given(coeff_lists, coeff_lists)
    def test_multiplication_commutes(self, a, b):
        x, y = PowerSeries(a), PowerSeries(b)
        assert x * y == y * x

    def test_immutable(self):
        s = PowerSeries((1, 2))
        with pytest.raises(AttributeError):
            s.coeffs = (3,)


class TestGeneratingProducts:
    def test_strict_product_degree_three(self):
        # (1+t)(1+t^2)(1+t^3) mod t^4
        assert series_product_strict(3).coeffs == (1, 1, 1, 2)

    def test_strict_product_degree_zero(self):
        assert series_product_strict(0).coeffs == (1,)

    def test_odd_product_degree_four(self):
        assert series_product_odd(4).coeffs == (1, 1, 1, 2, 2)

    def test_odd_product_degree_zero(self):
        assert series_product_odd(0).coeffs == (1,)

    def test_strict_coefficient_eight(self):
        assert series_product_strict(8)[8] == 6

    def test_negative_truncation_rejected(self):
        with pytest.raises(ValueError):
            series_product_strict(-1)
        with pytest.raises(ValueError):
            series_product_odd(-1)

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
