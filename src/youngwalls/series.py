"""Truncated formal power series in one variable with exact integer coefficients.

A series carries its truncation degree M and coefficients for degrees 0..M;
arithmetic is exact modulo t^(M+1).  Coefficients are Python ints, so they
never overflow regardless of degree.
"""

from __future__ import annotations

from typing import Iterable


class PowerSeries:
    """Coefficients c_0..c_M of a formal power series truncated at degree M."""

    __slots__ = ("coeffs",)

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int]):
        coeffs = tuple(int(c) for c in coeffs)
        if not coeffs:
            raise ValueError("need at least the constant coefficient")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, m: int) -> int:
        """Coefficient of degree ``m``; raises IndexError past the truncation."""
        if not 0 <= m <= self.truncation:
            raise IndexError(f"degree {m} outside 0..{self.truncation}")
        return self.coeffs[m]

    def __getitem__(self, m: int) -> int:
        return self.coeff(m)

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        M = min(self.truncation, other.truncation)
        out = [0] * (M + 1)
        for i, a in enumerate(self.coeffs[: M + 1]):
            if a == 0:
                continue
            for j in range(M + 1 - i):
                out[i + j] += a * other.coeffs[j]
        return PowerSeries(out)

    def reciprocal(self) -> "PowerSeries":
        """Multiplicative inverse modulo t^(M+1).

        Exact over the integers only when the constant term is a unit, so
        anything else is rejected.  Uses the recurrence
        b_n = -(c_1 b_{n-1} + ... + c_n b_0) / c_0.
        """
        c0 = self.coeffs[0]
        if c0 not in (1, -1):
            raise ValueError("constant term must be 1 or -1 for an exact reciprocal")
        M = self.truncation
        inv = [0] * (M + 1)
        inv[0] = c0
        for n in range(1, M + 1):
            acc = 0
            for i in range(1, n + 1):
                acc += self.coeffs[i] * inv[n - i]
            inv[n] = -acc * c0
        return PowerSeries(inv)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PowerSeries):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("PowerSeries is immutable")

    def __repr__(self) -> str:
        return f"PowerSeries({list(self.coeffs)!r})"


def _times_one_plus_power(coeffs: list[int], k: int, sign: int) -> None:
    """Multiply the coefficient array in place by (1 + sign*t^k)."""
    for j in range(len(coeffs) - 1, k - 1, -1):
        coeffs[j] += sign * coeffs[j - k]


def series_product_strict(truncation: int) -> PowerSeries:
    """The product of (1 + t^i) over i = 1..M, truncated at degree M.

    Coefficient m counts the partitions of m into distinct parts.
    """
    if truncation < 0:
        raise ValueError("truncation degree must be non-negative")
    coeffs = [0] * (truncation + 1)
    coeffs[0] = 1
    for i in range(1, truncation + 1):
        _times_one_plus_power(coeffs, i, +1)
    return PowerSeries(coeffs)


def series_product_odd(truncation: int) -> PowerSeries:
    """The product of 1/(1 - t^i) over odd i up to M, truncated at degree M.

    Computed as one reciprocal of the assembled denominator.  Coefficient m
    counts the partitions of m into odd parts.
    """
    if truncation < 0:
        raise ValueError("truncation degree must be non-negative")
    denom = [0] * (truncation + 1)
    denom[0] = 1
    for i in range(1, truncation + 1, 2):
        _times_one_plus_power(denom, i, -1)
    return PowerSeries(denom).reciprocal()
