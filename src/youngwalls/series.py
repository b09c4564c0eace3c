"""Truncated formal power series in one variable with exact integer coefficients.

A series truncated at degree M is the list of its coefficients for degrees
0..M; arithmetic is exact modulo t^(M+1).  Coefficients are Python ints, so
they never overflow regardless of degree.
"""

from __future__ import annotations

from .partitions import _check_non_negative, _over_one_minus, _unpack, _width


def reciprocal(coeffs: list[int]) -> list[int]:
    """Multiplicative inverse modulo t^(M+1), M = len(coeffs) - 1.

    Exact over the integers only when the constant term is a unit, so
    anything else is rejected.  Uses the recurrence
    b_n = -(c_1 b_{n-1} + ... + c_n b_0) / c_0.
    """
    if not coeffs or coeffs[0] not in (1, -1):
        raise ValueError("constant term must be 1 or -1 for an exact reciprocal")
    c0 = coeffs[0]
    inv = [c0]
    for n in range(1, len(coeffs)):
        acc = 0
        for i in range(1, n + 1):
            acc += coeffs[i] * inv[n - i]
        inv.append(-acc * c0)
    return inv


def series_product_strict(truncation: int) -> list[int]:
    """The product of (1 + t^i) over i = 1..M, truncated at degree M, summed
    by number of parts: coefficient m counts the partitions of m into
    distinct parts.

    Less the staircase (k - 1, ..., 1, 0), a strict partition with k parts
    is a partition into exactly k parts; less one block per part, one into
    at most k parts, which by conjugation is one into parts at most k.  So
    the product is the sum over k of t^(k(k+1)/2) / prod_{j <= k} (1 - t^j):
    one running quotient on one packed integer, cut to degree M - k(k+1)/2
    and divided by (1 - t^k) per term, about sqrt(2M) divisions in all."""
    _check_non_negative(truncation)
    B, quotient, total = _width(truncation), 1, 1
    k, staircase = 1, 1
    while staircase <= truncation:
        degree = truncation - staircase
        quotient = _over_one_minus(quotient & ((1 << (degree + 1) * B) - 1), k,
                                   degree, B)
        total += quotient << staircase * B
        k += 1
        staircase += k
    return _unpack(total, truncation, B)


def series_product_odd(truncation: int) -> list[int]:
    """The product of 1/(1 - t^i) over odd i up to M, truncated at degree M.

    Computed as one reciprocal of the assembled denominator.  Coefficient m
    counts the partitions of m into odd parts.
    """
    _check_non_negative(truncation)
    denom = [1] + [0] * truncation
    for i in range(1, truncation + 1, 2):
        for j in range(truncation, i - 1, -1):
            denom[j] -= denom[j - i]
    return reciprocal(denom)
