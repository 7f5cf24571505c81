from fractions import Fraction
from math import comb

import pytest

from matroid_workbench import InternalInvariantViolation, InvalidInput
from matroid_workbench.series import TruncatedSeries

ORD = 6


def test_one_plus_eps_positive_power_is_binomial():
    s = TruncatedSeries.one_plus_eps_power(3, ORD)
    assert s.coeffs == [comb(3, j) if j <= 3 else 0 for j in range(ORD)]


def test_one_plus_eps_negative_power():
    s = TruncatedSeries.one_plus_eps_power(-2, ORD)
    # (1+e)^(-2) = sum (-1)^j (j+1) e^j
    assert s.coeffs == [(-1) ** j * (j + 1) for j in range(ORD)]


def test_power_law_multiplicativity():
    for a in (-3, -1, 0, 2, 4):
        for b in (-2, 1, 3):
            lhs = TruncatedSeries.one_plus_eps_power(a, ORD) * (
                TruncatedSeries.one_plus_eps_power(b, ORD)
            )
            rhs = TruncatedSeries.one_plus_eps_power(a + b, ORD)
            assert lhs.coeffs == rhs.coeffs, (a, b)


def test_mul_truncates():
    s = TruncatedSeries([0, 1, 0, 0], 4)  # e
    cube = s * s * s
    assert cube.coeffs == [0, 0, 0, 1]
    quartic = cube * s
    assert quartic.coeffs == [0, 0, 0, 0]
    assert (TruncatedSeries([1, 2, 3], 3) * TruncatedSeries([0, 1, 1], 3)).coeffs == [0, 1, 3]


def test_inverse_exact():
    s = TruncatedSeries([1, 5, -2, Fraction(1, 3), 0, 7], ORD)
    inv = s.inverse()
    assert (s * inv).coeffs == [1, 0, 0, 0, 0, 0]


def test_inverse_requires_unit_constant_term():
    # a vanishing constant term means a pole was not fully cancelled upstream
    s = TruncatedSeries([0, 1, 0], 3)
    with pytest.raises(InternalInvariantViolation):
        s.inverse()


def test_order_mismatch_rejected():
    a = TruncatedSeries([1, 2], 2)
    b = TruncatedSeries([1, 2, 3], 3)
    with pytest.raises(InvalidInput):
        _ = a * b
