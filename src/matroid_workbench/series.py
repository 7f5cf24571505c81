"""Truncated power series in one variable with exact coefficients.

Coefficients are ints or Fractions; all arithmetic truncates at a fixed
order. No runtime code uses this module: the localization sums run on
packed integers. It serves the tests' two localization oracles (the
per-point Fraction route, which alone needs `inverse`, and the slot-by-slot
prefix-state sum) and the benchmark tracer, which wraps its methods.
"""
from __future__ import annotations

from math import comb

from .errors import InternalInvariantViolation, InvalidInput


class TruncatedSeries:
    """Polynomial in eps truncated to eps^(order-1)."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order):
        if order < 1:
            raise InvalidInput("series order must be >= 1")
        c = list(coeffs)[:order]
        c += [0] * (order - len(c))
        self.order = order
        self.coeffs = c

    @classmethod
    def one_plus_eps_power(cls, c, order):
        """(1 + eps)^c for any integer c (negative allowed), exactly.

        Integer coefficients: binomial(c, j) for c < 0 is
        (-1)^j * binomial(-c + j - 1, j).
        """
        if not isinstance(c, int):
            raise InvalidInput("exponent must be an integer")
        coeffs = []
        for j in range(order):
            if c >= 0:
                coeffs.append(comb(c, j) if j <= c else 0)
            else:
                coeffs.append((-1) ** j * comb(-c + j - 1, j))
        return cls(coeffs, order)

    def __add__(self, other):
        self._check(other)
        return TruncatedSeries([a + b for a, b in zip(self.coeffs, other.coeffs)], self.order)

    def __mul__(self, other):
        self._check(other)
        n = self.order
        out = [0] * n
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(n - i):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return TruncatedSeries(out, n)

    def inverse(self):
        """Multiplicative inverse; requires a nonzero constant term."""
        u0 = self.coeffs[0]
        if u0 == 0:
            raise InternalInvariantViolation("inverting a series with zero constant term")
        from fractions import Fraction

        inv0 = Fraction(1, 1) / Fraction(u0)
        out = [inv0]
        for k in range(1, self.order):
            s = sum(self.coeffs[i] * out[k - i] for i in range(1, k + 1))
            out.append(-s * inv0)
        return TruncatedSeries(out, self.order)

    def _check(self, other):
        if self.order != other.order:
            raise InvalidInput("series orders differ")
