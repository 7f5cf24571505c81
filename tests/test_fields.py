import time
from fractions import Fraction

import pytest

from matroid_workbench import InvalidField, PrimeField, QQ, field_from_name
from matroid_workbench.fields import _is_prime


def test_rational_coercions():
    assert QQ.of(3) == Fraction(3)
    assert QQ.of(Fraction(2, 4)) == Fraction(1, 2)
    assert QQ.of("3/4") == Fraction(3, 4)
    assert QQ.of("-7") == Fraction(-7)


@pytest.mark.parametrize("bad", [True, False, 1.5, "x", None, [1]])
def test_rational_rejects_non_exact(bad):
    with pytest.raises(InvalidField):
        QQ.of(bad)


def test_rational_arithmetic():
    a, b = QQ.of("1/3"), QQ.of("1/6")
    assert QQ.add(a, b) == Fraction(1, 2)
    assert QQ.sub(a, b) == Fraction(1, 6)
    assert QQ.mul(a, b) == Fraction(1, 18)
    assert QQ.inv(b) == Fraction(6)
    assert QQ.neg(a) == Fraction(-1, 3)
    assert QQ.is_zero(QQ.sub(a, a))
    with pytest.raises(ZeroDivisionError):
        QQ.inv(QQ.of(0))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_prime_field_inverses(p):
    F = PrimeField(p)
    for a in range(1, p):
        assert F.mul(a, F.inv(a)) == 1
    assert F.of(p + 3) == 3 % p
    assert F.of(-1) == p - 1
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


@pytest.mark.parametrize(
    "bad", [0, 1, 4, 6, 9, 100, -3, 561, 2**61 + 1, 2**64 + 13, 2**89 - 1]
)
def test_prime_field_rejects_composites(bad):
    with pytest.raises(InvalidField):
        PrimeField(bad)


def test_large_prime_modulus_is_fast():
    start = time.perf_counter()
    F = field_from_name("GF(2305843009213693951)")  # 2^61 - 1
    assert time.perf_counter() - start < 1.0
    assert F.p == 2**61 - 1
    assert F.mul(F.inv(12345), 12345) == 1


def test_primality_matches_trial_division():
    def trial(p):
        return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))

    for p in range(5000):
        assert _is_prime(p) == trial(p), p


def test_prime_field_rejects_non_integers():
    F = PrimeField(5)
    for bad in (True, 1.0, "2", None):
        with pytest.raises(InvalidField):
            F.of(bad)


def test_field_from_name():
    assert field_from_name("Q").name == "Q"
    assert field_from_name("GF(7)").p == 7
    assert field_from_name("GF(007)").p == 7
    for bad in ("GF(4)", "GF(1)", "R", "", "gf(5", "GF(x)", "GF(561)", "GF(" + "9" * 5000 + ")"):
        with pytest.raises(InvalidField):
            field_from_name(bad)


def test_field_names_are_ascii_and_trim_ascii_whitespace_alike():
    """Digits of other scripts are not digits here ('GF(\u0667)' is an
    Arabic-Indic 7), and ASCII whitespace around 'Q' is read as it is
    around 'GF(p)'; other whitespace is not trimmed."""
    for padded in (" Q", "Q ", "\tQ\n"):
        assert field_from_name(padded) == QQ
    for padded in (" GF(7)", "GF(7) ", "\tGF(7)\n"):
        assert field_from_name(padded).p == 7
    for bad in ("GF(\u0667)", "GF(\uff17)", "GF(1\u0663)", "\u00a0Q", "GF(7)\u2003", "QQ", "GF( 7)", "Q\x00"):
        with pytest.raises(InvalidField):
            field_from_name(bad)
