import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import regex_field_from_name
from matroid_workbench import InvalidField, PrimeField, QQ, field_from_name
from matroid_workbench.fields import _is_prime


def test_rational_coercions():
    assert QQ.of(3) == Fraction(3)
    assert QQ.of(Fraction(2, 4)) == Fraction(1, 2)
    assert QQ.of("3/4") == Fraction(3, 4)
    assert QQ.of("-7") == Fraction(-7)


def test_integral_rationals_are_ints():
    """Q's integral elements are ints, whatever they were made from, so
    integral input never makes a Fraction."""
    assert QQ.zero == 0 and QQ.one == 1 and type(QQ.zero) is type(QQ.one) is int
    for x in (3, -7, 0, Fraction(6, 3), "6/3", "-7", Fraction(-4, 1)):
        assert type(QQ.of(x)) is int
    assert type(QQ.of(Fraction(1, 2))) is Fraction
    half = QQ.of("1/2")
    assert type(QQ.add(half, half)) is int and QQ.add(half, half) == 1
    assert type(QQ.mul(half, 4)) is int and QQ.mul(half, 4) == 2
    assert type(QQ.sub(half, Fraction(-1, 2))) is int
    assert type(QQ.inv(half)) is int and QQ.inv(half) == 2
    assert QQ.inv(1) == 1 and QQ.inv(-1) == -1 and type(QQ.inv(-1)) is int


rationals = st.one_of(st.integers(-10**30, 10**30), st.fractions(max_denominator=10**12))


@settings(max_examples=300, deadline=None)
@given(rationals)
@example(2)
@example(-3)
@example(Fraction(1, 3))
def test_rational_inverse_is_exact(a):
    """QQ.inv never returns a float: an integer other than 1 and -1 has a
    Fraction inverse, and a Fraction of numerator +-1 an int one; 0 has
    none."""
    a = QQ.of(a)
    if a == 0:
        with pytest.raises(ZeroDivisionError):
            QQ.inv(a)
        return
    b = QQ.inv(a)
    assert type(b) in (int, Fraction)
    assert (type(b) is int) == (abs(Fraction(a).numerator) == 1)
    assert b == 1 / Fraction(a)
    assert type(QQ.mul(a, b)) is int and QQ.mul(a, b) == 1


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
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)


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


_DIGITS = "0123456789" + "\u0660\u0667\u06f7\u0967\uff17\U0001d7d5" + "\u00b2\u00b9\u2077\u2460"
_SPACE = " \t\n\r\f\v" + "\x1c\x1d\x85\xa0\u1680\u2003\u2028\u3000\ufeff"


@st.composite
def field_names(draw):
    """Strings near 'Q' and 'GF(p)': ASCII and other digits (Arabic-Indic,
    Devanagari, fullwidth, mathematical, superscript and circled), 0 to 25
    of them, ASCII and other whitespace around, and near misses."""
    space = st.text(st.sampled_from(_SPACE), max_size=3)
    head = draw(st.sampled_from(["GF(", "GF(", "GF(", "GF (", "gf(", "Gf(", "GF", "G F(", "Q", "QQ", "q", "", "GF(("]))
    body = draw(st.text(st.sampled_from(_DIGITS), max_size=25)) if head != "Q" else draw(st.sampled_from(["", "", "(7)"]))
    if draw(st.booleans()):
        body = draw(st.text(st.sampled_from("0123456789"), min_size=0, max_size=25))
    tail = draw(st.sampled_from([")", ")", ")", "", "))", " )", ") ", "]"])) if head != "Q" else ""
    return draw(space) + head + body + tail + draw(space)


@settings(max_examples=600, deadline=None)
@given(st.one_of(field_names(), st.text(max_size=12)))
@example("GF (7)")
@example("gf(7)")
@example("GF(7")
@example("GF(\u00b2)")
@example("GF(\u0667)")
@example("GF(" + "0" * 19 + "7)")
@example("GF(" + "0" * 20 + "7)")
@example("GF(18446744073709551557)")  # the largest prime below 2^64
@example("GF(18446744073709551629)")  # the least prime above it
@example("\u00a0Q")
@example("\x1cQ")
def test_field_names_are_read_as_the_regular_expression_reads_them(name):
    """field_from_name, on string methods, accepts what the regular
    expression Q|GF\\(([0-9]{1,20})\\) accepts after ASCII whitespace is
    stripped, with the same p, and refuses all else with InvalidField."""
    try:
        want = regex_field_from_name(name)
    except InvalidField:
        with pytest.raises(InvalidField):
            field_from_name(name)
    else:
        assert field_from_name(name) == want
