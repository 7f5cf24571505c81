import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroid_workbench import BivariatePoly, InvalidInput, UnivariatePoly

from helpers import upoly


def test_bivariate_construction_drops_zeros():
    p = BivariatePoly({(1, 0): 2, (0, 1): 0})
    assert p.terms() == [((1, 0), 2)]
    assert p.coeff(0, 1) == 0
    assert not p.is_zero()
    assert BivariatePoly({}).is_zero()


def test_bivariate_rejects_negative_exponents_and_bad_keys():
    with pytest.raises(InvalidInput):
        BivariatePoly({(-1, 0): 1})
    with pytest.raises(InvalidInput):
        BivariatePoly({(0, -2): 1})


def test_bivariate_arithmetic():
    x = BivariatePoly.monomial(1, 0)
    y = BivariatePoly.monomial(0, 1)
    p = (x + y) * (x + y)
    assert dict(p.terms()) == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    assert (p - p).is_zero()
    assert p.scale(3).coeff(1, 1) == 6
    assert p.shift(1, 2).coeff(3, 2) == 1
    assert p.evaluate(Fraction(1, 2), 1) == Fraction(9, 4)
    assert p.degree_x() == 2 and p.degree_y() == 2 and p.total_degree() == 2


def test_bivariate_json_round_trip_and_term_order():
    p = BivariatePoly({(2, 0): 1, (1, 0): 1, (0, 1): 1})
    obj = p.to_json()
    # terms are emitted in descending lexicographic (x, y) order
    assert obj == {
        "terms": [
            {"x": 2, "y": 0, "c": "1"},
            {"x": 1, "y": 0, "c": "1"},
            {"x": 0, "y": 1, "c": "1"},
        ]
    }
    assert BivariatePoly.from_json(obj) == p

    q = BivariatePoly({(0, 3): -5, (4, 4): 7})
    assert BivariatePoly.from_json(q.to_json()) == q


def test_bivariate_json_rejects_duplicates_and_junk():
    with pytest.raises(InvalidInput):
        BivariatePoly.from_json(
            {"terms": [{"x": 1, "y": 0, "c": "1"}, {"x": 1, "y": 0, "c": "2"}]}
        )
    with pytest.raises(InvalidInput):
        BivariatePoly.from_json({"terms": [{"x": True, "y": 0, "c": "1"}]})
    with pytest.raises(InvalidInput):
        BivariatePoly.from_json({"terms": [{"x": 0, "y": 0, "c": "1.5"}]})
    with pytest.raises(InvalidInput):
        BivariatePoly.from_json({"nope": []})


def test_univariate_basics():
    p = upoly(1, -3, 2)  # u^2 - 3u + 2
    assert p.degree() == 2
    assert p.coeff(1) == -3
    assert p.evaluate(1) == 0
    assert p.evaluate(Fraction(1, 2)) == Fraction(3, 4)
    assert UnivariatePoly.zero().degree() == -1
    assert (p - p).is_zero()


def test_univariate_json_round_trip():
    p = upoly(1, 0, -7, 6)
    obj = p.to_json(name="u")
    exps = [t["u"] for t in obj["terms"]]
    assert exps == sorted(exps, reverse=True)
    assert UnivariatePoly.from_json(obj, name="u") == p


def test_divmod_linear_exact_division():
    # (u - 1)(u - 2) = u^2 - 3u + 2 divided at root 1
    p = upoly(1, -3, 2)
    q, rem = p.divmod_linear(1)
    assert rem == 0
    assert q == upoly(1, -2)
    q2, rem2 = p.divmod_linear(2)
    assert rem2 == 0
    assert q2 == upoly(1, -1)


def test_divmod_linear_remainder():
    p = upoly(1, 0, 1)  # u^2 + 1
    q, rem = p.divmod_linear(1)
    assert rem == 2
    assert q == upoly(1, 1)
    # reconstruct: p == q * (u - root) + rem
    u = UnivariatePoly.monomial(1)
    assert q * (u - upoly(1)) + upoly(rem) == p


def test_univariate_rejects_negative_exponent():
    with pytest.raises(InvalidInput):
        UnivariatePoly({-1: 1})


BIVARIATE = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)), st.integers(), max_size=8
).map(BivariatePoly)
UNIVARIATE = st.dictionaries(st.integers(0, 8), st.integers(), max_size=8).map(UnivariatePoly)
SAME_CLASS_TRIPLES = st.sampled_from([BIVARIATE, UNIVARIATE]).flatmap(
    lambda polys: st.tuples(polys, polys, polys)
)
NAMES = st.sampled_from(["x", "y", "u", "v", "t", "exp_2"])


@settings(deadline=None)
@given(SAME_CLASS_TRIPLES)
def test_ring_identities_and_equal_hashes(triple):
    p, q, r = triple
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p + q == q + p and p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert (p - p).is_zero() and p - p == type(p).zero()
    # equal objects, built different ways, hash equal
    assert hash((p + q) + r) == hash(p + (q + r))
    assert hash(p * q) == hash(q * p)
    rebuilt = type(p)(dict(p.terms()))
    assert rebuilt == p and hash(rebuilt) == hash(p)


@settings(deadline=None)
@given(BIVARIATE, UNIVARIATE, st.lists(NAMES, min_size=2, max_size=2, unique=True))
def test_json_round_trip_with_any_names(b, u, names):
    xname, yname = names
    for p, obj, back in (
        (b, b.to_json(), BivariatePoly.from_json),
        (b, b.to_json(xname=xname, yname=yname),
         lambda o: BivariatePoly.from_json(o, xname=xname, yname=yname)),
        (u, u.to_json(), UnivariatePoly.from_json),
        (u, u.to_json(name=xname), lambda o: UnivariatePoly.from_json(o, name=xname)),
    ):
        assert back(json.loads(json.dumps(obj))) == p
    assert all(term.keys() == {xname, "c"} for term in u.to_json(name=xname)["terms"])


@settings(deadline=None)
@given(UNIVARIATE, st.integers(-6, 6))
def test_divmod_linear_reconstructs(p, a):
    q, r = p.divmod_linear(a)
    assert q * UnivariatePoly({1: 1, 0: -a}) + UnivariatePoly({0: r}) == p
    assert r == p.evaluate(a)


@settings(deadline=None)
@given(st.dictionaries(st.integers(0, 8), st.integers(), max_size=8))
def test_classes_never_mix(terms):
    """The two classes share one store shape, {(i, j): c} with j = 0 for a
    univariate polynomial; a polynomial of one class never equals one of the
    other, and arithmetic across them raises TypeError."""
    u = UnivariatePoly(terms)
    b = BivariatePoly({(d, 0): c for d, c in terms.items()})
    assert u != b and b != u and not u == b
    with pytest.raises(TypeError):
        u + b
    with pytest.raises(TypeError):
        b - u
    with pytest.raises(TypeError):
        u * b



def _all_ints(p):
    return all(type(x) is int for (i, j), c in p._terms.items() for x in (i, j, c))


@settings(deadline=None)
@given(
    st.one_of(st.fractions(), st.integers(), st.floats(-1e6, 1e6),  # floats whose products stay exact
              st.sampled_from([float("nan"), float("inf"), "3"])),
    st.integers(0, 4),
    st.integers(0, 4),
)
def test_non_integral_values_are_refused_not_truncated(c, i, j):
    """Constructors and scale() store a coefficient or exponent that equals
    an integer (an integral Fraction or float) as that int, and refuse any
    other value (a fraction, nan, inf, a string) instead of
    truncating or parsing it."""
    try:
        n = int(c) if not isinstance(c, str) else None
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is not None and n == c:
        made = [(BivariatePoly({(i, j): c}), BivariatePoly({(i, j): n})),
                (UnivariatePoly({i: c}), UnivariatePoly({i: n})),
                (BivariatePoly({(i, j): 3}).scale(c), BivariatePoly({(i, j): 3 * n}))]
        if n >= 0:
            made += [(BivariatePoly({(c, j): 1}), BivariatePoly({(n, j): 1})),
                     (UnivariatePoly({c: 1}), UnivariatePoly({n: 1}))]
        for got, want in made:
            assert got == want and _all_ints(got)
        return
    for make in (lambda: BivariatePoly({(i, j): c}), lambda: UnivariatePoly({i: c}),
                 lambda: BivariatePoly({(i, j): 1}).scale(c), lambda: UnivariatePoly({i: 1}).scale(c),
                 lambda: BivariatePoly({(c, j): 1}), lambda: UnivariatePoly({c: 1})):
        with pytest.raises(InvalidInput):
            make()


def test_scale_by_a_half_no_longer_truncates():
    with pytest.raises(InvalidInput):
        BivariatePoly({(0, 0): 3}).scale(Fraction(1, 2))
    assert BivariatePoly({(0, 0): 4}).scale(Fraction(1, 2)) == BivariatePoly({(0, 0): 2})
    with pytest.raises(InvalidInput):
        BivariatePoly({(1.5, 0): 2})
    with pytest.raises(InvalidInput):
        UnivariatePoly({2: Fraction(7, 2)})


@settings(deadline=None)
@given(BIVARIATE, st.integers(-4, 4), st.integers(-4, 4))
def test_evaluate_at_ints_is_the_exact_int(p, x, y):
    """At ints the value is an int, equal to the value at the same points
    as Fractions."""
    got = p.evaluate(x, y)
    assert type(got) is int and got == p.evaluate(Fraction(x), Fraction(y))
