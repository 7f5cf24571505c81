"""Sparse exact polynomials with stable JSON encoding.

Coefficients are Python ints (arbitrary precision); JSON carries them as
decimal strings so nothing downstream has to trust 53-bit floats. Terms are
serialized leading terms first (descending exponent tuples), which makes
output byte-stable across runs. Both classes share one sparse core that
stores {(i, j): c}; a univariate polynomial keeps j = 0.
"""
from __future__ import annotations

from .errors import InvalidInput


def _coeff_from_str(s):
    if isinstance(s, int) and not isinstance(s, bool):
        return s
    if isinstance(s, str):
        try:
            return int(s, 10)
        except ValueError as exc:
            raise InvalidInput(f"bad coefficient string {s!r}") from exc
    raise InvalidInput(f"coefficient must be an int or decimal string, got {s!r}")


def _integral(x):
    """x as an int when it equals one (a bool, an integral Fraction or
    float); anything else raises InvalidInput instead of being truncated."""
    try:
        n = int(x)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != x:
        raise InvalidInput(f"polynomial coefficients and exponents must be integers, got {x!r}")
    return n


class _SparsePoly:
    """The store {(i, j): c} over Z, zero coefficients never stored, and the
    arithmetic, equality and JSON loop of both polynomial classes."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        t = {}
        for key, c in (terms or {}).items():
            if c:
                i, j = key
                if type(i) is not int or type(j) is not int or type(c) is not int:
                    i, j, c = _integral(i), _integral(j), _integral(c)
                if i < 0 or j < 0:
                    raise InvalidInput("exponents must be nonnegative")
                t[i, j] = c
        self._terms = t

    @classmethod
    def _new(cls, terms):
        """A polynomial of this class on the store {(i, j): c}."""
        p = object.__new__(cls)
        _SparsePoly.__init__(p, terms)
        return p

    @classmethod
    def zero(cls):
        return cls()

    def terms(self):
        """Sorted ((i, j), c) pairs."""
        return sorted(self._terms.items())

    def is_zero(self):
        return not self._terms

    # Both classes share the store's key shape, so mixing them is refused
    # here: a univariate and a bivariate operand raise TypeError.
    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        t = dict(self._terms)
        for k, c in other._terms.items():
            t[k] = t.get(k, 0) + c
        return self._new(t)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        t = dict(self._terms)
        for k, c in other._terms.items():
            t[k] = t.get(k, 0) - c
        return self._new(t)

    def __mul__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        t = {}
        for (i1, j1), c1 in self._terms.items():
            for (i2, j2), c2 in other._terms.items():
                k = (i1 + i2, j1 + j2)
                t[k] = t.get(k, 0) + c1 * c2
        return self._new(t)

    def scale(self, c):
        return self._new({k: c * v for k, v in self._terms.items()})

    def evaluate(self, x, y):
        """The exact value at (x, y): an int at ints, else a Fraction."""
        if type(x) is not int or type(y) is not int:
            from fractions import Fraction

            x, y = Fraction(x), Fraction(y)
        return sum(c * x**i * y**j for (i, j), c in self._terms.items())

    def __eq__(self, other):
        return type(other) is type(self) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def _repr(self, names, reverse):
        bits = (
            str(c) + "".join(f"*{n}^{e}" for n, e in zip(names, k) if e)
            for k, c in sorted(self._terms.items(), reverse=reverse)
        )
        return " + ".join(bits) or "0"

    def _encode(self, names):
        # one name (univariate) leaves out the stored j = 0
        terms = sorted(self._terms.items(), reverse=True)
        return {"terms": [dict(zip(names, k), c=str(c)) for k, c in terms]}

    @classmethod
    def _decode(cls, obj, names):
        if not isinstance(obj, dict) or not isinstance(obj.get("terms"), list):
            raise InvalidInput("polynomial JSON must be {'terms': [...]}")
        t = {}
        for entry in obj["terms"]:
            if not isinstance(entry, dict):
                raise InvalidInput("polynomial term must be an object")
            try:
                key = tuple(entry[n] for n in names)
            except KeyError as exc:
                raise InvalidInput(f"term missing exponent key {exc}") from exc
            if any(not isinstance(e, int) or isinstance(e, bool) for e in key):
                raise InvalidInput("exponents must be integers")
            if key in t:
                raise InvalidInput(f"duplicate term for exponents {key}")
            t[key] = _coeff_from_str(entry.get("c"))
        return cls._new({(k + (0,))[:2]: c for k, c in t.items()})


class BivariatePoly(_SparsePoly):
    """Z[x, y] with a dict {(i, j): c}, zero coefficients never stored."""

    __slots__ = ()

    __add__ = _SparsePoly.__add__  # bound per class, so a tracer can wrap one class
    __sub__ = _SparsePoly.__sub__
    __mul__ = _SparsePoly.__mul__

    @classmethod
    def monomial(cls, i, j, c=1):
        return cls({(i, j): c})

    def coeff(self, i, j):
        return self._terms.get((i, j), 0)

    def total_degree(self):
        return max((i + j for i, j in self._terms), default=0)

    def degree_x(self):
        return max((i for i, _ in self._terms), default=0)

    def degree_y(self):
        return max((j for _, j in self._terms), default=0)

    def shift(self, dx, dy):
        """Multiply by x^dx y^dy."""
        return self._new({(i + dx, j + dy): c for (i, j), c in self._terms.items()})

    def __repr__(self):
        return self._repr("xy", reverse=False)

    def to_json(self, xname="x", yname="y"):
        return self._encode((xname, yname))

    @classmethod
    def from_json(cls, obj, xname="x", yname="y"):
        return cls._decode(obj, (xname, yname))


class UnivariatePoly(_SparsePoly):
    """Z[u] with a dict {deg: c}, zero coefficients never stored."""

    __slots__ = ()

    __add__ = _SparsePoly.__add__
    __sub__ = _SparsePoly.__sub__
    __mul__ = _SparsePoly.__mul__

    def __init__(self, terms=None):
        super().__init__({(d, 0): c for d, c in (terms or {}).items()})

    @classmethod
    def monomial(cls, d, c=1):
        return cls({d: c})

    def terms(self):
        return [(d, c) for (d, _), c in sorted(self._terms.items())]

    def coeff(self, d):
        return self._terms.get((d, 0), 0)

    def degree(self):
        """Degree, with the convention that the zero polynomial has -1."""
        return max((d for d, _ in self._terms), default=-1)

    def evaluate(self, u):
        return super().evaluate(u, 0)

    def divmod_linear(self, root):
        """Quotient and remainder on division by (u - root), root an int.

        Synthetic division; remainder is the value at `root`.
        """
        q, b = {}, 0
        for d in range(self.degree(), 0, -1):
            b = q[d - 1] = self.coeff(d) + root * b
        return UnivariatePoly(q), self.coeff(0) + root * b

    def __repr__(self):
        return self._repr("u", reverse=True)

    def to_json(self, name="u"):
        return self._encode((name,))

    @classmethod
    def from_json(cls, obj, name="u"):
        return cls._decode(obj, (name,))
