"""Exact scalar fields: the rationals and prime fields GF(p).

Elements are plain Python objects (Fraction for Q, int in range(p) for
GF(p)); the field object supplies the arithmetic so that linear-algebra code
can stay generic.
"""
from __future__ import annotations

import re
from fractions import Fraction

from .errors import InvalidField, quote


class RationalField:
    name = "Q"

    zero = Fraction(0)
    one = Fraction(1)

    def of(self, x):
        """Coerce an int, Fraction, or 'a/b' string to a field element."""
        if isinstance(x, bool) or isinstance(x, float):
            raise InvalidField(f"rational entries must be exact, got {quote(x)}")
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        if isinstance(x, str):
            # Fraction expands an exponent: "1e10000000" takes seconds
            if "e" in x or "E" in x:
                raise InvalidField(f"rational {quote(x)} has an exponent; write it as a/b")
            try:
                return Fraction(x)
            except (ValueError, ZeroDivisionError) as exc:
                raise InvalidField(f"cannot parse rational {quote(x)}") from exc
        raise InvalidField(f"cannot coerce {quote(x)} into Q")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return 1 / a

    def is_zero(self, a):
        return a == 0

    def to_str(self, a):
        return str(a)

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")


# Deterministic Miller-Rabin with these bases is exact below 3.3 * 10^24,
# which covers every modulus below MODULUS_LIMIT.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MODULUS_LIMIT = 1 << 64


def _is_prime(p):
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class PrimeField:
    def __init__(self, p: int):
        if type(p) is not int or p >= MODULUS_LIMIT or not _is_prime(p):
            raise InvalidField(f"GF({quote(p)}): modulus must be a prime below 2^64")
        self.p = p
        self.name = f"GF({p})"
        self.zero = 0
        self.one = 1 % p

    def of(self, x):
        if isinstance(x, bool) or not isinstance(x, int):
            raise InvalidField(f"GF({self.p}) entries must be integers, got {quote(x)}")
        return x % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.p})")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def to_str(self, a):
        return str(a % self.p)

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = RationalField()

# 20 digits reach past 2^64, so int() never sees a longer string
_GF_RE = re.compile(r"^GF\((\d{1,20})\)$")


def field_from_name(name: str):
    """Parse 'Q' or 'GF(p)' into a field object."""
    if name == "Q":
        return QQ
    m = _GF_RE.match(name.strip()) if isinstance(name, str) else None
    if m:
        return PrimeField(int(m.group(1)))
    raise InvalidField(f"unknown field {quote(name)} (expected 'Q' or 'GF(p)', p < 2^64)")
