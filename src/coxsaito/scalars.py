"""Exact scalar arithmetic over Q and real quadratic fields Q(sqrt d).

Every coefficient in this package is either a `Fraction` (rational
contexts) or a `Quad` (quadratic contexts).  A Quad is a + b*sqrt(d) with
rational a, b and a fixed non-square d > 1; arithmetic is exact and the
result is always in reduced form.  Values are immutable and hashable, so
they can be shared freely between threads and used as dict keys.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


class Quad:
    """An element a + b*sqrt(d) of the real quadratic field Q(sqrt d)."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d):
        self.a = a if type(a) is Fraction else Fraction(a)
        self.b = b if type(b) is Fraction else Fraction(b)
        self.d = d

    # -- ring/field operations ------------------------------------------

    def __add__(self, other):
        if isinstance(other, Quad):
            if other.d != self.d:
                raise ValueError("mixed quadratic fields")
            return Quad(self.a + other.a, self.b + other.b, self.d)
        return Quad(self.a + other, self.b, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Quad(-self.a, -self.b, self.d)

    def __mul__(self, other):
        if isinstance(other, Quad):
            if other.d != self.d:
                raise ValueError("mixed quadratic fields")
            return Quad(
                self.a * other.a + self.b * other.b * self.d,
                self.a * other.b + self.b * other.a,
                self.d,
            )
        return Quad(self.a * other, self.b * other, self.d)

    __rmul__ = __mul__

    def inverse(self):
        n = self.a * self.a - self.b * self.b * self.d
        if n == 0:
            raise ZeroDivisionError("scalar inverse of zero")
        return Quad(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        if isinstance(other, Quad):
            return self * other.inverse()
        if other == 0:
            raise ZeroDivisionError("scalar inverse of zero")
        return Quad(self.a / other, self.b / other, self.d)

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = Quad(1, 0, self.d)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self):
        return Quad(self.a, -self.b, self.d)

    # -- comparisons ------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Quad):
            return self.d == other.d and self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __hash__(self):
        # rational Quads hash like their rational value
        if not self.b:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __repr__(self):
        if not self.b:
            return str(self.a)
        if not self.a:
            return f"{self.b}*sqrt({self.d})"
        return f"({self.a}{'+' if self.b > 0 else ''}{self.b}*sqrt({self.d}))"


def conjugate(x):
    """Field conjugation a + b*sqrt(d) -> a - b*sqrt(d); identity on Q."""
    return x.conjugate() if isinstance(x, Quad) else x


def invert(x):
    """Exact multiplicative inverse; raises ZeroDivisionError on 0."""
    if isinstance(x, Quad):
        return x.inverse()
    x = Fraction(x)
    if x == 0:
        raise ZeroDivisionError("scalar inverse of zero")
    return 1 / x


def integer_parts(coeffs, d):
    """(D, {key: numerators}) with every value of the dict coeffs over one
    common denominator D: one int per key over Q (d None), the pair (A, B)
    for (A + B*sqrt(d))/D over Q(sqrt d)."""
    if d is None:
        den = lcm(*(c.denominator for c in coeffs.values()))
        return den, {k: c.numerator * (den // c.denominator) for k, c in coeffs.items()}
    den = lcm(*(q.denominator for c in coeffs.values() for q in (c.a, c.b)))
    return den, {
        k: (c.a.numerator * (den // c.a.denominator), c.b.numerator * (den // c.b.denominator))
        for k, c in coeffs.items()
    }


def coerce(x, d=None):
    """Coerce a number into the scalar field tagged by d (None = Q)."""
    if d is None:
        if isinstance(x, Quad):
            if x.b:
                raise ValueError("quadratic scalar in a rational context")
            return x.a
        return x if type(x) is Fraction else Fraction(x)
    if isinstance(x, Quad):
        if x.d != d:
            raise ValueError("mixed quadratic fields")
        return x
    return Quad(Fraction(x), 0, d)


# -- serialization --------------------------------------------------------
#
# Scalars serialize as decimal strings so arbitrary precision survives a
# round trip: {"a": ["num", "den"], "b": ["num", "den"], "d": 5}.
# Rational values omit "b" and "d".


def _frac_to_json(q):
    return [str(q.numerator), str(q.denominator)]


def _frac_from_json(pair):
    return Fraction(int(pair[0]), int(pair[1]))


def scalar_to_json(x):
    if isinstance(x, Quad):
        if x.b:
            return {"a": _frac_to_json(x.a), "b": _frac_to_json(x.b), "d": x.d}
        x = x.a
    return {"a": _frac_to_json(Fraction(x))}


def _ints_from_json(pair):
    num, den = int(pair[0]), int(pair[1])
    if not den:
        raise ZeroDivisionError("zero denominator")
    return (num, den) if den > 0 else (-num, -den)


def parts_from_json(obj, d=None):
    """(D, x): the scalar obj records, taken into the field tagged by d with
    the checks of `coerce`, as the numerator x over D (an int over Q, the
    pair (A, B) for (A + B*sqrt(d))/D over Q(sqrt d)), with no Fraction
    built."""
    a, da = _ints_from_json(obj["a"])
    if "b" not in obj:
        return da, (a if d is None else (a, 0))
    b, db = _ints_from_json(obj["b"])
    field = obj["d"]
    if d is None:
        if b:
            raise ValueError("quadratic scalar in a rational context")
        return da, a
    if field != d:
        raise ValueError("mixed quadratic fields")
    den = lcm(da, db)
    return den, (a * (den // da), b * (den // db))


def scalar_from_json(obj, d=None):
    a = _frac_from_json(obj["a"])
    if "b" in obj:
        return Quad(a, _frac_from_json(obj["b"]), obj["d"])
    if d is not None:
        return Quad(a, 0, d)
    return a
