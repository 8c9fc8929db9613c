"""Sparse multivariate polynomials with exact scalar coefficients.

A polynomial holds one exact form: a positive integer denominator D and a
dict `num` from packed monomial keys to integer numerators, one int per
term over Q, the pair (A, B) for (A + B*sqrt(d))/D over Q(sqrt d).  Rings
carry a variable list, an optional quadratic discriminant d, and a weight
vector used for weighted gradings (invariant rings have weights deg p_i;
coordinate rings use all ones).  Zero is the empty dict.

A key packs the exponent vector e into fixed-width fields, from the top:
the weighted degree, the degree, e_1+...+e_{n-1}, ..., e_1.  Packing is
linear, so adding two keys multiplies the monomials, and integer order on
keys is the ring's term order, (weighted) graded reverse lexicographic.  A
key whose weighted degree does not fit its field raises ValueError.
`Poly.t` is a read-only view of the coefficients (Fraction or Quad, fixed
per ring) under exponent tuples, built the first time it is read; nothing
on the arithmetic paths reads it.

Every sum of products, a single product and a sum included, is one `dot`:
it brings every pair to one common denominator and accumulates all
products into one dict of numerators, a key addition per monomial
product.  `Substitution` (the map x_i -> images[i]) is the one
substitution loop: it builds each monomial's image once and keeps it for
later polynomials, and every pullback, reflection action, embedding and
evaluation runs through it.  `Poly.reduce` (division by a list of
polynomials) is the one division loop: single division, Groebner normal
forms and univariate gcds all run through it, over one denominator that
grows only when a leading coefficient does not divide.  Results leave
these loops over the least common denominator (`_reduced`), but equality
cross-multiplies, so a form over a larger one compares correctly.
`Poly.to_json` prints straight from the form: one gcd of each numerator
with the denominator gives the reduced fraction, with no scalar built.
It builds a polynomial's JSON once and hands the same object to every
later call, so every payload that records one polynomial shares one
object, which the report writer encodes once.
`homogeneous_parts` splits a polynomial by the degree field of its keys.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain
from math import gcd, lcm
from operator import ge, mul, sub
from struct import Struct
from types import MappingProxyType

from .scalars import Quad, coerce, integer_parts, parts_from_json

FIELD_BITS = 16  # width of each packed key field


@cache
def _packing(weights):
    """(units, limit, field struct) of the keys of the rings with these
    weights.  x_i adds w_i to the weighted degree (top field, n) and 1 to
    every prefix sum e_1+...+e_k with k > i (fields i..n-1; field n-1 is
    the degree), so every field is at most the top one."""
    n = len(weights)
    units = tuple(
        (w << FIELD_BITS * n) + sum(1 << FIELD_BITS * f for f in range(i, n))
        for i, w in enumerate(weights)
    )
    return units, 1 << FIELD_BITS * (n + 1), Struct(f"<{n + 1}H")


class PolyRing:
    """Shared context: variable names, coefficient field, grading weights,
    and the packing of exponent vectors into keys."""

    __slots__ = ("names", "n", "d", "weights", "_mons", "units", "_limit", "_fields")

    def __init__(self, names, d=None, weights=None):
        self.names = tuple(names)
        self.n = len(self.names)
        self.d = d
        self.weights = tuple(weights) if weights else (1,) * self.n
        if len(self.weights) != self.n:
            raise ValueError("weight vector length mismatch")
        if not all(type(w) is int and w > 0 for w in self.weights):
            raise ValueError("grading weights must be positive integers")
        self._mons = {}
        self.units, self._limit, self._fields = _packing(self.weights)

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.names == other.names
            and self.d == other.d
            and self.weights == other.weights
        )

    def __hash__(self):
        return hash((self.names, self.d, self.weights))

    def __repr__(self):
        field = "Q" if self.d is None else f"Q(sqrt{self.d})"
        return f"PolyRing({','.join(self.names)}; {field})"

    # -- packed keys ------------------------------------------------------

    def pack(self, exp):
        """The key of the monomial with exponent vector exp."""
        if len(exp) != self.n:
            raise ValueError(f"exponent {tuple(exp)!r} has the wrong length")
        k = sum(map(mul, exp, self.units))
        if not 0 <= k < self._limit:
            raise ValueError(f"exponent {tuple(exp)!r} overflows the packed key")
        return k

    def unpack(self, k):
        """The exponent vector of the key k."""
        s = self._fields.unpack(k.to_bytes(self._fields.size, "little"))[:-1]
        return tuple(map(sub, s, (0, *s[:-1])))

    # -- constructors -----------------------------------------------------

    def coeff(self, c):
        return coerce(c, self.d)

    def zero(self):
        return Poly(self, 1, {})

    def one(self):
        return Poly(self, 1, {0: 1 if self.d is None else (1, 0)})

    def const(self, c):
        return self.from_packed({0: c})

    def gen(self, i):
        return Poly(self, 1, {self.units[i]: 1 if self.d is None else (1, 0)})

    def gens(self):
        return [self.gen(i) for i in range(self.n)]

    def from_dict(self, terms):
        """The sum of c * x^e over the items (e, c) of terms."""
        return self.from_packed({self.pack(e): c for e, c in terms.items()})

    def from_packed(self, terms):
        """The sum of c times the monomial of key k over the items (k, c)."""
        coeffs = {}
        for k, c in terms.items():
            c = self.coeff(c)
            if c:
                coeffs[k] = c
        if not coeffs:
            return self.zero()
        den, num = integer_parts(coeffs, self.d)
        return Poly(self, den, num)

    def linear_form(self, coeffs):
        """Sum of coeffs[i] * x_i."""
        return self.from_packed(dict(zip(self.units, coeffs)))

    def monomials(self, wdegree):
        """All exponent tuples of the given weighted degree, ordered."""
        if wdegree < 0:
            return ()
        cached = self._mons.get(wdegree)
        if cached is not None:
            return cached
        out = []
        exp = [0] * self.n

        def rec(i, rem):
            if i == self.n - 1:
                w = self.weights[i]
                if rem % w == 0:
                    exp[i] = rem // w
                    out.append(tuple(exp))
                    exp[i] = 0
                return
            w = self.weights[i]
            for e in range(rem // w + 1):
                exp[i] = e
                rec(i + 1, rem - w * e)
            exp[i] = 0

        if self.n:
            rec(0, wdegree)
        elif wdegree == 0:
            out.append(())
        out.sort(key=self.pack, reverse=True)
        result = tuple(out)
        self._mons[wdegree] = result
        return result


def _reduced(ring, den, num):
    """Poly(ring, den, num) with den and every numerator divided by their gcd."""
    if not num:
        return Poly(ring, 1, num)
    if den > 1:
        g = gcd(den, *(num.values() if ring.d is None else chain.from_iterable(num.values())))
        if g > 1:
            den //= g
            if ring.d is None:
                num = {k: x // g for k, x in num.items()}
            else:
                num = {k: (a // g, b // g) for k, (a, b) in num.items()}
    return Poly(ring, den, num)


class Poly:
    """Immutable-by-convention sparse polynomial over a PolyRing: the
    numerators num (key -> int, or key -> (A, B) over Q(sqrt d)) over the
    positive denominator den."""

    __slots__ = ("ring", "den", "num", "_t", "_json")

    def __init__(self, ring, den, num):
        self.ring = ring
        self.den = den
        self.num = num
        self._t = None
        self._json = None

    def _coeff(self, x):
        """The coefficient of numerator x."""
        if self.ring.d is None:
            return Fraction(x, self.den)
        return Quad(Fraction(x[0], self.den), Fraction(x[1], self.den), self.ring.d)

    @property
    def t(self):
        """Read-only view: exponent tuple -> nonzero coefficient."""
        if self._t is None:
            unpack, coeff = self.ring.unpack, self._coeff
            self._t = MappingProxyType({unpack(k): coeff(x) for k, x in self.num.items()})
        return self._t

    # -- arithmetic -------------------------------------------------------

    def _check(self, other):
        if self.ring != other.ring:
            raise ValueError("polynomial context mismatch")

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = self.ring.const(other)
        one = self.ring.one()
        return dot(((self, one), (other, one)), self.ring)

    __radd__ = __add__

    def __neg__(self):
        if self.ring.d is None:
            return Poly(self.ring, self.den, {k: -x for k, x in self.num.items()})
        return Poly(self.ring, self.den, {k: (-a, -b) for k, (a, b) in self.num.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = self.ring.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        return dot([(self, other)], self.ring)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        ring = self.ring
        c = ring.coeff(c)
        if not c:
            return ring.zero()
        d = ring.d
        cd, nums = integer_parts({0: c}, d)
        cx = nums[0]
        if d is None:
            return _reduced(ring, self.den * cd, {k: x * cx for k, x in self.num.items()})
        ca, cb = cx
        dcb = d * cb
        return _reduced(
            ring,
            self.den * cd,
            {k: (a * ca + b * dcb, a * cb + b * ca) for k, (a, b) in self.num.items()},
        )

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative polynomial power")
        out = self.ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            if n > 1:
                base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        """Equal numerators after cross-multiplying the denominators."""
        if not isinstance(other, Poly):
            other = self.ring.const(other)
        elif self.ring != other.ring:
            return False
        na, nb = self.num, other.num
        if na.keys() != nb.keys():
            return False
        da, db = self.den, other.den
        if da == db:
            return na == nb
        if self.ring.d is None:
            return all(x * db == nb[k] * da for k, x in na.items())
        return all(
            a * db == nb[k][0] * da and b * db == nb[k][1] * da for k, (a, b) in na.items()
        )

    def __bool__(self):
        return bool(self.num)

    # -- structure --------------------------------------------------------

    def _degrees(self):
        """The plain degree of each term, read off the degree field of its
        key, in the order of num."""
        s, mask = FIELD_BITS * max(self.ring.n - 1, 0), (1 << FIELD_BITS) - 1
        return [k >> s & mask for k in self.num]

    def deg(self):
        """Total degree in the plain grading; -1 for the zero polynomial."""
        return max(self._degrees(), default=-1)

    def homogeneous_parts(self):
        """{degree: the nonzero part of that plain degree}, each over this
        polynomial's denominator reduced."""
        parts = {}
        for e, (k, x) in zip(self._degrees(), self.num.items()):
            parts.setdefault(e, {})[k] = x
        return {e: _reduced(self.ring, self.den, nums) for e, nums in parts.items()}

    def whomog_degree(self):
        """Weighted degree if weighted-homogeneous, else None."""
        if not self.num:
            return None
        s = FIELD_BITS * self.ring.n
        top = max(self.num) >> s
        return top if min(self.num) >> s == top else None

    def is_constant(self):
        return not self.num or self.num.keys() == {0}

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.coeff_of((0,) * self.ring.n)

    def coeff_of(self, exp):
        x = self.num.get(self.ring.pack(exp))
        return self.ring.coeff(0) if x is None else self._coeff(x)

    def linear_coeffs(self):
        """Coefficients of the degree-one monomials x_i (the linear part)."""
        zero = self.ring.coeff(0)
        get = self.num.get
        return [zero if get(u) is None else self._coeff(get(u)) for u in self.ring.units]

    def leading(self):
        """(exponent, coefficient) of the leading term."""
        if not self.num:
            raise ValueError("zero polynomial has no leading term")
        k = max(self.num)
        return self.ring.unpack(k), self._coeff(self.num[k])

    def monic(self):
        _, c = self.leading()
        return self.scale(1 / c) if c != 1 else self

    def primitive(self):
        """Rescale by a rational so coefficients are coprime integers (both
        components, in quadratic contexts) and the leading one is positive."""
        num = self.num
        if not num:
            return self
        if self.ring.d is None:
            g = gcd(*num.values())
            if num[max(num)] < 0:
                g = -g
            return Poly(self.ring, 1, {k: x // g for k, x in num.items()})
        g = gcd(*chain.from_iterable(num.values()))
        a, b = num[max(num)]
        if (a or b) < 0:
            g = -g
        return Poly(self.ring, 1, {k: (a // g, b // g) for k, (a, b) in num.items()})

    def sorted_terms(self):
        """(exponent, coefficient) pairs, leading first."""
        unpack, num = self.ring.unpack, self.num
        return [(unpack(k), self._coeff(num[k])) for k in sorted(num, reverse=True)]

    # -- calculus and substitution -----------------------------------------

    def diff(self, i):
        ring = self.ring
        if not 0 <= i < ring.n:
            raise IndexError("variable index out of range")
        unit = ring.units[i]
        lo, hi = FIELD_BITS * (i - 1), FIELD_BITS * i
        mask = (1 << FIELD_BITS) - 1
        out = {}
        for k, x in self.num.items():
            # e_i is field i minus field i - 1 (zero below the first field)
            e = (k >> hi & mask) - (k >> lo & mask if i else 0)
            if e:
                out[k - unit] = x * e if ring.d is None else (x[0] * e, x[1] * e)
        return _reduced(ring, self.den, out)

    def grad(self):
        return [self.diff(i) for i in range(self.ring.n)]

    def subst(self, images):
        """Ring homomorphism sending x_i to images[i] (all in one target ring)."""
        return Substitution(self.ring, images, images[0].ring if images else self.ring)(self)

    # -- division ----------------------------------------------------------

    def reduce(self, divisors):
        """Division by a list of polynomials: (quotients, r) with
        self = sum(q_i * g_i) + r.  Each term, leading first, is reduced by
        the first divisor whose leading term divides it, so no term of r is
        divisible by any leading term.

        The loop runs over the integer forms.  With self = F/D and each
        g_i = G_i/D_i, it keeps D*self = sum(Q_i*G_i) + R + W for the work
        W; a step divides W's leading numerator by G_i's leading numerator
        L, and when that quotient is not integral it first multiplies D, W,
        R and every Q_i by the least s that makes it so.  Over Q(sqrt d),
        c/L is c*conj(L)/N with N = L*conj(L) in Z."""
        ring = self.ring
        d = ring.d
        unpack = ring.unpack
        leads = []
        for g in divisors:
            if not g:
                raise ZeroDivisionError("division by the zero polynomial")
            self._check(g)
            nums = dict(g.num)
            lead = max(nums)
            lc = nums.pop(lead)
            norm = lc if d is None else lc[0] * lc[0] - d * lc[1] * lc[1]
            leads.append((unpack(lead), lead, lc, norm, list(nums.items())))
        den = self.den
        if d is None:
            work = dict(self.num)
        else:
            work = {k: list(x) for k, x in self.num.items()}
        qs = [{} for _ in divisors]
        r = {}
        parts = (work, r, *qs)

        def rescale(s):
            # multiply every numerator and the common denominator by s
            nonlocal den
            den *= s
            for nums in parts:
                if d is None:
                    for k, x in nums.items():
                        nums[k] = x * s
                else:
                    for x in nums.values():
                        x[0] *= s
                        x[1] *= s

        get = work.get
        while work:
            k = max(work)
            c = work.pop(k)
            e = unpack(k)
            for (lexp, lead, lc, norm, rest), q in zip(leads, qs):
                if all(map(ge, e, lexp)):
                    break
            else:
                r[k] = c
                continue
            # every key leaves the work dict once, so qk is new to q
            qk = k - lead
            if d is None:
                if c % norm:
                    s = abs(norm) // gcd(norm, c)
                    rescale(s)
                    c *= s
                qc = c // norm
                q[qk] = qc
                for k2, x2 in rest:
                    k3 = qk + k2
                    x = get(k3)
                    if x is None:
                        work[k3] = -qc * x2
                    else:
                        x -= qc * x2
                        if x:
                            work[k3] = x
                        else:
                            del work[k3]
                continue
            la, lb = lc
            qa = c[0] * la - d * c[1] * lb
            qb = c[1] * la - c[0] * lb
            if qa % norm or qb % norm:
                s = abs(norm) // gcd(norm, qa, qb)
                rescale(s)
                qa *= s
                qb *= s
            qa //= norm
            qb //= norm
            q[qk] = [qa, qb]
            dqb = d * qb
            for k2, (ga, gb) in rest:
                k3 = qk + k2
                x = get(k3)
                if x is None:
                    work[k3] = [-qa * ga - dqb * gb, -qa * gb - qb * ga]
                else:
                    x[0] -= qa * ga + dqb * gb
                    x[1] -= qa * gb + qb * ga
                    if not (x[0] or x[1]):
                        del work[k3]

        def poly(nums, m=1):
            # the polynomial m*nums/den
            if d is None:
                return _reduced(ring, den, {k: x * m for k, x in nums.items()})
            return _reduced(ring, den, {k: (x * m, y * m) for k, (x, y) in nums.items()})

        return [poly(q, g.den) for q, g in zip(qs, divisors)], poly(r)

    def divmod_single(self, g):
        """Division by one polynomial: self = q*g + r, no term of r divisible
        by the leading term of g."""
        (q,), r = self.reduce([g])
        return q, r

    def exact_div(self, g):
        """Quotient self/g, raising ValueError if g does not divide exactly."""
        q, r = self.divmod_single(g)
        if r:
            raise ValueError("inexact polynomial division")
        return q

    def divisible_by(self, g):
        _, r = self.divmod_single(g)
        return not r

    # -- serialization ------------------------------------------------------

    def to_json(self):
        """The terms, leading first, each coefficient printed straight from
        its numerators over den as reduced fractions (one gcd per
        numerator), in the strings of `scalars.scalar_to_json`.  Built on
        the first call; every call returns that one object, which callers
        must not change."""
        if self._json is not None:
            return self._json
        d, den, num, unpack = self.ring.d, self.den, self.num, self.ring.unpack

        def frac(x):
            g = gcd(x, den)
            return [str(x // g), str(den // g)]

        terms = []
        for k in sorted(num, reverse=True):
            x = num[k]
            if d is None:
                coeff = {"a": frac(x)}
            elif x[1]:
                coeff = {"a": frac(x[0]), "b": frac(x[1]), "d": d}
            else:
                coeff = {"a": frac(x[0])}
            terms.append({"exp": list(unpack(k)), "coeff": coeff})
        field = {} if d is None else {"d": d}
        out = {"vars": list(self.ring.names), "field": field, "terms": terms}
        if any(w != 1 for w in self.ring.weights):
            out["weights"] = list(self.ring.weights)
        self._json = out
        return out

    @staticmethod
    def from_json(obj, ring=None):
        """The polynomial obj records, in the ring it declares; a ring given
        must be that ring, and no exponent may appear twice (ValueError
        otherwise)."""
        if not isinstance(obj, dict):
            raise ValueError(f"a polynomial is a JSON object, not {type(obj).__name__}")
        d = obj.get("field", {}).get("d")
        weights = obj.get("weights")
        if ring is None:
            ring = PolyRing(obj["vars"], d=d, weights=weights)
        elif (
            tuple(obj["vars"]) != ring.names
            or d != ring.d
            or (tuple(weights) if weights else (1,) * ring.n) != ring.weights
        ):
            raise ValueError(f"polynomial declares a ring other than {ring!r}")
        d, units = ring.d, ring.units
        terms = {}
        for t in obj["terms"]:
            exp = t["exp"]
            if len(exp) != ring.n or not all(type(k) is int and k >= 0 for k in exp):
                raise ValueError(f"malformed exponent {exp!r}")
            k = sum(map(mul, exp, units))
            if k >= ring._limit:
                raise ValueError(f"exponent {exp!r} overflows the packed key")
            if k in terms:
                raise ValueError(f"repeated exponent {exp!r}")
            terms[k] = parts_from_json(t["coeff"], d)
        if d is None:
            terms = {k: (den, x) for k, (den, x) in terms.items() if x}
        else:
            terms = {k: (den, x) for k, (den, x) in terms.items() if x[0] or x[1]}
        den = lcm(*(den for den, _ in terms.values()))
        if d is None:
            return _reduced(ring, den, {k: x * (den // m) for k, (m, x) in terms.items()})
        return _reduced(
            ring, den, {k: (a * (den // m), b * (den // m)) for k, (m, (a, b)) in terms.items()}
        )

    def __repr__(self):
        if not self.num:
            return "0"
        bits = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                f"{self.ring.names[i]}^{k}" if k > 1 else self.ring.names[i]
                for i, k in enumerate(e)
                if k
            )
            if mono:
                bits.append(f"({c})*{mono}" if not _is_one(c) else mono)
            else:
                bits.append(f"({c})")
        return " + ".join(bits)


def as_poly(obj, ring):
    """The polynomial obj holds: obj itself when it is already a Poly,
    which must lie in ring, else `Poly.from_json(obj, ring)`."""
    if isinstance(obj, Poly):
        if obj.ring is not ring and obj.ring != ring:
            raise ValueError(f"polynomial lies in a ring other than {ring!r}")
        return obj
    return Poly.from_json(obj, ring)


class Substitution:
    """The ring homomorphism from source sending x_i to images[i], the one
    substitution loop: pullbacks, reflection actions, embeddings and
    evaluations all run through it.

    The image of each monomial is built once, from the image of the
    monomial with its last exponent lowered, and kept, under its key, for
    every later polynomial.  A polynomial's image is one `dot` of
    (numerator over the polynomial's denominator, monomial image) pairs.
    With target None the images are scalars of the source's field and the
    map evaluates: it substitutes into the ring with no variables and
    returns the constant."""

    __slots__ = ("source", "images", "target", "_into", "_mons")

    def __init__(self, source, images, target):
        if len(images) != source.n:
            raise ValueError("substitution image count mismatch")
        self.source = source
        self.target = target
        self._into = target or PolyRing((), d=source.d)
        if target is None:
            images = [self._into.const(c) for c in images]
        self.images = tuple(images)
        self._mons = {}

    def monomial(self, e):
        """The image of the monomial with exponent e."""
        return self._image(self.source.pack(e))

    def _image(self, k):
        got = self._mons.get(k)
        if got is None:
            if not k:
                got = self._into.one()
            else:
                e = self.source.unpack(k)
                last = max(i for i, x in enumerate(e) if x)
                lower = self._image(k - self.source.units[last])
                got = dot([(lower, self.images[last])], self._into)
            self._mons[k] = got
        return got

    def __call__(self, f):
        if f.ring is not self.source and f.ring != self.source:
            raise ValueError("substitution applied outside its source ring")
        into = self._into
        nums = f.num.items()
        if f.ring.d != into.d:
            if f.ring.d is not None:
                raise ValueError("quadratic coefficients substituted into another field")
            nums = [(k, (x, 0)) for k, x in nums]
        den, image = f.den, self._image
        out = dot(((Poly(into, den, {0: x}), image(k)) for k, x in nums), into)
        return out if self.target is not None else out.constant_value()


def _is_one(c):
    return c == 1


def dot(pairs, ring):
    """Sum of a*b over the pairs (a, b) of polynomials of ring, the one
    product loop.  Every product is added into one dict of integer
    numerators over one common denominator, the lcm of the products of the
    operands' denominators, widened pair by pair so that no pair's
    numerators are held beyond its turn; a monomial product is one key
    addition.  Pairs with a zero operand are skipped; an operand from
    another ring raises ValueError, and so does a product whose key
    overflows."""
    d = ring.d
    den = 1
    out = {}
    get = out.get
    for a, b in pairs:
        for p in (a, b):
            if p.ring is not ring and p.ring != ring:
                raise ValueError("polynomial context mismatch")
        na, nb = a.num, b.num
        if not (na and nb):
            continue
        if len(na) > len(nb):
            na, nb = nb, na
        s = a.den * b.den
        r = s // gcd(den, s)
        if r > 1:
            # widen the common denominator to lcm(den, s)
            den *= r
            for k, x in out.items():
                if d is None:
                    out[k] = x * r
                else:
                    x[0] *= r
                    x[1] *= r
        m = den // s
        if d is None:
            for k1, x1 in na.items():
                x1 *= m
                for k2, x2 in nb.items():
                    k = k1 + k2
                    out[k] = get(k, 0) + x1 * x2
            continue
        for k1, (a1, b1) in na.items():
            a1 *= m
            b1 *= m
            db1 = d * b1
            for k2, (a2, b2) in nb.items():
                k = k1 + k2
                x = get(k)
                if x is None:
                    out[k] = [a1 * a2 + db1 * b2, a1 * b2 + b1 * a2]
                else:
                    x[0] += a1 * a2 + db1 * b2
                    x[1] += a1 * b2 + b1 * a2
    if not out:
        return ring.zero()
    # every field is at most the top one, so a sum that carried out of a
    # field also carried out of the top one, past the limit
    if max(out) >= ring._limit:
        raise ValueError("exponent overflows the packed key")
    if d is None:
        return _reduced(ring, den, {k: x for k, x in out.items() if x})
    return _reduced(ring, den, {k: (x, y) for k, (x, y) in out.items() if x or y})


def product(polys, ring=None):
    """Product of an iterable of polynomials (1 for empty input)."""
    polys = list(polys)
    if not polys:
        if ring is None:
            raise ValueError("empty product needs an explicit ring")
        return ring.one()
    acc = polys[0]
    for p in polys[1:]:
        acc = acc * p
    return acc


def poly_pairing(u, f):
    """Sum of u[e]*f[e] over monomials: the dual pairing used by
    non-membership functionals."""
    nu, nf = u.num, f.num
    if len(nu) > len(nf):
        nu, nf = nf, nu
    d = u.ring.d
    den = u.den * f.den
    if d is None:
        return Fraction(sum(x * nf[k] for k, x in nu.items() if k in nf), den)
    a = b = 0
    for k, (x, y) in nu.items():
        z = nf.get(k)
        if z is not None:
            a += x * z[0] + d * y * z[1]
            b += x * z[1] + y * z[0]
    return Quad(Fraction(a, den), Fraction(b, den), d)
