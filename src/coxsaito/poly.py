"""Sparse multivariate polynomials with exact scalar coefficients.

A polynomial is a dict mapping exponent tuples to nonzero coefficients
(Fraction or Quad, fixed per ring).  Rings carry a variable list, an
optional quadratic discriminant d, and a weight vector used for weighted
gradings (invariant rings have weights deg p_i; coordinate rings use all
ones).  Zero is the empty dict; canonical term order is graded reverse
lexicographic.  Every sum of products, a single product included, is one
`dot`: it runs over integer numerators, brings every pair to one common
denominator, accumulates all products into one dict and normalizes each
output coefficient once.  `Substitution` (the map x_i -> images[i]) is
the one substitution loop: it builds each monomial's image once and keeps
it for later polynomials, and every pullback, reflection action,
embedding and evaluation runs through it.  `Poly.reduce` (division by a
list of polynomials) is the one division loop: single division, Groebner
normal forms and univariate gcds all run through it.  It too runs over
integer numerators, over one denominator that grows only when a leading
coefficient does not divide, computes each exponent's sort key once, and
normalizes each output coefficient once.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd
from operator import add, ge, sub

from .scalars import Quad, coerce, integer_parts, scalar_from_json, scalar_to_json


def grevlex_key(exp):
    """Sort key; max() of these over a support picks the grevlex leading term."""
    return (sum(exp), tuple(-e for e in reversed(exp)))


def wgrevlex_key(weights):
    """Weighted-degree-first variant for weighted rings."""

    def key(exp):
        return (sum(w * e for w, e in zip(weights, exp)), grevlex_key(exp))

    return key


class _KeyCache(dict):
    """Exponent -> sort key, each key computed once on first lookup."""

    __slots__ = ("key",)

    def __init__(self, key):
        super().__init__()
        self.key = key

    def __missing__(self, exp):
        k = self[exp] = self.key(exp)
        return k


class PolyRing:
    """Shared context: variable names, coefficient field, grading weights."""

    __slots__ = ("names", "d", "weights", "_mons", "_key")

    def __init__(self, names, d=None, weights=None):
        self.names = tuple(names)
        self.d = d
        self.weights = tuple(weights) if weights else (1,) * len(self.names)
        if len(self.weights) != len(self.names):
            raise ValueError("weight vector length mismatch")
        self._mons = {}
        if all(w == 1 for w in self.weights):
            self._key = grevlex_key
        else:
            self._key = wgrevlex_key(self.weights)

    @property
    def n(self):
        return len(self.names)

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

    def term_key(self, exp):
        return self._key(exp)

    def coeff(self, c):
        return coerce(c, self.d)

    def zero(self):
        return Poly(self, {})

    def one(self):
        return self.const(1)

    def const(self, c):
        c = self.coeff(c)
        if not c:
            return Poly(self, {})
        return Poly(self, {(0,) * self.n: c})

    def gen(self, i):
        e = [0] * self.n
        e[i] = 1
        return Poly(self, {tuple(e): self.coeff(1)})

    def gens(self):
        return [self.gen(i) for i in range(self.n)]

    def from_dict(self, terms):
        out = {}
        for e, c in terms.items():
            c = self.coeff(c)
            if c:
                out[tuple(e)] = c
        return Poly(self, out)

    def linear_form(self, coeffs):
        """Sum of coeffs[i] * x_i."""
        out = {}
        for i, c in enumerate(coeffs):
            c = self.coeff(c)
            if c:
                e = [0] * self.n
                e[i] = 1
                out[tuple(e)] = c
        return Poly(self, out)

    def wdeg(self, exp):
        return sum(w * e for w, e in zip(self.weights, exp))

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
        out.sort(key=self._key, reverse=True)
        result = tuple(out)
        self._mons[wdegree] = result
        return result


class Poly:
    """Immutable-by-convention sparse polynomial over a PolyRing."""

    __slots__ = ("ring", "t")

    def __init__(self, ring, terms):
        self.ring = ring
        self.t = terms

    # -- arithmetic -------------------------------------------------------

    def _check(self, other):
        if self.ring != other.ring:
            raise ValueError("polynomial context mismatch")

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = self.ring.const(other)
        self._check(other)
        out = dict(self.t)
        for e, c in other.t.items():
            s = out.get(e)
            if s is None:
                out[e] = c
            else:
                s = s + c
                if s:
                    out[e] = s
                else:
                    del out[e]
        return Poly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {e: -c for e, c in self.t.items()})

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
        c = self.ring.coeff(c)
        if not c:
            return self.ring.zero()
        return Poly(self.ring, {e: k * c for e, k in self.t.items()})

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
        if isinstance(other, Poly):
            return self.ring == other.ring and self.t == other.t
        return self.t == self.ring.const(other).t

    def __bool__(self):
        return bool(self.t)

    # -- structure --------------------------------------------------------

    def deg(self):
        """Total degree in the plain grading; -1 for the zero polynomial."""
        if not self.t:
            return -1
        return max(sum(e) for e in self.t)

    def wdeg(self):
        """Weighted degree; -1 for zero."""
        if not self.t:
            return -1
        wd = self.ring.wdeg
        return max(wd(e) for e in self.t)

    def whomog_degree(self):
        """Weighted degree if weighted-homogeneous, else None."""
        if not self.t:
            return None
        wd = self.ring.wdeg
        it = iter(self.t)
        d = wd(next(it))
        for e in it:
            if wd(e) != d:
                return None
        return d

    def is_constant(self):
        return not self.t or self.t.keys() == {(0,) * self.ring.n}

    def constant_value(self):
        if not self.t:
            return self.ring.coeff(0)
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return next(iter(self.t.values()))

    def coeff_of(self, exp):
        return self.t.get(tuple(exp), self.ring.coeff(0))

    def linear_coeffs(self):
        """Coefficients of the degree-one monomials x_i (the linear part)."""
        n = self.ring.n
        out = [self.ring.coeff(0)] * n
        for i in range(n):
            e = [0] * n
            e[i] = 1
            c = self.t.get(tuple(e))
            if c is not None:
                out[i] = c
        return out

    def leading(self):
        """(exponent, coefficient) of the leading term."""
        if not self.t:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.t, key=self.ring.term_key)
        return e, self.t[e]

    def monic(self):
        _, c = self.leading()
        return self.scale(1 / c) if c != 1 else self

    def primitive(self):
        """Rescale by a rational so coefficients are coprime integers (both
        components, in quadratic contexts) and the leading one is positive."""
        if not self.t:
            return self
        den, nums = integer_parts(self.t, self.ring.d)
        parts = nums.values()
        if self.ring.d is not None:
            parts = chain.from_iterable(parts)
        scaled = self.scale(Fraction(den, gcd(*parts)))
        _, lead = scaled.leading()
        lead_sign = lead.a if isinstance(lead, Quad) else lead
        if lead_sign < 0 or (lead_sign == 0 and lead.b < 0):
            scaled = -scaled
        return scaled

    def sorted_terms(self):
        key = self.ring.term_key
        return sorted(self.t.items(), key=lambda it: key(it[0]), reverse=True)

    # -- calculus and substitution -----------------------------------------

    def diff(self, i):
        if not 0 <= i < self.ring.n:
            raise IndexError("variable index out of range")
        out = {}
        for e, c in self.t.items():
            k = e[i]
            if k:
                e2 = e[:i] + (k - 1,) + e[i + 1 :]
                c2 = c * k
                s = out.get(e2)
                out[e2] = c2 if s is None else s + c2
        return Poly(self.ring, {e: c for e, c in out.items() if c})

    def grad(self):
        return [self.diff(i) for i in range(self.ring.n)]

    def subst(self, images):
        """Ring homomorphism sending x_i to images[i] (all in one target ring)."""
        return Substitution(images, images[0].ring if images else self.ring)(self)

    # -- division ----------------------------------------------------------

    def reduce(self, divisors):
        """Division by a list of polynomials: (quotients, r) with
        self = sum(q_i * g_i) + r.  Each term, leading first, is reduced by
        the first divisor whose leading term divides it, so no term of r is
        divisible by any leading term.

        The loop runs over integer numerators.  With self = F/D and each
        g_i = G_i/D_i (`integer_parts`), it keeps D*self = sum(Q_i*G_i) + R + W
        for the work W; a step divides W's leading numerator by G_i's leading
        numerator L, and when that quotient is not integral it first
        multiplies D, W, R and every Q_i by the least s that makes it so.
        Over Q(sqrt d), c/L is c*conj(L)/N with N = L*conj(L) in Z."""
        ring = self.ring
        d = ring.d
        keys = _KeyCache(ring.term_key)
        leads = []
        for g in divisors:
            if not g:
                raise ZeroDivisionError("division by the zero polynomial")
            self._check(g)
            dg, nums = integer_parts(g.t, d)
            lead = max(nums, key=keys.__getitem__)
            lc = nums.pop(lead)
            norm = lc if d is None else lc[0] * lc[0] - d * lc[1] * lc[1]
            leads.append((lead, lc, norm, dg, list(nums.items())))
        den, work = integer_parts(self.t, d)
        if d is not None:
            work = {e: list(x) for e, x in work.items()}
        qs = [{} for _ in divisors]
        r = {}
        parts = (work, r, *qs)

        def rescale(s):
            # multiply every numerator and the common denominator by s
            nonlocal den
            den *= s
            for nums in parts:
                if d is None:
                    for e, x in nums.items():
                        nums[e] = x * s
                else:
                    for x in nums.values():
                        x[0] *= s
                        x[1] *= s

        get = work.get
        while work:
            e = max(work, key=keys.__getitem__)
            c = work.pop(e)
            for (lead, lc, norm, _, rest), q in zip(leads, qs):
                if all(map(ge, e, lead)):
                    break
            else:
                r[e] = c
                continue
            # every exponent leaves the work dict once, so qe is new to q
            qe = tuple(map(sub, e, lead))
            if d is None:
                if c % norm:
                    s = abs(norm) // gcd(norm, c)
                    rescale(s)
                    c *= s
                qc = c // norm
                q[qe] = qc
                for e2, x2 in rest:
                    e3 = tuple(map(add, qe, e2))
                    x = get(e3)
                    if x is None:
                        work[e3] = -qc * x2
                    else:
                        x -= qc * x2
                        if x:
                            work[e3] = x
                        else:
                            del work[e3]
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
            q[qe] = [qa, qb]
            dqb = d * qb
            for e2, (ga, gb) in rest:
                e3 = tuple(map(add, qe, e2))
                x = get(e3)
                if x is None:
                    work[e3] = [-qa * ga - dqb * gb, -qa * gb - qb * ga]
                else:
                    x[0] -= qa * ga + dqb * gb
                    x[1] -= qa * gb + qb * ga
                    if not (x[0] or x[1]):
                        del work[e3]

        def poly(nums, m=1):
            # the coefficients m*x/den, each built once
            if d is None:
                return Poly(ring, {e: Fraction(x * m, den) for e, x in nums.items()})
            return Poly(
                ring,
                {
                    e: Quad(Fraction(x * m, den), Fraction(y * m, den), d)
                    for e, (x, y) in nums.items()
                },
            )

        return [poly(q, dg) for q, (_, _, _, dg, _) in zip(qs, leads)], poly(r)

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
        terms = [
            {"exp": list(e), "coeff": scalar_to_json(c)}
            for e, c in self.sorted_terms()
        ]
        field = {} if self.ring.d is None else {"d": self.ring.d}
        out = {"vars": list(self.ring.names), "field": field, "terms": terms}
        if any(w != 1 for w in self.ring.weights):
            out["weights"] = list(self.ring.weights)
        return out

    @staticmethod
    def from_json(obj, ring=None):
        """The polynomial obj records, in the ring it declares; a ring given
        must be that ring (ValueError otherwise)."""
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
        terms = {}
        for t in obj["terms"]:
            exp = tuple(t["exp"])
            if len(exp) != ring.n or not all(type(k) is int and k >= 0 for k in exp):
                raise ValueError(f"malformed exponent {t['exp']!r}")
            terms[exp] = scalar_from_json(t["coeff"], d=ring.d)
        return ring.from_dict(terms)

    def __repr__(self):
        if not self.t:
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


class Substitution:
    """The map x_i -> images[i], the one substitution loop: pullbacks,
    reflection actions, embeddings and evaluations all run through it.

    The image of each monomial is built once, from the image of the
    monomial with its last exponent lowered, and kept for every later
    polynomial.  Into a target ring, a polynomial's image is one `dot` of
    (coefficient, monomial image) pairs.  With target None the images are
    scalars and the map evaluates: the value is the sum of coefficient
    times monomial value, so rational coordinates stay plain `int` or
    `Fraction`, whose products with a coefficient cost less than products
    of two Quads."""

    __slots__ = ("images", "target", "_mons")

    def __init__(self, images, target):
        self.images = tuple(images)
        self.target = target
        self._mons = {}

    def monomial(self, e):
        """The image of the monomial with exponent e."""
        got = self._mons.get(e)
        if got is None:
            last = max((i for i, k in enumerate(e) if k), default=None)
            if last is None:
                got = 1 if self.target is None else self.target.one()
            else:
                lower = e[:last] + (e[last] - 1,) + e[last + 1 :]
                got = self.monomial(lower) * self.images[last]
            self._mons[e] = got
        return got

    def __call__(self, f):
        if f.ring.n != len(self.images):
            raise ValueError("substitution image count mismatch")
        mon = self.monomial
        if self.target is None:
            return sum((c * mon(e) for e, c in f.t.items()), f.ring.coeff(0))
        const = self.target.const
        return dot(((const(c), mon(e)) for e, c in f.t.items()), self.target)


def _is_one(c):
    return c == 1


def dot(pairs, ring):
    """Sum of a*b over the pairs (a, b) of polynomials of ring, the one
    product loop.  Every product is added into one dict of integer
    numerators (pairs (A, B) over Q(sqrt d)) over one common denominator,
    the lcm of the products of the operands' denominators (`integer_parts`),
    widened pair by pair so that no pair's numerators are held beyond its
    turn; each output coefficient is normalized once.  Pairs with a zero
    operand are skipped; an operand from another ring raises ValueError."""
    d = ring.d
    den = 1
    out = {}
    get = out.get
    for a, b in pairs:
        for p in (a, b):
            if p.ring is not ring and p.ring != ring:
                raise ValueError("polynomial context mismatch")
        if not (a.t and b.t):
            continue
        da, na = integer_parts(a.t, d)
        db, nb = integer_parts(b.t, d)
        if len(na) > len(nb):
            na, nb = nb, na
        s = da * db
        r = s // gcd(den, s)
        if r > 1:
            # widen the common denominator to lcm(den, s)
            den *= r
            for e, x in out.items():
                if d is None:
                    out[e] = x * r
                else:
                    x[0] *= r
                    x[1] *= r
        m = den // s
        if d is None:
            for e1, x1 in na.items():
                x1 *= m
                for e2, x2 in nb.items():
                    e = tuple(map(add, e1, e2))
                    out[e] = get(e, 0) + x1 * x2
            continue
        for e1, (a1, b1) in na.items():
            a1 *= m
            b1 *= m
            db1 = d * b1
            for e2, (a2, b2) in nb.items():
                e = tuple(map(add, e1, e2))
                x = get(e)
                if x is None:
                    out[e] = [a1 * a2 + db1 * b2, a1 * b2 + b1 * a2]
                else:
                    x[0] += a1 * a2 + db1 * b2
                    x[1] += a1 * b2 + b1 * a2
    if d is None:
        return Poly(ring, {e: Fraction(x, den) for e, x in out.items() if x})
    return Poly(
        ring,
        {
            e: Quad(Fraction(x, den), Fraction(y, den), d)
            for e, (x, y) in out.items()
            if x or y
        },
    )


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
    if len(u.t) > len(f.t):
        u, f = f, u
    acc = u.ring.coeff(0)
    for e, c in u.t.items():
        c2 = f.t.get(e)
        if c2 is not None:
            acc = acc + c * c2
    return acc
