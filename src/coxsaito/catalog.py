"""Construction of the finite Coxeter groups in the catalog.

Each type is realized by explicit simple roots and a Gram matrix over Q or
a real quadratic field: A(l) in the l coordinates x_1..x_l of the sum-zero
hyperplane (so its Gram matrix is not the identity), B/D/F4 in standard
orthonormal coordinates, and the dihedral and H types in the basis of
simple roots.  The roots are the orbit of the simple roots under the
simple reflections, and the group order is the orbit size of a point on
no mirror; both orbits are searched over integer numerators, each vector
keyed by its numerators over its least common denominator, so that equal
vectors have equal keys, and raise once they outgrow the group order.
Points off finitely many hyperplanes are searched on the moment curve
(`moment_points`), as far as a bound set by the hyperplane count.  The
arrangement polynomial is the product of one linear form per mirror.  The
basic invariants are built from classical formulas, from power sums over
the mirrors (F, H and the even dihedral types) or from orbit sums at
points of the moment curve (the odd dihedral types), and checked
homogeneous of the type's degrees and invariant under each simple
reflection (one `Substitution` x -> M x per reflection, shared by every
invariant).  By Steinberg's theorem their Jacobian determinant is then
c times the arrangement polynomial once the exponents sum to the mirror
count, and `_assemble` takes c from the values of both at one point on no
mirror; a nonzero c certifies the invariants as basic.  A product is
assembled from its factor datums (`build_product`, which moves each
factor's invariants to its own variables by substitution), memoized ones
under `build_datum`.  Every datum is built and certified this way: a
fixture (`datum_to_json`) is written, never read back.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, count, islice
from math import factorial, gcd, prod

from .engine import solve_linear
from .poly import Poly, PolyRing, Substitution, dot, product
from .polymatrix import jacobian
from .scalars import Quad, integer_parts, invert, scalar_to_json


class UnsupportedTypeError(ValueError):
    pass


def _phi():
    # golden ratio, the basic irrationality of the H types
    return Quad(Fraction(1, 2), Fraction(1, 2), 5)


# squared cosines of pi/k for the supported dihedral orders, exact
_COS2 = {
    3: Fraction(1, 4),
    4: Fraction(1, 2),
    5: lambda: Quad(Fraction(3, 8), Fraction(1, 8), 5),
    6: Fraction(3, 4),
    8: lambda: Quad(Fraction(1, 2), Fraction(1, 4), 2),
    10: lambda: Quad(Fraction(5, 8), Fraction(1, 8), 5),
    12: lambda: Quad(Fraction(1, 2), Fraction(1, 4), 3),
}
_DIHEDRAL_FIELD = {3: None, 4: None, 5: 5, 6: None, 8: 2, 10: 5, 12: 3}


@dataclass
class CoxeterDatum:
    name: str
    rank: int
    ring: PolyRing
    gram: list  # inner product matrix G on V, rows of scalars
    gram_dual: list  # Gamma = G^{-1}, the paper-facing Gram matrix
    simple_roots: list
    roots: list  # one representative per mirror
    mirror_forms: list  # normalized linear forms, one per mirror
    delta: Poly
    degrees: list
    group_order: int
    invariants: list
    jac_const: object  # det J = jac_const * delta
    p_ring: PolyRing
    irreducible: bool
    factors: list = field(default_factory=list)  # (datum, var offset) pairs

    @property
    def exponents(self):
        return [w - 1 for w in self.degrees]

    @property
    def coxeter_number(self):
        return max(self.degrees)

    @property
    def mirror_count(self):
        return len(self.mirror_forms)

    def inner(self, u, v):
        acc = self.ring.coeff(0)
        for i in range(self.rank):
            for j in range(self.rank):
                if u[i] and v[j]:
                    acc = acc + u[i] * self.gram[i][j] * v[j]
        return acc


# ---------------------------------------------------------------------------
# scalar matrix helpers


def _mat_vec(mat, vec, zero):
    return [sum((mat[i][j] * vec[j] for j in range(len(vec))), zero) for i in range(len(mat))]


def _mat_inv(mat, zero, one):
    n = len(mat)
    eqs = [
        ({j: c for j, c in enumerate(row) if c}, [one if i == k else zero for k in range(n)])
        for i, row in enumerate(mat)
    ]
    cols = solve_linear(eqs, n, n)
    return [[cols[k].get(i, zero) for k in range(n)] for i in range(n)]


def _reflection_matrix(gram, alpha, d):
    """Matrix of the reflection in the mirror orthogonal to alpha."""
    zero = Fraction(0) if d is None else Quad(0, 0, d)
    one = Fraction(1) if d is None else Quad(1, 0, d)
    n = len(alpha)
    g_alpha = _mat_vec(gram, alpha, zero)
    norm = sum((alpha[i] * g_alpha[i] for i in range(n)), zero)
    scale = 2 / norm
    return tuple(
        tuple(
            (one if i == j else zero) - alpha[i] * scale * g_alpha[j]
            for j in range(n)
        )
        for i in range(n)
    )


def _integer_rows(mat, d):
    """(E, rows): the matrix as integer numerators over one denominator E,
    acting on the integer keys of `_orbit`.  Over Q(sqrt d) an entry
    (a + b sqrt d)/E acts on a coordinate (A + B sqrt d)/D as the block
    [[a, d b], [b, a]] on (A, B).  A row lists (key index, numerator) for
    its nonzero entries."""
    n = len(mat)
    den, nums = integer_parts({(i, j): c for i, row in enumerate(mat) for j, c in enumerate(row)}, d)
    if d is None:
        rows = [[(j + 1, nums[i, j]) for j in range(n)] for i in range(n)]
    else:
        rows = []
        for i in range(n):
            rows.append([(2 * j + 1, nums[i, j][0]) for j in range(n)]
                        + [(2 * j + 2, d * nums[i, j][1]) for j in range(n)])
            rows.append([(2 * j + 1, nums[i, j][1]) for j in range(n)]
                        + [(2 * j + 2, nums[i, j][0]) for j in range(n)])
    return den, [[(k, c) for k, c in row if c] for row in rows]


def _orbit(seeds, gens, zero, order):
    """The seed vectors and every image under repeated v -> g v, g in gens,
    in breadth-first order of discovery, as tuples of scalars like zero.
    The search runs on integer keys, in which equal vectors are equal: over
    Q (D, n_1, ..., n_r) for (n_1, ..., n_r)/D, over Q(sqrt d)
    (D, A_1, B_1, ..., A_r, B_r) for ((A_i + B_i sqrt d)/D)_i, D the least
    positive common denominator.  Past len(seeds) * order vectors, more than
    the seeds' orbits under a group of that order hold, it raises."""
    d = zero.d if isinstance(zero, Quad) else None
    maps = [_integer_rows(g, d) for g in gens]
    seen = {}
    for v in seeds:
        # over the least common denominator, the key is already reduced
        den, nums = integer_parts(dict(enumerate(v)), d)
        seen[(den, *(nums.values() if d is None else chain.from_iterable(nums.values())))] = None
    limit = len(seeds) * order
    frontier = list(seen)
    while frontier:
        if len(seen) > limit:
            raise RuntimeError(f"orbit exceeds {limit} vectors")
        new = []
        for x in frontier:
            for den, rows in maps:
                nums = [sum(c * x[k] for k, c in row) for row in rows]
                den *= x[0]
                g = gcd(den, *nums)
                y = (den // g, *(n // g for n in nums))
                if y not in seen:
                    seen[y] = None
                    new.append(y)
        frontier = new
    if d is None:
        return [tuple(Fraction(n, k[0]) for n in k[1:]) for k in seen]
    return [
        tuple(Quad(Fraction(k[i], k[0]), Fraction(k[i + 1], k[0]), d) for i in range(1, len(k), 2))
        for k in seen
    ]


def moment_points(n):
    """The points (k, k^2, ..., k^n), k = 1, 2, ..., of the moment curve.
    A hyperplane through the origin holds at most n - 1 of them: its form
    at the k-th point is k times a nonzero polynomial in k of degree below
    n.  So among the first m(n - 1) + 1 points one lies on none of m
    hyperplanes."""
    return ([k**i for i in range(1, n + 1)] for k in count(1))


def _regular_point(forms, ring):
    """(x0, evaluation at x0, the forms' values at x0) for the first point
    x0 of the moment curve on no mirror."""
    for c in islice(moment_points(ring.n), len(forms) * (ring.n - 1) + 1):
        point = [ring.coeff(k) for k in c]
        at = Substitution(ring, point, None)
        values = [at(f) for f in forms]
        if all(values):
            return point, at, values
    raise RuntimeError("a mirror form vanishes on the whole space")


def _group_order(gens, point, ring, order):
    """|W| as the orbit size of a point on no mirror, such as
    `_regular_point`'s: it lies in an open chamber, and W acts simply
    transitively on the chambers, so its stabilizer is trivial.  order
    bounds the orbit search."""
    return len(_orbit([point], gens, ring.coeff(0), order))


def _normalize_direction(vec):
    lead = next(c for c in vec if c)
    inv = 1 / lead
    return tuple(c * inv for c in vec)


def _mirror_forms(ring, gram, roots):
    """The normalized linear form (G r) . x of the mirror of each root r."""
    zero = ring.coeff(0)
    return [ring.linear_form(_normalize_direction(_mat_vec(gram, list(r), zero))) for r in roots]


def _linear_map(ring, mat):
    """The substitution x -> M x on polynomials on V."""
    return Substitution(ring, [ring.linear_form(row) for row in mat], ring)


# ---------------------------------------------------------------------------
# per-type data


def _elementary_symmetric(values, ring):
    """All elementary symmetric polynomials e_1..e_n of the given polys."""
    es = [ring.one()]
    for v in values:
        nxt = [es[0]]
        for k in range(1, len(es) + 1):
            prev = es[k] if k < len(es) else ring.zero()
            nxt.append(prev + es[k - 1] * v)
        es = nxt
    return es[1:]


def _type_data(tag, param):
    """(rank, d, gram rows, simple roots, degrees) for one irreducible type."""
    if tag == "A":
        l = param
        gram = [[Fraction(1 if i == j else 0) + 1 for j in range(l)] for i in range(l)]
        roots = []
        for i in range(l - 1):
            r = [Fraction(0)] * l
            r[i], r[i + 1] = Fraction(1), Fraction(-1)
            roots.append(r)
        last = [Fraction(0)] * l
        last[l - 1] = Fraction(1)
        roots.append(last)
        return l, None, gram, roots, list(range(2, l + 2))
    if tag in ("B", "D"):
        l = param
        gram = [[Fraction(1 if i == j else 0) for j in range(l)] for i in range(l)]
        roots = []
        for i in range(l - 1):
            r = [Fraction(0)] * l
            r[i], r[i + 1] = Fraction(1), Fraction(-1)
            roots.append(r)
        last = [Fraction(0)] * l
        if tag == "B":
            last[l - 1] = Fraction(1)
            degrees = [2 * i for i in range(1, l + 1)]
        else:
            last[l - 2] = last[l - 1] = Fraction(1)
            degrees = sorted([2 * i for i in range(1, l)] + [l])
        roots.append(last)
        return l, None, gram, roots, degrees
    if tag == "F":
        gram = [[Fraction(1 if i == j else 0) for j in range(4)] for i in range(4)]
        half = Fraction(1, 2)
        roots = [
            [Fraction(0), Fraction(1), Fraction(-1), Fraction(0)],
            [Fraction(0), Fraction(0), Fraction(1), Fraction(-1)],
            [Fraction(0), Fraction(0), Fraction(0), Fraction(1)],
            [half, -half, -half, -half],
        ]
        return 4, None, gram, roots, [2, 6, 8, 12]
    if tag == "H":
        l = param
        d = 5
        phi = _phi()
        two = Quad(2, 0, 5)
        mone = Quad(-1, 0, 5)
        zero = Quad(0, 0, 5)
        gram = [[zero] * l for _ in range(l)]
        for i in range(l):
            gram[i][i] = two
        gram[0][1] = gram[1][0] = -phi
        for i in range(1, l - 1):
            gram[i][i + 1] = gram[i + 1][i] = mone
        roots = []
        for i in range(l):
            r = [zero] * l
            r[i] = Quad(1, 0, 5)
            roots.append(r)
        degrees = [2, 6, 10] if l == 3 else [2, 12, 20, 30]
        return l, d, gram, roots, degrees
    if tag == "I2":
        k = param
        d = _DIHEDRAL_FIELD[k]
        cos2 = _COS2[k]
        if callable(cos2):
            cos2 = cos2()

        def mk(x):
            return Fraction(x) if d is None else Quad(Fraction(x), 0, d)

        g22 = invert(cos2 * 2)
        if d is not None and not isinstance(g22, Quad):
            g22 = Quad(g22, 0, d)
        gram = [[mk(2), mk(-1)], [mk(-1), g22]]
        roots = [[mk(1), mk(0)], [mk(0), mk(1)]]
        return 2, d, gram, roots, [2, k]
    raise UnsupportedTypeError(f"unknown type tag {tag!r}")


EXPECTED_ORDER = {
    "A": lambda l: factorial(l + 1),
    "B": lambda l: 2**l * factorial(l),
    "D": lambda l: 2 ** (l - 1) * factorial(l),
    "I2": lambda k: 2 * k,
    "H": lambda l: 120 if l == 3 else 14400,
    "F": lambda _l: 1152,
}


# ---------------------------------------------------------------------------
# invariants


def _invariants_for(tag, param, ring, datum_stub):
    """Candidate basic invariants of the prescribed degrees."""
    l = datum_stub["rank"]
    degrees = datum_stub["degrees"]
    gram = datum_stub["gram"]
    x = ring.gens()

    def quadratic():
        return dot([(x[i].scale(gram[i][j]), x[j]) for i in range(l) for j in range(l)], ring)

    if tag == "A":
        ys = list(x) + [-sum(x[1:], x[0])]
        es = _elementary_symmetric(ys, ring)
        return [quadratic()] + es[2 : l + 1]
    if tag == "B":
        sq = [xi * xi for xi in x]
        return _elementary_symmetric(sq, ring)
    if tag == "D":
        ps = []
        for k in range(1, l):
            acc = ring.zero()
            for xi in x:
                acc = acc + xi ** (2 * k)
            ps.append(acc.scale(Fraction(1, 2 * k)))
        prod = product(x, ring)
        out = ps[:1]
        mids = sorted(
            [(p.deg(), 1, p) for p in ps[1:]] + [(l, 0, prod)], key=lambda t: (t[0], t[1])
        )
        return out + [p for _, _, p in mids]
    zero = ring.coeff(0)
    forms = [ring.linear_form(_mat_vec(gram, list(r), zero)) for r in datum_stub["mirror_roots"]]

    def power_sum(k):
        # the sum over every root of its form to the even power k: r and -r
        # give the same term, so it is twice one sum over the mirrors, a
        # factor that .primitive() removes
        halves = [f ** (k // 2) for f in forms]
        return dot([(h, h) for h in halves], ring)

    if tag in ("F", "H"):
        return [quadratic()] + [power_sum(k) for k in degrees[1:]]
    if tag == "I2":
        k = param
        if k % 2 == 0:
            acc = power_sum(k)
            if acc:
                return [quadratic(), acc]
        # lambda o w has coefficient vector w^t c, so the orbit of c under the
        # transposed generators gives the group sum of lambda^k divided by
        # |Stab(c)|, a factor that .primitive() removes.  As c varies the
        # sum is a nonzero form of degree k in c, so it vanishes at no more
        # than k points of the moment curve
        transposed = [tuple(zip(*g)) for g in datum_stub["generators"]]
        for c in islice(moment_points(2), k + 1):
            acc = ring.zero()
            for v in _orbit([[ring.coeff(t) for t in c]], transposed, ring.coeff(0), 2 * k):
                acc = acc + ring.linear_form(v) ** k
            if acc:
                return [quadratic(), acc]
        raise RuntimeError(f"I2({k}): no orbit sum of degree {k} is nonzero")
    raise UnsupportedTypeError(tag)


# ---------------------------------------------------------------------------
# datum assembly


_TYPE_RE = re.compile(r"^([A-Z])(\d+)$|^I2\((\d+)\)$")


def parse_type(name):
    """Split a type string like 'A3', 'I2(5)' or 'B2xA1' into factors."""
    factors = []
    for part in name.split("x"):
        part = part.strip()
        m = _TYPE_RE.match(part)
        if not m:
            raise UnsupportedTypeError(f"cannot parse Coxeter type {part!r}")
        if m.group(3) is not None:
            k = int(m.group(3))
            if k not in _COS2:
                raise UnsupportedTypeError(
                    f"I2({k}) is outside the supported catalog, whose dihedral "
                    f"orders are {', '.join(map(str, _COS2))}"
                )
            factors.append(("I2", k))
            continue
        tag, num = m.group(1), int(m.group(2))
        if tag == "E":
            raise UnsupportedTypeError(
                "E-type groups are outside the supported catalog"
            )
        if tag == "G" and num == 2:
            factors.append(("I2", 6))
            continue
        if tag == "A" and num >= 1:
            factors.append(("A", num))
        elif tag == "B" and num >= 2:
            factors.append(("B", num))
        elif tag == "C" and num >= 2:
            factors.append(("B", num))
        elif tag == "D" and num >= 3:
            factors.append(("D", num))
        elif tag == "H" and num in (3, 4):
            factors.append(("H", num))
        elif tag == "F" and num == 4:
            factors.append(("F", 4))
        else:
            raise UnsupportedTypeError(f"unsupported Coxeter type {part!r}")
    return factors


def canonical_name(factors):
    bits = []
    for tag, param in factors:
        bits.append(f"I2({param})" if tag == "I2" else f"{tag}{param}")
    return "x".join(bits)


def _build_irreducible(tag, param):
    """The datum of one irreducible type: its group order, found by orbit
    search from the `_regular_point` x0, checked against the classical order
    and the degrees; its classical invariants, checked homogeneous of the
    type's degrees and fixed by every simple reflection; then `_assemble`
    at the same x0."""
    rank, d, gram, simple_roots, degrees = _type_data(tag, param)
    ring = PolyRing([f"x{i+1}" for i in range(rank)], d=d)
    gram = [[ring.coeff(c) for c in row] for row in gram]
    simple_roots = [[ring.coeff(c) for c in r] for r in simple_roots]
    gens = [_reflection_matrix(gram, a, d) for a in simple_roots]
    expected = EXPECTED_ORDER[tag](param)

    all_roots = _orbit(simple_roots, gens, ring.coeff(0), expected)
    mirrors = {}
    for r in all_roots:
        mirrors.setdefault(_normalize_direction(r), r)
    mirror_roots = list(mirrors.values())
    exps = [w - 1 for w in degrees]
    h = max(degrees)
    for i in range(rank):
        if exps[i] + exps[rank - 1 - i] != h:
            raise RuntimeError(f"{tag}{param}: exponent symmetry broken")

    forms = _mirror_forms(ring, gram, mirror_roots)
    point, at, values = _regular_point(forms, ring)
    order = _group_order(gens, point, ring, expected)
    if order != expected:
        raise RuntimeError(
            f"{tag}{param}: group has order {order}, expected {expected}"
        )
    order_from_degrees = 1
    for w in degrees:
        order_from_degrees *= w
    if order_from_degrees != expected:
        raise RuntimeError(f"{tag}{param}: degree product != group order")

    stub = {
        "rank": rank,
        "degrees": degrees,
        "gram": gram,
        "mirror_roots": mirror_roots,
        "generators": gens,
    }
    invariants = [p.primitive() for p in _invariants_for(tag, param, ring, stub)]
    if [p.whomog_degree() for p in invariants] != degrees:
        raise RuntimeError(f"{tag}{param}: invariants are not homogeneous of degrees {degrees}")
    reflections = [_linear_map(ring, g) for g in gens]
    for p in invariants:
        if any(s(p) != p for s in reflections):
            raise RuntimeError(f"{tag}{param}: candidate invariant not invariant")

    return _assemble(
        canonical_name([(tag, param)]), ring, gram, simple_roots, mirror_roots,
        forms, at, values, degrees, order, invariants,
    )


def build_product(parts):
    """The product datum of the factor datums parts, which it holds as its
    factors."""
    fields = {p.ring.d for p in parts} - {None}
    if len(fields) > 1:
        raise UnsupportedTypeError("product mixes incompatible quadratic fields")
    rank = sum(p.rank for p in parts)
    ring = PolyRing([f"x{i+1}" for i in range(rank)], d=next(iter(fields), None))
    zero = ring.coeff(0)

    gram = []
    simple_roots = []
    mirror_roots = []
    invariants = []
    degrees = []
    order = 1
    factor_list = []
    offset = 0
    for p in parts:
        left, right = [zero] * offset, [zero] * (rank - offset - p.rank)

        def embed(vecs):
            return [left + [ring.coeff(c) for c in v] + right for v in vecs]

        gram += embed(p.gram)  # block diagonal
        simple_roots += embed(p.simple_roots)
        mirror_roots += embed(p.roots)
        images = ring.gens()[offset : offset + p.rank]  # x_i -> x_(offset+i)
        invariants += [q.subst(images) for q in p.invariants]
        degrees += p.degrees
        order *= p.group_order
        factor_list.append((p, offset))
        offset += p.rank

    forms = _mirror_forms(ring, gram, mirror_roots)
    _point, at, values = _regular_point(forms, ring)
    return _assemble(
        "x".join(p.name for p in parts), ring, gram, simple_roots, mirror_roots,
        forms, at, values, degrees, order, invariants, factor_list,
    )


def _assemble(name, ring, gram, simple_roots, roots, forms, at, values, degrees, order,
              invariants, factors=()):
    """The datum, with det J = c * delta for a nonzero constant c certified
    by Steinberg's theorem (Humphreys, Reflection Groups and Coxeter Groups,
    3.13).  The caller has checked that the invariants are homogeneous of
    the given degrees and fixed by W.  By the chain rule det J is then
    anti-invariant, so it vanishes on every mirror and each mirror form
    divides it; the forms are pairwise non-proportional, so delta divides
    it.  When sum(d_i - 1) is the mirror count N, checked here, both have
    degree N, so det J = c * delta with c = det J(x0) / delta(x0) at the
    `_regular_point` x0, whose evaluation at and mirror-form values the
    caller passes, and c != 0 makes the invariants algebraically
    independent.  J is evaluated at x0 and never expanded."""
    n_exp = sum(degrees) - len(degrees)
    if n_exp != len(forms):
        raise RuntimeError(f"{name}: exponent sum {n_exp} != mirror count {len(forms)}")
    det = jacobian(invariants, ring).map(lambda p: ring.const(at(p))).det().constant_value()
    if not det:
        raise RuntimeError(f"{name}: invariants are algebraically dependent")
    return CoxeterDatum(
        name=name,
        rank=ring.n,
        ring=ring,
        gram=gram,
        gram_dual=_mat_inv(gram, ring.coeff(0), ring.coeff(1)),
        simple_roots=simple_roots,
        roots=roots,
        mirror_forms=forms,
        delta=product(forms, ring),
        degrees=degrees,
        group_order=order,
        invariants=invariants,
        jac_const=det / prod(values),
        p_ring=PolyRing([f"p{i+1}" for i in range(ring.n)], d=ring.d, weights=degrees),
        irreducible=not factors,
        factors=list(factors),
    )


_DATUM_CACHE = {}


def build_datum(name):
    """Build (and memoize) the full datum for a type string like 'B3'."""
    factors = parse_type(name)
    key = canonical_name(factors)
    got = _DATUM_CACHE.get(key)
    if got is None:
        if len(factors) == 1:
            got = _build_irreducible(*factors[0])
        else:
            got = build_product([build_datum(canonical_name([f])) for f in factors])
        _DATUM_CACHE[key] = got
    return got


# ---------------------------------------------------------------------------
# operators on the datum


def stabilizer_components(datum, point):
    """Mirrors through the point, grouped into components of the graph with
    edges where the roots are not orthogonal."""
    at = Substitution(datum.ring, [datum.ring.coeff(v) for v in point], None)
    vanishing = [idx for idx, form in enumerate(datum.mirror_forms) if not at(form)]
    parent = {i: i for i in vanishing}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a_pos, i in enumerate(vanishing):
        for j in vanishing[a_pos + 1 :]:
            if datum.inner(datum.roots[i], datum.roots[j]):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    comps = {}
    for i in vanishing:
        comps.setdefault(find(i), []).append(i)
    return sorted(comps.values(), key=len)


# ---------------------------------------------------------------------------
# fixtures


def datum_to_json(datum):
    return {
        "type": datum.name,
        "rank": datum.rank,
        "field": {} if datum.ring.d is None else {"d": datum.ring.d},
        "degrees": datum.degrees,
        "group_order": datum.group_order,
        "gram": [[scalar_to_json(c) for c in row] for row in datum.gram],
        "gram_dual": [[scalar_to_json(c) for c in row] for row in datum.gram_dual],
        "simple_roots": [[scalar_to_json(c) for c in r] for r in datum.simple_roots],
        "roots": [[scalar_to_json(c) for c in r] for r in datum.roots],
        "delta": datum.delta.to_json(),
        "invariants": [p.to_json() for p in datum.invariants],
        "jac_const": scalar_to_json(datum.jac_const),
    }


def save_fixture(datum, path):
    with open(path, "w") as fh:
        json.dump(datum_to_json(datum), fh, indent=1, sort_keys=True)
        fh.write("\n")
