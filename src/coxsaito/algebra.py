"""Partial-normalization rings as explicit algebras.

The cokernel of J (arrangement side) or K (discriminant side) is realized
on the fractional generators h_i = m^i_l / m^l_l, certified by their
cross identities, which with the chain rule also make the arrangement-side
h_i invariant modulo delta (`verify_generators`); structure constants are
found by graded membership of minor products in the span of the last-row
minor products, modulo the defining equation.  Fiber point counts, the
rank of the trace form of the fiber algebra the multiplication table gives
at a point, are matched against the independent stabilizer decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice

from .catalog import moment_points, stabilizer_components
from .certs import (
    CheckFailure,
    constant_ratio,
    members,
    quotient,
    run_check,
    zero_combo_payload,
)
from .engine import back_substitute, echelon, rank_of_vectors, reduce_row
from .poly import Substitution, dot
from .polymatrix import jacobian
from .rankcond import ARRANGEMENT, MinorTable


@dataclass
class MulTable:
    side: str
    table: MinorTable
    numerators: list  # representatives of the fractional generators h_i
    constants: list  # constants[i][j] = list of l structure-constant polys

    @property
    def rank(self):
        return self.table.rank

    def numerator(self, i):
        return self.numerators[i]

    def denominator(self):
        return self.numerators[self.rank - 1]


def fraction_representatives(table):
    """Numerators n_i and denominator n_l = n of the fractions h_i = n_i/n.

    The denominator must be a nonzerodivisor modulo the defining equation.
    On the arrangement side single columns of the adjugate can land inside
    mirror hyperplanes, so the columns are combined by the first point c of
    the moment curve at which the last entry is nonzero and divisible by no
    mirror form.  Each of these N + 1 conditions (N mirrors) fails on a
    linear subspace, so (N + 1)(l - 1) + 1 points suffice unless one fails
    for every c, as when a mirror form divides the whole last row: then it
    raises RuntimeError.  On the discriminant side the corner minor
    generates the conductor and is already safe; it is also the only
    homogeneous choice since column degrees vary.
    """
    l = table.rank
    datum = table.datum
    M = table.minors
    if table.side != ARRANGEMENT:
        return [M[i, l - 1] for i in range(l)]

    def combine(i, c):
        return sum((M[i, j].scale(k) for j, k in enumerate(c)), datum.ring.zero())

    for c in islice(moment_points(l), (datum.mirror_count + 1) * (l - 1) + 1):
        den = combine(l - 1, c)
        if den and not any(den.divisible_by(f) for f in datum.mirror_forms):
            return [combine(i, c) for i in range(l - 1)] + [den]
    raise RuntimeError("no nonzerodivisor fraction representative: a mirror divides the last row")


def verify_generators(table):
    """Cross identities h_i m^l_j = m^i_j for every column j, as exact
    congruences modulo the defining equation; quotients recorded.

    On the arrangement side they also make each h_i = m^i_l / m^l_l
    invariant modulo delta, so no reflection is applied here.  Let g be the
    matrix of a simple reflection s, s(f)(x) = f(g x), and let the basic
    invariants satisfy p o g = p, which `catalog._build_irreducible`
    checks for every datum it builds.  The chain rule
    gives J(g x) g = J(x), so the adjugate M of J^t satisfies
    M(g x) = det(g)^-1 M(x) g^t and
    s(m^i_l) m^l_l - m^i_l s(m^l_l)
        = det(g)^-1 sum_k g_lk (m^i_k m^l_l - m^i_l m^l_k),
    where each bracket is -q_ik delta by the cross identity at (i, k)."""
    l = table.rank
    defining = table.defining

    def body():
        payload = []
        for i in range(l):
            for j in range(l):
                lhs = table.minors[i, l - 1] * table.minors[l - 1, j]
                rhs = table.minors[i, j] * table.minors[l - 1, l - 1]
                q = quotient(lhs - rhs, defining, f"cross identity fails at ({i+1},{j+1})")
                payload.append(
                    zero_combo_payload(
                        f"cross-{i+1}-{j+1}",
                        [
                            (table.minors[i, l - 1], table.minors[l - 1, j]),
                            (-table.minors[i, j], table.minors[l - 1, l - 1]),
                            (-q, defining),
                        ],
                    )
                )
        return {"unit_index": l}, payload

    name = "generators-A" if table.side == ARRANGEMENT else "generators-D"
    return run_check(name, table.datum.name, body)


def build_mul_table(table, mtD=None):
    """Structure constants h_i h_j = sum_k c^k_ij h_k modulo the defining
    equation.

    On the discriminant side they are solved by graded membership, one
    graded solve per degree class.  On the arrangement side they are pulled
    back from the discriminant-side table mtD through the type's pullback
    map `SaitoData.pull`: the two generator systems agree in the fraction
    ring, so the pulled-back constants satisfy the same congruences,
    certified here by exact division rather than by a solve.
    """
    l = table.rank
    ring = table.defining.ring
    nums = fraction_representatives(table)
    constants = [[None] * l for _ in range(l)]
    # the unit row is exact, no solve needed
    for j in range(l):
        row = [ring.zero()] * l
        row[j] = ring.one()
        constants[l - 1][j] = constants[j][l - 1] = row
    if table.side == ARRANGEMENT:
        found = _pulled_back_constants(table, nums, mtD)
    else:
        found = _solved_constants(table, nums)
    for (i, j), cs in found:
        constants[i][j] = constants[j][i] = cs
    return MulTable(side=table.side, table=table, numerators=nums, constants=constants)


def _solved_constants(table, nums):
    """Yields ((i, j), constants) for i <= j < l from
    graded membership of n_i n_j in the span of the n_k n and the defining
    equation."""
    l = table.rank
    den = nums[l - 1]
    gens = [nums[k] * den for k in range(l)] + [table.defining]
    pairs = [(i, j) for i in range(l - 1) for j in range(i, l - 1)]
    found = members(
        [nums[i] * nums[j] for i, j in pairs],
        gens,
        lambda k: f"product h_{pairs[k][0]+1} h_{pairs[k][1]+1} escapes the generator span",
    )
    for k, w in found:
        yield pairs[k], w.cofactors[:l]


def _pulled_back_constants(table, nums, mtD):
    """Yields the discriminant-side constants pulled back to the
    arrangement side.  For each pair the congruence
    n_i n_j = sum_k (C^k o p) n_k n + q delta is certified by exact
    division; a failure would contradict the generator identification and
    is reported as such."""
    l = table.rank
    delta = table.defining
    ring = delta.ring
    pull = table.saito.pull
    den = nums[l - 1]
    neg = [-(nums[k] * den) for k in range(l)]
    for i in range(l - 1):
        for j in range(i, l - 1):
            cs = [pull(mtD.constants[i][j][k]) for k in range(l)]
            rem = dot([(nums[i], nums[j]), *zip(cs, neg)], ring)
            quotient(rem, delta, f"pulled-back constants fail the congruence at ({i+1},{j+1})")
            yield (i, j), cs


def check_mul_table(mt):
    """Commutativity, unit row, and associativity on all triples, exactly
    modulo the defining equation."""
    l = mt.rank
    defining = mt.table.defining
    ring = defining.ring
    nums = [mt.numerator(i) for i in range(l)]

    def mul_elem(coeffs_a, coeffs_b):
        # product of two elements given in the h-basis with poly coefficients
        prods = [(i, j, a * b) for i, a in enumerate(coeffs_a) if a
                 for j, b in enumerate(coeffs_b) if b]
        return [dot([(c, mt.constants[i][j][k]) for i, j, c in prods], ring) for k in range(l)]

    def body():
        payload = []
        for i in range(l):
            for j in range(i, l):
                for k in range(j, l):
                    e_i = [ring.one() if t == i else ring.zero() for t in range(l)]
                    e_j = [ring.one() if t == j else ring.zero() for t in range(l)]
                    e_k = [ring.one() if t == k else ring.zero() for t in range(l)]
                    lhs = mul_elem(mul_elem(e_i, e_j), e_k)
                    rhs = mul_elem(e_i, mul_elem(e_j, e_k))
                    acc = dot([(lhs[n] - rhs[n], nums[n]) for n in range(l)], ring)
                    quotient(acc, defining, f"associativity fails on ({i+1},{j+1},{k+1})")
        # grading: c^k_ij is homogeneous of degree D_i + D_j - D_k - D_l
        degs = _gen_degrees(mt)
        for i in range(l):
            for j in range(l):
                for k in range(l):
                    c = mt.constants[i][j][k]
                    if not c:
                        continue
                    expected = degs[i] + degs[j] - degs[k]
                    if c.whomog_degree() != expected:
                        raise CheckFailure(
                            f"structure constant ({i+1},{j+1},{k+1}) has wrong degree"
                        )
        return {"rank": l}, payload

    name = "algebra-A" if mt.side == ARRANGEMENT else "algebra-D"
    return run_check(name, mt.table.datum.name, body)


def _gen_degrees(mt):
    """Degrees of the fractional generators h_i."""
    l = mt.rank
    degs = []
    den_deg = mt.denominator().whomog_degree()
    for i in range(l):
        degs.append(mt.numerator(i).whomog_degree() - den_deg)
    return degs


# ---------------------------------------------------------------------------
# the two comparison identities between the fraction descriptions


def check_quotient_rule(table_a):
    """h_i equals the ratio of discriminant partials: for all i, j the
    congruence d_i(disc) o p * m^l_j == d_l(disc) o p * m^i_j mod delta."""
    sd = table_a.saito
    l = table_a.rank
    delta = table_a.defining

    def body():
        payload = []
        dl = sd.pull(sd.disc.diff(l - 1))
        for i in range(l):
            di = sd.pull(sd.disc.diff(i))
            for j in range(l):
                lhs = di * table_a.minors[l - 1, j]
                rhs = dl * table_a.minors[i, j]
                q = quotient(lhs - rhs, delta, f"quotient rule fails at ({i+1},{j+1})")
                if i == 0 and j == 0:
                    payload.append(
                        zero_combo_payload(
                            "quotient-rule-sample",
                            [(di, table_a.minors[l - 1, j]),
                             (-dl, table_a.minors[i, j]),
                             (-q, delta)],
                        )
                    )
        return {}, payload

    return run_check("fractions", table_a.datum.name, body)


def check_generator_match(table_a, table_d):
    """The arrangement and discriminant fractional generators agree: the
    pullback of ad(K) satisfies (ad K o p)_il * m^l_l == m^i_l * (ad K o p)_ll
    modulo delta."""
    pull = table_d.saito.pull
    l = table_a.rank
    delta = table_a.defining

    def body():
        payload = []
        # ad(K_S) is the entrywise pullback of ad(K_R): determinants and
        # adjugates commute with the verified coordinate change
        M_ll = pull(table_d.minors[l - 1, l - 1])
        den = table_a.minors[l - 1, l - 1]
        for i in range(l):
            M_il = pull(table_d.minors[i, l - 1])
            lhs = M_il * den
            rhs = table_a.minors[i, l - 1] * M_ll
            q = quotient(lhs - rhs, delta, f"generator match fails at i={i+1}")
            payload.append(
                zero_combo_payload(
                    f"generator-match-{i+1}",
                    [(M_il, den), (-table_a.minors[i, l - 1], M_ll), (-q, delta)],
                )
            )
        return {}, payload

    return run_check("generators-match", table_a.datum.name, body)


# ---------------------------------------------------------------------------
# fibers


def _sparse(vec):
    return {i: v for i, v in enumerate(vec) if v}


def fiber_point_count(mt, point):
    """Number of geometric points of the fiber algebra at the given point.

    The fiber algebra is the cokernel of J at the point, with the free
    generator classes as a basis.  By Hermite's theorem, in characteristic
    zero the rank of its trace form Tr(xy) is its number of points."""
    table = mt.table
    l = table.rank
    zero = table.datum.ring.coeff(0)
    J = table.saito.J
    at = Substitution(table.datum.ring, point, None)
    # the relations among the generator classes are the columns of J
    cols = [[at(J[i, j]) for i in range(l)] for j in range(l)]
    pivots, _ = echelon((_sparse(c), ()) for c in cols)
    free = [i for i in range(l) if i not in pivots]

    def product(a, b):
        # h_a h_b in the basis of free classes
        red = _sparse([at(mt.constants[a][b][k]) for k in range(l)])
        reduce_row(red, [], pivots)
        return red

    prods = {(a, b): product(a, b) for a in free for b in free}
    # trace[k] = Tr(h_k), the trace of multiplication by h_k
    trace = {k: sum((prods[k, c].get(c, zero) for c in free), zero) for k in free}
    form = [
        [sum((v * trace[k] for k, v in prods[a, b].items()), zero) for b in free]
        for a in free
    ]
    return rank_of_vectors(_sparse(row) for row in form)


def _nullspace(rows, n, ring):
    """Basis of the common kernel of linear forms given by coefficient rows."""
    zero = ring.coeff(0)
    pivots, _ = echelon((_sparse(r), ()) for r in rows)
    basis = []
    for f in range(n):
        if f not in pivots:
            sol = back_substitute(pivots, sol={f: ring.coeff(1)})
            basis.append([sol.get(i, zero) for i in range(n)])
    return basis


def _form_at(row, v, zero):
    """The linear form with coefficients row at the vector v."""
    return sum((c * x for c, x in zip(row, v) if c and x), zero)


def _flat_points(rows, basis, count, zero):
    """The first count points of the moment curve, in the coordinates of
    basis, that lie on none of the mirrors (with form coefficients rows)
    but those containing span(basis).  Each other mirror meets the span in
    a hyperplane of it, which holds at most len(basis) - 1 of the points."""
    # the forms in the coordinates of basis; those of the mirrors
    # containing span(basis) vanish
    restricted = [[_form_at(row, v, zero) for v in basis] for row in rows]
    others = [r for r in restricted if any(r)]
    found = []
    for ks in islice(moment_points(len(basis)), count + len(others) * (len(basis) - 1)):
        if all(_form_at(r, ks, zero) for r in others):
            found.append(
                [sum((v[i] * k for v, k in zip(basis, ks)), zero) for i in range(len(rows[0]))]
            )
            if len(found) == count:
                return found
    raise RuntimeError("a mirror form vanishes on a flat it does not contain")


def sample_points(datum):
    """Labeled sample points: off the arrangement, generic mirror points
    (none at rank 1, where the mirror is the origin), codimension-two flat
    points, and the origin.  Each point but the origin is a point of the
    moment curve in the coordinates of a basis of its flat, on the mirrors
    containing the flat and on no other, so the points are pairwise
    distinct and each has its flat's stabilizer."""
    ring = datum.ring
    l = datum.rank
    zero = ring.coeff(0)
    rows = [f.linear_coeffs() for f in datum.mirror_forms]
    identity = [[ring.coeff(int(i == j)) for j in range(l)] for i in range(l)]
    points = [("off", pt) for pt in _flat_points(rows, identity, 1, zero)]
    # generic mirror points, taken over the mirrors in turn until enough; at
    # rank 1 the mirror is the origin, sampled once below
    for j in range(0 if l == 1 else 6 if l >= 3 else 8):
        basis = _nullspace([rows[j % len(rows)]], l, ring)
        points.append(("mirror", _flat_points(rows, basis, j // len(rows) + 1, zero)[-1]))
    # the flats of the mirror pairs in index order, one point on each of the
    # first four; a sampled point on both mirrors of a pair is on its flat
    if l >= 3:
        codim2 = []
        for a, b in combinations(range(len(rows)), 2):
            if len(codim2) == 4:
                break
            if all(_form_at(rows[a], pt, zero) or _form_at(rows[b], pt, zero) for pt in codim2):
                codim2 += _flat_points(rows, _nullspace([rows[a], rows[b]], l, ring), 1, zero)
        points += [("codim2", pt) for pt in codim2]
    points.append(("origin", [0] * l))
    return points


def check_fibers(mt):
    """Fiber point counts match the stabilizer component counts."""
    datum = mt.table.datum

    def body():
        records = []
        for label, pt in sample_points(datum):
            alg = fiber_point_count(mt, pt)
            stab = len(stabilizer_components(datum, pt))
            records.append(
                {"label": label, "point": [str(c) for c in pt], "algebra": alg, "stabilizer": stab}
            )
            if alg != stab:
                raise CheckFailure(
                    f"fiber count {alg} != stabilizer count {stab} at {label} point"
                )
        return {"points": records}, []

    return run_check("fibers", datum.name, body)


# ---------------------------------------------------------------------------
# spot checks for the extreme cases


def check_normalization_gap(sd):
    """For dihedral types with odd Coxeter number: the value semigroup of
    the partial normalization misses degree one, so it is a proper subring
    of the normalization.  The graded dimensions of coker K are computed
    exactly from the presentation and compared with both predictions."""
    datum = sd.datum
    l = datum.rank
    h = datum.coxeter_number

    def body():
        if l != 2 or h % 2 == 0:
            raise CheckFailure("gap certificate applies to odd dihedral types")
        shape = sd.dihedral_shape
        if shape is None or shape["b"] != 0:
            raise CheckFailure("expected the odd-type normal form with b = 0")
        p_ring = sd.p_ring
        # generator degrees w_l - w_i, relation degrees w_j + w_l - 2
        gen_degs = [h - 2, 0]
        rel_degs = [datum.degrees[j] + h - 2 for j in range(2)]
        semigroup = set()
        for a in range(0, h + 3, 2):
            for b0 in range(3):
                if a + h * b0 <= h + 2:
                    semigroup.add(a + h * b0)
        achievable = set(semigroup)
        achievable |= {h - 2 + s for s in semigroup if h - 2 + s <= h + 2}
        dims = {}
        for t in range(h + 3):
            total = 0
            cols = []
            for i, gdeg in enumerate(gen_degs):
                total += len(p_ring.monomials(t - gdeg)) if t >= gdeg else 0
            for j, rdeg in enumerate(rel_degs):
                if t < rdeg:
                    continue
                for mu in p_ring.monomials(t - rdeg):
                    vec = {}
                    for i in range(2):
                        entry = sd.K_R[i, j]
                        for e, c in entry.t.items():
                            key = (i, tuple(a + b for a, b in zip(e, mu)))
                            vec[key] = vec.get(key, p_ring.coeff(0)) + c
                    cols.append({k: v for k, v in vec.items() if v})
            dims[t] = total - rank_of_vectors(cols)
        gaps = [t for t in range(1, h) if dims[t] == 0]
        for t in range(h + 3):
            expected = 1 if t in achievable else 0
            if dims[t] != expected:
                raise CheckFailure(
                    f"graded dimension {dims[t]} at degree {t}, expected {expected}"
                )
        if 1 not in gaps:
            raise CheckFailure("no gap at degree one: ring would be normal")
        return {
            "gaps": gaps,
            "semigroup_generators": [2, h - 2, h],
            "dims": {str(t): dims[t] for t in sorted(dims)},
        }, []

    return run_check("normalization-gap", datum.name, body)


def check_boolean_split(datum):
    """For a power of A1 the partial normalization splits into one
    polynomial-ring factor per coordinate hyperplane."""

    def body():
        l = datum.rank
        ring = datum.ring
        J = jacobian(datum.invariants, ring)
        for i in range(l):
            for j in range(l):
                if i != j and J[i, j]:
                    raise CheckFailure("Jacobian is not diagonal")
        # delta is the monomial x_1 ... x_l up to a constant
        expected = ring.from_dict({tuple([1] * l): ring.coeff(1)})
        constant_ratio(datum.delta, expected, "arrangement polynomial is not the full monomial")
        comps = stabilizer_components(datum, [0] * l)
        if len(comps) != l or any(len(c) != 1 for c in comps):
            raise CheckFailure("origin stabilizer does not split into A1 factors")
        # branch idempotent representatives multiply to zero modulo delta
        branch = []
        for i in range(l):
            term = [1] * l
            term[i] = 0
            branch.append(ring.from_dict({tuple(term): ring.coeff(1)}))
        for i in range(l):
            for j in range(i + 1, l):
                # divisible: lies in (delta)
                quotient(
                    branch[i] * branch[j], expected, "branch representatives do not annihilate"
                )
        return {"factors": l}, []

    return run_check("boolean-split", datum.name, body)
