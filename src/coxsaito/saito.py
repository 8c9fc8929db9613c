"""The Saito matrix apparatus of a Coxeter datum.

J is the Jacobian of the basic invariants; K = J Gamma J^t is the
symmetric Saito matrix of the discriminant, computed both as x-polynomials
and, entry by entry, as polynomials in the invariant coordinates.  The
discriminant polynomial is det K in invariant coordinates; its pullback
identity with the square of the arrangement polynomial follows exactly
from the verified entrywise pullbacks, so no large expansion is needed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .catalog import CoxeterDatum, SAMPLING_SEED, is_invariant
from .certs import CheckFailure, constant_ratio, quotient
from .engine import EngineError, solve_linear
from .poly import Poly
from .polymatrix import PolyMatrix, jacobian
from .scalars import Quad, rational_sqrt


@dataclass
class SaitoData:
    datum: CoxeterDatum
    J: PolyMatrix
    K_S: PolyMatrix  # over the coordinate ring
    K_R: PolyMatrix  # same entries in invariant coordinates
    disc: Poly  # discriminant in invariant coordinates, primitive
    disc_const: object  # det K_R = disc_const * disc
    pull_const: object  # disc o p = pull_const * delta^2 (derived exactly)
    euler_const: object  # K_R[i][0] = euler_const * w_i * p_i
    kbar: PolyMatrix  # linear part of K_R
    alphas: list  # anti-diagonal constants of kbar after normalization
    change: list | None  # recorded constant change of invariants, or None
    dihedral_shape: dict | None = None  # lambda, a, b for rank-2 types
    shape_obstruction: dict | None = None  # set when no real normal form exists
    log_quotients: dict = field(default_factory=dict)  # set by build_saito

    @property
    def ring(self):
        return self.datum.ring

    @property
    def p_ring(self):
        return self.datum.p_ring


class PullbackCache:
    """Caches powers of the basic invariants for repeated pullbacks."""

    def __init__(self, datum):
        self.datum = datum
        self._pows = [dict() for _ in datum.invariants]

    def power(self, i, k):
        cache = self._pows[i]
        got = cache.get(k)
        if got is None:
            if k == 0:
                got = self.datum.ring.one()
            else:
                got = self.power(i, k - 1) * self.datum.invariants[i]
            cache[k] = got
        return got

    def pullback(self, g):
        """Substitute the basic invariants into a p-polynomial."""
        ring = self.datum.ring
        acc = ring.zero()
        for e, c in g.t.items():
            term = ring.const(ring.coeff(c))
            for i, k in enumerate(e):
                if k:
                    term = term * self.power(i, k)
            acc = acc + term
        return acc


def express_in_invariants(f, datum, cache=None, max_tries=5):
    """Write a W-invariant x-polynomial exactly in invariant coordinates.

    Weighted-degree ansatz solved by interpolation at small random points,
    then certified by exact resubstitution.  Non-homogeneous inputs are
    handled per homogeneous component.
    """
    if cache is None:
        cache = PullbackCache(datum)
    if not is_invariant(datum, f):
        raise EngineError("polynomial is not invariant")
    ring = datum.ring
    p_ring = datum.p_ring
    if not f:
        return p_ring.zero()
    # split into homogeneous components (each is invariant on its own)
    comps = {}
    for e, c in f.t.items():
        comps.setdefault(sum(e), {})[e] = c
    out = p_ring.zero()
    for d, terms in sorted(comps.items()):
        out = out + _express_homogeneous(Poly(ring, terms), datum, cache, max_tries)
    return out


def _express_homogeneous(f, datum, cache, max_tries):
    ring = datum.ring
    p_ring = datum.p_ring
    d = f.deg()
    mons = p_ring.monomials(d)
    if not mons:
        raise EngineError("no invariant monomials in this degree")
    rng = random.Random(SAMPLING_SEED + d)
    npts = len(mons) + 3
    for attempt in range(max_tries):
        pts = [
            [rng.randint(-9, 9) for _ in range(ring.n)] for _ in range(npts)
        ]
        eqs = []
        for v in pts:
            pv = [p.eval(v) for p in datum.invariants]
            row = {}
            for j, mu in enumerate(mons):
                val = ring.coeff(1)
                for i, k in enumerate(mu):
                    if k:
                        val = val * pv[i] ** k
                if val:
                    row[j] = val
            eqs.append((row, [f.eval(v)]))
        sol = solve_linear(eqs, len(mons), 1)[0]
        if sol is not None:
            g = p_ring.from_dict({mons[j]: c for j, c in sol.items()})
            if cache.pullback(g) == f:
                return g
        npts += len(mons) // 2 + 2
    raise EngineError("interpolation failed to produce a certified expression")


def _linear_part(g):
    ring = g.ring
    out = {}
    for e, c in g.t.items():
        if sum(e) == 1:
            out[e] = c
    return Poly(ring, out)


def _coeff_of_var(g, i):
    e = [0] * g.ring.n
    e[i] = 1
    return g.coeff_of(e)


def build_saito(datum, cache=None):
    """Assemble and internally verify the full matrix apparatus."""
    if not datum.irreducible:
        raise EngineError("saito data is built per irreducible factor")
    cache = cache or PullbackCache(datum)
    ring = datum.ring
    p_ring = datum.p_ring
    l = datum.rank
    degrees = datum.degrees

    J = jacobian(datum.invariants, ring)
    gamma = PolyMatrix.from_scalars(ring, datum.gram_dual)
    K_S = J * gamma * J.transpose()
    if not K_S.is_symmetric():
        raise CheckFailure("K = J Gamma J^t is not symmetric")

    # entrywise invariant-coordinate expression; the pullback check inside
    # express_in_invariants certifies K_R o p == K_S
    entries = [[None] * l for _ in range(l)]
    for i in range(l):
        for j in range(i, l):
            g = express_in_invariants(K_S[i, j], datum, cache)
            wd = g.whomog_degree()
            if g and wd != degrees[i] + degrees[j] - 2:
                raise CheckFailure(
                    f"K[{i}][{j}] has weighted degree {wd}, "
                    f"expected {degrees[i] + degrees[j] - 2}"
                )
            entries[i][j] = entries[j][i] = g
    K_R = PolyMatrix(p_ring, entries)

    det_KR = K_R.det()
    if not det_KR:
        raise CheckFailure("det K vanishes")
    disc = det_KR.primitive()
    disc_const = constant_ratio(det_KR, disc, "det K is not a multiple of its primitive part")
    # det(K_S) = det(Gamma) * (det J)^2 = det(Gamma) * c^2 * delta^2, and
    # det(K_R) o p = det(K_S), so disc o p = pull_const * delta^2 exactly
    det_gamma = PolyMatrix.from_scalars(ring, datum.gram_dual).det().constant_value()
    pull_const = det_gamma * datum.jac_const * datum.jac_const / disc_const

    # Euler column: K_R[i][0] == euler_const * w_i * p_i exactly
    euler_const = constant_ratio(
        K_R[0, 0],
        p_ring.gen(0).scale(degrees[0]),
        "K[0][0] is not a constant multiple of w_1 p_1",
    )
    for i in range(l):
        expected = p_ring.gen(i).scale(degrees[i] * euler_const)
        if K_R[i, 0] != expected:
            raise CheckFailure(f"Euler column entry {i} violates w-grading")

    kbar = K_R.map(_linear_part)
    sd = SaitoData(
        datum=datum,
        J=J,
        K_S=K_S,
        K_R=K_R,
        disc=disc,
        disc_const=disc_const,
        pull_const=pull_const,
        euler_const=euler_const,
        kbar=kbar,
        alphas=[],
        change=None,
    )
    if l == 2:
        sd.dihedral_shape = _dihedral_shape(sd)
    logarithmic_quotients(sd)
    return sd


def _dihedral_shape(sd):
    """Extract the rank-2 normal form K = lam * [[2p1, h q], [h q, Q]] with
    q a rescaled degree-h invariant and Q = a p1^(h-1) + b p1^(h/2-1) q."""
    p_ring = sd.p_ring
    datum = sd.datum
    h = datum.coxeter_number
    p1, p2 = p_ring.gen(0), p_ring.gen(1)
    lam = sd.euler_const  # K[0][0] = lam * 2 p1
    # K[0][1] = euler_const * h * p2; rescale q := c2 * p2 so K[0][1] = lam h q
    c2 = constant_ratio(
        sd.K_R[0, 1], p2.scale(h * lam), "K[0][1] is not a constant multiple of p_2"
    )
    Q = sd.K_R[1, 1].scale(1 / lam)
    # write Q in terms of p1 and q = c2 p2: substitute p2 = q / c2
    a = Q.coeff_of((h - 1, 0))
    rest = Q - (p1 ** (h - 1)).scale(a)
    b = p_ring.coeff(0)
    if rest:
        if h % 2 != 0:
            raise CheckFailure("odd Coxeter number admits no mixed term")
        bexp = (h // 2 - 1, 1)
        b_p2 = rest.coeff_of(bexp)
        if rest != Poly(p_ring, {bexp: b_p2}):
            raise CheckFailure("rank-2 Saito matrix has an unexpected term")
        b = b_p2 / c2
    return {"lambda": lam, "p2_scale": c2, "a": a, "b": b, "h": h}


def normalize_linear_part(sd):
    """Bring the linear part of K into anti-triangular normal form.

    For types with pairwise distinct degrees this is a pure verification.
    For the even D types the top-degree coefficient matrix has a middle
    block indexed by the repeated degree; an anti-diagonalizing constant
    change of invariants is applied when one exists over the coefficient
    field.  The block is congruent to a definite form for these types, so
    over a real field no such change exists; the certified facts are then
    the block anti-diagonal form and the recorded obstruction (a definite
    block only becomes hyperbolic over an imaginary extension).
    """
    datum = sd.datum
    l = datum.rank
    degrees = datum.degrees
    h = max(degrees)
    groups = {}
    for i, w in enumerate(degrees):
        groups.setdefault(w, []).append(i)
    repeated = [idx for idx in groups.values() if len(idx) > 1]

    new_sd = sd
    change = [[Fraction(1 if i == j else 0) for j in range(l)] for i in range(l)]
    obstruction = None
    if repeated:
        if len(repeated) != 1 or len(repeated[0]) != 2:
            raise CheckFailure("unexpected degree multiplicity pattern")
        i0, i1 = repeated[0]
        pl = l - 1
        c00 = _coeff_of_var(sd.kbar[i0, i0], pl)
        c01 = _coeff_of_var(sd.kbar[i0, i1], pl)
        c11 = _coeff_of_var(sd.kbar[i1, i1], pl)
        try:
            T = _isotropic_change(c00, c01, c11, sd.p_ring)
        except CheckFailure:
            T = None
        if T is None:
            obstruction = {
                "block": [str(c00), str(c01), str(c11)],
                "reason": "definite repeated-degree block; anti-diagonal "
                "form needs an imaginary quadratic extension",
            }
        else:
            for a in range(2):
                for b in range(2):
                    change[[i0, i1][a]][[i0, i1][b]] = T[a][b]
            new_invs = list(datum.invariants)
            new_invs[i0] = datum.invariants[i0].scale(T[0][0]) + datum.invariants[i1].scale(T[1][0])
            new_invs[i1] = datum.invariants[i0].scale(T[0][1]) + datum.invariants[i1].scale(T[1][1])
            import copy

            new_datum = copy.copy(datum)
            new_datum.invariants = new_invs
            new_datum.jac_const = constant_ratio(
                jacobian(new_invs, datum.ring).det(),
                datum.delta,
                "changed invariants lose the Jacobian identity",
            )
            new_sd = build_saito(new_datum)
            # the conductor-degree minor is unchanged up to det(T)^2
            detT = T[0][0] * T[1][1] - T[0][1] * T[1][0]
            before = sd.K_R.adjugate()[l - 1, l - 1]
            after = new_sd.K_R.adjugate()[l - 1, l - 1]
            if after != before.scale(detT * detT):
                raise CheckFailure("corner minor not preserved by renormalization")

    # verify the top-degree coefficient matrix: entries vanish off the
    # degree pairing w_i + w_j = h + 2, and the paired entries are nonzero
    kbar = new_sd.kbar
    pl = l - 1
    block_indices = set(repeated[0]) if (repeated and obstruction is not None) else set()
    alphas = [None] * l
    for i in range(l):
        for j in range(l):
            lin = kbar[i, j]
            c_pl = _coeff_of_var(lin, pl)
            paired = degrees[i] + degrees[j] == h + 2
            if not paired and c_pl:
                raise CheckFailure(f"entry ({i},{j}) outside the pairing involves p_l")
            if i + j == l - 1:
                if i in block_indices and j in block_indices:
                    alphas[i] = c_pl  # may vanish; the block determinant rules
                    continue
                if not c_pl:
                    raise CheckFailure(f"anti-diagonal entry ({i},{j}) misses p_l")
                alphas[i] = c_pl
            if i + j > l - 1 and lin and not paired:
                raise CheckFailure(f"entry ({i},{j}) below the anti-diagonal is nonzero")
    if obstruction is not None:
        # the unreachable part must still be a nondegenerate block
        i0, i1 = repeated[0]
        c00 = _coeff_of_var(kbar[i0, i0], pl)
        c01 = _coeff_of_var(kbar[i0, i1], pl)
        c11 = _coeff_of_var(kbar[i1, i1], pl)
        if not (c00 * c11 - c01 * c01):
            raise CheckFailure("repeated-degree block is degenerate")
    else:
        for i in range(l):
            if alphas[i] != alphas[l - 1 - i]:
                raise CheckFailure("anti-diagonal constants are not symmetric")
    new_sd.alphas = alphas
    new_sd.change = change if (repeated and obstruction is None) else None
    new_sd.shape_obstruction = obstruction
    return new_sd


def _isotropic_change(c00, c01, c11, p_ring):
    """Constant 2x2 change making [[c00,c01],[c01,c11]] anti-diagonal."""
    zero = p_ring.coeff(0)
    one = p_ring.coeff(1)
    if not c00 and not c11:
        if not c01:
            raise CheckFailure("degenerate repeated-degree block")
        return [[one, zero], [zero, one]]
    if not c00:
        # first column already isotropic; shear away the (1,1) entry
        if not c01:
            raise CheckFailure("repeated-degree block is diagonal and anisotropic")
        t = -c11 / (2 * c01)
        return [[one, t], [zero, one]]
    if not c11:
        if not c01:
            raise CheckFailure("repeated-degree block is diagonal and anisotropic")
        t = -c00 / (2 * c01)
        return [[one, zero], [t, one]]
    # general case: two isotropic directions (1, s) with
    # c00 + 2 s c01 + s^2 c11 = 0
    disc = c01 * c01 - c00 * c11
    root = _sqrt_scalar(disc, p_ring)
    if root is None:
        raise CheckFailure("repeated-degree block is anisotropic over the field")
    s1 = (-c01 + root) / c11
    s2 = (-c01 - root) / c11
    if s1 == s2:
        raise CheckFailure("repeated-degree block is degenerate")
    return [[one, one], [s1, s2]]


def _sqrt_scalar(c, p_ring):
    if isinstance(c, Quad):
        if not c.b:
            r = rational_sqrt(c.a)
            return Quad(r, 0, c.d) if r is not None else None
        return None
    return rational_sqrt(c)


def field_apply(K, j, g):
    """Apply the j-th column of K, read as a vector field, to g."""
    acc = g.ring.zero()
    for i in range(K.m):
        ki = K[i, j]
        if ki:
            gi = g.diff(i)
            if gi:
                acc = acc + ki * gi
    return acc


def eta_field_apply(sd, j, g):
    """Apply eta_j (coefficient vector Gamma grad p_j) to an x-polynomial."""
    datum = sd.datum
    ring = datum.ring
    grad = sd.J.row(j)  # row j of J is grad p_j
    coeffs = []
    for i in range(datum.rank):
        acc = ring.zero()
        for k in range(datum.rank):
            gd = datum.gram_dual[i][k]
            if gd and grad[k]:
                acc = acc + grad[k].scale(gd)
        coeffs.append(acc)
    out = ring.zero()
    for i, c in enumerate(coeffs):
        if c:
            gi = g.diff(i)
            if gi:
                out = out + c * gi
    return out


def logarithmic_quotients(sd):
    """Quotients certifying eta_j(delta) in (delta) and delta_j(disc) in
    (disc); stored on sd so re-verification is a pure product check."""
    datum = sd.datum
    out = {"eta": [], "delta": []}
    for j in range(datum.rank):
        val = eta_field_apply(sd, j, datum.delta)
        out["eta"].append(quotient(val, datum.delta, f"eta_{j+1} is not logarithmic for delta"))
    for j in range(datum.rank):
        val = field_apply(sd.K_R, j, sd.disc)
        out["delta"].append(quotient(val, sd.disc, f"delta_{j+1} is not logarithmic for disc"))
    sd.log_quotients = out
    return out

