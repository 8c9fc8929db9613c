"""The Saito matrix apparatus of a Coxeter datum.

J is the Jacobian of the basic invariants; K = J Gamma J^t is the
symmetric Saito matrix of the discriminant, computed both as x-polynomials
and, entry by entry, as polynomials in the invariant coordinates.  The
discriminant polynomial is det K in invariant coordinates; its pullback
identity with the square of the arrangement polynomial follows exactly
from the verified entrywise pullbacks, so no large expansion is needed.
Every pullback f o p of a type runs through its one `Substitution`
(p_i -> the basic invariant p_i as an x-polynomial), which builds the
pullback of each p-monomial once and keeps it for later polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .catalog import CoxeterDatum
from .certs import CheckFailure, constant_ratio, members, quotient
from .engine import EngineError
from .poly import Poly, Substitution, dot
from .polymatrix import PolyMatrix, jacobian


@dataclass
class SaitoData:
    datum: CoxeterDatum
    J: PolyMatrix
    eta: PolyMatrix  # Gamma J^t: column j is the field eta_j = Gamma grad p_j
    K_S: PolyMatrix  # J eta, over the coordinate ring
    K_R: PolyMatrix  # same entries in invariant coordinates
    disc: Poly  # discriminant in invariant coordinates, primitive
    disc_const: object  # det K_R = disc_const * disc
    pull_const: object  # disc o p = pull_const * delta^2 (derived exactly)
    euler_const: object  # K_R[i][0] = euler_const * w_i * p_i
    kbar: PolyMatrix  # linear part of K_R
    alphas: list  # anti-diagonal constants of kbar
    dihedral_shape: dict | None = None  # lambda, a, b for rank-2 types
    shape_obstruction: dict | None = None  # set when no real normal form exists
    log_values: dict = field(default_factory=dict)  # eta_j(delta), delta_j(disc)
    log_quotients: dict = field(default_factory=dict)  # the same divided exactly

    @property
    def ring(self):
        return self.datum.ring

    @property
    def p_ring(self):
        return self.datum.p_ring


def express_in_invariants(f, datum, cache=None):
    """Write a W-invariant x-polynomial exactly in invariant coordinates.

    Each homogeneous part is a graded member of the span of the pullbacks
    of the p-monomials of its degree (the monomial images of cache, the
    pullback `Substitution`): the witness's constant cofactors are
    the coefficients and its identity is the pullback identity.  A part
    that is not invariant is a non-member, so a CheckFailure.
    """
    if cache is None:
        cache = Substitution(datum.p_ring, datum.invariants, datum.ring)
    p_ring = datum.p_ring
    out = p_ring.zero()
    for d, part in sorted(f.homogeneous_parts().items()):
        mons = p_ring.monomials(d)
        ((_, w),) = members(
            [part],
            [cache.monomial(mu) for mu in mons],
            lambda _: f"the degree-{d} part is not a polynomial in the basic invariants",
        )
        out = out + p_ring.from_dict(
            {mu: c.constant_value() for mu, c in zip(mons, w.cofactors)}
        )
    return out


def _linear_part(g):
    return g.homogeneous_parts().get(1, g.ring.zero())


def build_saito(datum, cache=None):
    """Assemble and internally verify the full matrix apparatus."""
    if not datum.irreducible:
        raise EngineError("saito data is built per irreducible factor")
    cache = cache or Substitution(datum.p_ring, datum.invariants, datum.ring)
    ring = datum.ring
    p_ring = datum.p_ring
    l = datum.rank
    degrees = datum.degrees

    J = jacobian(datum.invariants, ring)
    gamma = PolyMatrix.from_scalars(ring, datum.gram_dual)
    eta = gamma * J.transpose()
    K_S = J * eta
    if not K_S.is_symmetric():
        raise CheckFailure("K = J Gamma J^t is not symmetric")

    # entrywise invariant-coordinate expression; the membership witness
    # inside express_in_invariants certifies K_R o p == K_S
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
    det_gamma = gamma.det().constant_value()
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
        eta=eta,
        K_S=K_S,
        K_R=K_R,
        disc=disc,
        disc_const=disc_const,
        pull_const=pull_const,
        euler_const=euler_const,
        kbar=kbar,
        alphas=[],
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
        if rest != p_ring.from_dict({bexp: b_p2}):
            raise CheckFailure("rank-2 Saito matrix has an unexpected term")
        b = b_p2 / c2
    return {"lambda": lam, "p2_scale": c2, "a": a, "b": b, "h": h}


def normalize_linear_part(sd):
    """Verify the anti-triangular normal form of the linear part of K.

    For types with pairwise distinct degrees this is a pure verification.
    Repeated degrees occur only for the even D types, whose top-degree
    coefficient matrix has a middle block indexed by the repeated degree.
    That block is definite, and a definite block only becomes hyperbolic
    over an imaginary extension, so no real constant change of invariants
    makes it anti-diagonal; the certified facts are then the block
    anti-diagonal form and the recorded obstruction.
    """
    datum = sd.datum
    l = datum.rank
    degrees = datum.degrees
    h = max(degrees)
    pl = l - 1
    groups = {}
    for i, w in enumerate(degrees):
        groups.setdefault(w, []).append(i)
    repeated = [idx for idx in groups.values() if len(idx) > 1]

    block_indices = set()
    obstruction = None
    if repeated:
        if len(repeated) != 1 or len(repeated[0]) != 2:
            raise CheckFailure("unexpected degree multiplicity pattern")
        i0, i1 = repeated[0]
        c00 = sd.kbar[i0, i0].linear_coeffs()[pl]
        c01 = sd.kbar[i0, i1].linear_coeffs()[pl]
        c11 = sd.kbar[i1, i1].linear_coeffs()[pl]
        if not c00 * c11 - c01 * c01 > 0:
            raise CheckFailure("repeated-degree block is not definite")
        block_indices = {i0, i1}
        obstruction = {
            "block": [str(c00), str(c01), str(c11)],
            "reason": "definite repeated-degree block; anti-diagonal "
            "form needs an imaginary quadratic extension",
        }

    # verify the top-degree coefficient matrix: entries vanish off the
    # degree pairing w_i + w_j = h + 2, and the paired entries are nonzero
    kbar = sd.kbar
    alphas = [None] * l
    for i in range(l):
        for j in range(l):
            lin = kbar[i, j]
            c_pl = lin.linear_coeffs()[pl]
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
    if obstruction is None:
        for i in range(l):
            if alphas[i] != alphas[l - 1 - i]:
                raise CheckFailure("anti-diagonal constants are not symmetric")
    sd.alphas = alphas
    sd.shape_obstruction = obstruction
    return sd


def field_apply(K, j, g):
    """Apply the j-th column of K, read as a vector field, to g."""
    return dot(((K[i, j], g.diff(i)) for i in range(K.m) if K[i, j]), g.ring)


def logarithmic_quotients(sd):
    """eta_j(delta) and delta_j(disc) with their quotients by delta and
    disc, which certify that the fields are logarithmic; both are stored on
    sd so re-verification is a pure product check."""
    datum = sd.datum
    sd.log_values = {"eta": [], "delta": []}
    sd.log_quotients = {"eta": [], "delta": []}
    sides = (("eta", sd.eta, datum.delta, "delta"), ("delta", sd.K_R, sd.disc, "disc"))
    for key, fields, f, name in sides:
        for j in range(datum.rank):
            val = field_apply(fields, j, f)
            sd.log_values[key].append(val)
            sd.log_quotients[key].append(
                quotient(val, f, f"{key}_{j+1} is not logarithmic for {name}")
            )
    return sd.log_quotients
