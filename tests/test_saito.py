import dataclasses
import random
from fractions import Fraction

import pytest

from coxsaito.catalog import build_datum
from coxsaito.certs import CheckFailure
from coxsaito.engine import _pair_cuts_out_points
from coxsaito.poly import Poly, PolyRing, Substitution, product
from coxsaito.polymatrix import PolyMatrix, hessian
from coxsaito.saito import (
    build_saito,
    express_in_invariants,
    logarithmic_quotients,
    normalize_linear_part,
)
from coxsaito.scalars import Quad


def get(name):
    return build_saito(build_datum(name))


def test_a1_jacobian():
    sd = get("A1")
    d = sd.datum
    x = d.ring.gen(0)
    assert sd.J[0, 0] == x.scale(2 * d.invariants[0].coeff_of((2,)))
    assert sd.J.det() == d.delta.scale(d.jac_const)


def test_k_symmetric_and_pullback_identity():
    for name in ("A2", "B2", "A3", "B3"):
        sd = get(name)
        assert sd.K_S.is_symmetric()
        assert sd.K_R.is_symmetric()
        cache = Substitution(sd.datum.p_ring, sd.datum.invariants, sd.datum.ring)
        for i in range(sd.datum.rank):
            for j in range(i, sd.datum.rank):
                assert cache(sd.K_R[i, j]) == sd.K_S[i, j]


def test_euler_column():
    for name in ("A3", "B3", "D4"):
        sd = get(name)
        d = sd.datum
        for i in range(d.rank):
            expected = d.p_ring.gen(i).scale(d.degrees[i] * sd.euler_const)
            assert sd.K_R[i, 0] == expected


def test_det_k_is_discriminant():
    sd = get("B3")
    assert sd.K_R.det() == sd.disc.scale(sd.disc_const)
    # pullback constant ties disc o p to delta^2 exactly through the
    # verified entrywise identity
    cache = Substitution(sd.datum.p_ring, sd.datum.invariants, sd.datum.ring)
    disc_x = cache(sd.disc)
    assert disc_x == (sd.datum.delta * sd.datum.delta).scale(sd.pull_const)


def test_dihedral_normal_form():
    sd = get("I2(5)")
    shape = sd.dihedral_shape
    assert shape is not None
    assert shape["h"] == 5
    assert shape["b"] == 0  # odd Coxeter number kills the mixed term
    assert shape["a"]
    sd6 = get("I2(6)")
    assert sd6.dihedral_shape["h"] == 6

    # K matches [[2 p1, h p2], [h p2, Q]] up to the recorded global constant
    p_ring = sd.p_ring
    p1, p2 = p_ring.gens()
    lam = shape["lambda"]
    assert sd.K_R[0, 0] == p1.scale(2 * lam)
    assert sd.K_R[0, 1] == p2.scale(5 * lam)


def test_dihedral_discriminant_normal_form_reduction():
    # the discriminant reduces to zero against the binomial it normalizes to
    sd = get("I2(5)")
    from coxsaito.engine import groebner

    p_ring = sd.p_ring
    p1, p2 = p_ring.gens()
    a = sd.dihedral_shape["a"]
    lam = sd.dihedral_shape["lambda"]
    # disc * disc_const = lam^2 (2a p1^5 - 25 p2^2)
    c = 25 / (2 * a)
    gb = groebner([p1**5 - (p2 * p2).scale(c)])
    assert not sd.disc.reduce(gb)[1]


def test_adjugate_antidiagonal_for_rank_two():
    sd = get("I2(5)")
    ad = sd.K_R.adjugate()
    p2 = sd.p_ring.gen(1)
    lam = sd.dihedral_shape["lambda"]
    assert ad[0, 1] == p2.scale(-5 * lam)
    assert ad[1, 0] == p2.scale(-5 * lam)


def test_express_in_invariants_roundtrip():
    d = build_datum("B2")
    cache = Substitution(d.p_ring, d.invariants, d.ring)
    rng = random.Random(8)
    p_ring = d.p_ring
    for _ in range(6):
        g = p_ring.from_dict(
            {
                (rng.randint(0, 2), rng.randint(0, 1)): Fraction(rng.randint(-4, 4))
                for _ in range(3)
            }
        )
        f = cache(g)
        assert express_in_invariants(f, d, cache) == g


def test_express_square_of_invariant():
    d = build_datum("A2")
    cache = Substitution(d.p_ring, d.invariants, d.ring)
    p1 = d.invariants[0]
    g = express_in_invariants(p1 * p1, d, cache)
    assert g == d.p_ring.gen(0) ** 2


def test_invariant_coordinates_and_plane_cuts_build_no_coefficient_view(monkeypatch):
    d = build_datum("H3")
    cache = Substitution(d.p_ring, d.invariants, d.ring)
    p1, p2, p3 = d.p_ring.gens()
    phi = d.p_ring.coeff(Quad(Fraction(1, 2), Fraction(1, 2), 5))
    g = p1**3 - p2.scale(phi) + p1 * p2 + p3.scale(Fraction(-3, 7))
    f = cache(g)
    plane = PolyRing(("u", "v"), d=d.ring.d)
    images = [plane.linear_form(c) for c in ([1, 2], [-1, 3], [2, -1])]
    a, b = (p.subst(images).primitive() for p in d.invariants[:2])
    built = []
    view = Poly.t

    def counted(self):
        if self._t is None:
            built.append(self)
        return view.fget(self)

    monkeypatch.setattr(Poly, "t", property(counted))
    assert express_in_invariants(f, d, cache) == g
    assert _pair_cuts_out_points(a, b)
    assert not built
    # the count sees a view that is built
    assert a.t and built == [a]


def test_express_rejects_non_invariant():
    d = build_datum("A2")
    pull = Substitution(d.p_ring, d.invariants, d.ring)
    with pytest.raises(CheckFailure):
        express_in_invariants(d.ring.gen(0), d, pull)
    # an invariant part next to a non-invariant one of another degree
    with pytest.raises(CheckFailure):
        express_in_invariants(d.invariants[0] + d.ring.gen(0) ** 3, d, pull)


@pytest.mark.parametrize("name", ["B3", "I2(5)"])
def test_pullback_cache_matches_substitution(name):
    sd = get(name)
    d = sd.datum
    rng = random.Random(11)
    for _ in range(4):
        g = d.p_ring.from_dict(
            {
                tuple(rng.randint(0, 2) for _ in range(d.rank)): d.p_ring.coeff(rng.randint(-4, 4))
                for _ in range(4)
            }
        )
        # the shared map against the sum of c * prod p_i^k_i, term by term
        expected = d.ring.zero()
        for e, c in g.t.items():
            expected = expected + product(
                (p**k for p, k in zip(d.invariants, e)), d.ring
            ).scale(c)
        assert sd.pull(g) == expected


def test_hessian_of_quadratic_invariant():
    for name in ("A3", "B3"):
        d = build_datum(name)
        h = hessian(d.invariants[0])
        # p1 is the invariant quadratic form: Hess(p1) = 2 c G with G the
        # inverse of the dual Gram matrix; c is 1 for these normalizations
        ginv = PolyMatrix.from_scalars(d.ring, d.gram_dual).adjugate()
        # compare via Gamma * Hess == 2c * identity
        gamma = PolyMatrix.from_scalars(d.ring, d.gram_dual)
        prod = gamma * h
        c = prod[0, 0]
        assert c.is_constant()
        for i in range(d.rank):
            for j in range(d.rank):
                assert prod[i, j] == (c if i == j else d.ring.zero())


def test_logarithmic_fields():
    for name in ("A2", "B3"):
        sd = get(name)
        q = logarithmic_quotients(sd)
        d = sd.datum
        from coxsaito.saito import field_apply

        gamma = PolyMatrix.from_scalars(d.ring, d.gram_dual)
        for j in range(d.rank):
            # eta_j has coefficient vector Gamma grad p_j
            eta_j = gamma.mul_vec(d.invariants[j].grad())
            assert sd.eta.col(j) == eta_j
            val = d.ring.zero()
            for i, c in enumerate(eta_j):
                val = val + c * d.delta.diff(i)
            assert val == q["eta"][j] * d.delta
            assert field_apply(sd.K_R, j, sd.disc) == q["delta"][j] * sd.disc
        # the Euler-type field scales delta by a constant
        assert q["eta"][0].is_constant()


def test_normalize_linear_part_distinct_degrees():
    sd = normalize_linear_part(get("B3"))
    assert sd.shape_obstruction is None
    assert len(sd.alphas) == 3
    assert sd.alphas[0] == sd.alphas[2] != 0


def test_normalize_linear_part_d4_obstruction():
    sd = normalize_linear_part(get("D4"))
    # the repeated-degree block is definite over the rationals: the full
    # anti-diagonal form needs an imaginary extension, which the scalar
    # domain deliberately excludes; the obstruction is recorded instead
    assert sd.shape_obstruction is not None
    assert "definite" in sd.shape_obstruction["reason"]


def test_normalize_linear_part_rejects_indefinite_block():
    # negating one diagonal entry of the D4 block [[1/3, 0], [0, 16]] makes
    # it indefinite, so the recorded obstruction would be false
    sd = get("D4")
    entries = [[sd.kbar[i, j] for j in range(4)] for i in range(4)]
    entries[2][2] = -entries[2][2]
    bad = dataclasses.replace(sd, kbar=PolyMatrix(sd.p_ring, entries))
    with pytest.raises(CheckFailure, match="not definite"):
        normalize_linear_part(bad)


def test_corner_minor_unchanged_by_renormalization():
    # for distinct degrees the normalization is the identity, so the corner
    # minor is literally unchanged
    sd = get("B3")
    before = sd.K_R.adjugate()[2, 2]
    sdn = normalize_linear_part(sd)
    after = sdn.K_R.adjugate()[2, 2]
    assert before == after


def test_d4_power_sum_replacement_lies_in_squared_ideal():
    # the alternative top-degree invariant built from the product invariant
    # agrees with the power sum modulo the square of the invariant ideal,
    # checked by one graded linear solve over the rationals
    d = build_datum("D4")
    ring = d.ring
    x = ring.gens()
    prod = None
    psum = None
    for p in d.invariants:
        if p.deg() == 4:
            if len(p.t) == 1:
                prod = p
            else:
                psum = p
    grad = prod.grad()
    gamma = PolyMatrix.from_scalars(ring, d.gram_dual)
    dual = gamma.mul_vec(grad)
    hat = ring.zero()
    for a, b in zip(grad, dual):
        hat = hat + a * b
    # candidates: hat and psum are both degree-6... degree of hat is 6
    deg6 = [p for p in d.invariants if p.deg() == 6][0]
    from coxsaito.engine import Witness, graded_membership

    f_sq = []
    for i, p in enumerate(d.invariants):
        for q in d.invariants[i:]:
            f_sq.append(p * q)
    # deg6 - c * hat lies in F^2 for some scalar c: solve with hat adjoined
    res = graded_membership(deg6, [hat] + [g for g in f_sq if g.deg() <= 6])
    assert isinstance(res, Witness)
    c = res.cofactors[0]
    assert c.is_constant() and c
