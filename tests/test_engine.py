import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import exact_membership, integer_system, reference_rref_mod, scalars

import coxsaito.engine as eng
from coxsaito.algebra import _nullspace
from coxsaito.engine import (
    EngineError,
    NonMembership,
    Witness,
    codim_at_least_two,
    graded_membership,
    graded_membership_batch,
    groebner,
    krull_dimension,
    rank_of_vectors,
    solve_linear,
    squarefree_test,
)
from coxsaito.catalog import build_datum
from coxsaito.poly import PolyRing
from coxsaito.polymatrix import hessian
from coxsaito.rankcond import ARRANGEMENT, build_minor_table, check_grc
from coxsaito.saito import build_saito
from coxsaito.scalars import Quad, integer_parts
from coxsaito.workspace import Workspace


@pytest.fixture
def ring():
    return PolyRing(("x", "y"))


def test_membership_trivial(ring):
    x, y = ring.gens()
    w = graded_membership(x * x, [x])
    assert isinstance(w, Witness)
    assert w.cofactors[0] == x
    assert w.verify()


def test_membership_degree_obstruction(ring):
    x, y = ring.gens()
    res = graded_membership(x, [x * x, y * y])
    assert isinstance(res, NonMembership)
    assert res.verify()


def test_membership_near_miss(ring):
    x, y = ring.gens()
    # x^2 + y^2 is in the span, x^2 + x y is not in <x^2 - y^2, y^2>? it is:
    # x^2 + xy = (x^2 - y^2) + y^2 + xy ... xy is not reachable
    res = graded_membership(x * y, [x * x - y * y, y * y])
    assert isinstance(res, NonMembership)
    w = graded_membership(x * x + 3 * (y * y), [x * x - y * y, y * y])
    assert isinstance(w, Witness)


def test_witness_reverification_catches_tampering(ring):
    x, y = ring.gens()
    w = graded_membership(x * x + y * y, [x, y])
    doc = w.to_json()
    # perturb one cofactor
    doc["cofactors"][0]["terms"][0]["coeff"]["a"] = ["7", "1"]
    with pytest.raises(EngineError):
        Witness.from_json(doc, ring)


def test_batch_membership(ring):
    x, y = ring.gens()
    res = graded_membership_batch([x * x, x * y, y * y], [x, y])
    assert all(isinstance(r, Witness) for r in res)


def test_membership_in_the_zero_ideal(ring):
    x, y = ring.gens()
    targets = [x * x + 2 * (x * y), y * y]
    for gens in ([], [ring.zero()]):
        res = graded_membership_batch(targets, gens)
        assert [r.target for r in res] == targets
        assert all(isinstance(r, NonMembership) and r.verify() for r in res)
        assert all(NonMembership.from_json(r.to_json(), ring).verify() for r in res)


def test_membership_requires_homogeneous(ring):
    x, y = ring.gens()
    with pytest.raises(EngineError):
        graded_membership(x + x * x, [x])


def test_weighted_membership():
    pring = PolyRing(("p1", "p2"), weights=(2, 3))
    p1, p2 = pring.gens()
    w = graded_membership(p1**3 + p2 * p2, [p1 * p1, p2])
    assert isinstance(w, Witness)


def test_groebner_tiny(ring):
    x, y = ring.gens()
    gb = groebner([x - 1, y - x])
    assert gb == [x - 1, y - 1] or gb == [y - 1, x - 1]


def normal_form(f, gb):
    return f.reduce(gb)[1]


def test_groebner_normal_form_properties(ring):
    x, y = ring.gens()
    gens = [x * x * y - 1, x * y * y - x]
    gb = groebner(gens)
    # ideal membership of the generators and of s-polynomial combinations
    for g in gens:
        assert not normal_form(g, gb)
    # normal form is idempotent and linear
    rng = random.Random(2)
    for _ in range(8):
        f = ring.from_dict(
            {
                (rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.randint(-3, 3))
                for _ in range(4)
            }
        )
        g = ring.from_dict(
            {
                (rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.randint(-3, 3))
                for _ in range(4)
            }
        )
        nf_f = normal_form(f, gb)
        nf_g = normal_form(g, gb)
        assert normal_form(nf_f, gb) == nf_f
        assert normal_form(f + g, gb) == nf_f + nf_g
        assert normal_form(f.scale(3) - g.scale(2), gb) == nf_f.scale(3) - nf_g.scale(2)


def test_groebner_buchberger_closure_oracle(ring):
    # the reduced basis reduces every s-polynomial to zero
    from coxsaito.engine import _spair

    x, y = ring.gens()
    rng = random.Random(4)
    for _ in range(4):
        f = ring.from_dict(
            {(rng.randint(0, 2), rng.randint(0, 2)): Fraction(rng.randint(-3, 3)) for _ in range(3)}
        )
        g = ring.from_dict(
            {(rng.randint(0, 2), rng.randint(0, 2)): Fraction(rng.randint(-3, 3)) for _ in range(3)}
        )
        if not f or not g:
            continue
        gb = groebner([f, g])
        for i in range(len(gb)):
            for j in range(i + 1, len(gb)):
                assert not normal_form(_spair(gb[i], gb[j]), gb)


def test_graded_and_groebner_agree(ring):
    x, y = ring.gens()
    rng = random.Random(6)
    for _ in range(6):
        gens = [
            ring.from_dict({(2, 0): Fraction(rng.randint(-3, 3)), (1, 1): Fraction(rng.randint(-3, 3))}),
            ring.from_dict({(0, 2): Fraction(rng.randint(-3, 3)), (1, 1): Fraction(rng.randint(-3, 3))}),
        ]
        gens = [g for g in gens if g]
        if not gens:
            continue
        target = ring.from_dict(
            {(3, 0): Fraction(rng.randint(-2, 2)), (1, 2): Fraction(rng.randint(-2, 2))}
        )
        if not target:
            continue
        graded = graded_membership(target, gens)
        gb = groebner(gens)
        gb_member = not normal_form(target, gb)
        assert isinstance(graded, Witness) == gb_member


def test_b3_style_groebner_fixture():
    pring = PolyRing(("x", "y", "z"), weights=(2, 4, 6))
    x, y, z = pring.gens()
    gens = [
        x * x * y - 4 * (y * y) + 3 * (x * z),
        x * x * z - 3 * (y * z),
        x * y * z - 9 * (z * z),
    ]
    gb = groebner(gens)
    # the basis spans the ideal of the generators: each side lies in the other
    assert all(not normal_form(g, gb) for g in gens)
    assert all(isinstance(graded_membership(g, gens), Witness) for g in gb)


def test_krull_dimension(ring):
    x, y = ring.gens()
    assert krull_dimension([x, y]) == 0
    assert krull_dimension([x]) == 1
    assert krull_dimension([ring.one()]) == -1
    with pytest.raises(EngineError):
        krull_dimension([ring.zero()])


def test_codim_at_least_two():
    r3 = PolyRing(("x", "y", "z"))
    x, y, z = r3.gens()
    assert codim_at_least_two([x, y])
    assert not codim_at_least_two([x * y, x * z])  # codim 1 component {x=0}


def test_codim_common_factor_with_vanishing_leading_coefficient():
    # h = (u - 2) v + 1 is a common curve of both generators; its leading
    # coefficient in v vanishes at u = 2, the first specialization tried,
    # where h would drop out of the specialized pair
    r2 = PolyRing(("u", "v"))
    u, v = r2.gens()
    h = (u - 2) * v + 1
    assert not codim_at_least_two([h * (v + u), h * (v - u)])
    assert codim_at_least_two([v + u, v - u])


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([None, 5]), st.integers(0, 2**32 - 1))
def test_pair_sharing_a_curve_is_never_cut_to_points(d, seed):
    # f h and g h share the curve h = 0, which depends on the second
    # variable, so no specialization of the pair may certify finitely many
    # common points; pairs over Q(sqrt 5) have surd coefficients.  The
    # coprime pair u^2 - v, v^2 - 2 u + c is certified
    rng = random.Random(seed)
    r2 = PolyRing(("u", "v"), d=d)
    u, v = r2.gens()

    def coeff():
        a = rng.randint(-4, 4)
        return r2.coeff(a if d is None else Quad(a, rng.randint(-2, 2), d))

    def poly(deg):
        return r2.from_dict({e: coeff() for k in range(deg + 1) for e in r2.monomials(k)})

    h = poly(rng.randint(0, 2)) * (u + 1) + v.scale(coeff() or r2.coeff(1))
    f, g = poly(rng.randint(1, 2)), poly(rng.randint(1, 2))
    if f and g:
        assert not eng._pair_cuts_out_points(f * h, g * h)
    shift = r2.one().scale(coeff())
    assert eng._pair_cuts_out_points(u * u - v, v * v - u.scale(2) + shift)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([None, 5]), st.sampled_from([2, 3]), st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_generators_sharing_a_factor_are_never_certified(d, n, k, seed):
    # k generators h f_i share the hypersurface h = 0, of codimension 1, so
    # no plane cut and no combination may certify them.  In three variables
    # the cut is sound for cones, so there every polynomial is homogeneous;
    # in two the ring is its own plane and any polynomials will do.  With a
    # nonzero constant added the ideal is the unit ideal, which is certified
    rng = random.Random(seed)
    ring = PolyRing(("u", "v", "w")[:n], d=d)

    def coeff():
        a = rng.randint(-4, 4)
        return ring.coeff(a if d is None else Quad(a, rng.randint(-2, 2), d))

    def poly(low, high):
        degrees = [high] if n == 3 else range(low, high + 1)
        return ring.from_dict({e: coeff() for k in degrees for e in ring.monomials(k)})

    h = poly(0, rng.randint(1, 2))
    if h.is_constant():
        h = h + ring.gen(rng.randrange(n))
    gens = [h * poly(0, rng.randint(0, 2)) for _ in range(k)]
    assert not codim_at_least_two(gens)
    gens.insert(rng.randint(0, k), ring.one().scale(coeff() or ring.coeff(1)))
    assert codim_at_least_two(gens)


def test_codim_in_one_variable_is_decided_exactly():
    r1 = PolyRing(("x",))
    (x,) = r1.gens()
    assert not codim_at_least_two([x])
    assert not codim_at_least_two([x * x, x.scale(3)])
    assert codim_at_least_two([x, r1.one()])


def test_squarefree(ring):
    x, y = ring.gens()
    assert not squarefree_test(x * x)
    assert squarefree_test(x * y)
    assert squarefree_test(x * y * (x + y))
    assert not squarefree_test(x * x * x + x * x * y)  # x^2 (x + y)
    with pytest.raises(EngineError):
        squarefree_test(ring.zero())


def test_solve_linear_and_rank():
    one = Fraction(1)
    eqs = [({0: one, 1: one}, [Fraction(3)]), ({0: one, 1: -one}, [Fraction(1)])]
    sol = solve_linear(eqs, 1)[0]
    assert sol == {0: Fraction(2), 1: Fraction(1)}
    bad = [({0: one}, [one]), ({0: one}, [Fraction(2)])]
    assert solve_linear(bad, 1)[0] is None
    assert rank_of_vectors([{0: one}, {0: one * 2}, {1: one}]) == 2


def _dense_rank(rows):
    """Reference rank by dense Gauss-Jordan elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


_SMALL = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(-3, 2)])


@st.composite
def _sparse_systems(draw):
    """(d, A, B): a small sparse m x n matrix over Q (d None) or Q(sqrt 5)
    and right-hand sides, half of them in the column space of A."""
    d = draw(st.sampled_from([None, 5]))
    m, n, nrhs = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 3))

    def scalar():
        a = Fraction(draw(_SMALL))
        return a if d is None else Quad(a, draw(_SMALL), 5)

    A = [[scalar() for _ in range(n)] for _ in range(m)]
    cols = []
    for _ in range(nrhs):
        if draw(st.booleans()):
            x = [scalar() for _ in range(n)]
            cols.append([sum((a * xi for a, xi in zip(row, x)), Fraction(0)) for row in A])
        else:
            cols.append([scalar() for _ in range(m)])
    B = [[col[i] for col in cols] for i in range(m)]
    return d, A, B


@settings(max_examples=150, deadline=None)
@given(_sparse_systems())
def test_elimination_kernel_properties(system):
    d, A, B = system
    n, nrhs = len(A[0]), len(B[0])
    eqs = [({j: c for j, c in enumerate(row) if c}, rhs) for row, rhs in zip(A, B)]
    rank_a = _dense_rank(A)
    assert rank_of_vectors([row for row, _ in eqs]) == rank_a
    solutions = solve_linear(eqs, nrhs)
    for t, sol in enumerate(solutions):
        aug = [row + [rhs[t]] for row, rhs in zip(A, B)]
        assert (sol is None) == (_dense_rank(aug) > rank_a)
        if sol is not None:
            assert set(sol) <= set(range(n))
            for row, rhs in zip(A, B):
                assert sum((row[j] * v for j, v in sol.items()), Fraction(0)) == rhs[t]
    basis = _nullspace(A, n, PolyRing(("x",), d=d))
    assert len(basis) == n - rank_a
    for vec in basis:
        for row in A:
            assert not sum((a * b for a, b in zip(row, vec)), Fraction(0))
    assert _dense_rank(basis) == len(basis)
    # the modular path settles exactly the consistent right-hand sides, each
    # with the kernel's solution: same pivots, free unknowns zero
    cols = [{i: row[j] for i, row in enumerate(A) if row[j]} for j in range(n)]
    tvecs = [{i: rhs[t] for i, rhs in enumerate(B) if rhs[t]} for t in range(nrhs)]

    def accept(t, den, nums):
        cand = scalars((den, nums), d)
        for row, rhs in zip(A, B):
            if sum((row[j] * v for j, v in cand.items()), Fraction(0)) != rhs[t]:
                raise EngineError("not a solution")
        return cand

    answers, _ = eng._modular_solve(*integer_system(cols, tvecs, d), len(A), d, accept)
    assert answers == solutions


_M31 = 2**31 - 1


@st.composite
def _residue_systems(draw):
    """(p, nun, M): an m x (nun + nrhs) matrix of residues mod p, dense or
    sparse, with rows that may be combinations of the ones before them.
    At p = 2^31 - 1, room = 2^62 // p^2 is 1: every update is reduced."""
    p = draw(st.sampled_from([eng._PRIMES[0], _M31]))
    m, nun, nrhs = draw(st.integers(1, 8)), draw(st.integers(1, 8)), draw(st.integers(1, 3))
    width = nun + nrhs
    entry = st.integers(0, p - 1)
    if draw(st.booleans()):
        entry = st.one_of(st.just(0), st.just(0), entry)  # sparse
    rows = []
    for _ in range(m):
        if rows and draw(st.booleans()):
            # rank deficient: a combination of earlier rows
            coeffs = [draw(st.integers(0, p - 1)) for _ in rows]
            rows.append([sum(c * row[j] for c, row in zip(coeffs, rows)) % p
                         for j in range(width)])
        else:
            rows.append([draw(entry) for _ in range(width)])
    return p, nun, np.array(rows, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(_residue_systems())
# dense and 12 rows at p = 2^31 - 1: the last rows take 11 updates of about
# p^2 / 4 each, which pass 2^63 unless every update is reduced
@example((_M31, 12, np.random.default_rng(0).integers(0, _M31, (12, 14), dtype=np.int64)))
def test_forward_kernel_matches_the_full_rref(system):
    # same pivots, same values of the pivot unknowns and same residues of
    # inconsistency as the reference, which eliminates above and below every
    # pivot across the full width and reduces after every update
    p, nun, M = system
    got, want = M.copy(), M.copy()
    order = list(range(len(M)))
    pivots = eng._rref_mod(got, p, nun, order)
    assert pivots == reference_rref_mod(want, p, nun)
    assert (got[:, nun:] == want[:, nun:]).all()
    # the multipliers and pivot inverses it leaves in the pivot columns are
    # LU factors of the rows in their new order: P A_RC = L U mod p, and
    # every later row of P A_C is its multipliers times U (Python ints, so
    # the products cannot overflow)
    rank = len(pivots)
    assert sorted(order) == list(range(len(M)))
    F = (got[:, list(pivots)] % p).astype(object)
    U = np.triu(F[:rank], 1) + np.eye(rank, dtype=np.int64).astype(object)
    L = np.tril(F, -1)
    for k in range(rank):
        L[k, k] = pow(F[k, k], -1, p)
    L[rank:] = F[rank:]
    assert (L.dot(U) % p == M[order][:, list(pivots)].astype(object) % p).all()


def test_witness_from_integers_matches_one_from_scalars(monkeypatch):
    # the membership witness built from (den, numerators), over 6 times the
    # least denominator and with negative numerators, has the cofactors
    # built from the same scalars with from_dict
    for d in (None, 5):
        qring = PolyRing(("x", "y"), d=d)
        x, y = qring.gens()
        gens = [x * x - y * y.scale(3), x * y]
        cofactors = [x.scale(Fraction(-2, 3)) + y,
                     y.scale(Fraction(5, 6)) + x.scale(1 if d is None else Quad(0, Fraction(-1, 4), 5))]
        target = gens[0] * cofactors[0] + gens[1] * cofactors[1]
        # one unknown per generator times cofactor monomial, numbered as the
        # membership system numbers its columns
        unknowns = [(i, mu) for i in range(2) for mu in qring.monomials(1)]
        values = {j: cofactors[i].coeff_of(mu) for j, (i, mu) in enumerate(unknowns)}
        den, nums = integer_parts({j: v for j, v in values.items() if v}, d)
        six = {j: 6 * n if d is None else (6 * n[0], 6 * n[1]) for j, n in nums.items()}
        monkeypatch.setattr(eng, "_modular_solve",
                            lambda entries, dens, nun, nrows, d_, accept, *rest: ([accept(0, 6 * den, six)], set()))
        (got,) = graded_membership_batch([target], gens)
        by_scalars = [qring.from_dict({mu: values[j] for j, (i, mu) in enumerate(unknowns) if i == k})
                      for k in range(2)]
        assert got.cofactors == by_scalars == cofactors


def _settle_nothing(entries, dens, nun, *args):
    return [None] * (len(dens) - nun), set()


def test_modular_path_matches_exact(ring):
    # the exact reference solves the same system with the exact kernel
    x, y = ring.gens()
    gens = [
        ring.from_dict({(3, 0): Fraction(2), (1, 2): Fraction(-1)}),
        ring.from_dict({(0, 3): Fraction(5), (2, 1): Fraction(7)}),
        ring.from_dict({(2, 1): Fraction(1), (1, 2): Fraction(4)}),
    ]
    target = gens[0] * (x + 2 * y) + gens[1] * (3 * x) + gens[2] * (y - x)
    modular = graded_membership(target, gens)
    nm = graded_membership(x**4, [y * y * y * x])
    assert isinstance(modular, Witness) and modular.verify()
    assert modular.cofactors == exact_membership(target, gens)
    assert isinstance(nm, NonMembership) and nm.verify()
    assert nm.functional == exact_membership(x**4, [y * y * y * x])


def _quad_nonmember():
    qring = PolyRing(("x", "y", "z"), d=5)
    x, y, z = qring.gens()
    phi = qring.coeff(Quad(Fraction(1, 2), Fraction(1, 2), 5))
    gens = [x * x - (y * z).scale(phi), y * y + (x * z).scale(phi), z * z]
    return x * y * z, gens


def test_modular_functional_over_quadratic_field(monkeypatch):
    def no_exact(*args, **kwargs):
        raise AssertionError("exact solve reached")

    target, gens = _quad_nonmember()
    monkeypatch.setattr(eng, "solve_linear", no_exact)
    res = graded_membership(target, gens)
    assert isinstance(res, NonMembership)
    assert NonMembership(target, gens, res.functional).verify()


def test_wrong_modular_candidates_raise_engine_error(ring, monkeypatch):
    # a wrong candidate is never accepted, and a target the modular run
    # leaves unsettled is an error, not an answer from another path
    x, y = ring.gens()
    gens = [x * x - y * y, y * y + 2 * x * y]
    targets = [x * x + 2 * (y * y) + 6 * (x * y), x * y, 2 * (x * x) - 2 * (y * y)]
    qtarget, qgens = _quad_nonmember()
    offered = []

    def offer(accept, t, d):
        offered.append(t)
        with pytest.raises(EngineError):
            accept(t, 1, {0: 7 if d is None else (7, 1)})

    def wrong(entries, dens, nun, nrows, d, accept, functional=None, first=0):
        # offer a wrong candidate for every target and call every target
        # inconsistent, so the functional path is offered wrong ones too:
        # each target's transposed system has one target, numbered 0
        nrhs = len(dens) - nun
        for t in range(nrhs):
            offer(accept, t, d)
        if functional is None:
            return [None] * nrhs, set(range(nrhs))
        for t in range(nrhs):
            offer(lambda _, den, nums: functional(t, den, nums), 0, d)
        return [None] * nrhs, set()

    monkeypatch.setattr(eng, "_modular_solve", wrong)
    with pytest.raises(EngineError):
        graded_membership_batch(targets, gens)
    # one membership offer per target, then one functional offer for each
    assert offered == [0, 1, 2, 0, 0, 0]
    offered.clear()
    with pytest.raises(EngineError):
        graded_membership(qtarget, qgens)
    assert offered == [0, 0]


def test_unsettled_membership_is_an_error_verdict(monkeypatch):
    # a check whose membership the modular run leaves unsettled ends in an
    # error verdict naming EngineError, not in a fail or a traceback
    tab = build_minor_table(build_saito(build_datum("A2")), ARRANGEMENT)
    assert check_grc(tab).verdict == "pass"
    monkeypatch.setattr(eng, "_modular_solve", _settle_nothing)
    cert = check_grc(tab)
    assert cert.verdict == "error"
    assert cert.detail.startswith("EngineError")


def test_modular_solve_skips_unlucky_prime():
    p0 = eng._PRIMES[0]
    one = Fraction(1)
    # the column vanishes mod the first prime: that pivot pattern is worse
    # than the next prime's, which restarts the reconstruction
    cols = [{0: Fraction(p0)}, {0: one, 1: one}]
    targets = [{0: Fraction(p0) + 1, 1: one}]

    def accept(t, den, nums):
        sol = scalars((den, nums), None)
        for r, b in targets[0].items():
            if sum((cols[j].get(r, 0) * v for j, v in sol.items()), Fraction(0)) != b:
                raise EngineError("not a solution")
        return sol

    answers, inconsistent = eng._modular_solve(*integer_system(cols, targets, None), 2, None, accept)
    assert answers == [{0: one, 1: one}]
    assert not inconsistent


def test_membership_past_a_prime_unlucky_for_either_system(ring):
    # modulo the first prime the member x of (p0 x) looks inconsistent and
    # its transposed system has a functional, which is rejected; the
    # non-member p0 x of (y) looks consistent and its transposed system has
    # none.  Later primes settle both, as a verified witness or functional
    x, y = ring.gens()
    p0 = eng._PRIMES[0]
    member = graded_membership(x, [x.scale(p0)])
    assert isinstance(member, Witness) and member.verify()
    assert member.cofactors == [ring.coeff(Fraction(1, p0))]
    nonmember = graded_membership(x.scale(p0), [y])
    assert isinstance(nonmember, NonMembership) and nonmember.verify()


def test_modular_solve_moves_past_a_stable_wrong_candidate():
    # the target is consistent modulo the first prime but not over Q: the
    # subsystem's candidate is the same on every step and is rejected; it
    # is offered once, and the next prime finds the target inconsistent.
    # Over Q(sqrt 5) the same happens at the first prime where 5 is a square
    for d in (None, 5):
        p0 = eng._primes_for(d)[0][0]
        one = Fraction(1) if d is None else Quad(1, 0, d)
        cols = [{0: one}]
        targets = [{0: one if d is None else Quad(1, 1, d), 1: p0 * one}]
        offered = []

        def accept(t, den, nums):
            offered.append((den, nums))
            raise EngineError("not a solution")

        answers, inconsistent = eng._modular_solve(*integer_system(cols, targets, d), 2, d, accept)
        assert answers == [None] and inconsistent == {0}
        assert offered == [(1, {0: 1 if d is None else (1, 1)})]


def _int_entry(rng, bits):
    """A nonzero integer of at most the given number of bits."""
    return rng.choice((-1, 1)) * rng.randint(1, 2**bits)


@st.composite
def _lifted_systems(draw):
    """(d, A, B): an m x n system over Q or Q(sqrt 5), square or
    overdetermined, with up to two columns combinations of others, entries
    of 12 bits, of 40 (past the bound for int64 residuals) or of 70 (past
    int64 itself), and right-hand sides A x for x of 60-150 bits over
    denominators of up to 8, or random ones where A has fewer independent
    columns than rows (they are then inconsistent) or small entries, so
    that every solution is within the lifting's reach."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.sampled_from([None, 5]))
    surd = d is not None and draw(st.booleans())
    n = draw(st.integers(1, 5))
    m = draw(st.integers(n, n + 3))
    bits = draw(st.sampled_from([12, 40, 70]))

    def scalar(b, den_bits=0):
        a = Fraction(_int_entry(rng, b), rng.randint(1, 2**den_bits))
        if d is None:
            return a
        return Quad(a, Fraction(_int_entry(rng, b), rng.randint(1, 2**den_bits)) if surd else 0, d)

    zero = Fraction(0) if d is None else Quad(0, 0, d)
    columns = [[scalar(bits) if rng.random() < 0.8 else zero for _ in range(m)] for _ in range(n)]
    dependent = rng.sample(range(n), min(n - 1, draw(st.integers(0, 2))))
    sources = [k for k in range(n) if k not in dependent]
    for j in dependent:
        a, b = rng.choice(sources), rng.choice(sources)
        ca, cb = scalar(3), scalar(3)
        columns[j] = [ca * x + cb * y for x, y in zip(columns[a], columns[b])]
    A = [[col[i] for col in columns] for i in range(m)]
    B = []
    for _ in range(draw(st.integers(1, 3))):
        if m == n and not dependent and bits > 12 or draw(st.booleans()):
            size = draw(st.integers(60, 150))
            x = [scalar(size, 3) for _ in range(n)]
            B.append([sum((a * xi for a, xi in zip(row, x)), zero) for row in A])
        else:
            B.append([scalar(bits) for _ in range(m)])
    return d, A, [list(rhs) for rhs in zip(*B)]


@settings(max_examples=120, deadline=None)
@given(_lifted_systems())
def test_lifting_matches_the_exact_kernel(system):
    # the lifted solve settles every consistent right-hand side with the
    # exact kernel's solution (same pivots, free unknowns zero) and reports
    # every inconsistent one, whether the residuals run in int64 or not
    d, A, B = system
    n, nrhs = len(A[0]), len(B[0])
    eqs = [({j: c for j, c in enumerate(row) if c}, rhs) for row, rhs in zip(A, B)]
    solutions = solve_linear(eqs, nrhs)

    def accept(t, den, nums):
        cand = scalars((den, nums), d)
        for row, rhs in zip(A, B):
            if sum((row[j] * v for j, v in cand.items()), Fraction(0)) != rhs[t]:
                raise EngineError("not a solution")
        return cand

    cols = [{i: row[j] for i, row in enumerate(A) if row[j]} for j in range(n)]
    tvecs = [{i: rhs[t] for i, rhs in enumerate(B) if rhs[t]} for t in range(nrhs)]
    answers, inconsistent = eng._modular_solve(*integer_system(cols, tvecs, d), len(A), d, accept)
    assert answers == solutions
    assert inconsistent == {t for t, sol in enumerate(solutions) if sol is None}


def test_one_elimination_per_embedding_per_system(monkeypatch):
    # every membership system of H3's grc-A, grc-D and drc (and of the
    # Saito matrix they build) is eliminated once per embedding: twice where
    # a column or target has a surd part, once where none has (some of
    # grc-D's); further digits come from lifting, not from eliminating again
    # per prime
    calls, expected = [], []
    rref, solve = eng._rref_mod, eng._modular_solve

    def counting_rref(*args):
        calls.append(args[0].shape)
        return rref(*args)

    def counting_solve(entries, dens, nun, nrows, d, *rest, **kw):
        quad = d is not None and any(x[1] for _, _, x in entries)
        expected.append(2 if quad else 1)
        return solve(entries, dens, nun, nrows, d, *rest, **kw)

    monkeypatch.setattr(eng, "_rref_mod", counting_rref)
    monkeypatch.setattr(eng, "_modular_solve", counting_solve)
    ws = Workspace()
    for suite in ("grc-A", "grc-D", "drc"):
        assert [c.verdict for c in ws.run_suite("H3", suite)] == ["pass"]
    assert len(expected) >= 16 and 1 in expected and 2 in expected
    assert len(calls) == sum(expected)


def test_rat_reconstruct_past_float_range():
    m = math.prod(eng._PRIMES)
    assert m > 2**1100
    rng = random.Random(5)
    n = rng.getrandbits(500) | 1
    d = rng.getrandbits(480) | 1
    frac = Fraction(n, d)
    r = frac.numerator * pow(frac.denominator, -1, m) % m
    assert eng._rat_reconstruct(r, m) == frac


def test_membership_with_coefficients_past_every_prime(monkeypatch):
    # the cofactors need far more than 48 p-adic digits, so lifting runs
    # past 48 steps, and it alone decides: the exact kernel is not reached
    def no_exact(*args, **kwargs):
        raise AssertionError("exact solve reached")

    monkeypatch.setattr(eng, "solve_linear", no_exact)
    xr = PolyRing(("x", "y", "z"))
    x, y, z = xr.gens()
    rng = random.Random(3)
    terms = {
        mon: Fraction(rng.getrandbits(700) + 1, rng.getrandbits(600) + 1)
        for mon in xr.monomials(3)
    }
    target = xr.from_dict(terms)
    assert len(target.t) == 10
    res = graded_membership(target, [x, y, z])
    assert isinstance(res, Witness) and res.verify()


def test_lifting_stops_at_a_zero_residual(monkeypatch):
    # the system of test_membership_with_coefficients_past_every_prime: its
    # solution is integral in the scaled system, with numerators of about
    # 6059 bits, so the residual is zero after about 243 steps, where the
    # digits are handed on; reconstruction alone would lift to 511
    calls = []
    real = eng._solve_mod
    monkeypatch.setattr(eng, "_solve_mod", lambda *args: calls.append(1) or real(*args))
    xr = PolyRing(("x", "y", "z"))
    x, y, z = xr.gens()
    rng = random.Random(3)
    terms = {
        mon: Fraction(rng.getrandbits(700) + 1, rng.getrandbits(600) + 1)
        for mon in xr.monomials(3)
    }
    res = graded_membership(xr.from_dict(terms), [x, y, z])
    assert isinstance(res, Witness) and res.verify()
    assert len(calls) < 300


def test_functionals_do_not_depend_on_term_order():
    # the Hessian rank condition's targets on A3, for every pair (i, j),
    # each batch solved once as built and once with every polynomial's
    # terms stored in reverse
    datum = build_datum("A3")
    sd = build_saito(datum)
    gens = [p for p in datum.invariants if p.whomog_degree() < datum.coxeter_number]

    def reversed_terms(p):
        return p.ring.from_dict(dict(reversed(p.t.items())))

    functionals = 0
    for j in range(datum.rank):
        for i in range(datum.rank):
            targets = [v for v in hessian(datum.invariants[i]).mul_vec(sd.eta.col(j)) if v]
            built = graded_membership_batch(targets, gens)
            stored = graded_membership_batch(
                [reversed_terms(t) for t in targets], [reversed_terms(g) for g in gens]
            )
            for a, b in zip(built, stored):
                assert type(a) is type(b)
                if isinstance(a, NonMembership):
                    functionals += 1
                    assert a.functional == b.functional
    assert functionals == 21


def test_modular_primes_are_the_trial_division_list():
    # the first primes above 2^25 that are 3 mod 4, found by trial division
    primes = []
    p = (1 << 25) - 1
    while len(primes) < len(eng._PRIMES):
        p += 4
        if all(p % f for f in range(3, math.isqrt(p) + 1, 2)):
            primes.append(p)
    assert eng._PRIMES == primes
