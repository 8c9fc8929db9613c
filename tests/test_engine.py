import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from coxsaito.poly import Poly, PolyRing
from coxsaito.polymatrix import hessian
from coxsaito.saito import build_saito
from coxsaito.scalars import Quad


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
    sol = solve_linear(eqs, 2, 1)[0]
    assert sol == {0: Fraction(2), 1: Fraction(1)}
    bad = [({0: one}, [one]), ({0: one}, [Fraction(2)])]
    assert solve_linear(bad, 1, 1)[0] is None
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
    solutions = solve_linear(eqs, n, nrhs)
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

    def accept(t, cand):
        for row, rhs in zip(A, B):
            if sum((row[j] * v for j, v in cand.items()), Fraction(0)) != rhs[t]:
                raise EngineError("not a solution")
        return cand

    answers, _ = eng._modular_solve(cols, tvecs, len(A), d, accept)
    assert answers == solutions


def _settle_nothing(cols, targets, *args):
    return [None] * len(targets), set()


def test_modular_path_matches_exact(ring, monkeypatch):
    x, y = ring.gens()
    gens = [
        ring.from_dict({(3, 0): Fraction(2), (1, 2): Fraction(-1)}),
        ring.from_dict({(0, 3): Fraction(5), (2, 1): Fraction(7)}),
        ring.from_dict({(2, 1): Fraction(1), (1, 2): Fraction(4)}),
    ]
    target = gens[0] * (x + 2 * y) + gens[1] * (3 * x) + gens[2] * (y - x)
    modular = graded_membership(target, gens)
    nm = graded_membership(x**4, [y * y * y * x])
    # the exact reference: the modular run settles nothing
    monkeypatch.setattr(eng, "_modular_solve", _settle_nothing)
    exact = graded_membership(target, gens)
    exact_nm = graded_membership(x**4, [y * y * y * x])
    assert isinstance(exact, Witness) and isinstance(modular, Witness)
    assert modular.verify() and modular.cofactors == exact.cofactors
    assert isinstance(nm, NonMembership) and nm.verify()
    assert nm.functional == exact_nm.functional


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


def test_wrong_modular_candidates_fall_back_to_exact(ring, monkeypatch):
    x, y = ring.gens()
    gens = [x * x - y * y, y * y + 2 * x * y]
    targets = [x * x + 2 * (y * y) + 6 * (x * y), x * y, 2 * (x * x) - 2 * (y * y)]
    qtarget, qgens = _quad_nonmember()
    monkeypatch.setattr(eng, "_modular_solve", _settle_nothing)
    exact = graded_membership_batch(targets, gens)
    exact_q = graded_membership(qtarget, qgens)

    offered = []

    def wrong(cols, tvecs, nrows, d, accept):
        # offer a wrong candidate for every target and call every target
        # inconsistent, so the functional path is offered wrong ones too
        for t in range(len(tvecs)):
            offered.append(t)
            with pytest.raises(EngineError):
                accept(t, {0: ring.coeff(7) if d is None else Quad(7, 1, d)})
        return [None] * len(tvecs), set(range(len(tvecs)))

    monkeypatch.setattr(eng, "_modular_solve", wrong)
    got = graded_membership_batch(targets, gens)
    got_q = graded_membership(qtarget, qgens)
    assert offered
    assert [type(r) for r in got] == [Witness, NonMembership, Witness]
    for r, e in zip(got, exact):
        assert r.verify()
        if isinstance(r, Witness):
            assert r.cofactors == e.cofactors
        else:
            assert r.functional == e.functional
    assert isinstance(got_q, NonMembership) and got_q.functional == exact_q.functional


def test_modular_solve_skips_unlucky_prime():
    p0 = eng._PRIMES[0]
    one = Fraction(1)
    # the column vanishes mod the first prime: that pivot pattern is worse
    # than the next prime's, which restarts the reconstruction
    cols = [{0: Fraction(p0)}, {0: one, 1: one}]
    targets = [{0: Fraction(p0) + 1, 1: one}]

    def accept(t, sol):
        for r, b in targets[0].items():
            if sum((cols[j].get(r, 0) * v for j, v in sol.items()), Fraction(0)) != b:
                raise EngineError("not a solution")
        return sol

    answers, inconsistent = eng._modular_solve(cols, targets, 2, None, accept)
    assert answers == [{0: one, 1: one}]
    assert not inconsistent


def test_rat_reconstruct_past_float_range():
    m = math.prod(eng._PRIMES)
    assert m > 2**1100
    rng = random.Random(5)
    n = rng.getrandbits(500) | 1
    d = rng.getrandbits(480) | 1
    frac = Fraction(n, d)
    r = frac.numerator * pow(frac.denominator, -1, m) % m
    assert eng._rat_reconstruct(r, m) == frac


def test_membership_with_coefficients_past_every_prime():
    # the cofactors need far more than the 48 primes' modulus, so the
    # modular run goes through every prime and the exact kernel decides
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


def test_functionals_do_not_depend_on_term_order():
    # the Hessian rank condition's targets on A3, for every pair (i, j),
    # each batch solved once as built and once with every polynomial's
    # terms stored in reverse
    datum = build_datum("A3")
    sd = build_saito(datum)
    gens = [p for p in datum.invariants if p.whomog_degree() < datum.coxeter_number]

    def reversed_terms(p):
        return Poly(p.ring, dict(reversed(p.t.items())))

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
