from dataclasses import replace

import pytest

import coxsaito.freediv as freediv
from coxsaito.catalog import _elementary_symmetric, build_datum
from coxsaito.freediv import (
    adjoint_divisor,
    check_b3_fixture,
    check_basis_change,
    check_derivative_ideal,
    check_distinguished_monomials,
    check_free_divisor_sum,
    check_lift,
    corner_minor,
    published_b3_ideal,
    published_b3_matrix,
    solve_basis_change,
)
from coxsaito.poly import Substitution
from coxsaito.rankcond import DISCRIMINANT, build_minor_table
from coxsaito.saito import build_saito, normalize_linear_part
from coxsaito.workspace import Workspace


_WS = {}


def setup(name):
    if name not in _WS:
        d = build_datum(name)
        sd = build_saito(d)
        tD = build_minor_table(sd, DISCRIMINANT)
        _WS[name] = (d, sd, tD, Substitution(d.p_ring, d.invariants, d.ring))
    return _WS[name]


FAST_TYPES = ("A2", "B2", "I2(3)", "I2(4)", "I2(5)", "I2(6)", "I2(8)", "A3", "B3")


def test_adjoint_divisor_reduced_and_codim_two():
    for name in ("A2", "B2", "B3", "I2(5)"):
        d, sd, tD, cache = setup(name)
        cert = adjoint_divisor(tD)
        assert cert.verdict == "pass", (name, cert.detail)


def test_rank_two_adjoint_is_the_quadratic():
    d, sd, tD, cache = setup("I2(5)")
    mll = corner_minor(tD)
    p1 = sd.p_ring.gen(0)
    q = mll.exact_div(p1)
    assert q.is_constant()


def test_a2_adjoint_pullback_is_second_symmetric_function():
    d, sd, tD, cache = setup("A2")
    mll_x = cache(corner_minor(tD))
    ring = d.ring
    ys = list(ring.gens()) + [-sum(ring.gens()[1:], ring.gens()[0])]
    sigma = _elementary_symmetric(ys, ring)
    q = mll_x.exact_div(sigma[1])
    assert q.is_constant() and q


def test_a3_adjoint_pullback_closed_form():
    d, sd, tD, cache = setup("A3")
    mll_x = cache(corner_minor(tD))
    ring = d.ring
    ys = list(ring.gens()) + [-sum(ring.gens()[1:], ring.gens()[0])]
    s = _elementary_symmetric(ys, ring)
    target = (s[1] * s[3]).scale(8) - (s[2] * s[2]).scale(9) - (s[1] ** 3).scale(2)
    q = mll_x.exact_div(target)
    assert q.is_constant() and q


def test_derivative_ideal_identity():
    for name in ("A2", "I2(5)", "A3", "B3"):
        d, sd, tD, cache = setup(name)
        cert = check_derivative_ideal(tD)
        assert cert.verdict == "pass", (name, cert.detail)


def test_basis_change_constant_determinant():
    for name in FAST_TYPES:
        d, sd, tD, cache = setup(name)
        B, detB, _w = solve_basis_change(tD)
        assert detB
        # last column is the recorded Euler multiple
        l = d.rank
        assert B[0, l - 1].is_constant() and B[0, l - 1]
        for i in range(1, l):
            assert not B[i, l - 1]


def test_free_divisor_sum_certificates():
    for name in FAST_TYPES:
        d, sd, tD, cache = setup(name)
        cert = check_free_divisor_sum(tD)
        assert cert.verdict == "pass", (name, cert.detail)


def test_lift_certificates():
    for name in FAST_TYPES:
        d, sd, tD, cache = setup(name)
        cert = check_lift(tD, cache)
        assert cert.verdict == "pass", (name, cert.detail)


def test_even_dihedral_lift_splits_into_orbit_factors():
    # with two mirror orbits the arrangement polynomial factors visibly
    d, sd, tD, cache = setup("I2(6)")
    cert = check_lift(tD, cache)
    assert cert.verdict == "pass"
    # the two orbits of I2(6): products over each orbit are invariant
    from coxsaito.poly import product
    from oracles import is_invariant

    orbits = {}
    for idx, form in enumerate(d.mirror_forms):
        alpha = d.roots[idx]
        key = str(d.inner(alpha, alpha))
        orbits.setdefault(key, []).append(form)
    assert len(orbits) == 2
    for forms in orbits.values():
        assert is_invariant(d, product(forms, d.ring) ** 2)


def test_distinguished_monomials():
    for name in ("A2", "A3", "B3"):
        d, sd, tD, cache = setup(name)
        cert = check_distinguished_monomials(normalize_linear_part(sd))
        assert cert.verdict == "pass", (name, cert.detail)


def test_b3_published_fixture():
    d, sd, tD, cache = setup("B3")
    cert = check_b3_fixture(tD)
    assert cert.verdict == "pass", cert.detail
    assert cert.constants["det_ratio"] == "81"
    assert cert.constants["entry_reading"] == "-2y^2+18xz"


def test_b3_published_matrix_row_structure():
    d, sd, tD, cache = setup("B3")
    A = published_b3_matrix(sd.p_ring)
    # first column is the weighted Euler field
    x, y, z = sd.p_ring.gens()
    assert A[0, 0] == x and A[1, 0] == 2 * y and A[2, 0] == 3 * z
    # deleting the last row, the three maximal minors generate the
    # published ideal: the first minor is 9 times the first generator
    m12 = A[0, 0] * A[1, 1] - A[1, 0] * A[0, 1]
    gens = published_b3_ideal(sd.p_ring)
    assert m12 == gens[0].scale(9)


def test_b3_fixture_catches_tampering():
    d, sd, tD, cache = setup("B3")
    cert = check_b3_fixture(tD)
    from coxsaito.certs import verify_payload_item

    for item in cert.payload:
        assert verify_payload_item(item)
    bad = dict(cert.payload[0])
    bad = __import__("json").loads(__import__("json").dumps(bad))
    bad["constant"]["a"] = ["5", "1"]
    assert not verify_payload_item(bad)


@pytest.mark.parametrize("case", ["free-divisor-sum", "published-fixture", "arrangement-lift"])
def test_non_dividing_determinant_is_a_fail_verdict(case):
    # each check divides a determinant by its divisor; an extra factor in
    # the divisor makes that division inexact, which is a refuted claim
    d, sd, tD, cache = setup("B3")
    disc_times_p1 = replace(tD, saito=replace(sd, disc=sd.disc * sd.p_ring.gen(0)))
    delta_times_x1 = replace(
        tD, saito=replace(sd, datum=replace(d, delta=d.delta * d.ring.gen(0)))
    )
    cert = {
        "free-divisor-sum": lambda: check_free_divisor_sum(disc_times_p1),
        "published-fixture": lambda: check_b3_fixture(disc_times_p1),
        "arrangement-lift": lambda: check_lift(delta_times_x1, cache),
    }[case]()
    assert cert.name == case
    assert cert.verdict == "fail"
    assert "multiple" in cert.detail


def test_adjoint_reducedness_is_tested_once_per_type(monkeypatch):
    # adjoint-divisor, free-divisor-sum and arrangement-lift all need the
    # adjoint equation reduced; it is tested once, and the discriminant once
    tested, test = [], freediv.squarefree_test

    def counting(f):
        tested.append(f)
        return test(f)

    monkeypatch.setattr(freediv, "squarefree_test", counting)
    ws = Workspace()
    certs = ws.run_suite("A3", "freediv") + ws.run_suite("A3", "lift")
    assert all(c.verdict == "pass" for c in certs)
    table = ws.minor_table("A3", DISCRIMINANT)
    assert tested == [corner_minor(table), table.saito.disc]
