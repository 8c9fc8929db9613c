import pytest

import coxsaito.rankcond as rankcond
from coxsaito.catalog import build_datum
from coxsaito.engine import NonMembership, Witness, graded_membership
from coxsaito.rankcond import (
    ARRANGEMENT,
    DISCRIMINANT,
    build_minor_table,
    check_drc,
    check_grc,
    check_hrc,
    equivalence_probe,
)
from coxsaito.saito import build_saito
from coxsaito.workspace import Workspace


_CACHE = {}


def table(name, side):
    key = (name, side)
    if key not in _CACHE:
        sd = _CACHE.get(name)
        if sd is None:
            sd = build_saito(build_datum(name))
            _CACHE[name] = sd
        _CACHE[key] = build_minor_table(sd, side)
    return _CACHE[key]


def test_cramer_and_degree_tables():
    t = table("B3", ARRANGEMENT)
    d = t.datum
    exps = d.exponents
    total = sum(exps)
    for i in range(3):
        assert t.degrees[i] == total - exps[i]
        for j in range(3):
            m = t.minors[i, j]
            if m:
                assert m.whomog_degree() == t.degrees[i]
    prod = t.matrix * t.minors
    for i in range(3):
        for j in range(3):
            expect = t.defining.scale(t.det_const) if i == j else d.ring.zero()
            assert prod[i, j] == expect


def test_diagonal_minors_for_boolean_type():
    # for a power of A1 the Jacobian is diagonal, so the adjugate is the
    # complementary diagonal of products
    d = build_datum("A1xA1xA1")
    from coxsaito.polymatrix import jacobian

    J = jacobian(d.invariants, d.ring)
    ad = J.transpose().adjugate()
    for i in range(3):
        for j in range(3):
            if i != j:
                assert not ad[i, j]
            else:
                assert len(ad[i, j].t) == 1


def test_gradient_row_single_constant():
    for name in ("A2", "B2", "B3"):
        t = table(name, ARRANGEMENT)
        assert t.grad_const is not None
        d = t.datum
        for j in range(d.rank):
            assert t.grad_row[j] == d.delta.diff(j).scale(t.grad_const)


def test_row_minors_linearly_independent():
    t = table("B3", ARRANGEMENT)
    from coxsaito.engine import rank_of_vectors

    assert rank_of_vectors([m.t for m in t.row_ideal()]) == 3


def test_grc_pass_and_witness_payloads():
    for name in ("A2", "B2", "I2(5)"):
        for side in (ARRANGEMENT, DISCRIMINANT):
            cert = check_grc(table(name, side))
            assert cert.verdict == "pass", cert.detail
            assert len(cert.payload) == table(name, side).rank ** 2
            from coxsaito.certs import verify_payload_item

            assert all(verify_payload_item(item) for item in cert.payload)


def test_grc_discriminant_side_runs_over_invariant_ring():
    t = table("A3", DISCRIMINANT)
    assert t.matrix.ring.weights == tuple(t.datum.degrees)
    cert = check_grc(t)
    assert cert.verdict == "pass"


def test_rank_two_types_pass_trivially():
    cert = check_grc(table("I2(6)", ARRANGEMENT))
    assert cert.verdict == "pass"


def test_drc():
    for name in ("A3", "B3", "D4"):
        d = build_datum(name)
        sd = _CACHE.get(name) or build_saito(d)
        cert = check_drc(sd)
        assert cert.verdict == "pass", cert.detail
        # one witness per (j < l, partial)
        assert len(cert.payload) == (d.rank - 1) * d.rank


def test_drc_first_direction_trivial():
    # the gradient of the quadratic invariant spans all linear forms, so
    # membership in its module plus the invariant ideal is immediate
    d = build_datum("A2")
    sd = _CACHE.get("A2") or build_saito(d)
    gens = [sd.J[0, k] for k in range(2)] + [p for p in d.invariants if p.deg() <= 2]
    res = graded_membership(sd.J[1, 0], gens)
    assert isinstance(res, Witness)


def test_hrc_yields_pairs_and_functionals():
    d = build_datum("B3")
    sd = _CACHE.get("B3") or build_saito(d)
    cert = check_hrc(sd)
    assert cert.verdict == "pass", cert.detail
    pairs = cert.constants["witness_pairs"]
    assert len(pairs) == 3
    # exponent complementarity m_i + m_j = h for every recorded pair
    exps = d.exponents
    h = d.coxeter_number
    for i, j, _entry in pairs:
        assert exps[i - 1] + exps[j - 1] == h
    from coxsaito.certs import verify_payload_item

    assert all(verify_payload_item(item) for item in cert.payload)


def test_hrc_d4_searches_repeated_exponents():
    d = build_datum("D4")
    sd = _CACHE.get("D4") or build_saito(d)
    cert = check_hrc(sd)
    assert cert.verdict == "pass"
    pairs = cert.constants["witness_pairs"]
    js = {j for _i, j, _e in pairs}
    assert js == {1, 2, 3, 4}


def test_equivalence_probe():
    d = build_datum("A2")
    sd = _CACHE.get("A2") or build_saito(d)
    tA = table("A2", ARRANGEMENT)
    hrc = check_hrc(sd)
    drc = check_drc(sd)
    grc = check_grc(tA)
    probe = equivalence_probe(hrc, drc, grc, "A2")
    assert probe.verdict == "pass"
    # a fabricated violation is reported as failure
    from coxsaito.certs import Certificate

    fake_fail = Certificate(name="grc-A", ctype="A2", verdict="fail")
    probe2 = equivalence_probe(hrc, drc, fake_fail, "A2")
    assert probe2.verdict == "fail"


def test_b5_minor_ideal_has_codim_two():
    # the plane cuts are drawn from a range wide enough that one of them
    # meets B5's arrangement-side minor ideal in finitely many points
    [cert] = Workspace().run_suite("B5", "grc-A")
    assert cert.verdict == "pass"


def test_inconclusive_codim_two_is_an_error(monkeypatch):
    # the codimension-two test is one-sided: a search that certifies
    # nothing refutes nothing, so the suite ends in an error, not a fail
    monkeypatch.setattr(rankcond, "codim_at_least_two", lambda gens: False)
    [cert] = Workspace().run_suite("A2", "grc-A")
    assert cert.verdict == "error"
    assert cert.detail.startswith("EngineError: ") and "inconclusive" in cert.detail
