import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxsaito.algebra import (
    _nullspace,
    build_mul_table,
    check_boolean_split,
    check_fibers,
    check_generator_match,
    check_mul_table,
    check_normalization_gap,
    check_quotient_rule,
    fiber_point_count,
    fraction_representatives,
    sample_points,
    verify_generators,
)
from coxsaito.catalog import build_datum, stabilizer_components
from coxsaito.engine import rank_of_vectors
from coxsaito.poly import Substitution
from coxsaito.rankcond import ARRANGEMENT, DISCRIMINANT, build_minor_table
from coxsaito.saito import build_saito
from coxsaito.workspace import Workspace
from oracles import reflections


_WS = {}


def setup(name):
    if name not in _WS:
        d = build_datum(name)
        sd = build_saito(d)
        tA = build_minor_table(sd, ARRANGEMENT)
        tD = build_minor_table(sd, DISCRIMINANT)
        _WS[name] = (d, sd, tA, tD)
    return _WS[name]


def mul_tables(name):
    d, sd, tA, tD = setup(name)
    key = name + ":mul"
    if key not in _WS:
        # the arrangement table is pulled back, as the workspace builds it
        mD = build_mul_table(tD)
        _WS[key] = (build_mul_table(tA, mD, Substitution(d.p_ring, d.invariants, d.ring)), mD)
    return _WS[key]


def test_cross_identities_all_columns():
    for name in ("A2", "B2", "A3"):
        d, sd, tA, tD = setup(name)
        for t in (tA, tD):
            cert = verify_generators(t)
            assert cert.verdict == "pass", cert.detail


def assert_generators_invariant(table):
    """s(m^i_l) m^l_l - m^i_l s(m^l_l) is divisible by delta for every
    simple reflection s and every i < l, so each h_i = m^i_l / m^l_l is
    invariant modulo delta: what `verify_generators` derives from its cross
    identities and the chain rule instead of applying the reflections."""
    d = table.datum
    l = d.rank
    den = table.minors[l - 1, l - 1]
    moved = False
    for g, s in enumerate(reflections(d)):
        s_den = s(den)
        for i in range(l - 1):
            num = table.minors[i, l - 1]
            s_num = s(num)
            moved = moved or s_num != num
            assert (s_num * den - num * s_den).divisible_by(d.delta), (d.name, g, i)
    assert moved, f"{d.name}: no reflection moves a numerator"


def test_generators_invariant_modulo_delta():
    for name in ("A3", "B3", "D4", "H3", "I2(5)", "I2(8)"):
        d, sd, tA, tD = setup(name)
        assert_generators_invariant(tA)


@pytest.mark.long
def test_f4_generators_invariant_and_algebra_suites_pass():
    ws = Workspace()
    assert_generators_invariant(ws.minor_table("F4", ARRANGEMENT))
    for suite in ("algebra", "fibers"):
        for cert in ws.run_suite("F4", suite):
            assert cert.verdict == "pass", (suite, cert.name, cert.detail)


def test_unit_generator():
    d, sd, tA, tD = setup("A2")
    mA, mD = mul_tables("A2")
    l = d.rank
    # h_l is the unit: its numerator equals the denominator
    assert mA.numerator(l - 1) == mA.denominator()
    for j in range(l):
        row = mA.constants[l - 1][j]
        for k in range(l):
            expect = d.ring.one() if k == j else d.ring.zero()
            assert row[k] == expect


def test_denominator_avoids_mirrors():
    for name in ("A2", "A3", "B3", "F4"):
        d, sd, tA, tD = setup(name)
        nums = fraction_representatives(tA)
        den = nums[-1]
        assert not any(den.divisible_by(f) for f in d.mirror_forms)


def test_common_mirror_factor_is_an_error_not_a_failure():
    # no combination of a last row sharing a mirror factor is a
    # nonzerodivisor: that refutes nothing, so the suite ends in error
    ws = Workspace()
    table = ws.minor_table("A2", ARRANGEMENT)
    f = table.datum.mirror_forms[0]
    table.minors.e[-1] = [m * f for m in table.minors.e[-1]]
    start = time.monotonic()
    (cert,) = ws.run_suite("A2", "algebra")
    assert time.monotonic() - start < 5
    assert cert.verdict == "error", cert.detail
    assert "no nonzerodivisor fraction representative" in cert.detail


def test_mul_tables_commutative_associative_unital():
    for name in ("A2", "B2", "I2(5)", "A3", "B3"):
        mA, mD = mul_tables(name)
        for mt in (mA, mD):
            cert = check_mul_table(mt)
            assert cert.verdict == "pass", (name, mt.side, cert.detail)
            l = mt.rank
            for i in range(l):
                for j in range(l):
                    for k in range(l):
                        assert mt.constants[i][j][k] == mt.constants[j][i][k]


def test_dihedral_discriminant_square_entry():
    # for the odd dihedral type the square of the nontrivial generator is a
    # power of the quadratic invariant modulo the discriminant
    d, sd, tA, tD = setup("I2(5)")
    mD = build_mul_table(tD)
    c = mD.constants[0][0]
    # g1*g1 = c[0] h_1 + c[1] * 1; the unit component carries p1^(h-2)
    assert c[1].whomog_degree() == 2 * (5 - 2)
    assert c[1].coeff_of((3, 0))


def test_quotient_rule_and_generator_match():
    for name in ("A2", "B2", "A3", "B3", "I2(5)"):
        d, sd, tA, tD = setup(name)
        cache = Substitution(d.p_ring, d.invariants, d.ring)
        assert check_quotient_rule(sd, tA, cache).verdict == "pass"
        assert check_generator_match(sd, tA, tD, cache).verdict == "pass"


def test_fiber_counts_reference_points():
    d, sd, tA, tD = setup("A3")
    mA, _ = mul_tables("A3")
    # generic mirror point: a fold, one point
    assert fiber_point_count(mA, [9, 9, 8]) == 1
    # the two-plane stratum carries two points
    assert fiber_point_count(mA, [1, 1, -1]) == 2
    assert len(stabilizer_components(d, [1, 1, -1])) == 2
    # the rank-2 wall and the origin are single points
    assert fiber_point_count(mA, [1, 1, 1]) == 1
    assert fiber_point_count(mA, [0, 0, 0]) == 1
    # off the arrangement the fiber is empty
    assert fiber_point_count(mA, [1, 2, 5]) == 0
    # B3: two-plane strata of both kinds, a rank-2 wall and the origin
    d, _, _, _ = setup("B3")
    mA, _ = mul_tables("B3")
    for pt, expected in (([0, 1, 1], 2), ([1, 1, 0], 2), ([0, 0, 1], 1), ([0, 0, 0], 1)):
        assert fiber_point_count(mA, pt) == expected == len(stabilizer_components(d, pt)), pt


@settings(max_examples=90, deadline=None)
@given(
    st.sampled_from(["A3", "B3", "I2(5)"]),
    st.lists(st.integers(0, 15), max_size=2),
    st.lists(st.integers(-3, 3), min_size=3, max_size=3),
)
def test_fiber_counts_match_stabilizers_on_flats(name, mirrors, ks):
    # an integer point of the flat cut out by up to two mirrors
    d, _, _, _ = setup(name)
    mA, _ = mul_tables(name)
    rows = [d.mirror_forms[m % len(d.mirror_forms)].linear_coeffs() for m in mirrors]
    basis = _nullspace(rows, d.rank, d.ring)
    pt = [sum((v[i] * k for v, k in zip(basis, ks)), d.ring.coeff(0)) for i in range(d.rank)]
    assert fiber_point_count(mA, pt) == len(stabilizer_components(d, pt))


def test_fiber_certificates():
    for name in ("A2", "B2", "A3", "B3", "I2(5)", "I2(6)"):
        mA, _ = mul_tables(name)
        cert = check_fibers(mA)
        assert cert.verdict == "pass", (name, cert.detail)
        recs = cert.constants["points"]
        assert len(recs) >= 10 or mul_tables(name)[0].rank == 2
        assert any(r["label"] == "origin" for r in recs)


def test_sample_points_have_enough_variety():
    for name in ("A1", "A1xA1", "A3", "B3", "F4"):
        d = build_datum(name)
        pts = sample_points(d)
        labels = [lab for lab, _ in pts]
        assert "origin" in labels and "off" in labels
        assert len({tuple(pt) for _, pt in pts}) == len(pts), name
        if d.rank >= 3:
            assert labels.count("mirror") >= 3
            assert labels.count("codim2") == 4, name
            assert len(pts) >= 10
        shapes = set()
        # each point lies on its flat, and a codim2 point on no other mirror:
        # the mirrors through it meet in a flat of codimension two; a mirror
        # point is on exactly one mirror, whose flat is not the origin
        for label, pt in pts:
            at = Substitution(d.ring, pt, None)
            on = [f.linear_coeffs() for f in d.mirror_forms if not at(f)]
            if label == "mirror":
                assert len(on) == 1 and any(pt), (name, pt)
            elif label == "codim2":
                rank = rank_of_vectors({i: c for i, c in enumerate(row) if c} for row in on)
                assert rank == 2, (name, pt)
                shapes.add(tuple(len(c) for c in stabilizer_components(d, pt)))
        assert len(shapes) >= 2 or d.rank < 3, (name, shapes)


def test_normalization_gap_for_odd_dihedral():
    d, sd, tA, tD = setup("I2(5)")
    cert = check_normalization_gap(sd, tD)
    assert cert.verdict == "pass", cert.detail
    assert cert.constants["gaps"][0] == 1
    assert cert.constants["dims"]["1"] == 0
    assert cert.constants["dims"]["2"] == 1
    assert cert.constants["dims"]["3"] == 1  # t^(h-2) appears


def test_normalization_gap_rejects_even_types():
    d, sd, tA, tD = setup("I2(6)")
    cert = check_normalization_gap(sd, tD)
    assert cert.verdict == "fail"


def test_boolean_split():
    d = build_datum("A1xA1xA1")
    cert = check_boolean_split(d)
    assert cert.verdict == "pass", cert.detail
    assert cert.constants["factors"] == 3


def test_fiber_count_at_origin_counts_factors():
    # reducible groups: as many points over the origin as factors
    d = build_datum("A1xA1")
    assert len(stabilizer_components(d, [0, 0])) == 2
    d3 = build_datum("B2xA1")
    assert len(stabilizer_components(d3, [0, 0, 0])) == 2
