"""Acceptance gate: one test per criterion, one printed line per item.

Every tolerance here is exact equality of polynomials or scalars; runtime
bounds are asserted where stated.  The stretch items (H4, the F4 fractions,
free-divisor and lift suites, A5) are excluded from this gate by design;
F4's long-tier algebra and fibers suites run in test_algebra.py.
"""

import time

import pytest

from coxsaito.catalog import _elementary_symmetric, build_datum, stabilizer_components
from coxsaito.certs import verify_payload_item
from coxsaito.workspace import Workspace, check_datum, check_discriminant_monic

FAST_TYPES = ["A1", "A2", "A3", "B2", "B3", "D4", "I2(3)", "I2(4)", "I2(5)", "I2(6)", "I2(8)", "H3"]
LONG_TYPES = ["A4", "B4", "I2(10)", "I2(12)", "F4"]

GRC_FAST = ["A2", "A3", "B2", "B3", "D4", "I2(3)", "I2(4)", "I2(5)", "I2(6)", "I2(8)", "H3"]
GRC_LONG = ["A4", "B4", "F4"]

ALGEBRA_TYPES = ["A2", "A3", "B2", "B3", "D4", "I2(3)", "I2(4)", "I2(5)", "I2(6)", "I2(8)"]
FREEDIV_TYPES = ["A2", "A3", "B2", "B3", "I2(3)", "I2(4)", "I2(5)", "I2(6)", "I2(8)", "H3"]


@pytest.fixture(scope="module")
def ws():
    return Workspace()


def _report(lines):
    print()
    for line in lines:
        print(line)


def test_criterion_1_catalog_certification(ws):
    lines = []
    t_fast = time.monotonic()
    for name in FAST_TYPES:
        cert = check_datum(ws.datum(name))
        assert cert.verdict == "pass", (name, cert.detail)
        lines.append(f"criterion 1 catalog {name}: PASS")
    fast_elapsed = time.monotonic() - t_fast
    assert fast_elapsed < 120, f"fast catalog took {fast_elapsed:.0f}s"
    t_long = time.monotonic()
    for name in LONG_TYPES:
        cert = check_datum(ws.datum(name))
        assert cert.verdict == "pass", (name, cert.detail)
        lines.append(f"criterion 1 catalog {name}: PASS")
    long_elapsed = time.monotonic() - t_long
    assert long_elapsed < 1800, f"long catalog took {long_elapsed:.0f}s"
    lines.append(
        f"criterion 1 runtime: fast {fast_elapsed:.1f}s (<120), long {long_elapsed:.1f}s (<1800)"
    )
    _report(lines)


@pytest.mark.long
def test_criterion_2_discriminant_monic(ws):
    lines = []
    elapsed = {}
    for tier, names in (("fast", FAST_TYPES), ("long", LONG_TYPES)):
        t0 = time.monotonic()
        for name in names:
            datum = ws.datum(name)
            parts = [p.name for p, _ in datum.factors] or [name]
            for part in parts:
                cert = check_discriminant_monic(ws.saito(part))
                assert cert.verdict == "pass", (part, cert.detail)
            lines.append(f"criterion 2 monic discriminant {name}: PASS")
        elapsed[tier] = time.monotonic() - t0
    assert elapsed["long"] < 120, f"long Saito builds took {elapsed['long']:.0f}s"
    lines.append(
        f"criterion 2 runtime: fast {elapsed['fast']:.1f}s, long {elapsed['long']:.1f}s (<120)"
    )
    # the odd dihedral normal form has no mixed term
    sd5 = ws.saito("I2(5)")
    assert sd5.dihedral_shape["b"] == 0
    assert sd5.dihedral_shape["a"] != 0
    lines.append("criterion 2 I2(5) closed form with b = 0: PASS")
    _report(lines)


@pytest.mark.long
def test_criterion_3_grc_arrangement(ws):
    lines = []
    t_fast = time.monotonic()
    for name in GRC_FAST:
        cert = ws.run_suite(name, "grc-A")[0]
        assert cert.verdict == "pass", (name, cert.detail)
        assert len(cert.payload) == ws.datum(name).rank ** 2
        lines.append(f"criterion 3 grc-A {name}: PASS ({len(cert.payload)} witnesses)")
    fast_elapsed = time.monotonic() - t_fast
    assert fast_elapsed < 300, f"fast grc-A took {fast_elapsed:.0f}s"
    for name in GRC_LONG:
        cert = ws.run_suite(name, "grc-A")[0]
        assert cert.verdict == "pass", (name, cert.detail)
        lines.append(f"criterion 3 grc-A {name}: PASS ({len(cert.payload)} witnesses)")
    lines.append(f"criterion 3 fast-tier runtime {fast_elapsed:.1f}s (<300)")
    _report(lines)


@pytest.mark.long
def test_criterion_4_grc_discriminant(ws):
    lines = []
    for name in GRC_FAST + GRC_LONG:
        certs = ws.run_suite(name, "grc-D")
        for cert in certs:
            assert cert.verdict == "pass", (name, cert.name, cert.detail)
        lines.append(f"criterion 4 grc-D {name}: PASS")
    fixture = [c for c in ws.run_suite("B3", "grc-D") if c.name == "published-fixture"]
    assert fixture and fixture[0].verdict == "pass"
    assert fixture[0].constants["det_ratio"] == "81"
    lines.append("criterion 4 published B3 ideal matches ours exactly: PASS")
    _report(lines)


@pytest.mark.long
def test_criterion_5_hessian_and_dual_conditions(ws):
    lines = []
    for name in GRC_FAST + GRC_LONG + ["I2(10)", "I2(12)"]:
        hrc, probe = ws.run_suite(name, "hrc")
        drc = ws.run_suite(name, "drc")[0]
        assert hrc.verdict == "pass", (name, hrc.detail)
        assert drc.verdict == "pass", (name, drc.detail)
        assert probe.verdict == "pass", (name, probe.detail)
        pairs = hrc.constants["witness_pairs"]
        assert len(pairs) == ws.datum(name).rank
        lines.append(f"criterion 5 hrc/drc/implications {name}: PASS pairs={pairs}")
    _report(lines)


def test_criterion_6_ring_structures(ws):
    lines = []
    for name in ALGEBRA_TYPES:
        certs = ws.run_suite(name, "algebra")
        for cert in certs:
            assert cert.verdict == "pass", (name, cert.name, cert.detail)
        lines.append(f"criterion 6 algebras on both sides {name}: PASS")
    _report(lines)


def test_criterion_7_fraction_identities(ws):
    lines = []
    for name in ALGEBRA_TYPES:
        fr = ws.run_suite(name, "fractions")[0]
        gm = ws.run_suite(name, "generators")[0]
        assert fr.verdict == "pass", (name, fr.detail)
        assert gm.verdict == "pass", (name, gm.detail)
        lines.append(f"criterion 7 quotient rule and generator match {name}: PASS")
    _report(lines)


def test_criterion_8_fiber_counts(ws):
    lines = []
    for name in ALGEBRA_TYPES:
        cert = ws.run_suite(name, "fibers")[0]
        assert cert.verdict == "pass", (name, cert.detail)
        records = cert.constants["points"]
        assert len(records) >= 10
        for rec in records:
            assert rec["algebra"] == rec["stabilizer"]
        lines.append(f"criterion 8 fibers {name}: PASS ({len(records)} points)")
    # the named strata of the rank-3 symmetric group
    from coxsaito.algebra import fiber_point_count

    mA = ws.mul_table("A3", "arrangement")
    a3 = ws.datum("A3")
    checks = [
        ([9, 9, 8], 1, "generic mirror"),
        ([1, 1, -1], 2, "two-plane stratum"),
        ([1, 1, 1], 1, "rank-2 wall"),
        ([0, 0, 0], 1, "origin"),
    ]
    for pt, expected, label in checks:
        got = fiber_point_count(mA, pt)
        stab = len(stabilizer_components(a3, pt))
        assert got == expected == (stab if expected else stab), (label, got, stab)
        lines.append(f"criterion 8 A3 {label}: {got} point(s) both ways: PASS")
    # origin of a reducible group counts the factors
    for prod_name, k in (("A1xA1", 2), ("A1xA1xA1", 3)):
        d = build_datum(prod_name)
        assert len(stabilizer_components(d, [0] * d.rank)) == k
        lines.append(f"criterion 8 {prod_name} origin has {k} components: PASS")
    _report(lines)


@pytest.mark.long
def test_criterion_9_free_divisors(ws):
    lines = []
    t0 = time.monotonic()
    for name in FREEDIV_TYPES:
        for suite in ("freediv", "lift"):
            for cert in ws.run_suite(name, suite):
                assert cert.verdict == "pass", (name, cert.name, cert.detail)
        lines.append(f"criterion 9 free divisor certificates {name}: PASS")
    elapsed = time.monotonic() - t0
    assert elapsed < 900, f"free divisor suite took {elapsed:.0f}s"
    # closed-form pullbacks of the adjoint equations
    from coxsaito.freediv import corner_minor

    for name, expr in (("A2", "sigma2"), ("A3", "8 s2 s4 - 9 s3^2 - 2 s2^3")):
        d = ws.datum(name)
        mll_x = ws.saito(name).pull(corner_minor(ws.minor_table(name, "discriminant")))
        ring = d.ring
        ys = list(ring.gens()) + [-sum(ring.gens()[1:], ring.gens()[0])]
        s = _elementary_symmetric(ys, ring)
        target = s[1] if name == "A2" else (s[1] * s[3]).scale(8) - (s[2] * s[2]).scale(9) - (s[1] ** 3).scale(2)
        ratio = mll_x.exact_div(target)
        assert ratio.is_constant() and ratio
        lines.append(
            f"criterion 9 {name} adjoint pullback = ({ratio}) * {expr}: PASS"
        )
    lines.append(f"criterion 9 runtime {elapsed:.1f}s (<900)")
    _report(lines)


def test_criterion_10_partial_normalization_spot_checks(ws):
    lines = []
    gap = [c for c in ws.run_suite("I2(5)", "freediv") if c.name == "normalization-gap"]
    assert gap and gap[0].verdict == "pass", gap and gap[0].detail
    assert gap[0].constants["gaps"][0] == 1
    lines.append(
        f"criterion 10 I2(5) value-semigroup gaps {gap[0].constants['gaps']}: PASS"
    )
    from coxsaito.algebra import check_boolean_split

    for name in ("A1xA1", "A1xA1xA1"):
        cert = check_boolean_split(build_datum(name))
        assert cert.verdict == "pass", cert.detail
        lines.append(f"criterion 10 {name} splits into polynomial factors: PASS")
    _report(lines)


def test_all_payloads_reverify(ws):
    # spot re-verification: every embedded witness in a couple of suites
    for name in ("A2", "B3"):
        for suite in ("grc-A", "grc-D", "hrc"):
            for cert in ws.run_suite(name, suite):
                for item in cert.payload:
                    assert verify_payload_item(item)
