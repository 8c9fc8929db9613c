import time
from fractions import Fraction

import pytest

from coxsaito import catalog
from coxsaito.catalog import (
    UnsupportedTypeError,
    build_datum,
    canonical_name,
    datum_to_json,
    parse_type,
    stabilizer_components,
)
from coxsaito.poly import PolyRing
from coxsaito.polymatrix import PolyMatrix, jacobian
from coxsaito.scalars import Quad
from oracles import is_invariant, reference_orbit


def test_parse_and_canonical_names():
    assert canonical_name(parse_type("A3")) == "A3"
    assert canonical_name(parse_type("I2(5)")) == "I2(5)"
    assert canonical_name(parse_type("G2")) == "I2(6)"
    assert canonical_name(parse_type("C3")) == "B3"
    assert canonical_name(parse_type("A1xA1")) == "A1xA1"


def test_unsupported_types():
    with pytest.raises(UnsupportedTypeError):
        build_datum("E6")
    with pytest.raises(UnsupportedTypeError):
        build_datum("E7")
    with pytest.raises(UnsupportedTypeError):
        build_datum("E8")
    # character field of the rank-2 group of order 14 is cubic
    with pytest.raises(UnsupportedTypeError):
        build_datum("I2(7)")
    with pytest.raises(UnsupportedTypeError):
        build_datum("nonsense")


def test_a1_minimal():
    d = build_datum("A1")
    assert d.rank == 1
    assert d.group_order == 2
    assert d.mirror_count == 1
    assert d.degrees == [2]
    assert len(d.delta.t) == 1 and d.delta.deg() == 1


@pytest.mark.parametrize(
    "name,order,mirrors,degrees,h",
    [
        ("A2", 6, 3, [2, 3], 3),
        ("A3", 24, 6, [2, 3, 4], 4),
        ("B2", 8, 4, [2, 4], 4),
        ("B3", 48, 9, [2, 4, 6], 6),
        ("D4", 192, 12, [2, 4, 4, 6], 6),
        ("I2(5)", 10, 5, [2, 5], 5),
        ("I2(6)", 12, 6, [2, 6], 6),
        ("I2(8)", 16, 8, [2, 8], 8),
        ("H3", 120, 15, [2, 6, 10], 10),
    ],
)
def test_catalog_data(name, order, mirrors, degrees, h):
    d = build_datum(name)
    assert d.group_order == order
    assert d.mirror_count == mirrors
    assert d.degrees == degrees
    assert d.coxeter_number == h
    assert sum(d.exponents) == mirrors
    # exponent symmetry for irreducible types
    exps = d.exponents
    for i in range(d.rank):
        assert exps[i] + exps[d.rank - 1 - i] == h
    # jacobian certificate
    assert d.jac_const
    J = jacobian(d.invariants, d.ring)
    assert J.det() == d.delta.scale(d.jac_const)


def test_h3_field():
    d = build_datum("H3")
    assert d.ring.d == 5


def test_i2_5_delta_has_five_linear_factors():
    d = build_datum("I2(5)")
    assert d.delta.deg() == 5
    assert len(d.mirror_forms) == 5
    from coxsaito.poly import product

    assert product(d.mirror_forms, d.ring) == d.delta


def test_invariance_under_all_generators():
    for name in ("A3", "B3", "I2(5)"):
        d = build_datum(name)
        for p in d.invariants:
            assert is_invariant(d, p)


def test_delta_squarefree_by_construction():
    for name in ("A3", "B3", "I2(6)"):
        d = build_datum(name)
        dirs = set()
        for f in d.mirror_forms:
            key = tuple(sorted(f.t.items()))
            assert key not in dirs
            dirs.add(key)


def test_stabilizer_components():
    a3 = build_datum("A3")
    # off the arrangement
    assert stabilizer_components(a3, [1, 2, 5]) == []
    # two commuting reflections at the two-plane stratum
    comps = stabilizer_components(a3, [1, 1, -1])
    assert len(comps) == 2 and all(len(c) == 1 for c in comps)
    # a rank-2 wall: three mirrors in one component
    comps = stabilizer_components(a3, [1, 1, 1])
    assert len(comps) == 1 and len(comps[0]) == 3
    # the origin of an irreducible group is a single component
    assert len(stexpected := stabilizer_components(a3, [0, 0, 0])) == 1
    assert len(stexpected[0]) == a3.mirror_count


def test_product_datum():
    d = build_datum("A1xA1xA1")
    assert d.group_order == 8
    assert d.mirror_count == 3
    assert d.degrees == [2, 2, 2]
    assert len(d.factors) == 3
    # delta multiplies and the origin splits into three components
    assert d.delta.deg() == 3
    assert len(stabilizer_components(d, [0, 0, 0])) == 3

    mixed = build_datum("B2xA1")
    assert mixed.group_order == 16
    assert mixed.mirror_count == 5
    J = jacobian(mixed.invariants, mixed.ring)
    assert J.det() == mixed.delta.scale(mixed.jac_const)


STEINBERG_TYPES = (
    ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "D4", "F4", "H3"]
    + [f"I2({k})" for k in (3, 4, 5, 6, 8, 10, 12)]
    + ["B2xA1", "A1xI2(5)", "B2xA2"]
)


@pytest.mark.parametrize("name", STEINBERG_TYPES)
def test_steinberg_constant_matches_the_cofactor_expansion(name):
    # the datum's constant is det J / delta at one point; the expanded
    # determinant is the oracle
    d = build_datum(name)
    assert d.jac_const
    assert jacobian(d.invariants, d.ring).det() == d.delta.scale(d.jac_const)


def test_building_a_datum_expands_no_determinant(monkeypatch):
    monkeypatch.setattr(catalog, "_DATUM_CACHE", {})
    expanded = []
    real = PolyMatrix.det

    def det(self):
        expanded.extend(p for row in self.e for p in row if not p.is_constant())
        return real(self)

    monkeypatch.setattr(PolyMatrix, "det", det)
    for name in ("F4", "H3"):
        assert build_datum(name).jac_const
    assert not expanded


def test_product_factors_are_the_memoized_datums(monkeypatch):
    monkeypatch.setattr(catalog, "_DATUM_CACHE", {})
    d = build_datum("A2xA2")
    a2 = build_datum("A2")
    assert [off for _p, off in d.factors] == [0, 2]
    assert all(p is a2 for p, _off in d.factors)


def test_product_mixing_fields_rejected():
    with pytest.raises(UnsupportedTypeError):
        build_datum("I2(5)xI2(8)")


def test_fixture_json_shape():
    d = build_datum("A2")
    doc = datum_to_json(d)
    assert doc["type"] == "A2"
    assert doc["degrees"] == [2, 3]
    assert len(doc["roots"]) == 3
    assert "jac_const" in doc


ORBIT_TYPES = [
    pytest.param(tag, param, id=canonical_name([(tag, param)]))
    for tag, param in [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
                       ("D", 4), ("F", 4), ("H", 3), ("H", 4)]
    + [("I2", k) for k in (3, 4, 5, 6, 8, 10, 12)]
]


def _generators(tag, param):
    """(ring, gram, simple roots, simple reflection matrices) as
    `_build_irreducible` builds them."""
    rank, d, gram, simple_roots, _ = catalog._type_data(tag, param)
    ring = PolyRing([f"x{i+1}" for i in range(rank)], d=d)
    gram = [[ring.coeff(c) for c in row] for row in gram]
    simple_roots = [[ring.coeff(c) for c in r] for r in simple_roots]
    return ring, gram, simple_roots, [catalog._reflection_matrix(gram, a, d) for a in simple_roots]


def _generic_point(ring):
    # denominators and, over Q(sqrt d), irrational parts in every coordinate
    coords = [Fraction(1, 2), Fraction(3), Fraction(-5, 3), Fraction(7, 4)][: ring.n]
    if ring.d is None:
        return coords
    return [Quad(c, Fraction(i + 1, 3), ring.d) for i, c in enumerate(coords)]


@pytest.mark.parametrize("tag,param", ORBIT_TYPES)
def test_orbit_matches_the_reference_search(tag, param):
    ring, _gram, simple_roots, gens = _generators(tag, param)
    zero = ring.coeff(0)
    order = catalog.EXPECTED_ORDER[tag](param)
    roots = catalog._orbit(simple_roots, gens, zero, order)
    assert roots == reference_orbit(simple_roots, gens, zero)
    assert all(type(c) is type(zero) for r in roots for c in r)
    # the reference takes about 10 s on H4's 14400 chambers, so H4 searches
    # a generic point's orbit under its parabolic H3 here and its full one
    # by size in test_group_order_is_the_expected_order
    sub = gens if tag != "H" or param != 4 else gens[:3]
    point = [_generic_point(ring)]
    assert catalog._orbit(point, sub, zero, order) == reference_orbit(point, sub, zero)


@pytest.mark.parametrize("tag,param", ORBIT_TYPES)
def test_group_order_is_the_expected_order(tag, param):
    ring, gram, simple_roots, gens = _generators(tag, param)
    order = catalog.EXPECTED_ORDER[tag](param)
    roots = catalog._orbit(simple_roots, gens, ring.coeff(0), order)
    forms = catalog._mirror_forms(ring, gram, roots)
    assert catalog._group_order(gens, forms, ring, order) == order
    point = [_generic_point(ring)]
    assert len(catalog._orbit(point, gens, ring.coeff(0), order)) == order


def test_orbit_of_an_infinite_group_raises():
    # x1 -> 2 x1 has infinite order: every image of the seed is new
    gens = [[[Fraction(2), Fraction(0)], [Fraction(0), Fraction(1)]]]
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="orbit exceeds 1152 vectors"):
        catalog._orbit([[Fraction(1), Fraction(1)]], gens, Fraction(0), 1152)
    assert time.monotonic() - start < 1
