import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import reference_to_json, term_key

from coxsaito.engine import EngineError, Witness
from coxsaito.poly import FIELD_BITS, Poly, PolyRing, Substitution, dot, poly_pairing, product
from coxsaito.scalars import Quad


@pytest.fixture
def ring():
    return PolyRing(("x", "y"))


def rand_poly(ring, rng, deg=3, terms=4):
    out = {}
    for _ in range(terms):
        e = tuple(rng.randint(0, deg) for _ in range(ring.n))
        out[e] = Fraction(rng.randint(-5, 5))
    return ring.from_dict(out)


def test_basic_products(ring):
    x, y = ring.gens()
    assert (x + y) * (x - y) == x * x - y * y
    assert (x * x + y * y) * (x * x + y * y) == x**4 + 2 * (x * x * y * y) + y**4
    f = x**2 + 3 * y
    assert f * ring.zero() == ring.zero()


def test_context_mismatch(ring):
    other = PolyRing(("u", "v"))
    with pytest.raises(ValueError):
        _ = ring.gen(0) + other.gen(0)


def test_differentiate(ring):
    x, y = ring.gens()
    f = x * x + y * y
    assert f.diff(0) == 2 * x
    r3 = PolyRing(("a", "b", "c"))
    a, b, c = r3.gens()
    assert (a * b * c).diff(1) == a * c
    with pytest.raises(IndexError):
        f.diff(5)


def test_euler_identity_on_homogeneous(ring):
    rng = random.Random(5)
    for _ in range(10):
        d = rng.randint(1, 5)
        f = ring.from_dict(
            {
                (e, d - e): Fraction(rng.randint(-4, 4))
                for e in range(d + 1)
            }
        )
        if not f:
            continue
        euler = ring.gen(0) * f.diff(0) + ring.gen(1) * f.diff(1)
        assert euler == f.scale(d)


def test_substitute_homomorphism(ring):
    rng = random.Random(11)
    images = [rand_poly(ring, rng), rand_poly(ring, rng)]
    for _ in range(10):
        f = rand_poly(ring, rng)
        g = rand_poly(ring, rng)
        assert (f * g).subst(images) == f.subst(images) * g.subst(images)
        assert (f + g).subst(images) == f.subst(images) + g.subst(images)


def test_substitute_shape(ring):
    u, v = ring.gens()
    f = u * v
    assert f.subst([u * u, v * v]) == u * u * v * v
    with pytest.raises(ValueError):
        f.subst([u])


def test_evaluate(ring):
    x, y = ring.gens()
    f = x * x - y
    assert Substitution(ring, [2, 3], None)(f) == 1
    with pytest.raises(ValueError):
        Substitution(ring, [1], None)(f)


def test_evaluate_agrees_with_constant_substitution(ring):
    rng = random.Random(17)
    for _ in range(6):
        f = rand_poly(ring, rng)
        pt = [Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))]
        images = [ring.const(v) for v in pt]
        assert ring.const(Substitution(ring, pt, None)(f)) == f.subst(images)


def test_division_single(ring):
    x, y = ring.gens()
    f = x * x * y + x * y * y + y**3
    q, r = f.divmod_single(x + y)
    assert q * (x + y) + r == f
    g = (x + y) * (x * x + 3)
    assert g.exact_div(x + y) == x * x + 3
    with pytest.raises(ValueError):
        (x * x + y).exact_div(x + y)
    with pytest.raises(ZeroDivisionError):
        f.reduce([x, ring.zero()])


def test_weighted_degrees():
    pring = PolyRing(("p1", "p2"), weights=(2, 5))
    p1, p2 = pring.gens()
    f = p1**5 + p2 * p2
    assert f.whomog_degree() == 10
    assert (p1 + p2).whomog_degree() is None
    assert pring.monomials(10) == ((5, 0), (0, 2))
    for weights in ((0, 5), (2, -1), (2, 1.5)):
        with pytest.raises(ValueError):
            PolyRing(("p1", "p2"), weights=weights)


def test_monomial_enumeration_ordering(ring):
    mons = ring.monomials(2)
    assert mons == ((2, 0), (1, 1), (0, 2))


def test_json_round_trip_bit_exact(ring):
    rng = random.Random(3)
    f = rand_poly(ring, rng, deg=4, terms=6)
    doc = f.to_json()
    back = Poly.from_json(doc)
    assert back == f
    assert back.to_json() == doc
    # canonical term order: graded reverse lexicographic, leading first
    degs = [sum(t["exp"]) for t in doc["terms"]]
    assert degs == sorted(degs, reverse=True)


def test_json_repeated_exponent_is_rejected(ring):
    # two terms at one exponent make a malformed polynomial
    x, y = ring.gens()
    doc = (x * y + 3 * y).to_json()
    doc["terms"].insert(0, dict(doc["terms"][0], coeff={"a": ["7", "1"]}))
    with pytest.raises(ValueError, match="repeated exponent"):
        Poly.from_json(doc)


def test_primitive(ring):
    x, y = ring.gens()
    f = (x * x).scale(Fraction(4, 6)) + y.scale(Fraction(-2, 3))
    g = f.primitive()
    assert g == x * x - y
    r5 = PolyRing(("x", "y"), d=5)
    x, y = r5.gens()
    f = (x * x).scale(Quad(Fraction(-1, 4), Fraction(3, 10), 5)) + y.scale(Fraction(5, 6))
    assert f.primitive() == (x * x).scale(Quad(15, -18, 5)) - y.scale(50)


def test_pairing(ring):
    x, y = ring.gens()
    u = x * x + 2 * y
    f = 3 * (x * x) + 5 * y
    assert poly_pairing(u, f) == 3 + 10


def test_product_helper(ring):
    x, y = ring.gens()
    assert product([x, y, x + 1]) == x * y * (x + 1)
    assert product([], ring) == ring.one()


# -- products against a schoolbook reference --------------------------------

MUL_RINGS = (
    PolyRing(("x", "y")),
    PolyRing(("x", "y"), d=2),
    PolyRing(("x", "y"), d=3),
    PolyRing(("x", "y", "z"), d=5),
    PolyRing(("p", "q", "r"), weights=(2, 3, 5)),
)

fractions = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


def draw_coeff(draw, ring):
    a = draw(fractions)
    return a if ring.d is None else Quad(a, draw(fractions), ring.d)


def draw_poly(draw, ring):
    exps = draw(st.sets(st.tuples(*[st.integers(0, 3)] * ring.n), max_size=5))
    return ring.from_dict({e: draw_coeff(draw, ring) for e in exps})


@st.composite
def mul_operands(draw):
    ring = draw(st.sampled_from(MUL_RINGS))
    f, g = draw_poly(draw, ring), draw_poly(draw, ring)
    shape = draw(st.sampled_from(("plain", "cancelling", "constant")))
    if shape == "cancelling":
        # (f+g)(f-g): the cross terms cancel
        f, g = f + g, f - g
    elif shape == "constant":
        g = ring.const(draw_coeff(draw, ring))
    return f, g


def schoolbook(f, g):
    out = {}
    for e1, c1 in f.t.items():
        for e2, c2 in g.t.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def assert_field_coeffs(p):
    """Every coefficient of p is a nonzero scalar of its ring's field."""
    d = p.ring.d
    for c in p.t.values():
        assert c
        if d is None:
            assert type(c) is Fraction
        else:
            assert type(c) is Quad and c.d == d
            assert type(c.a) is Fraction and type(c.b) is Fraction


@given(mul_operands())
@settings(max_examples=300, deadline=None)
def test_mul_matches_schoolbook(operands):
    f, g = operands
    prod = f * g
    assert prod.t == schoolbook(f, g)
    assert_field_coeffs(prod)


# -- sums of products ----------------------------------------------------------

DOT_RINGS = (
    PolyRing(("x", "y")),
    PolyRing(("x", "y", "z"), d=5),
    PolyRing(("u", "v"), d=2),
)


@st.composite
def dot_operands(draw):
    ring = draw(st.sampled_from(DOT_RINGS))
    pairs = [(draw_poly(draw, ring), draw_poly(draw, ring)) for _ in range(draw(st.integers(0, 4)))]
    if len(pairs) >= 2 and draw(st.booleans()):
        # the last pair cancels the first one
        f, g = pairs[0]
        pairs[-1] = (-f, g) if draw(st.booleans()) else (g, -f)
    return ring, pairs


@given(dot_operands())
@settings(max_examples=300, deadline=None)
def test_dot_matches_schoolbook_sum(operands):
    ring, pairs = operands
    expected = {}
    for f, g in pairs:
        for e, c in schoolbook(f, g).items():
            expected[e] = expected.get(e, 0) + c
    total = dot(pairs, ring)
    assert total.ring == ring
    assert total.t == {e: c for e, c in expected.items() if c}
    assert_field_coeffs(total)


def test_dot_rejects_another_ring(ring):
    x, y = ring.gens()
    other = PolyRing(("x", "y"), d=5)
    u, v = other.gens()
    for pairs in ([(x, y), (x, u)], [(u, x)], [(u, v)], [(x, other.zero())]):
        with pytest.raises(ValueError):
            dot(pairs, ring)


# -- one substitution map over many polynomials --------------------------------

SUBST_RINGS = (
    PolyRing(("x", "y")),
    PolyRing(("x", "y", "z"), d=5),
    PolyRing(("u", "v"), d=2),
)


def term_by_term(f, images, const):
    """The sum of c * prod images[i]**k over the terms c*x^k of f, one term at
    a time, each coefficient c taken into the target by const."""
    acc = const(0)
    for e, c in f.t.items():
        term = const(c)
        for v, k in zip(images, e):
            term = term * v**k
        acc = acc + term
    return acc


@st.composite
def substitution_operands(draw):
    source = draw(st.sampled_from(SUBST_RINGS))
    # into a ring over the same field with another number of variables
    target = draw(st.sampled_from([r for r in SUBST_RINGS if r.d == source.d] + [
        PolyRing(("s", "t", "w", "q")[: 5 - source.n], d=source.d)]))
    images = [draw_poly(draw, target) for _ in range(source.n)]
    polys = [draw_poly(draw, source) for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        # a later polynomial made of the first one's monomials
        polys.append(polys[0].scale(draw_coeff(draw, source)) + polys[-1])
    return source, target, images, polys


@given(substitution_operands())
@settings(max_examples=200, deadline=None)
def test_substitution_matches_term_by_term(operands):
    source, target, images, polys = operands
    at = Substitution(source, images, target)
    for f in polys:
        image = at(f)
        assert image.ring == target
        assert image == term_by_term(f, images, target.const)
        assert_field_coeffs(image)


coordinates = st.one_of(st.integers(-6, 6), fractions)


@st.composite
def evaluation_operands(draw):
    ring = draw(st.sampled_from(SUBST_RINGS))
    point = [draw(coordinates) for _ in range(ring.n)]
    if ring.d is not None and draw(st.booleans()):
        point[0] = Quad(draw(fractions), draw(fractions), ring.d)
    polys = [draw_poly(draw, ring) for _ in range(draw(st.integers(1, 4)))]
    return ring, point, polys


@given(evaluation_operands())
@settings(max_examples=200, deadline=None)
def test_evaluation_matches_term_by_term(operands):
    ring, point, polys = operands
    at = Substitution(ring, point, None)
    for f in polys:
        value = at(f)
        assert type(value) is (Fraction if ring.d is None else Quad)
        assert value == term_by_term(f, point, ring.coeff)


# -- division by several polynomials -------------------------------------------

DIV_RINGS = (
    PolyRing(("x", "y")),
    PolyRing(("x", "y", "z"), d=5),
    PolyRing(("u", "v"), d=2),
    PolyRing(("p", "q", "r"), weights=(2, 3, 5)),
)


def _growing_denominators():
    """Divisions whose leading coefficients do not divide the numerators."""
    x, y = DIV_RINGS[0].gens()
    a, b, c = DIV_RINGS[1].gens()
    lead = Quad(3, 1, 5)  # norm 9 - 5 = 4
    return [
        # leading coefficient 3 + sqrt 5 against numerators of norm 1
        (a**3 + b**3 + c, [a * lead + b]),
        (a**3 * b + 3 * c**2, [a * b * lead + c, c * Quad(1, 1, 5) + 1]),
        # rational leading coefficient 2 against odd numerators
        (x**3 + 3 * x + 5, [2 * x + 1]),
        (x**2 * y + 3 * y**2 + 7, [2 * x * y + y, 2 * y + 1]),
        # zero dividend
        (DIV_RINGS[1].zero(), [a * lead + b]),
        (DIV_RINGS[0].zero(), [2 * x + 1, y]),
    ]


@st.composite
def reduce_operands(draw):
    ring = draw(st.sampled_from(DIV_RINGS))
    f = draw_poly(draw, ring)
    divisors = [draw_poly(draw, ring) for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        # a dividend in the ideal, so that the remainder can vanish
        f = f * divisors[0] + divisors[-1] * draw_poly(draw, ring)
    return f, divisors


def _with_examples(test):
    for case in _growing_denominators():
        test = example(case)(test)
    return test


@given(reduce_operands())
@_with_examples
@settings(max_examples=300, deadline=None)
def test_reduce_division_identity(operands):
    f, divisors = operands
    assume(all(divisors))
    quotients, r = f.reduce(divisors)
    assert len(quotients) == len(divisors)
    assert sum((q * g for q, g in zip(quotients, divisors)), r) == f
    for p in (*quotients, r):
        assert_field_coeffs(p)
    leads = [g.leading()[0] for g in divisors]
    for e in r.t:
        assert not any(all(a >= b for a, b in zip(e, lead)) for lead in leads)
    (q,), r1 = f.reduce(divisors[:1])
    assert f.divmod_single(divisors[0]) == (q, r1)


# -- the integer form: packed keys, one denominator, the view on read ----------

FORM_RINGS = (
    PolyRing(("x", "y")),
    PolyRing(("x", "y", "z"), d=5),
    PolyRing(("p", "q", "r"), weights=(2, 3, 5)),
    PolyRing(("p", "q"), d=3, weights=(2, 7)),
)


@st.composite
def form_exponents(draw):
    ring = draw(st.sampled_from(FORM_RINGS))
    exps = draw(st.lists(st.tuples(*[st.integers(0, 60)] * ring.n), min_size=1, max_size=8))
    return ring, exps


@given(form_exponents())
@settings(max_examples=200, deadline=None)
def test_packed_keys_order_like_the_term_key(case):
    ring, exps = case
    exps = list(set(exps))
    assert sorted(exps, key=ring.pack) == sorted(exps, key=lambda e: term_key(ring, e))


@given(form_exponents())
@settings(max_examples=200, deadline=None)
def test_packed_keys_add_like_monomials_and_unpack(case):
    ring, exps = case
    for e1 in exps:
        assert ring.unpack(ring.pack(e1)) == e1
        for e2 in exps:
            e = tuple(a + b for a, b in zip(e1, e2))
            assert ring.pack(e1) + ring.pack(e2) == ring.pack(e)


@pytest.mark.parametrize("ring", FORM_RINGS, ids=repr)
def test_exponent_past_the_field_width_raises(ring):
    top = 1 << FIELD_BITS
    w = ring.weights[0]
    rest = (0,) * (ring.n - 1)
    # the largest first exponent whose key fits, and the next one
    last = ((top - 1) // w,) + rest
    assert ring.unpack(ring.pack(last)) == last
    for e in (((top - 1) // w + 1,) + rest, (top,) + rest):
        with pytest.raises(ValueError):
            ring.pack(e)
        with pytest.raises(ValueError):
            ring.from_dict({e: 1})
    # a product whose key sum carries out of the weighted-degree field
    half = ring.from_dict({(-(-top // (2 * w)),) + rest: 1})
    with pytest.raises(ValueError):
        half * half


def with_denominator(p, m):
    """p over the denominator m times its own, which is not the least one."""
    if p.ring.d is None:
        return Poly(p.ring, p.den * m, {k: x * m for k, x in p.num.items()})
    return Poly(p.ring, p.den * m, {k: (a * m, b * m) for k, (a, b) in p.num.items()})


def with_numerator_changed(p, k):
    """p with the numerator of key k raised by one."""
    num = dict(p.num)
    x = num.get(k, 0 if p.ring.d is None else (0, 0))
    num[k] = x + 1 if p.ring.d is None else (x[0], x[1] + 1)
    return Poly(p.ring, p.den, num)


def reference_reduce(f, divisors):
    """Division by divisors over the coefficients of the view, term by term."""
    def key(e):
        return term_key(f.ring, e)

    leads = [max(g.t, key=key) for g in divisors]
    work, qs, r = dict(f.t), [{} for _ in divisors], {}
    while work:
        e = max(work, key=key)
        c = work.pop(e)
        for g, lead, q in zip(divisors, leads, qs):
            if all(a >= b for a, b in zip(e, lead)):
                qe = tuple(a - b for a, b in zip(e, lead))
                q[qe] = qc = c / g.t[lead]
                for e2, c2 in g.t.items():
                    if e2 != lead:
                        e3 = tuple(a + b for a, b in zip(qe, e2))
                        v = work.get(e3, 0) - qc * c2
                        if v:
                            work[e3] = v
                        else:
                            work.pop(e3, None)
                break
        else:
            r[e] = c
    return qs, r


@st.composite
def lazy_results(draw):
    """(ring, result of dot, Substitution or reduce, its terms by reference)."""
    ring = draw(st.sampled_from(FORM_RINGS))
    kind = draw(st.sampled_from(("dot", "substitution", "reduce")))
    if kind == "dot":
        count = draw(st.integers(1, 3))
        pairs = [(draw_poly(draw, ring), draw_poly(draw, ring)) for _ in range(count)]
        expected = {}
        for f, g in pairs:
            for e, c in schoolbook(f, g).items():
                expected[e] = expected.get(e, 0) + c
        return [(ring, dot(pairs, ring), expected)]
    f = draw_poly(draw, ring)
    if kind == "substitution":
        source = PolyRing(("s", "t"), d=ring.d, weights=draw(st.sampled_from([None, (2, 3)])))
        images = [draw_poly(draw, ring) for _ in range(source.n)]
        f = draw_poly(draw, source)
        expected = term_by_term(f, images, ring.const).t
        return [(ring, Substitution(source, images, ring)(f), expected)]
    divisors = [draw_poly(draw, ring) for _ in range(draw(st.integers(1, 2)))]
    assume(all(divisors))
    quotients, r = f.reduce(divisors)
    qs, rr = reference_reduce(f, divisors)
    return [(ring, p, t) for p, t in zip((*quotients, r), (*qs, rr))]


@given(lazy_results(), st.integers(2, 30))
@settings(max_examples=300, deadline=None)
def test_lazy_results_compare_with_eager_polynomials(cases, m):
    for ring, lazy, expected in cases:
        eager = ring.from_dict({e: c for e, c in expected.items() if c})
        assert lazy == eager and eager == lazy
        assert with_denominator(lazy, m) == eager and lazy == with_denominator(eager, m)
        for k in list(eager.num)[:2] + [ring.pack((1,) * ring.n)]:
            changed = with_numerator_changed(eager, k)
            assert lazy != changed and changed != lazy
            assert with_denominator(changed, m) != lazy
            assert lazy != with_denominator(changed, m)
        assert lazy.t == eager.t
        assert_field_coeffs(lazy)


@pytest.mark.parametrize("ring", FORM_RINGS[:2], ids=repr)
def test_witness_rejects_a_lazy_product_with_one_numerator_changed(ring):
    x, y = ring.gens()[:2]
    half = ring.coeff(Fraction(1, 2))
    gens = [x * x + 3 * y, (x * y).scale(half) - y * y]
    cofactors = [(y + 1).scale(Fraction(2, 3)), x.scale(half) + 5]
    target = dot(zip(cofactors, gens), ring)
    assert target.den > 1
    Witness(target, gens, cofactors)
    assert target._t is None  # compared without building the view
    for k in target.num:
        with pytest.raises(EngineError):
            Witness(with_numerator_changed(target, k), gens, cofactors)


@st.composite
def raw_forms(draw):
    """Poly(ring, den, num) as the arithmetic leaves it: a denominator that
    need not be the least one, negative numerators and, over Q(sqrt d),
    pairs whose surd part or rational part is zero."""
    ring = draw(st.sampled_from(FORM_RINGS))
    den = draw(st.integers(1, 60))
    exps = draw(st.sets(st.tuples(*[st.integers(0, 4)] * ring.n), max_size=6))
    nonzero = st.integers(-90, 90).filter(bool)
    num = {}
    for e in exps:
        if ring.d is None:
            num[ring.pack(e)] = draw(nonzero)
        else:
            shape = draw(st.sampled_from(("both", "no-surd", "no-rational")))
            a = 0 if shape == "no-rational" else draw(nonzero)
            b = 0 if shape == "no-surd" else draw(nonzero)
            num[ring.pack(e)] = (a, b)
    return Poly(ring, den, num)


@given(raw_forms())
@settings(max_examples=300, deadline=None)
def test_json_printed_from_the_integer_form(f):
    doc = f.to_json()
    assert doc == reference_to_json(f)
    assert Poly.from_json(doc) == f and Poly.from_json(doc, f.ring) == f
