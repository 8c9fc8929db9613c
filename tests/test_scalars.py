from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxsaito.scalars import (
    Quad,
    conjugate,
    coerce,
    integer_parts,
    invert,
    parts_from_json,
    scalar_from_json,
    scalar_to_json,
)


def test_rational_arithmetic():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)


def test_defining_relation():
    r5 = Quad(0, 1, 5)
    assert r5 * r5 == 5


def test_golden_ratio_minimal_polynomial():
    tau = Quad(Fraction(1, 2), Fraction(1, 2), 5)
    assert tau * tau == tau + 1
    assert tau * tau == Quad(Fraction(3, 2), Fraction(1, 2), 5)


def test_invert_rational():
    assert invert(Fraction(2, 3)) == Fraction(3, 2)


def test_invert_quadratic_by_conjugate():
    x = Quad(1, 1, 5)  # 1 + sqrt 5
    assert invert(x) == Quad(Fraction(-1, 4), Fraction(1, 4), 5)
    assert x * invert(x) == 1


def test_invert_zero_raises():
    with pytest.raises(ZeroDivisionError):
        invert(Fraction(0))
    with pytest.raises(ZeroDivisionError):
        Quad(0, 0, 5).inverse()


def test_mixed_field_rejected():
    with pytest.raises(ValueError):
        Quad(1, 1, 5) * Quad(1, 1, 2)


def test_rational_coercion_into_quadratic():
    assert Quad(1, 2, 5) + 3 == Quad(4, 2, 5)
    assert 2 * Quad(1, 2, 5) == Quad(2, 4, 5)


scalars = st.builds(
    Quad,
    st.fractions(min_value=-50, max_value=50, max_denominator=9),
    st.fractions(min_value=-50, max_value=50, max_denominator=9),
    st.just(5),
)


@settings(max_examples=80, deadline=None)
@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if a:
        assert a * a.inverse() == 1


@settings(max_examples=80, deadline=None)
@given(scalars, scalars)
def test_conjugation_is_a_field_automorphism(x, y):
    assert conjugate(x * y) == conjugate(x) * conjugate(y)
    assert conjugate(x + y) == conjugate(x) + conjugate(y)


def test_json_round_trip():
    x = Quad(Fraction(-7, 3), Fraction(22, 5), 5)
    assert scalar_from_json(scalar_to_json(x)) == x
    q = Fraction(-9, 14)
    back = scalar_from_json(scalar_to_json(q))
    assert back == q and not isinstance(back, Quad)
    # rationals omit the surd part entirely
    assert set(scalar_to_json(q)) == {"a"}


def test_coerce_field_tags():
    assert coerce(3, None) == Fraction(3)
    v = coerce(3, 5)
    assert isinstance(v, Quad) and v.d == 5
    with pytest.raises(ValueError):
        coerce(Quad(1, 1, 5), None)


_JSON_SCALARS = [
    {"a": ["3", "4"]},
    {"a": ["-6", "4"]},
    {"a": ["5", "-2"]},
    {"a": ["0", "7"]},
    {"a": ["1", "6"], "b": ["-5", "4"], "d": 5},
    {"a": ["0", "1"], "b": ["2", "3"], "d": 2},
    {"a": ["1", "2"], "b": ["0", "3"], "d": 5},
    {"a": ["1", "0"]},
    {"a": ["x", "1"]},
    {"a": ["1", "2"], "b": ["1", "1"]},
    {"a": ["1", "2"], "b": ["1", "1"], "d": 3},
    {"b": ["1", "1"], "d": 5},
]


@pytest.mark.parametrize("d", [None, 5])
@pytest.mark.parametrize("obj", _JSON_SCALARS, ids=str)
def test_parts_from_json_agrees_with_coerced_scalars(obj, d):
    # the same value as integer_parts of the coerced scalar, or the same
    # kind of exception
    try:
        den, nums = integer_parts({0: coerce(scalar_from_json(obj, d), d)}, d)
    except Exception as exc:
        with pytest.raises(type(exc)):
            parts_from_json(obj, d)
        return
    got_den, got = parts_from_json(obj, d)
    x = nums[0]
    if d is None:
        assert Fraction(got, got_den) == Fraction(x, den)
    else:
        assert all(Fraction(g, got_den) == Fraction(v, den) for g, v in zip(got, x))
