from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baric import (
    DivisionByZero,
    FieldElement,
    FieldMismatch,
    FieldSpec,
    ParseError,
    parse_scalar,
)

Q = FieldSpec.rationals()
F5 = FieldSpec.prime(5)


def test_field_spec_interning_and_validation():
    assert FieldSpec.prime(5) is F5
    assert FieldSpec.rationals() is Q
    with pytest.raises(ValueError):
        FieldSpec.prime(6)
    with pytest.raises(ValueError):
        FieldSpec.prime(1)


def test_rational_arithmetic_examples():
    half = Q.element(Fraction(1, 2))
    third = Q.element(Fraction(1, 3))
    assert str(half + third) == "5/6"
    assert half - half == Q.zero
    assert half * Q.element(2) == Q.one


def test_prime_arithmetic_examples():
    two, three = F5.element(2), F5.element(3)
    assert two * three == F5.one  # 6 mod 5
    # oracle: brute-force inverse search for 3 in F_5
    brute = next(v for v in range(1, 5) if (3 * v) % 5 == 1)
    assert brute == 2
    assert F5.one / three == F5.element(brute)


def test_division_errors():
    with pytest.raises(DivisionByZero):
        Q.one / Q.zero
    with pytest.raises(DivisionByZero):
        F5.one / F5.zero
    with pytest.raises(FieldMismatch):
        Q.one + F5.one


def test_parse_scalar_examples():
    assert str(parse_scalar("-3/6", Q)) == "-1/2"
    assert parse_scalar("7", F5) == F5.element(2)
    assert parse_scalar("1/2", F5) == F5.element(3)  # 2*3 = 6 = 1 mod 5
    assert (F5.element(2) * F5.element(3)) == F5.one


def test_fraction_coercion_into_prime_field():
    from baric import Algebra, Weight

    assert F5.element(Fraction(1, 2)) == parse_scalar("1/2", F5) == F5.element(3)
    assert F5.element(Fraction(-7, 3)) == parse_scalar("-7/3", F5)
    assert F5.element(Fraction(10, 1)) == F5.zero
    with pytest.raises(DivisionByZero):
        F5.element(Fraction(1, 5))
    assert Weight(F5, [Fraction(1, 2), 1]).coords == (F5.element(3), F5.one)
    a = Algebra(F5, 1, {(0, 0, 0): Fraction(3, 4)})
    assert a.table == {(0, 0, 0): parse_scalar("3/4", F5)}


def test_parse_scalar_errors():
    for bad in ("", "x", "1/2/3", "1.5", "2/-3", " 1"):
        with pytest.raises(ParseError):
            parse_scalar(bad, Q)
    with pytest.raises(DivisionByZero):
        parse_scalar("1/0", Q)
    with pytest.raises(DivisionByZero):
        parse_scalar("1/5", F5)


def test_print_parse_round_trip():
    for text in ("0", "1", "-1", "5/6", "-7/3", "123456789123456789"):
        assert str(parse_scalar(text, Q)) == text
    for text in ("0", "1", "4"):
        assert str(parse_scalar(text, F5)) == text


rational_values = st.fractions(
    min_value=-6, max_value=6, max_denominator=7
).map(Q.element)
f5_values = st.integers(0, 4).map(F5.element)


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    st.tuples(st.just(Q), rational_values, rational_values, rational_values),
    st.tuples(st.just(F5), f5_values, f5_values, f5_values),
))
def test_field_laws(data):
    field, a, b, c = data
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if a:
        assert a * a.inverse() == field.one
    assert str(field.element(str(a))) == str(a)


@settings(max_examples=80, deadline=None)
@given(st.one_of(rational_values, f5_values))
def test_negation_and_subtraction(a):
    assert a + (-a) == a.field.zero
    assert a - a == a.field.zero
    assert -(-a) == a
