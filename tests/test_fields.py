from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baric import (
    DimensionMismatch,
    DivisionByZero,
    FieldElement,
    FieldMismatch,
    FieldSpec,
    Matrix,
    ParseError,
    Subspace,
    Weight,
    kpow,
    parse_scalar,
    solve,
    span,
)
from baric.algebra import Element
from baric.linalg import row_times_matrix

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)
F4099 = FieldSpec.prime(4099)  # above the interning limit


def test_field_spec_interning_and_validation():
    assert FieldSpec.prime(5) is F5
    assert FieldSpec.rationals() is Q
    with pytest.raises(ValueError):
        FieldSpec.prime(6)
    with pytest.raises(ValueError):
        FieldSpec.prime(1)


def test_field_spec_coerces_the_modulus_before_its_cache():
    # 3.0 == 3, so a lookup before coercion would return the cached F3
    assert FieldSpec(3) is F3
    with pytest.raises(TypeError):
        FieldSpec(3.0)


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


@pytest.mark.parametrize("field", [Q, F5, F4099])
def test_powers_with_negative_exponents_and_a_zero_base(field):
    two = field.element(2)
    half = field.one / two
    assert two ** 0 == field.one and two ** 3 == field.element(8)
    assert two ** -1 == half and two ** -3 == half * half * half
    assert two ** -3 * two ** 3 == field.one
    assert field.zero ** 0 == field.one and field.zero ** 2 == field.zero
    with pytest.raises(DivisionByZero):
        field.zero ** -1


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


def _door_entry_points():
    """Each public entry point that takes caller-supplied F3 coordinates of length 2."""
    a = kpow(F3, 2).algebra
    m = Matrix.identity(F3, 2)
    full = Subspace.full(F3, 2)
    return {
        "Matrix": lambda v: Matrix(F3, [v], 2),
        "span": lambda v: span(F3, 2, [v]),
        "solve": lambda v: solve(m, v),
        "row_times_matrix": lambda v: row_times_matrix(v, m),
        "Subspace.contains_vector": full.contains_vector,
        "Algebra.product_coords": lambda v: a.product_coords(v, v),
        "Element": lambda v: Element(a, v),
        "Weight.__call__": Weight(F3, [1, 1]),
    }


BAD_COORDINATES = {
    "wrong length": ((F3.one, F3.zero, F3.one), DimensionMismatch),
    "non-element": ((1, 0), TypeError),
    "foreign field": ((F5.element(4), F5.one), FieldMismatch),
}


@pytest.mark.parametrize("entry", sorted(_door_entry_points()))
@pytest.mark.parametrize("bad", sorted(BAD_COORDINATES))
def test_every_entry_point_checks_its_coordinates(entry, bad):
    coords, error = BAD_COORDINATES[bad]
    with pytest.raises(error):
        _door_entry_points()[entry](coords)


def test_element_keeps_its_raw_values_as_a_tuple():
    a = kpow(Q, 3).algebra
    x = Element(a, (Q.element(Fraction(1, 2)), Q.zero, Q.element(-3)))
    assert x.values == (Fraction(1, 2), Fraction(0), Fraction(-3))
    assert type(x.values) is tuple
    assert list((x * x).coords) == a.product_coords(x.coords, x.coords)


def test_prime_needs_an_integer_modulus():
    with pytest.raises(TypeError):
        FieldSpec.prime(None)
    with pytest.raises(TypeError):
        FieldSpec.prime(3.0)
    assert FieldSpec.prime(3) is F3
    assert FieldSpec(None) is Q and FieldSpec.rationals() is Q


def _assert_canonical(x):
    """Raw values of an Element, a Weight or each row of a Matrix are residues in
    [0, p) over F_p and Fractions over Q, and its coords (a Matrix's rows) are
    their FieldElement view."""
    if isinstance(x, Matrix):
        assert type(x.values) is tuple and len(x.values) == x.nrows
        for row, values in zip(x.rows, x.values):
            assert len(values) == x.ncols
            _assert_canonical_values(x.field, values, row)
        assert x.rows == tuple(x.field.wrap(r) for r in x.values)
        return
    field = x.field if isinstance(x, Weight) else x.algebra.field
    _assert_canonical_values(field, x.values, x.coords)


def _assert_canonical_values(field, values, coords):
    if field.p is None:
        assert all(type(v) is Fraction for v in values)
    else:
        assert all(type(v) is int and 0 <= v < field.p for v in values)
    assert type(values) is tuple
    assert coords == field.wrap(values)
    assert values == tuple(c.value for c in coords)


@st.composite
def element_operands(draw):
    field = draw(st.sampled_from([F2, F3, F4099, Q]))
    n = draw(st.integers(1, 4))
    if field.p is None:
        scalars = st.fractions(min_value=-20, max_value=20, max_denominator=9)
    else:
        scalars = st.integers(-3 * field.p, 3 * field.p)
    a = kpow(field, n).algebra
    x, y = (a.element(draw(st.lists(scalars, min_size=n, max_size=n))) for _ in range(2))
    return x, y, field.element(draw(scalars))


@settings(max_examples=120, deadline=None)
@given(element_operands())
def test_element_arithmetic_on_raw_values_matches_fieldelement_ops(operands):
    x, y, c = operands
    a = x.algebra
    cases = [
        (x + y, [u + v for u, v in zip(x.coords, y.coords)]),
        (x - y, [u - v for u, v in zip(x.coords, y.coords)]),
        (-x, [-u for u in x.coords]),
        (x.scaled(c), [c * u for u in x.coords]),
    ]
    for got, reference in cases:
        expected = Element(a, tuple(reference))
        assert got.coords == expected.coords
        assert got == expected and hash(got) == hash(expected)
        assert got.is_zero == (not any(reference))
        _assert_canonical(got)
    _assert_canonical(x * y)
    assert (x - x).is_zero and x - x == a.zero()


@st.composite
def raw_vectors(draw):
    """A field and a nonempty list of raw values over it, not necessarily canonical."""
    field = draw(st.sampled_from([F2, F3, F4099, Q]))
    if field.p is None:
        raw = st.one_of(st.integers(-20, 20), st.fractions(min_value=-20, max_value=20, max_denominator=9))
    else:
        raw = st.integers(-3 * field.p, 3 * field.p)
    return field, draw(st.lists(raw, min_size=1, max_size=4))


@settings(max_examples=120, deadline=None)
@given(raw_vectors())
def test_elements_and_weights_store_canonical_values(case):
    field, raw = case
    n = len(raw)
    a = kpow(field, n).algebra
    x = Element._raw(a, raw)
    assert x == a.element(raw) and hash(x) == hash(a.element(raw))
    for y in (x, a.basis_element(n - 1), a.zero()):
        _assert_canonical(y)
    weights = [
        Weight(field, raw),
        Weight(field, [str(v) for v in raw]),
        Weight(field, [field.element(v) for v in raw]),
    ]
    for w in weights:
        _assert_canonical(w)
        assert w == weights[0] and hash(w) == hash(weights[0])
    assert weights[0].is_nonzero == any(x.values)
    # one row, the identity and an invertible diagonal matrix, each built every way
    d = [field.element(v or 1) for v in x.values]

    def diagonal(entries):
        return [[c if i == j else 0 for j in range(n)] for i, c in enumerate(entries)]

    ident, m = Matrix.identity(field, n), Matrix.of(field, diagonal(d))
    for matrices in [
        [Matrix.of(field, [raw]), Matrix(field, [x.coords]), Matrix.of(field, [raw]).transpose().transpose()],
        [
            ident,
            Matrix.of(field, diagonal([1] * n)),
            Matrix(field, [a.basis_element(i).coords for i in range(n)]),
            m.rref(),
            ident.inverse(),
            ident.transpose().transpose(),
        ],
        [m, Matrix.of(field, diagonal([c.inverse() for c in d])).inverse(), m.transpose().transpose()],
    ]:
        for mat in matrices:
            _assert_canonical(mat)
            assert mat == matrices[0] and hash(mat) == hash(matrices[0])


def test_scaled_checks_its_scalar():
    x = kpow(F3, 2).algebra.element([1, 2])
    with pytest.raises(TypeError):
        x.scaled(2)
    with pytest.raises(FieldMismatch):
        x.scaled(F5.one)
