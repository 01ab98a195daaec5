import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baric import (
    Algebra,
    DimensionMismatch,
    FieldMismatch,
    FieldSpec,
    Matrix,
    NotABowtie,
    NotIdempotentInput,
    NotWeightPreserving,
    Subspace,
    Weight,
    WeightNotOne,
    associativity_character,
    associator,
    associator_closed_form,
    baric_isomorphic_by,
    bowtie,
    change_basis,
    commutator,
    commutator_closed_form,
    embed,
    factor,
    factors,
    idempotent_family,
    kpow,
    project,
    property_flags,
    random_baric,
    random_rational_baric,
    span,
    span_of,
    split_element,
    structural_isos,
    transport_iso,
    validate_weight,
)
from baric.bowtie import embed_subspace
from baric.weights import BaricAlgebra
from baric.catalog import dual_numbers, scalar_action
from test_fields import _assert_canonical
from test_lattice_primitives import _random_vectors, reference_product

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F4099 = FieldSpec.prime(4099)  # above the interning limit: wrap takes the % p path


def test_bowtie_structure_of_field_square():
    k2 = bowtie(kpow(Q, 1), kpow(Q, 1))
    assert k2.algebra.table == {(i, j, i): Q.one for i in range(2) for j in range(2)}
    assert k2.weight == Weight(Q, [1, 1])
    assert k2.provenance is not None
    assert (k2.provenance.left_dim, k2.provenance.right_dim) == (1, 1)


def test_bowtie_products_in_dual_pair():
    dd = bowtie(dual_numbers(Q), dual_numbers(Q))
    x_left = dd.element([0, 1, 0, 0])
    one_right = dd.element([0, 0, 1, 0])
    x_right = dd.element([0, 0, 0, 1])
    one_left = dd.element([1, 0, 0, 0])
    assert x_left * one_right == x_left
    assert x_right * one_left == x_right


def test_bowtie_field_mismatch():
    with pytest.raises(FieldMismatch):
        bowtie(kpow(Q, 1), kpow(F2, 1))


def test_factor_recovery():
    d2 = dual_numbers(Q)
    dd = bowtie(d2, kpow(Q, 2))
    left, right = factors(dd)
    assert left.algebra == d2.algebra and left.weight == d2.weight
    assert right.algebra == kpow(Q, 2).algebra
    with pytest.raises(NotABowtie):
        factor(d2, "left")


def test_factor_keeps_its_block_of_basis_names():
    dk = bowtie(dual_numbers(F3), kpow(F3, 2))
    named = BaricAlgebra(Algebra(F3, 4, dk.algebra.table, ["1", "x", "a", "b"]), dk.weight, dk.provenance)
    left, right = factors(named)
    assert left.algebra.basis_names == ("1", "x") and right.algebra.basis_names == ("a", "b")
    assert left == dual_numbers(F3)
    assert (right.algebra, right.weight) == (kpow(F3, 2).algebra, kpow(F3, 2).weight)
    assert factor(dk, "left").algebra.basis_names is None


def test_embed_examples():
    k2 = kpow(Q, 2)
    assert embed(k2, "left", kpow(Q, 1).element([1])).coords == k2.element([1, 0]).coords
    dd = bowtie(dual_numbers(Q), dual_numbers(Q))
    x = dual_numbers(Q).element([0, 1])
    assert embed(dd, "right", x) == dd.element([0, 0, 0, 1])
    with pytest.raises(DimensionMismatch):
        embed(dd, "left", kpow(Q, 1).element([1]))


def test_embedded_image_is_right_ideal():
    rng = random.Random(4)
    dd = bowtie(dual_numbers(Q), dual_numbers(Q))
    for _ in range(20):
        x = dual_numbers(Q).element([rng.randint(-2, 2), rng.randint(-2, 2)])
        y = dd.element([rng.randint(-2, 2) for _ in range(4)])
        image = embed(dd, "left", x) * y
        assert image.coords[2:] == (Q.zero, Q.zero)


def test_project_examples():
    dd = bowtie(dual_numbers(Q), dual_numbers(Q))
    s = span_of(Q, 4, [[1, 0, -1, 0]])
    assert project(dd, "left", s) == span_of(Q, 2, [[1, 0]])
    assert project(dd, "right", span_of(Q, 4, [])).is_zero
    k2 = kpow(Q, 2)
    assert project(k2, "left", k2.kernel()) == span_of(Q, 1, [[1]])


def test_project_refusals():
    dd = bowtie(dual_numbers(F3), dual_numbers(F3))
    with pytest.raises(DimensionMismatch):
        project(dd, "left", Subspace.full(F3, 3))
    with pytest.raises(FieldMismatch):
        project(dd, "left", span_of(Q, 4, [[1, 0, 0, 0]]))


def test_commutator_closed_form_matches_direct():
    rng = random.Random(1)
    for field, seeds in ((F3, range(6)), (F2, range(6))):
        for s in seeds:
            b1 = random_baric(field, 1 + s % 3, seed=s)
            b2 = random_baric(field, 1 + (s + 1) % 3, seed=s + 50)
            bow = bowtie(b1, b2)
            elements = [bow.basis_element(i) for i in range(bow.dim)]
            elements.append(
                bow.element([rng.randrange(field.p) for _ in range(bow.dim)])
            )
            for x in elements:
                for y in elements:
                    assert commutator(x, y).coords == commutator_closed_form(
                        b1, b2, split_element(b1, b2, x), split_element(b1, b2, y)
                    )


def test_commutator_closed_form_trivial_cases():
    k2 = kpow(Q, 2)
    b1 = b2 = kpow(Q, 1)
    x = (b1.element([1]), b2.element([0]))
    y = (b1.element([0]), b2.element([1]))
    assert commutator_closed_form(b1, b2, x, x) == k2.element([0, 0]).coords
    assert commutator_closed_form(b1, b2, x, y) == k2.element([1, -1]).coords


def test_associator_closed_form_matches_direct():
    rng = random.Random(2)
    for s in range(8):
        b1 = random_baric(F3, 1 + s % 3, seed=s)
        b2 = random_baric(F3, 1 + (s + 2) % 3, seed=s + 90)
        bow = bowtie(b1, b2)
        elements = [bow.basis_element(i) for i in range(bow.dim)]
        elements.append(bow.element([rng.randrange(3) for _ in range(bow.dim)]))
        for x in elements:
            for y in elements:
                for z in elements:
                    assert associator(x, y, z).coords == associator_closed_form(
                        b1,
                        b2,
                        split_element(b1, b2, x),
                        split_element(b1, b2, y),
                        split_element(b1, b2, z),
                    )


def test_associator_closed_form_examples():
    d2 = dual_numbers(Q)
    dd = bowtie(d2, d2)
    a = (d2.element([1, 0]), d2.element([0, 0]))
    b = (d2.element([0, 0]), d2.element([1, 0]))
    c = (d2.element([0, 1]), d2.element([0, 0]))
    assert associator_closed_form(d2, d2, a, b, c) == dd.element([0, 1, 0, 0]).coords

    # all inputs in the left block of an associative factor
    k3 = kpow(Q, 3)
    bow = bowtie(k3, d2)
    left_only = [
        (k3.element([1, 2, 0]), d2.element([0, 0])),
        (k3.element([0, 1, 1]), d2.element([0, 0])),
        (k3.element([1, 0, 1]), d2.element([0, 0])),
    ]
    result = associator_closed_form(k3, d2, *left_only)
    assert not any(result)


def test_idempotent_family():
    d2 = dual_numbers(Q)
    dd = bowtie(d2, d2)
    unit = d2.element([1, 0])
    members = [
        idempotent_family(dd, unit, unit, Q.element(lam))
        for lam in ("0", "1", "1/2", "1/3", "2/3")
    ]
    for e in members:
        assert e * e == e
        assert dd.weight(e) == Q.one
    for e in members:
        for f in members:
            assert e * f == e

    x = d2.element([0, 1])
    with pytest.raises(NotIdempotentInput):
        idempotent_family(dd, x, unit, Q.one)
    two = d2.element([2, 0])
    with pytest.raises(NotIdempotentInput):
        idempotent_family(dd, two, unit, Q.one)


def test_idempotent_family_weight_check():
    # (0,1) in the componentwise pair is idempotent of weight zero
    from baric.catalog import componentwise

    cw = componentwise(Q, 2)
    bow = bowtie(cw, kpow(Q, 1))
    bad = cw.element([0, 1])
    with pytest.raises(WeightNotOne):
        idempotent_family(bow, bad, kpow(Q, 1).element([1]), Q.one)


def test_kpow_examples():
    k1 = kpow(Q, 1)
    assert k1.dim == 1 and k1.provenance is None
    assert k1.weight == Weight(Q, [1])

    assert kpow(Q, 2) == bowtie(k1, k1)

    k3 = kpow(Q, 3)
    flags = property_flags(k3.algebra)
    assert flags.associative and not flags.commutative
    assert k3.weight == Weight.ones(Q, 3)
    iterated = bowtie(bowtie(k1, k1), k1)
    assert iterated == k3


def test_kpow_combines_additively():
    for field in (Q, F2, F3):
        for n1, n2 in ((1, 1), (2, 1), (2, 3)):
            combined = bowtie(kpow(field, n1), kpow(field, n2))
            target = kpow(field, n1 + n2)
            assert combined.algebra == target.algebra
            assert combined.weight == target.weight
            ident = Matrix.identity(field, n1 + n2)
            assert baric_isomorphic_by(ident, combined, target)


def test_structural_isos():
    b1 = dual_numbers(Q)
    b2 = kpow(Q, 2)
    b3 = scalar_action(Q, [1, 0])
    isos = structural_isos(b1, b2, b3)
    assert isos.swap_verified and isos.assoc_verified
    assert baric_isomorphic_by(isos.swap, bowtie(b1, b2), bowtie(b2, b1))


def test_transport_iso():
    b1 = scalar_action(Q, [1, 0])
    b2 = dual_numbers(Q)
    t = Matrix.of(Q, [[1, 0], [1, 1]])
    moved = BaricAlgebra(
        change_basis(b1.algebra, t),
        Weight(Q, [b1.weight(row) for row in t.rows]),
    )
    f = t.inverse()
    extended, ok = transport_iso(f, b1, moved, b2)
    assert ok
    assert baric_isomorphic_by(extended, bowtie(b1, b2), bowtie(moved, b2))

    ident = Matrix.identity(Q, 2)
    extended, ok = transport_iso(ident, b1, b1, b2)
    assert ok
    assert extended == Matrix.identity(Q, 4)

    doubling = Matrix.of(Q, [[2, 0], [0, 2]])
    with pytest.raises(NotWeightPreserving):
        transport_iso(doubling, b1, b1, b2)


def test_associativity_character_examples():
    k2 = kpow(Q, 2)
    record = associativity_character(k2, k2)
    assert record.bowtie_associative
    assert record.scalar_action_left and record.scalar_action_right
    combined = bowtie(k2, k2)
    assert combined.algebra == kpow(Q, 4).algebra

    d2 = dual_numbers(Q)
    record = associativity_character(d2, d2)
    assert not record.bowtie_associative

    record = associativity_character(kpow(Q, 1), d2)
    assert not record.bowtie_associative
    assert record.scalar_action_left and not record.scalar_action_right


# -- differentials for the raw-value kernels ----------------------------------
# commutator, associator, both closed forms, Weight.__call__ and
# validate_weight compute on raw values. The references below are written in
# FieldElement arithmetic over reference_product (the triple sum over
# a.table), so they share no kernel with the code under test.


def _ref_sub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def _ref_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def _ref_scale(c, x):
    return tuple(c * a for a in x)


def _ref_weight(w, x):
    acc = w.field.zero
    for wi, xi in zip(w.coords, x):
        acc = acc + wi * xi
    return acc


def _ref_commutator(a, x, y):
    return _ref_sub(reference_product(a, x, y), reference_product(a, y, x))


def _ref_associator(a, x, y, z):
    return _ref_sub(
        reference_product(a, reference_product(a, x, y), z),
        reference_product(a, x, reference_product(a, y, z)),
    )


def _ref_commutator_closed_form(b1, b2, x, y):
    (a1, a2), (c1, c2) = x, y
    w1, w2 = b1.weight, b2.weight
    left = _ref_sub(
        _ref_add(_ref_commutator(b1.algebra, a1, c1), _ref_scale(_ref_weight(w2, c2), a1)),
        _ref_scale(_ref_weight(w2, a2), c1),
    )
    right = _ref_sub(
        _ref_add(_ref_commutator(b2.algebra, a2, c2), _ref_scale(_ref_weight(w1, c1), a2)),
        _ref_scale(_ref_weight(w1, a1), c2),
    )
    return left + right


def _ref_associator_closed_form(b1, b2, x, y, z):
    (a1, a2), (p1, p2), (c1, c2) = x, y, z
    w1, w2 = b1.weight, b2.weight
    left = _ref_add(
        _ref_associator(b1.algebra, a1, p1, c1),
        _ref_scale(
            _ref_weight(w2, p2),
            _ref_sub(reference_product(b1.algebra, a1, c1), _ref_scale(_ref_weight(w1, c1), a1)),
        ),
    )
    right = _ref_add(
        _ref_associator(b2.algebra, a2, p2, c2),
        _ref_scale(
            _ref_weight(w1, p1),
            _ref_sub(reference_product(b2.algebra, a2, c2), _ref_scale(_ref_weight(w2, c2), a2)),
        ),
    )
    return left + right


def _ref_validate_weight(a, w):
    if not any(w.coords):
        return False
    zero = a.field.zero
    for i in range(a.dim):
        for j in range(a.dim):
            acc = zero
            for k in range(a.dim):
                acc = acc + a.table.get((i, j, k), zero) * w.coords[k]
            if acc != w.coords[i] * w.coords[j]:
                return False
    return True


RAW_FIELDS = [F2, F3, Q, F4099]


def _baric_factor(field, dim, seed):
    if field.p is None:
        rng = random.Random(seed)
        weight = [rng.choice([1, 2, Fraction(1, 2)])] + [rng.randint(-2, 2) for _ in range(dim - 1)]
        return random_rational_baric(dim, weight, seed=seed)
    return random_baric(field, dim, seed=seed)


def _draw_coords(rng, field, n):
    if field.p is None:
        return [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
    return [rng.randrange(field.p) if rng.random() < 0.7 else 0 for _ in range(n)]


@st.composite
def factor_pairs(draw):
    field = draw(st.sampled_from(RAW_FIELDS))
    d1, d2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    seed = draw(st.integers(0, 10_000))
    return _baric_factor(field, d1, seed), _baric_factor(field, d2, seed + 1), seed


@settings(max_examples=60, deadline=None)
@given(factor_pairs())
def test_raw_kernels_match_field_element_references(pair):
    b1, b2, seed = pair
    rng = random.Random(seed)
    field = b1.field
    bow = bowtie(b1, b2)
    points = [bow.basis_element(i) for i in range(bow.dim)]
    points += [bow.element(_draw_coords(rng, field, bow.dim)) for _ in range(3)]
    triples = [tuple(rng.choice(points) for _ in range(3)) for _ in range(12)]
    for x, y, z in triples:
        sx, sy, sz = (split_element(b1, b2, e) for e in (x, y, z))
        cx, cy, cz = ((u.coords, v.coords) for u, v in (sx, sy, sz))
        assert commutator(x, y).coords == _ref_commutator(bow.algebra, x.coords, y.coords)
        assert associator(x, y, z).coords == _ref_associator(
            bow.algebra, x.coords, y.coords, z.coords
        )
        assert commutator_closed_form(b1, b2, sx, sy) == _ref_commutator_closed_form(
            b1, b2, cx, cy
        )
        assert associator_closed_form(b1, b2, sx, sy, sz) == _ref_associator_closed_form(
            b1, b2, cx, cy, cz
        )
        assert bow.weight(x) == _ref_weight(bow.weight, x.coords)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([F2, F3, Q]), st.integers(1, 3), st.integers(1, 3), st.integers(0, 10_000))
def test_embed_of_an_element_matches_its_padded_coordinates(field, d1, d2, seed):
    """embed pads an Element's stored values; the result is the element of the
    zero-padded coordinates, as embed of the coordinate row gives it."""
    b1, b2 = _baric_factor(field, d1, seed), _baric_factor(field, d2, seed + 1)
    bow = bowtie(b1, b2)
    rng = random.Random(seed)
    x = b1.element(_draw_coords(rng, field, d1))
    y = b2.element(_draw_coords(rng, field, d2))
    zero = (field.zero,)
    for side, e, lo in (("left", x, 0), ("right", y, d1)):
        image = embed(bow, side, e)
        _assert_canonical(image)
        assert image == embed(bow, side, e.coords)
        assert image == bow.element(zero * lo + e.coords + zero * (bow.dim - lo - e.algebra.dim))
    assert split_element(b1, b2, embed(bow, "left", x) + embed(bow, "right", y)) == (x, y)


def test_embed_refuses_an_element_of_another_field():
    dd = bowtie(dual_numbers(F3), dual_numbers(F3))
    with pytest.raises(FieldMismatch):
        embed(dd, "left", dual_numbers(Q).element([1, 1]))
    with pytest.raises(FieldMismatch):
        embed(dd, "right", [F2.one, F2.zero])
    with pytest.raises(DimensionMismatch):
        embed(dd, "right", kpow(Q, 1).element([1]))


@st.composite
def weighted_algebras(draw):
    """Valid weights, perturbed valid weights, and random tensors with random weights."""
    field = draw(st.sampled_from(RAW_FIELDS))
    n = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 10_000))
    rng = random.Random(seed)
    kind = draw(st.sampled_from(["valid", "perturbed", "random", "zero"]))
    if kind in ("valid", "perturbed"):
        b = _baric_factor(field, n, seed)
        coords = list(b.weight.coords)
        if kind == "perturbed":
            i = rng.randrange(n)
            coords[i] = coords[i] + field.one
        return b.algebra, Weight(field, coords)
    table = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if rng.random() < 0.3:
                    (table[(i, j, k)],) = _draw_coords(rng, field, 1)
    a = Algebra(field, n, table)
    coords = [0] * n if kind == "zero" else _draw_coords(rng, field, n)
    return a, Weight(field, coords)


@settings(max_examples=120, deadline=None)
@given(weighted_algebras())
def test_validate_weight_matches_field_element_reference(case):
    a, w = case
    assert validate_weight(a, w) == _ref_validate_weight(a, w)


def test_validate_weight_reference_sees_both_outcomes():
    # the strategy above is only a differential if both verdicts occur
    for field in RAW_FIELDS:
        b = _baric_factor(field, 3, 7)
        assert validate_weight(b.algebra, b.weight) and _ref_validate_weight(b.algebra, b.weight)
        bad = Weight(field, [c + field.one for c in b.weight.coords])
        assert validate_weight(b.algebra, bad) == _ref_validate_weight(b.algebra, bad)
    d2 = dual_numbers(F3)
    wrong = Weight(F3, [1, 1])  # w(x)^2 = 1, but x*x = 0
    assert not validate_weight(d2.algebra, wrong) and not _ref_validate_weight(d2.algebra, wrong)


def test_raw_kernels_keep_their_error_checks():
    b1, b2 = random_baric(F3, 2, seed=1), random_baric(F3, 3, seed=2)
    other = random_baric(F3, 2, seed=5)
    assert other.algebra != b1.algebra
    a1, a2 = b1.basis_element(0), b2.basis_element(1)
    foreign = other.basis_element(0)
    # component sizes must match the factors
    short = (b2.basis_element(0), b1.basis_element(0))
    with pytest.raises(DimensionMismatch):
        commutator_closed_form(b1, b2, (a1, a2), short)
    with pytest.raises(DimensionMismatch):
        associator_closed_form(b1, b2, (a1, a2), (a1, a2), short)
    # operands of one component must share an algebra
    with pytest.raises(DimensionMismatch):
        commutator_closed_form(b1, b2, (a1, a2), (foreign, a2))
    with pytest.raises(DimensionMismatch):
        associator_closed_form(b1, b2, (a1, a2), (foreign, a2), (a1, a2))
    with pytest.raises(DimensionMismatch):
        associator_closed_form(b1, b2, (a1, a2), (a1, a2), (foreign, a2))
    # components of another algebra of the factor's size and field are refused
    look_alike = (foreign, a2)
    with pytest.raises(DimensionMismatch):
        commutator_closed_form(b1, b2, look_alike, look_alike)
    with pytest.raises(DimensionMismatch):
        associator_closed_form(b1, b2, look_alike, look_alike, look_alike)
    with pytest.raises(DimensionMismatch):
        commutator(a1, foreign)
    with pytest.raises(DimensionMismatch):
        associator(a1, a1, foreign)
    # components over another field than the factors
    F5 = FieldSpec.prime(5)
    o1, o2 = random_baric(F5, 2, seed=1), random_baric(F5, 3, seed=2)
    alien = (o1.basis_element(0), o2.basis_element(0))
    with pytest.raises(FieldMismatch):
        commutator_closed_form(b1, b2, alien, alien)
    with pytest.raises(FieldMismatch):
        associator_closed_form(b1, b2, alien, alien, alien)
    with pytest.raises(FieldMismatch):
        validate_weight(o1.algebra, b1.weight)
    # a weight refuses coordinates from another field
    w = Weight(F3, [1, 1])
    with pytest.raises(FieldMismatch):
        w((FieldSpec.prime(5).one, FieldSpec.prime(5).one))
    with pytest.raises(FieldMismatch):
        w((Q.one, Q.one))
    with pytest.raises(DimensionMismatch):
        w((F3.one,))


def _two_factor_product(field, seed):
    """A product of random factors of dimensions 2 and 3 over the field."""
    if field.p is None:
        left, right = random_rational_baric(2, [1, 0], seed), random_rational_baric(3, [2, 1, 0], seed + 1)
        return bowtie(left, right)
    return bowtie(random_baric(field, 2, seed=seed), random_baric(field, 3, seed=seed + 1))


@pytest.mark.parametrize("field", [F2, F3, F4099, Q], ids=lambda f: f.token)
@pytest.mark.parametrize("seed", range(4))
def test_embed_subspace_matches_the_per_row_embedding(field, seed):
    rng = random.Random(seed)
    b = _two_factor_product(field, seed)
    for side, fac in zip(("left", "right"), factors(b)):
        # count 0 is the zero subspace; more rows than fac.dim spans the whole factor or less
        for count in range(fac.dim + 2):
            s = span_of(field, fac.dim, _random_vectors(rng, field, fac.dim, count))
            expected = span(field, b.dim, [embed(b, side, r).coords for r in s.basis])
            got = embed_subspace(b, side, s)
            assert got == expected and got.pivots == expected.pivots
            assert project(b, side, got) == s
            if field.p is None:
                assert all(type(x) is Fraction for r in got.rows for x in r)
        assert embed_subspace(b, side, Subspace.zero_space(field, fac.dim)).is_zero


def test_embed_subspace_refusals():
    b = bowtie(kpow(F3, 2), kpow(F3, 1))
    with pytest.raises(DimensionMismatch):
        embed_subspace(b, "left", Subspace.full(F3, 1))
    with pytest.raises(DimensionMismatch):
        embed_subspace(b, "right", Subspace.full(F3, 2))
    with pytest.raises(FieldMismatch):
        embed_subspace(b, "left", Subspace.full(F2, 2))
    # the side is checked before the subspace
    with pytest.raises(ValueError) as bad_side:
        embed_subspace(b, "middle", Subspace.full(F2, 5))
    assert type(bad_side.value) is ValueError
    with pytest.raises(NotABowtie):
        embed_subspace(kpow(F3, 1), "left", Subspace.full(F2, 5))
