import random

import pytest

from baric import (
    DimensionMismatch,
    FieldMismatch,
    FieldSpec,
    Matrix,
    NotABowtie,
    NotIdempotentInput,
    NotWeightPreserving,
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
    span_of,
    split_element,
    structural_isos,
    transport_iso,
)
from baric.weights import BaricAlgebra
from baric.catalog import dual_numbers, scalar_action

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)


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
