import random

import pytest

from baric import (
    Algebra,
    DimensionMismatch,
    FieldSpec,
    Matrix,
    SingularTransform,
    associator,
    bowtie,
    change_basis,
    commutative_center,
    commutator,
    kpow,
    property_flags,
)
from baric.catalog import dual_numbers, scalar_action

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)


def test_multiply_examples():
    k2 = kpow(Q, 2)
    assert (k2.element([1, 0]) * k2.element([0, 1])).coords == k2.element([1, 0]).coords
    x = k2.element([2, -1])
    assert (x * k2.algebra.zero()).is_zero
    # apply the product law by hand: (1,2)(3,4) = (3+4)*(1,2)
    assert k2.element([1, 2]) * k2.element([3, 4]) == k2.element([7, 14])


def test_commutator_examples():
    k2 = kpow(Q, 2)
    x = k2.element([1, 0])
    assert commutator(x, x).is_zero
    assert commutator(x, k2.element([0, 1])) == k2.element([1, -1])
    d2 = dual_numbers(Q)
    for i in range(2):
        for j in range(2):
            assert commutator(d2.basis_element(i), d2.basis_element(j)).is_zero


def test_associator_examples():
    d2 = dual_numbers(Q)
    for i, j, k in [(0, 0, 1), (1, 0, 1), (1, 1, 1)]:
        assert associator(
            d2.basis_element(i), d2.basis_element(j), d2.basis_element(k)
        ).is_zero
    k2 = kpow(Q, 2)
    assert associator(
        k2.element([1, 0]), k2.element([1, 0]), k2.element([0, 1])
    ).is_zero
    dd = bowtie(dual_numbers(Q), dual_numbers(Q))
    witness = associator(
        dd.element([1, 0, 0, 0]), dd.element([0, 0, 1, 0]), dd.element([0, 1, 0, 0])
    )
    assert witness == dd.element([0, 1, 0, 0])


def test_property_flags_examples():
    for n in (2, 3):
        flags = property_flags(kpow(Q, n).algebra)
        assert flags.associative and not flags.commutative
        assert flags.left_alternative and flags.right_alternative
        assert not flags.unital

    d2 = dual_numbers(Q)
    flags = property_flags(d2.algebra)
    assert flags.commutative and flags.associative and flags.unital
    assert flags.unit == d2.element([1, 0])

    # the field square has right units (u1 + u2 = 1) but no two-sided unit
    k2 = kpow(Q, 2)
    u = k2.element([1, 0])
    for x in (k2.element([2, 3]), k2.element([-1, 5])):
        assert x * u == x
        assert u * x != x
    assert property_flags(k2.algebra).unital is False


def test_alternative_flags_over_f2():
    # x*y = x on a 2-dim space over F_2: (x,x,y) = x*y - x*y... check the
    # full expansion logic catches a left-alternative failure that basis
    # triples alone miss only through the e_i + e_j expansion.
    k2 = kpow(F2, 2)
    flags = property_flags(k2.algebra)
    assert flags.left_alternative and flags.right_alternative
    dd = bowtie(dual_numbers(F2), dual_numbers(F2))
    flags = property_flags(dd.algebra)
    assert not flags.associative
    assert not flags.left_alternative or not flags.right_alternative


def test_commutative_center_examples():
    d2 = dual_numbers(Q)
    assert commutative_center(d2.algebra).dim == d2.dim
    assert commutative_center(kpow(Q, 2).algebra).dim == 0
    dd = bowtie(dual_numbers(Q), dual_numbers(Q))
    assert commutative_center(dd.algebra).dim == 0


def test_commutative_center_fixed_point():
    rng = random.Random(11)
    d2 = dual_numbers(Q)
    center = commutative_center(d2.algebra)
    for _ in range(20):
        a = d2.element([rng.randint(-2, 2) for _ in range(2)])
        for row in center.basis:
            assert commutator(d2.algebra.element(row), a).is_zero
    assert commutative_center(bowtie(d2, d2).algebra).is_zero


def test_change_basis_examples():
    k2 = kpow(Q, 2)
    assert change_basis(k2.algebra, Matrix.identity(Q, 2)) == k2.algebra

    swap = Matrix.of(Q, [[0, 1], [1, 0]])
    assert change_basis(k2.algebra, swap) == k2.algebra

    b = scalar_action(Q, [1, 0])
    t = Matrix.of(Q, [[1, 0], [1, 1]])
    moved = change_basis(b.algebra, t)
    assert moved == scalar_action(Q, [1, 1]).algebra

    with pytest.raises(SingularTransform):
        change_basis(k2.algebra, Matrix.of(Q, [[1, 1], [1, 1]]))


def test_change_basis_round_trip():
    rng = random.Random(5)
    dd = bowtie(dual_numbers(Q), dual_numbers(Q))
    for _ in range(10):
        while True:
            t = Matrix.of(
                Q, [[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)]
            )
            if t.is_invertible:
                break
        assert change_basis(change_basis(dd.algebra, t), t.inverse()) == dd.algebra


def test_bilinearity_of_multiply():
    rng = random.Random(3)
    dd = bowtie(dual_numbers(Q), kpow(Q, 2))
    alg = dd.algebra
    for _ in range(50):
        x = alg.element([rng.randint(-3, 3) for _ in range(4)])
        xp = alg.element([rng.randint(-3, 3) for _ in range(4)])
        y = alg.element([rng.randint(-3, 3) for _ in range(4)])
        a = Q.element(rng.randint(-3, 3))
        b = Q.element(rng.randint(-3, 3))
        assert (x.scaled(a) + xp.scaled(b)) * y == (x * y).scaled(a) + (xp * y).scaled(b)
        assert y * (x.scaled(a) + xp.scaled(b)) == (y * x).scaled(a) + (y * xp).scaled(b)


def test_associativity_flag_cross_check():
    rng = random.Random(9)
    for b in (kpow(Q, 3), bowtie(dual_numbers(Q), dual_numbers(Q))):
        flag = property_flags(b.algebra).associative
        failures = 0
        for _ in range(200):
            x = b.element([rng.randint(-2, 2) for _ in range(b.dim)])
            y = b.element([rng.randint(-2, 2) for _ in range(b.dim)])
            z = b.element([rng.randint(-2, 2) for _ in range(b.dim)])
            if not associator(x, y, z).is_zero:
                failures += 1
        assert flag == (failures == 0)


def test_algebra_validation():
    with pytest.raises(DimensionMismatch):
        Algebra(Q, 2, {(0, 0, 2): 1})
    with pytest.raises(DimensionMismatch):
        Algebra(Q, 0, {})
    a = Algebra(Q, 2, {(0, 0, 0): 0, (0, 1, 1): 2})
    assert (0, 0, 0) not in a.table and (0, 1, 1) in a.table


def test_element_errors():
    d2 = dual_numbers(Q)
    k2 = kpow(Q, 2)
    with pytest.raises(DimensionMismatch):
        d2.element([1, 2, 3])
    with pytest.raises(DimensionMismatch):
        d2.element([1, 0]) * k2.element([1, 0])
