import pytest

from baric import (
    DecompOutcome,
    FactorsNotCommutativeUnital,
    FieldSpec,
    Ideal,
    Sided,
    Subspace,
    bowtie,
    decomposability,
    embedded_ideal_check,
    enumerate_subspaces,
    ideal_closure,
    is_two_sided_ideal,
    kernel_ideal_bijection,
    kernel_ideals,
    kpow,
    project_ideal,
    sidedness,
    span_of,
)
from baric.catalog import componentwise, dual_numbers, truncated_polynomials

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)


def test_ideal_closure_examples():
    d2 = dual_numbers(Q)
    empty = ideal_closure(d2.algebra, [], Sided.TWO_SIDED)
    assert empty.space.is_zero

    k2 = kpow(Q, 2)
    closure = ideal_closure(k2.algebra, [k2.element([1, -1])], Sided.TWO_SIDED)
    assert closure.space == span_of(Q, 2, [[1, -1]])
    assert closure.space == k2.kernel()
    assert closure.sided is Sided.TWO_SIDED

    in_d2 = ideal_closure(d2.algebra, [d2.element([0, 1])], Sided.TWO_SIDED)
    assert in_d2.space == span_of(Q, 2, [[0, 1]])


def test_ideal_closure_grows():
    # the span of the unit of D2 closes up to the whole algebra
    d2 = dual_numbers(Q)
    closure = ideal_closure(d2.algebra, [d2.element([1, 0])], Sided.RIGHT)
    assert closure.space.dim == 2


def test_ideal_closure_is_fixed_point():
    dd = bowtie(dual_numbers(F2), dual_numbers(F2))
    closure = ideal_closure(dd.algebra, [dd.element([0, 1, 0, 1])], Sided.TWO_SIDED)
    a = dd.algebra
    for v in closure.space.basis:
        for j in range(a.dim):
            ej = [a.field.zero] * a.dim
            ej[j] = a.field.one
            assert closure.space.contains_vector(a.product_coords(v, ej))
            assert closure.space.contains_vector(a.product_coords(ej, v))


def test_sidedness_examples():
    k2 = kpow(Q, 2)
    left_block = span_of(Q, 2, [[1, 0]])
    assert sidedness(k2.algebra, left_block) is Sided.RIGHT

    assert sidedness(k2.algebra, k2.kernel()) is Sided.TWO_SIDED
    dd = bowtie(dual_numbers(Q), dual_numbers(Q))
    assert sidedness(dd.algebra, dd.kernel()) is Sided.TWO_SIDED
    assert dd.kernel().dim == dd.dim - 1

    d2 = dual_numbers(Q)
    unit_span = span_of(Q, 2, [[1, 0]])
    assert sidedness(d2.algebra, unit_span) is Sided.NONE


def test_embedded_ideal_check_examples():
    d2 = dual_numbers(Q)
    dd = bowtie(d2, d2)
    nil = Ideal(span_of(Q, 2, [[0, 1]]), Sided.TWO_SIDED)
    assert embedded_ideal_check(dd, "left", nil) is True

    k2 = kpow(Q, 2)
    k1 = kpow(Q, 1)
    whole = Ideal(Subspace.full(Q, 1), Sided.TWO_SIDED)
    assert embedded_ideal_check(k2, "left", whole) is False

    zero = Ideal(Subspace.zero_space(Q, 2), Sided.TWO_SIDED)
    assert embedded_ideal_check(dd, "right", zero) is True
    assert k1.dim == 1


def test_embedded_ideal_check_contract_exhaustive():
    # the direct two-sidedness test must agree with kernel containment
    for field in (F2, F3):
        d2 = dual_numbers(field)
        dd = bowtie(d2, d2)
        for side, fac in (("left", d2), ("right", d2)):
            kernel = fac.kernel()
            for s in enumerate_subspaces(Subspace.full(field, fac.dim)):
                if not is_two_sided_ideal(fac.algebra, s):
                    continue
                direct = embedded_ideal_check(dd, side, Ideal(s, Sided.TWO_SIDED))
                assert direct == kernel.contains(s)


def test_project_ideal_examples():
    k2 = kpow(Q, 2)
    result = project_ideal(k2, Ideal(k2.kernel(), Sided.TWO_SIDED))
    assert result.left.dim == 1  # the whole one-dimensional factor
    assert result.right.dim == 1
    assert k2.kernel() != Subspace.full(Q, 2)

    dd = bowtie(dual_numbers(Q), dual_numbers(Q))
    block = span_of(Q, 4, [[0, 1, 0, 0]])
    assert sidedness(dd.algebra, block) is Sided.TWO_SIDED
    result = project_ideal(dd, Ideal(block, Sided.TWO_SIDED))
    assert result.left == span_of(Q, 2, [[0, 1]])
    assert result.left_is_ideal
    assert result.right.is_zero and result.right_is_ideal

    zero = Subspace.zero_space(Q, 4)
    result = project_ideal(dd, Ideal(zero, Sided.TWO_SIDED))
    assert result.left.is_zero and result.right.is_zero


def test_ideal_contracts_exhaustive_on_dual_pair():
    """Every ideal-behavior contract, checked over the full lattice of
    the four-dimensional product of dual-number algebras over F_2."""
    d2 = dual_numbers(F2)
    dd = bowtie(d2, d2)
    kernel = dd.kernel()
    right_kernel = d2.kernel()
    kernel_subspaces = list(enumerate_subspaces(kernel))
    assert len(kernel_subspaces) == 16

    for s in enumerate_subspaces(Subspace.full(F2, 4)):
        if not is_two_sided_ideal(dd.algebra, s):
            continue
        result = project_ideal(dd, Ideal(s, Sided.TWO_SIDED))
        if result.left.dim != d2.dim:
            assert result.left_is_ideal == right_kernel.contains(result.right)
        if kernel.contains(s):
            assert (result.left.dim == d2.dim) == (s == kernel)

    # the kernel projects onto the whole left factor without being everything
    full_proj = project_ideal(dd, Ideal(kernel, Sided.TWO_SIDED))
    assert full_proj.left.dim == d2.dim
    assert kernel != Subspace.full(F2, 4)


def test_kernel_ideal_bijection_dual_pair():
    dd = bowtie(dual_numbers(F2), dual_numbers(F2))
    result = kernel_ideal_bijection(dd)
    assert len(result.left_ideals) == 2
    assert len(result.right_ideals) == 2
    assert len(result.bowtie_ideals) == 4
    assert result.verified

    for i in result.left_ideals:
        for j in result.right_ideals:
            image = result.phi(i, j)
            assert result.psi(image) == (i, j)


def test_kernel_ideal_bijection_trivial_cases():
    k2 = kpow(F2, 2)
    result = kernel_ideal_bijection(k2)
    assert result.verified
    assert len(result.left_ideals) == 1
    assert result.bowtie_ideals == (Subspace.zero_space(F2, 2),)
    zero_l = result.left_ideals[0]
    zero_r = result.right_ideals[0]
    assert result.phi(zero_l, zero_r).is_zero
    assert result.psi(Subspace.zero_space(F2, 2)) == (zero_l, zero_r)


def test_kernel_ideal_bijection_requires_commutative_unital():
    k2 = kpow(F2, 2)
    with pytest.raises(FactorsNotCommutativeUnital):
        kernel_ideal_bijection(bowtie(k2, k2))


def test_kernel_ideals_of_field_square():
    for field in (F2, F3):
        square = kpow(field, 2)
        inside = kernel_ideals(square)
        assert set(inside) == {Subspace.zero_space(field, 2), square.kernel()}


def test_decomposability_examples():
    cw3 = componentwise(F2, 3)
    result = decomposability(cw3)
    assert result.outcome is DecompOutcome.DECOMPOSABLE
    assert result.n1 is not None and result.n2 is not None
    assert result.n1.intersect(result.n2).is_zero
    assert result.n1.sum(result.n2) == cw3.kernel()
    assert {result.n1, result.n2} == {
        span_of(F2, 3, [[0, 1, 0]]),
        span_of(F2, 3, [[0, 0, 1]]),
    }

    assert decomposability(dual_numbers(F2)).outcome is DecompOutcome.INDECOMPOSABLE
    dd = bowtie(dual_numbers(F2), dual_numbers(F2))
    assert decomposability(dd).outcome is DecompOutcome.INDECOMPOSABLE


def test_decomposability_no_idempotent():
    # e0*e0 = e0 + e1 and e0*e1 = e1 make x*x = x unsolvable at weight one:
    # weight-one elements are e0 + b*e1 and square to e0 + (1+b)*e1.
    from baric import Algebra, BaricAlgebra, Weight, WeightInvalid

    table = {(0, 0, 0): 1, (0, 0, 1): 1, (0, 1, 1): 1}
    for field in (F2, F3, Q):
        b = BaricAlgebra(Algebra(field, 2, table), Weight(field, [1, 0]))
        assert decomposability(b).outcome is DecompOutcome.NO_WEIGHT1_IDEMPOTENT

    with pytest.raises(WeightInvalid):
        BaricAlgebra(Algebra(F2, 2, {}), Weight(F2, [1, 0]))


def test_decomposability_over_rationals():
    cw3 = componentwise(Q, 3)
    undecided = decomposability(cw3)
    assert undecided.outcome is DecompOutcome.UNDECIDED


def test_indecomposability_preserved_for_fixed_family():
    family = [dual_numbers(F2), truncated_polynomials(F2, 3)]
    for b1 in family:
        assert decomposability(b1).outcome is DecompOutcome.INDECOMPOSABLE
    for b1 in family:
        for b2 in family:
            result = decomposability(bowtie(b1, b2))
            assert result.outcome is DecompOutcome.INDECOMPOSABLE
