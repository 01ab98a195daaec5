"""Each documented refusal raises its own error type, and no more general one."""

import pytest

from baric import (
    Algebra,
    DimensionMismatch,
    FieldMismatch,
    FieldNotFinite,
    FieldSpec,
    Ideal,
    Matrix,
    RunConfig,
    SingularTransform,
    Sided,
    Subspace,
    Weight,
    WeightInvalid,
    baric_isomorphic_by,
    bowtie,
    change_basis,
    commutator_closed_form,
    embedded_ideal_check,
    enumerate_weights,
    find_weight_one_idempotents,
    ideal_closure,
    kpow,
    project_ideal,
    validate_weight,
)
from baric.catalog import dual_numbers, scalar_action
from baric.linalg import iter_vectors

Q = FieldSpec.rationals()
F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)

K2 = kpow(F3, 2)
A = K2.algebra
X = A.basis_element(0)
F5_LINE = kpow(F5, 1)
DD = bowtie(dual_numbers(F3), dual_numbers(F3))

REFUSALS = {
    "algebra with too few basis names": (lambda: Algebra(F3, 2, {}, ["e0"]), DimensionMismatch),
    "algebra with a float dimension": (lambda: Algebra(Q, 2.0, {}), DimensionMismatch),
    "algebra with a fractional float index": (lambda: Algebra(Q, 2, {(0.5, 0, 0): 1}), DimensionMismatch),
    "algebra with an integral float index": (lambda: Algebra(Q, 2, {(0.0, 0, 0): 1}), DimensionMismatch),
    "algebra with a bool index": (lambda: Algebra(Q, 2, {(True, 0, 0): 1}), DimensionMismatch),
    "float scalar over Q": (lambda: Q.element(0.1), TypeError),
    "float scalar over F5": (lambda: F5.element(0.5), TypeError),
    "weight with a float coordinate": (lambda: Weight(Q, [0.5, 1]), TypeError),
    "matrix with a float entry": (lambda: Matrix.of(Q, [[0.1]]), TypeError),
    "basis_element out of range": (lambda: A.basis_element(2), DimensionMismatch),
    "element plus a non-element": (lambda: X + 1, TypeError),
    "element times a non-element": (lambda: X * 1, TypeError),
    "change_basis of the wrong shape": (lambda: change_basis(A, Matrix.identity(F3, 3)), DimensionMismatch),
    "change_basis over another field": (lambda: change_basis(A, Matrix.identity(F5, 2)), FieldMismatch),
    "closed form over factors of two fields": (
        lambda: commutator_closed_form(
            K2, F5_LINE, (X, F5_LINE.basis_element(0)), (X, F5_LINE.basis_element(0))
        ),
        FieldMismatch,
    ),
    "scalar_action with a zero weight": (lambda: scalar_action(F3, [0, 0]), WeightInvalid),
    "field token x7": (lambda: FieldSpec.from_token("x7"), ValueError),
    "elements of the rationals": (lambda: Q.elements(), FieldNotFinite),
    "iter_vectors over the rationals": (lambda: next(iter_vectors(Q, 2)), FieldNotFinite),
    "enumerate_weights over the rationals": (lambda: enumerate_weights(kpow(Q, 2).algebra), FieldNotFinite),
    "idempotent search with a negative limit": (
        lambda: find_weight_one_idempotents(K2, limit=-1),
        ValueError,
    ),
    "ideal_closure on no side": (lambda: ideal_closure(A, [X], Sided.NONE), ValueError),
    "ideal_closure of a foreign generator": (
        lambda: ideal_closure(A, [kpow(F3, 3).algebra.basis_element(0)]),
        DimensionMismatch,
    ),
    "embedded_ideal_check of a one-sided ideal": (
        lambda: embedded_ideal_check(DD, "left", Ideal(Subspace.full(F3, 2), Sided.RIGHT)),
        ValueError,
    ),
    "project_ideal of a one-sided ideal": (
        lambda: project_ideal(DD, Ideal(Subspace.full(F3, 4), Sided.RIGHT)),
        ValueError,
    ),
    "matrix with no rows and no column count": (lambda: Matrix(F3, []), DimensionMismatch),
    "inverse of a non-square matrix": (lambda: Matrix.of(F3, [[1, 0, 0], [0, 1, 0]]).inverse(), SingularTransform),
    "subspace sum across fields": (lambda: Subspace.full(F3, 2).sum(Subspace.full(F5, 2)), FieldMismatch),
    "subspace sum across ambient dimensions": (
        lambda: Subspace.full(F3, 2).sum(Subspace.full(F3, 3)),
        DimensionMismatch,
    ),
    "validate_weight with a short weight": (lambda: validate_weight(A, Weight(F3, [1])), DimensionMismatch),
    "kpow with no factor": (lambda: kpow(F3, 0), DimensionMismatch),
    "run config over the rationals": (lambda: RunConfig(field=Q), ValueError),
    "run config with max_dim 0": (lambda: RunConfig(max_dim=0), ValueError),
    "run config with a negative cap": (lambda: RunConfig(cap=-1), ValueError),
    "isomorphism test with a map of the wrong shape": (
        lambda: baric_isomorphic_by(Matrix.identity(F3, 3), K2, K2),
        DimensionMismatch,
    ),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusals_raise_their_error_type(case):
    call, error = REFUSALS[case]
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error
