"""Small named baric algebras for the checks, tests and docs; scalar_action is re-exported from weights."""

from __future__ import annotations

from .algebra import Algebra
from .fields import FieldSpec
from .weights import BaricAlgebra, Weight, scalar_action


def truncated_polynomials(field: FieldSpec, n: int) -> BaricAlgebra:
    """K[x]/(x^n) with basis 1, x, ..., x^(n-1) and weight = evaluation at 0."""
    one = field.one
    table = {(i, j, i + j): one for i in range(n) for j in range(n) if i + j < n}
    weight = Weight(field, [1] + [0] * (n - 1))
    names = ["1"] + [f"x^{i}" if i > 1 else "x" for i in range(1, n)]
    return BaricAlgebra(Algebra(field, n, table, names), weight)


def dual_numbers(field: FieldSpec) -> BaricAlgebra:
    """K[x]/(x^2): commutative, associative, unital, one-dimensional kernel."""
    return truncated_polynomials(field, 2)


def componentwise(field: FieldSpec, n: int) -> BaricAlgebra:
    """K^n with the componentwise product; the weight picks the first coordinate."""
    one = field.one
    table = {(i, i, i): one for i in range(n)}
    return BaricAlgebra(Algebra(field, n, table), Weight(field, [1] + [0] * (n - 1)))


def group_algebra_z2(field: FieldSpec) -> BaricAlgebra:
    """The group algebra of the two-element group, with the augmentation weight."""
    one = field.one
    table = {(0, 0, 0): one, (0, 1, 1): one, (1, 0, 1): one, (1, 1, 0): one}
    return BaricAlgebra(Algebra(field, 2, table, ["1", "g"]), Weight(field, [1, 1]))
