"""Weight functionals and baric algebras.

A baric algebra is an algebra A together with a nonzero algebra
homomorphism w: A -> K, stored here once as the canonical raw values of
its coordinate vector on the chosen basis (`coords` is a FieldElement
view). The homomorphism condition on basis pairs, sum_k c[i,j,k] w_k =
w_i w_j, is checked on construction, so a BaricAlgebra is valid by the
time you hold one.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Sequence

from .algebra import Algebra, Element, change_basis, property_flags
from .errors import (
    CharacteristicObstruction,
    DimensionMismatch,
    FieldMismatch,
    FieldNotFinite,
    WeightInvalid,
)
from .fields import FieldElement, FieldSpec
from .linalg import Matrix, Subspace, iter_vectors, kernel_basis, span


class Weight:
    """Coordinate vector of a linear functional on the basis, kept as canonical raw `values`."""

    __slots__ = ("field", "values")

    def __init__(self, field: FieldSpec, coords: Sequence):
        self.field = field
        self.values = tuple([field.element(c).value for c in coords])

    @classmethod
    def ones(cls, field: FieldSpec, n: int) -> "Weight":
        return cls(field, [field.one] * n)

    @property
    def coords(self) -> tuple[FieldElement, ...]:
        """The coordinates as FieldElements, wrapped on each access."""
        return self.field.wrap(self.values)

    @property
    def is_nonzero(self) -> bool:
        return any(self.values)

    def at(self, values: Sequence):
        """w(x) as a raw value (unreduced over F_p), from raw coordinates of x."""
        return sum(map(mul, self.values, values))

    def __call__(self, x) -> FieldElement:
        field, n = self.field, len(self.values)
        if isinstance(x, Element) and x.algebra.field is field and x.algebra.dim == n:
            return field.wrap([self.at(x.values)])[0]  # checked when the Element was built
        return field.wrap([self.at(field.unwrap(x.coords if isinstance(x, Element) else x, n))])[0]

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Weight):
            return NotImplemented
        return self.field is other.field and self.values == other.values

    def __hash__(self) -> int:
        return hash((self.field.p, self.values))

    def __repr__(self) -> str:
        return "Weight(" + ", ".join(str(c) for c in self.values) + ")"


@dataclass(frozen=True)
class BowtieTag:
    """Provenance of an algebra built as a product of two baric factors.

    The carrying algebra's basis is the concatenation of the factor bases
    and its weight is (w1 | w2), so the factors, weights included, are the
    leading/trailing blocks; the tag records only the block split.
    """

    left_dim: int
    right_dim: int


def validate_weight(algebra: Algebra, weight: Weight) -> bool:
    """True iff the weight is nonzero and multiplicative on all basis pairs."""
    w = weight.values
    if len(w) != algebra.dim:
        raise DimensionMismatch("weight length does not match the algebra dimension")
    if weight.field is not algebra.field:
        raise FieldMismatch(f"weight over {weight.field!r}, algebra over {algebra.field!r}")
    if not any(w):
        return False
    p = algebra.field.p
    by_pair = algebra._by_pair
    for i, wi in enumerate(w):
        for j, wj in enumerate(w):
            # sum_k c[i,j,k] w_k - w_i w_j on raw values, reduced once
            acc = sum([c * w[k] for k, c in by_pair.get((i, j), ())]) - wi * wj
            if acc if p is None else acc % p:
                return False
    return True


class BaricAlgebra:
    """An algebra paired with a validated weight functional."""

    __slots__ = ("algebra", "weight", "provenance")

    def __init__(self, algebra: Algebra, weight: Weight, provenance: BowtieTag | None = None):
        if not validate_weight(algebra, weight):
            raise WeightInvalid("weight is zero or not multiplicative on basis pairs")
        self.algebra = algebra
        self.weight = weight
        self.provenance = provenance

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def field(self) -> FieldSpec:
        return self.algebra.field

    def element(self, coords: Sequence) -> Element:
        return self.algebra.element(coords)

    def basis_element(self, i: int) -> Element:
        return self.algebra.basis_element(i)

    def kernel(self) -> Subspace:
        """Ker w as a canonical subspace (codimension one)."""
        rows = Matrix(self.field, [self.weight.coords], self.dim)
        return span(self.field, self.dim, kernel_basis(rows))

    def __eq__(self, other) -> bool:
        if not isinstance(other, BaricAlgebra):
            return NotImplemented
        return (
            self.algebra == other.algebra
            and self.weight == other.weight
            and self.provenance == other.provenance
        )

    def __hash__(self) -> int:
        return hash((self.algebra, self.weight))

    def __repr__(self) -> str:
        tag = " bowtie" if self.provenance else ""
        return f"BaricAlgebra(dim={self.dim}, field={self.field.token}{tag})"


def enumerate_weights(algebra: Algebra, cap: int | None = None) -> list[Weight]:
    """All weight functionals of the algebra, by exhaustive scan over F_p^n.

    Only available over prime fields; the scan covers p^n linear
    functionals and keeps those that validate.
    """
    if algebra.field.p is None:
        raise FieldNotFinite("weight enumeration needs a finite field")
    found = []
    for coords in iter_vectors(algebra.field, algebra.dim, cap):
        w = Weight(algebra.field, coords)
        if validate_weight(algebra, w):
            found.append(w)
    return found


def nil_kernel_witness(b: BaricAlgebra) -> Element | None:
    """A kernel basis vector none of whose left-normed powers vanishes.

    Powers are left-normed: x, x*x, (x*x)*x, ... With R_x(y) = y*x they
    are x^(k+1) = R_x^k(x), so they span the Krylov space K of x under R_x,
    which lies in Ker w. If some power vanishes, R_x is nilpotent on K and
    R_x^(dim K) kills x; as dim K < dim, a power of x vanishes exactly when
    x^(dim+1) does, and that is the one test made. Returns None when every
    kernel basis vector nilpotates.
    """
    for row in b.kernel().rows:
        x = power = Element._raw(b.algebra, row)
        for _ in range(b.dim):
            power = power * x
        if not power.is_zero:
            return x
    return None


def normalize_weight_one_basis(b: BaricAlgebra) -> tuple[BaricAlgebra, Matrix]:
    """Re-express the algebra in a basis where every vector has weight one.

    Steps: rescale basis vectors of nonzero weight to weight one, move a
    weight-one vector to the front, then replace the n-th vector by the
    average (1/s_n) * (f_1 + ... + f_n) where s_n counts the weight-one
    vectors among the first n. Over F_p a partial sum s_n can vanish, in
    which case CharacteristicObstruction is raised.

    Returns the re-expressed baric algebra and the change-of-basis matrix
    T with rows e'_i = sum_j T[i][j] e_j.
    """
    field = b.field
    n = b.dim
    w = b.weight.coords
    zero, one = field.zero, field.one

    scale = [one / wi if wi else one for wi in w]
    eps = [one if wi else zero for wi in w]
    lead = next(i for i, e in enumerate(eps) if e)
    order = [lead] + [i for i in range(n) if i != lead]

    rows = []
    running = zero
    for m in range(n):
        running = running + eps[order[m]]
        if not running:
            raise CharacteristicObstruction(
                f"partial weight sum vanishes at position {m + 1} over {field.token}"
            )
        inv = one / running
        row = [zero] * n
        for j in range(m + 1):
            idx = order[j]
            row[idx] = inv * scale[idx]
        rows.append(tuple(row))
    t = Matrix(field, rows, n)

    new_algebra = change_basis(b.algebra, t)
    new_weight = Weight(field, [b.weight(row) for row in rows])
    return BaricAlgebra(new_algebra, new_weight), t


def scalar_action_table(weight: Weight) -> dict:
    """Raw structure constants of the law x*y = w(y)*x: c[i,j,k] = w_j 1{k=i}, zeros left out."""
    n = len(weight)
    return {(i, j, i): wj for i in range(n) for j, wj in enumerate(weight.values) if wj}


def is_scalar_action(algebra: Algebra, weight: Weight) -> bool:
    """Basis-level test for the law x*y = w(y)*x."""
    if len(weight) != algebra.dim:
        raise DimensionMismatch("weight length does not match the algebra dimension")
    return dict(algebra.entries()) == scalar_action_table(weight)


def kpow(field: FieldSpec, n: int) -> BaricAlgebra:
    """The n-th bowtie power of the base field (left-associated).

    Its structure constants are c[i,j,k] = 1{k=i} with all weights one;
    iterating bowtie() over n copies of the one-dimensional baric algebra
    produces exactly this table. It is the normal form of
    classify_scalar_action.
    """
    if n < 1:
        raise DimensionMismatch("the power needs at least one factor")
    weight = Weight.ones(field, n)
    tag = None
    if n >= 2:
        tag = BowtieTag(n - 1, 1)
    return BaricAlgebra(Algebra(field, n, scalar_action_table(weight)), weight, tag)


def classify_scalar_action(b: BaricAlgebra) -> tuple[Matrix, BaricAlgebra] | None:
    """Detect the law x*y = w(y)*x and produce a verified normal form.

    Returns None when the law fails. Otherwise returns (iso, target)
    where target is the scalar-action algebra with identity constants and
    all-ones weight, and iso is the matrix of a weight-preserving
    isomorphism onto it (baric_isomorphic_by(iso, b, target) holds).
    When the input is already in that normal form the isomorphism is the
    identity; otherwise the weight-one basis construction runs and a
    CharacteristicObstruction from it propagates.
    """
    if not is_scalar_action(b.algebra, b.weight):
        return None
    n = b.dim
    target = kpow(b.field, n)
    if b.algebra == target.algebra and b.weight == target.weight:
        return Matrix.identity(b.field, n), target
    normalized, t = normalize_weight_one_basis(b)
    if normalized.algebra != target.algebra or normalized.weight != target.weight:
        raise AssertionError("scalar-action normalization missed the normal form")
    return t.inverse(), target


def baric_isomorphic_by(f: Matrix, b1: BaricAlgebra, b2: BaricAlgebra) -> bool:
    """Check that the row-vector map x -> x @ f is a weight-preserving isomorphism.

    True iff f is invertible, the target weight pulls back to the source
    weight on every basis vector, and the target algebra written in the
    basis of the rows of f (change_basis) has the source's structure
    constants, i.e. f is multiplicative on all basis pairs.
    """
    if f.nrows != b1.dim or f.ncols != b2.dim:
        raise DimensionMismatch("map matrix must be dim(source) x dim(target)")
    if f.nrows != f.ncols or not f.is_invertible:
        return False
    for row, wi in zip(f.rows, b1.weight.coords):
        if b2.weight(row) != wi:
            return False
    return change_basis(b2.algebra, f) == b1.algebra


def find_weight_one_idempotents(
    b: BaricAlgebra, cap: int | None = None, limit: int | None = None
) -> list[Element]:
    """Idempotents of weight one.

    Over a prime field the search is exhaustive over all p^n elements
    (subject to the enumeration cap). Over the rationals only the rescaled
    basis vectors e_i / w_i with w_i nonzero and the unit, if one exists,
    are examined, so an empty result there does not mean that none exists.
    """
    one = b.field.one
    if b.field.is_finite:
        pool = (Element(b.algebra, coords) for coords in iter_vectors(b.field, b.dim, cap))
    else:
        pool = [
            b.basis_element(i).scaled(one / wi) for i, wi in enumerate(b.weight.coords) if wi
        ]
        unit = property_flags(b.algebra).unit
        if unit is not None and unit not in pool:
            pool.append(unit)
    found: list[Element] = []
    for x in pool:
        if b.weight(x) == one and x * x == x:
            found.append(x)
        if limit is not None and len(found) >= limit:
            break
    return found
