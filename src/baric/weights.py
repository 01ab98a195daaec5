"""Weight functionals and baric algebras.

A baric algebra is an algebra A together with a nonzero algebra
homomorphism w: A -> K, stored here as the coordinate vector of w on the
chosen basis. The homomorphism condition on basis pairs,
sum_k c[i,j,k] w_k = w_i w_j, is checked on construction, so a
BaricAlgebra is valid by the time you hold one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .algebra import Algebra, Element, change_basis, property_flags
from .errors import (
    CharacteristicObstruction,
    DimensionMismatch,
    FieldNotFinite,
    WeightInvalid,
)
from .fields import FieldElement, FieldSpec
from .linalg import Matrix, Subspace, iter_vectors, kernel_basis, row_times_matrix, span


class Weight:
    """Coordinate vector of a linear functional on the basis."""

    __slots__ = ("field", "coords")

    def __init__(self, field: FieldSpec, coords: Sequence):
        self.field = field
        self.coords = tuple(field.element(c) for c in coords)

    @classmethod
    def ones(cls, field: FieldSpec, n: int) -> "Weight":
        return cls(field, [field.one] * n)

    @property
    def is_nonzero(self) -> bool:
        return any(self.coords)

    def __call__(self, x) -> FieldElement:
        coords = x.coords if isinstance(x, Element) else x
        if len(coords) != len(self.coords):
            raise DimensionMismatch("weight applied to a vector of the wrong length")
        acc = self.field.zero
        for w, c in zip(self.coords, coords):
            if w and c:
                acc = acc + w * c
        return acc

    def __len__(self) -> int:
        return len(self.coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Weight):
            return NotImplemented
        return self.field is other.field and self.coords == other.coords

    def __hash__(self) -> int:
        return hash((self.field.p, self.coords))

    def __repr__(self) -> str:
        return "Weight(" + ", ".join(str(c) for c in self.coords) + ")"


@dataclass(frozen=True)
class BowtieTag:
    """Provenance of an algebra built as a product of two baric factors.

    The carrying algebra's basis is the concatenation of the factor bases,
    so the factors are recoverable from the leading/trailing blocks; the
    tag records the block split and the factor weights.
    """

    left_dim: int
    right_dim: int
    left_weight: Weight
    right_weight: Weight


def validate_weight(algebra: Algebra, weight: Weight) -> bool:
    """True iff the weight is nonzero and multiplicative on all basis pairs."""
    w = weight.coords
    if len(w) != algebra.dim:
        raise DimensionMismatch("weight length does not match the algebra dimension")
    if not any(w):
        return False
    by_pair = algebra._by_pair
    zero = algebra.field.zero
    for i, wi in enumerate(w):
        for j, wj in enumerate(w):
            acc = zero
            for k, c in by_pair.get((i, j), ()):
                if w[k]:
                    acc = acc + c * w[k]
            if acc != wi * wj:
                return False
    return True


class BaricAlgebra:
    """An algebra paired with a validated weight functional."""

    __slots__ = ("algebra", "weight", "provenance")

    def __init__(self, algebra: Algebra, weight: Weight, provenance: BowtieTag | None = None):
        if len(weight) != algebra.dim:
            raise DimensionMismatch("weight length does not match the algebra dimension")
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
        if w.is_nonzero and validate_weight(algebra, w):
            found.append(w)
    return found


def nil_kernel_witness(b: BaricAlgebra, bound: int | None = None) -> Element | None:
    """A kernel basis vector with no vanishing left-normed power within bound.

    Powers are left-normed: x, x*x, (x*x)*x, ... The default bound is
    dim + 1. Returns None when every kernel basis vector nilpotates.
    """
    if bound is None:
        bound = b.dim + 1
    if bound < 1:
        raise ValueError("power bound must be at least 1")
    for row in b.kernel().basis:
        x = Element(b.algebra, row)
        power = x
        vanished = power.is_zero
        for _ in range(bound - 1):
            if vanished:
                break
            power = power * x
            vanished = power.is_zero
        if not vanished:
            return x
    return None


def is_nil_kernel(b: BaricAlgebra, bound: int | None = None) -> bool:
    """Semi-decide that every kernel basis vector is nilpotent.

    False means a witness basis vector kept nonzero powers up to the
    bound; True means all tested powers vanished.
    """
    return nil_kernel_witness(b, bound) is None


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


def is_scalar_action(algebra: Algebra, weight: Weight) -> bool:
    """Basis-level test for the law x*y = w(y)*x: c[i,j,k] = w_j 1{k=i}."""
    w = weight.coords
    if len(w) != algebra.dim:
        raise DimensionMismatch("weight length does not match the algebra dimension")
    expected = algebra.dim * sum(1 for wj in w if wj)
    if len(algebra.table) != expected:
        return False
    for (i, j, k), v in algebra.table.items():
        if k != i or v != w[j]:
            return False
    return True


def kpow(field: FieldSpec, n: int) -> BaricAlgebra:
    """The n-th bowtie power of the base field (left-associated).

    Its structure constants are c[i,j,k] = 1{k=i} with all weights one;
    iterating bowtie() over n copies of the one-dimensional baric algebra
    produces exactly this table. It is the normal form of
    classify_scalar_action.
    """
    if n < 1:
        raise DimensionMismatch("the power needs at least one factor")
    one = field.one
    table = {(i, j, i): one for i in range(n) for j in range(n)}
    weight = Weight.ones(field, n)
    tag = None
    if n >= 2:
        tag = BowtieTag(n - 1, 1, Weight.ones(field, n - 1), Weight.ones(field, 1))
    return BaricAlgebra(Algebra(field, n, table), weight, tag)


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

    True iff f is invertible, multiplicative on all basis pairs, and the
    target weight pulls back to the source weight on every basis vector.
    """
    if f.nrows != b1.dim or f.ncols != b2.dim:
        raise DimensionMismatch("map matrix must be dim(source) x dim(target)")
    if f.nrows != f.ncols or not f.is_invertible:
        return False
    a1, a2 = b1.algebra, b2.algebra
    n = b1.dim
    for i in range(n):
        if b2.weight(f.row(i)) != b1.weight.coords[i]:
            return False
    for i in range(n):
        fi = f.row(i)
        for j in range(n):
            image_of_product = row_times_matrix(a1.basis_product_coords(i, j), f)
            if tuple(a2.product_coords(fi, f.row(j))) != image_of_product:
                return False
    return True


def find_weight_one_idempotents(
    b: BaricAlgebra,
    cap: int | None = None,
    candidates: Sequence[Element] = (),
    limit: int | None = None,
) -> list[Element]:
    """Idempotents of weight one.

    Over a prime field the search is exhaustive over all p^n elements
    (subject to the enumeration cap). Over the rationals only the basis
    vectors, the unit if one exists, and the supplied candidates are
    examined.
    """
    found: list[Element] = []
    seen = set()

    def consider(x: Element) -> bool:
        if x.coords in seen:
            return False
        seen.add(x.coords)
        if b.weight(x) == b.field.one and x * x == x:
            found.append(x)
            return True
        return False

    if b.field.is_finite:
        for coords in iter_vectors(b.field, b.dim, cap):
            consider(Element(b.algebra, coords))
            if limit is not None and len(found) >= limit:
                break
    else:
        pool = [b.basis_element(i) for i in range(b.dim)]
        unit = property_flags(b.algebra).unit
        if unit is not None:
            pool.append(unit)
        pool.extend(candidates)
        for x in pool:
            consider(x)
            if limit is not None and len(found) >= limit:
                break
    return found
