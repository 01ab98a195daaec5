"""Finite-dimensional algebras given by structure constants.

An Algebra stores the tensor c[i,j,k] with e_i * e_j = sum_k c[i,j,k] e_k
as a sparse map; absent entries are zero and zero entries are never
stored, so structural equality of tensors is meaningful. Elements are
coordinate vectors tied to their parent algebra and support +, -, scalar
multiples and the bilinear product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import DimensionMismatch, FieldMismatch, SingularTransform
from .fields import FieldElement, FieldSpec
from .linalg import Matrix, Subspace, kernel_basis, row_times_matrix, solve, span


class Algebra:
    """A bilinear product on F^dim, described by its structure constants."""

    __slots__ = ("field", "dim", "table", "basis_names", "_by_pair", "_hash")

    def __init__(
        self,
        field: FieldSpec,
        dim: int,
        table: Mapping[tuple[int, int, int], object],
        basis_names: Sequence[str] | None = None,
    ):
        if dim < 1:
            raise DimensionMismatch("algebra dimension must be at least 1")
        clean: dict[tuple[int, int, int], FieldElement] = {}
        for (i, j, k), v in table.items():
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise DimensionMismatch(f"index ({i},{j},{k}) out of range for dim {dim}")
            fe = field.element(v)
            if fe:
                clean[(i, j, k)] = fe
        by_pair: dict[tuple[int, int], tuple[tuple[int, FieldElement], ...]] = {}
        for (i, j, k), fe in sorted(clean.items()):
            by_pair.setdefault((i, j), []).append((k, fe))
        if basis_names is not None:
            basis_names = tuple(basis_names)
            if len(basis_names) != dim:
                raise DimensionMismatch("one basis name per dimension")
        self.field = field
        self.dim = dim
        self.table = clean
        self.basis_names = basis_names
        self._by_pair = {p: tuple(entries) for p, entries in by_pair.items()}
        self._hash = None

    # -- product machinery -------------------------------------------------

    def product_coords(self, x: Sequence[FieldElement], y: Sequence[FieldElement]) -> list[FieldElement]:
        zero = self.field.zero
        out = [zero] * self.dim
        by_pair = self._by_pair
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                entries = by_pair.get((i, j))
                if entries:
                    s = xi * yj
                    for k, c in entries:
                        out[k] = out[k] + s * c
        return out

    def basis_product_coords(self, i: int, j: int) -> list[FieldElement]:
        zero = self.field.zero
        out = [zero] * self.dim
        for k, c in self._by_pair.get((i, j), ()):
            out[k] = c
        return out

    def element(self, coords: Sequence) -> "Element":
        return Element(self, tuple(self.field.element(c) for c in coords))

    def basis_element(self, i: int) -> "Element":
        if not 0 <= i < self.dim:
            raise DimensionMismatch(f"basis index {i} out of range")
        zero, one = self.field.zero, self.field.one
        return Element(self, tuple(one if j == i else zero for j in range(self.dim)))

    def zero(self) -> "Element":
        return Element(self, (self.field.zero,) * self.dim)

    def __eq__(self, other) -> bool:
        # basis names are labels, not structure
        if not isinstance(other, Algebra):
            return NotImplemented
        return (
            self.field is other.field
            and self.dim == other.dim
            and self.table == other.table
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (self.field.p, self.dim, tuple(sorted(self.table.items())))
            )
        return self._hash

    def __repr__(self) -> str:
        return f"Algebra(dim={self.dim}, field={self.field.token}, nnz={len(self.table)})"


class Element:
    """A vector of coordinates in a fixed algebra's basis."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: Algebra, coords: tuple[FieldElement, ...]):
        if len(coords) != algebra.dim:
            raise DimensionMismatch(f"{len(coords)} coordinates for dim {algebra.dim}")
        self.algebra = algebra
        self.coords = coords

    def _check(self, other: "Element") -> None:
        if not isinstance(other, Element):
            raise TypeError(f"expected Element, got {type(other).__name__}")
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise DimensionMismatch("elements of different algebras")

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.algebra, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.algebra, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Element":
        return Element(self.algebra, tuple(-a for a in self.coords))

    def __mul__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.algebra, tuple(self.algebra.product_coords(self.coords, other.coords)))

    def scaled(self, c: FieldElement) -> "Element":
        return Element(self.algebra, tuple(c * a for a in self.coords))

    def __rmul__(self, c) -> "Element":
        if isinstance(c, FieldElement):
            return self.scaled(c)
        return NotImplemented

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.algebra == other.algebra and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __repr__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


def commutator(x: Element, y: Element) -> Element:
    """[x, y] = xy - yx."""
    return x * y - y * x


def associator(x: Element, y: Element, z: Element) -> Element:
    """(x, y, z) = (xy)z - x(yz)."""
    return (x * y) * z - x * (y * z)


@dataclass(frozen=True)
class PropertyFlags:
    commutative: bool
    associative: bool
    left_alternative: bool
    right_alternative: bool
    unital: bool
    unit: Element | None


def _is_commutative(a: Algebra) -> bool:
    for (i, j, k), v in a.table.items():
        if a.table.get((j, i, k)) != v:
            return False
    return True


def _is_associative(a: Algebra) -> bool:
    n = a.dim
    singles = Matrix.identity(a.field, n).rows
    pair_products = {}
    for i in range(n):
        for j in range(n):
            pair_products[(i, j)] = a.basis_product_coords(i, j)
    for i in range(n):
        for j in range(n):
            left = pair_products[(i, j)]
            for k in range(n):
                lhs = a.product_coords(left, singles[k])
                rhs = a.product_coords(singles[i], pair_products[(j, k)])
                if lhs != rhs:
                    return False
    return True


def _alternative(a: Algebra, left: bool) -> bool:
    # (x,x,y) = 0 (or (x,y,y) = 0) is quadratic in the repeated slot, so
    # checking it on e_i and on e_i + e_j for i < j is complete over every
    # field, including characteristic 2 where the polarized identity alone
    # is weaker.
    n = a.dim
    singles = Matrix.identity(a.field, n).rows
    doubled = {}
    for i in range(n):
        for j in range(i + 1, n):
            v = list(singles[i])
            v[j] = a.field.one
            doubled[(i, j)] = v
    repeats = list(singles) + list(doubled.values())
    for v in repeats:
        vv = a.product_coords(v, v)
        for k in range(n):
            w = singles[k]
            if left:
                lhs = a.product_coords(vv, w)
                rhs = a.product_coords(v, a.product_coords(v, w))
            else:
                lhs = a.product_coords(w, vv)
                rhs = a.product_coords(a.product_coords(w, v), v)
            if lhs != rhs:
                return False
    return True


def _find_unit(a: Algebra) -> Element | None:
    # solve u*e_j = e_j and e_j*u = e_j as one linear system in u
    n = a.dim
    zero, one = a.field.zero, a.field.one
    rows, rhs = [], []
    for j in range(n):
        for k in range(n):
            rows.append(tuple(a.table.get((i, j, k), zero) for i in range(n)))
            rhs.append(one if j == k else zero)
            rows.append(tuple(a.table.get((j, i, k), zero) for i in range(n)))
            rhs.append(one if j == k else zero)
    sol = solve(Matrix(a.field, rows, n), rhs)
    if sol is None:
        return None
    return Element(a, sol)


def property_flags(a: Algebra) -> PropertyFlags:
    """Decide commutativity, associativity, alternativity and unitality.

    All checks run on basis tuples (plus e_i + e_j repeats for the
    alternative laws), which is exact for multilinear identities; the unit
    is found by solving a linear system since it need not be a basis
    vector.
    """
    unit = _find_unit(a)
    return PropertyFlags(
        commutative=_is_commutative(a),
        associative=_is_associative(a),
        left_alternative=_alternative(a, left=True),
        right_alternative=_alternative(a, left=False),
        unital=unit is not None,
        unit=unit,
    )


def commutative_center(a: Algebra) -> Subspace:
    """Elements commuting with the whole algebra, as a canonical subspace.

    Computed as the kernel of the stacked maps x -> x*e_j - e_j*x.
    """
    n = a.dim
    zero = a.field.zero
    rows = []
    for j in range(n):
        for k in range(n):
            rows.append(
                tuple(
                    a.table.get((i, j, k), zero) - a.table.get((j, i, k), zero)
                    for i in range(n)
                )
            )
    basis = kernel_basis(Matrix(a.field, rows, n))
    return span(a.field, n, basis)


def change_basis(a: Algebra, t: Matrix) -> Algebra:
    """Structure constants of the same product in the basis e'_i = sum_j T[i][j] e_j."""
    if t.nrows != a.dim or t.ncols != a.dim:
        raise DimensionMismatch(f"basis change must be {a.dim}x{a.dim}")
    if t.field is not a.field:
        raise FieldMismatch("basis change over a different field")
    if not t.is_invertible:
        raise SingularTransform("basis change matrix is singular")
    tinv = t.inverse()
    table: dict[tuple[int, int, int], FieldElement] = {}
    for i in range(a.dim):
        for j in range(a.dim):
            prod_old = a.product_coords(t.row(i), t.row(j))
            prod_new = row_times_matrix(prod_old, tinv)
            for k, v in enumerate(prod_new):
                if v:
                    table[(i, j, k)] = v
    return Algebra(a.field, a.dim, table)
