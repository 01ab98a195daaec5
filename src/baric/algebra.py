"""Finite-dimensional algebras given by structure constants.

An Algebra stores the tensor c[i,j,k] with e_i * e_j = sum_k c[i,j,k] e_k
once, as raw values (int residues over F_p, Fractions over Q) grouped by
basis pair; absent entries are zero and zero entries are never stored, so
structural equality of tensors is meaningful. `table` is a FieldElement
view of the same constants, built when it is read. Elements are
coordinate vectors tied to their parent algebra, stored the same way: as
canonical raw `values`, with `coords` a FieldElement view built when read.

Every kernel takes raw values, and Element._raw builds the elements they
compute; product_coords and Element(...) check caller input through
FieldSpec.unwrap, the one door.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Mapping, Sequence

from .errors import DimensionMismatch, FieldMismatch, SingularTransform
from .fields import FieldElement, FieldSpec
from .linalg import Matrix, Subspace, kernel_basis, row_times_matrix, solve, span


class Algebra:
    """A bilinear product on F^dim, described by its structure constants."""

    __slots__ = ("field", "dim", "basis_names", "_by_pair")

    def __init__(
        self,
        field: FieldSpec,
        dim: int,
        table: Mapping[tuple[int, int, int], object],
        basis_names: Sequence[str] | None = None,
    ):
        if dim < 1:
            raise DimensionMismatch("algebra dimension must be at least 1")
        clean = []
        for (i, j, k), v in table.items():
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise DimensionMismatch(f"index ({i},{j},{k}) out of range for dim {dim}")
            c = field.element(v).value
            if c:
                clean.append(((i, j, k), c))
        # (i, j) -> ((k, c), ...) in lexicographic order, raw values only
        by_pair: dict[tuple[int, int], list[tuple[int, object]]] = {}
        for (i, j, k), c in sorted(clean):
            by_pair.setdefault((i, j), []).append((k, c))
        if basis_names is not None:
            basis_names = tuple(basis_names)
            if len(basis_names) != dim:
                raise DimensionMismatch("one basis name per dimension")
        self.field = field
        self.dim = dim
        self.basis_names = basis_names
        self._by_pair = {p: tuple(entries) for p, entries in by_pair.items()}

    def entries(self) -> Iterator[tuple[tuple[int, int, int], object]]:
        """The nonzero constants as ((i, j, k), raw c), in lexicographic order."""
        for (i, j), row in self._by_pair.items():
            for k, c in row:
                yield (i, j, k), c

    @property
    def table(self) -> dict[tuple[int, int, int], FieldElement]:
        """The nonzero constants as FieldElements: a fresh dict on every read."""
        pairs = list(self.entries())
        return dict(zip([key for key, _ in pairs], self.field.wrap([c for _, c in pairs])))

    # -- product machinery -------------------------------------------------
    # The kernels compute on raw values: unreduced ints over F_p, Fractions
    # (or ints) over Q. FieldSpec.wrap turns their output into elements.

    def times(self, x: Sequence, y: Sequence) -> list:
        """Raw coordinates of x * y, from raw coordinates x and y."""
        out = [0] * self.dim
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
                        out[k] += s * c
        return out

    def times_basis(self, v: Sequence, j: int, left: bool) -> list:
        """Raw coordinates of e_j * v (left) or v * e_j, from raw coordinates v."""
        out = [0] * self.dim
        by_pair = self._by_pair
        for i, vi in enumerate(v):
            if vi:
                for k, c in by_pair.get((j, i) if left else (i, j), ()):
                    out[k] += vi * c
        return out

    def raw_commutator(self, x: Sequence, y: Sequence) -> list:
        """Raw coordinates of [x, y] = xy - yx, from raw coordinates."""
        return [s - t for s, t in zip(self.times(x, y), self.times(y, x))]

    def raw_associator(self, x: Sequence, y: Sequence, z: Sequence) -> list:
        """Raw coordinates of (x, y, z) = (xy)z - x(yz), from raw coordinates."""
        times = self.times
        return [s - t for s, t in zip(times(times(x, y), z), times(x, times(y, z)))]

    def product_coords(self, x: Sequence[FieldElement], y: Sequence[FieldElement]) -> list[FieldElement]:
        """x * y from FieldElement coordinates, checked through FieldSpec.unwrap."""
        unwrap = self.field.unwrap
        return list(self.field.wrap(self.times(unwrap(x, self.dim), unwrap(y, self.dim))))

    def element(self, coords: Sequence) -> "Element":
        return Element(self, tuple(self.field.element(c) for c in coords))

    def basis_element(self, i: int) -> "Element":
        if not 0 <= i < self.dim:
            raise DimensionMismatch(f"basis index {i} out of range")
        return Element._raw(self, [int(j == i) for j in range(self.dim)])

    def zero(self) -> "Element":
        return Element._raw(self, [0] * self.dim)

    def __eq__(self, other) -> bool:
        # basis names are labels, not structure
        if not isinstance(other, Algebra):
            return NotImplemented
        return (
            self.field is other.field
            and self.dim == other.dim
            and self._by_pair == other._by_pair
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.dim, tuple(self._by_pair.items())))

    def __repr__(self) -> str:
        return f"Algebra(dim={self.dim}, field={self.field.token}, nnz={sum(map(len, self._by_pair.values()))})"


class Element:
    """A vector of coordinates in a fixed algebra's basis, checked through FieldSpec.unwrap;
    `values` keeps them as a tuple of canonical raw values, which every operation reads."""

    __slots__ = ("algebra", "values")

    def __init__(self, algebra: Algebra, coords: tuple[FieldElement, ...]):
        self.values = algebra.field.unwrap(coords, algebra.dim)
        self.algebra = algebra

    @classmethod
    def _raw(cls, algebra: Algebra, raw: Sequence) -> "Element":
        """The element with raw coordinates computed by the library, made canonical."""
        self = object.__new__(cls)
        self.values = algebra.field.canon(raw)
        self.algebra = algebra
        return self

    @property
    def coords(self) -> tuple[FieldElement, ...]:
        """The coordinates as FieldElements, wrapped on each access."""
        return self.algebra.field.wrap(self.values)

    def _check(self, other: "Element") -> None:
        if not isinstance(other, Element):
            raise TypeError(f"expected Element, got {type(other).__name__}")
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise DimensionMismatch("elements of different algebras")

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        return Element._raw(self.algebra, [a + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other: "Element") -> "Element":
        self._check(other)
        return Element._raw(self.algebra, [a - b for a, b in zip(self.values, other.values)])

    def __neg__(self) -> "Element":
        return Element._raw(self.algebra, [-a for a in self.values])

    def __mul__(self, other: "Element") -> "Element":
        self._check(other)
        return Element._raw(self.algebra, self.algebra.times(self.values, other.values))

    def scaled(self, c: FieldElement) -> "Element":
        (s,) = self.algebra.field.unwrap((c,), 1)
        return Element._raw(self.algebra, [s * a for a in self.values])

    @property
    def is_zero(self) -> bool:
        return not any(self.values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.algebra == other.algebra and self.values == other.values

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.values) + ")"


def commutator(x: Element, y: Element) -> Element:
    """[x, y] = xy - yx."""
    x._check(y)
    return Element._raw(x.algebra, x.algebra.raw_commutator(x.values, y.values))


def associator(x: Element, y: Element, z: Element) -> Element:
    """(x, y, z) = (xy)z - x(yz)."""
    x._check(y)
    x._check(z)
    return Element._raw(x.algebra, x.algebra.raw_associator(x.values, y.values, z.values))


@dataclass(frozen=True)
class PropertyFlags:
    commutative: bool
    associative: bool
    left_alternative: bool
    right_alternative: bool
    unital: bool
    unit: Element | None


def _is_commutative(a: Algebra) -> bool:
    by_pair = a._by_pair
    return all(by_pair.get((j, i)) == entries for (i, j), entries in by_pair.items())


def _associator_laws(a: Algebra, commutative: bool) -> tuple[bool, bool, bool]:
    """(associative, left alternative, right alternative), decided exactly.

    All three are read off the basis associators
    A(i,j,k) = (e_i e_j) e_k - e_i (e_j e_k), tested for zero on raw values.
    The associator is trilinear, so (x,x,y) = sum_i x_i^2 A(i,i,y) +
    sum_{i<j} x_i x_j (A(i,j,y) + A(j,i,y)); evaluating at e_i and e_i + e_j
    shows it vanishes identically exactly when A(i,i,k) = 0 and
    A(i,j,k) + A(j,i,k) = 0 for i < j, over every field including F_2. The
    right law is the mirror image. An associative algebra satisfies both
    laws, and in a commutative one (y,x,x) = -(x,x,y), so the right law is
    the left law.
    """
    n, p = a.dim, a.field.p
    units = [[int(m == i) for m in range(n)] for i in range(n)]
    pairs = [[a.times_basis(e, j, left=False) for j in range(n)] for e in units]

    def assoc(i, j, k):
        lhs = a.times_basis(pairs[i][j], k, left=False)
        rhs = a.times_basis(pairs[j][k], i, left=True)
        return [s - t for s, t in zip(lhs, rhs)]

    def is_zero(v):
        return not any(v) if p is None else not any([x % p for x in v])

    if all(is_zero(assoc(i, j, k)) for i, j, k in product(range(n), repeat=3)):
        return True, True, True

    def law(a_of):  # a_of(i, j, k) is A(i,j,k), or A(k,i,j) for the right law
        return all(
            is_zero(a_of(i, i, k)) if i == j
            else is_zero([s + t for s, t in zip(a_of(i, j, k), a_of(j, i, k))])
            for i, j, k in product(range(n), repeat=3)
            if i <= j
        )

    left = law(assoc)
    right = left if commutative else law(lambda i, j, k: assoc(k, i, j))
    return False, left, right


def _find_unit(a: Algebra) -> Element | None:
    # solve u*e_j = e_j and e_j*u = e_j as one linear system in u
    n = a.dim
    rows = [[0] * n for _ in range(2 * n * n)]
    for (i, j, k), c in a.entries():
        rows[2 * (j * n + k)][i] = c  # (u e_j)_k gets u_i c[i,j,k]
        rows[2 * (i * n + k) + 1][j] = c  # (e_i u)_k gets u_j c[i,j,k]
    rhs = [int(j == k) for j in range(n) for k in range(n) for _ in range(2)]
    # the system has rank at most n + 1: drop repeated equations and 0 = 0
    # before eliminating; 0 = 1 means there is no unit
    system = dict.fromkeys(zip(map(tuple, rows), rhs))
    if any(b and not any(row) for row, b in system):
        return None
    system = [(row, b) for row, b in system if any(row)]
    wrap = a.field.wrap
    sol = solve(Matrix(a.field, [wrap(row) for row, _ in system], n), wrap([b for _, b in system]))
    if sol is None:
        return None
    return Element(a, sol)


def property_flags(a: Algebra) -> PropertyFlags:
    """Decide commutativity, associativity, alternativity and unitality.

    Commutativity compares each basis pair's constants with its mirror's.
    Associativity and both alternative laws come from one kernel over the
    basis associators, exact over every field (see _associator_laws). The
    unit is found by solving a linear system since it need not be a basis
    vector.
    """
    commutative = _is_commutative(a)
    associative, left, right = _associator_laws(a, commutative)
    unit = _find_unit(a)
    return PropertyFlags(
        commutative=commutative,
        associative=associative,
        left_alternative=left,
        right_alternative=right,
        unital=unit is not None,
        unit=unit,
    )


def check_subspace(a: Algebra, s: Subspace) -> None:
    """Refuse a subspace that does not live in the algebra."""
    if s.field is not a.field:
        raise FieldMismatch(f"subspace over {s.field!r}, algebra over {a.field!r}")
    if s.ambient_dim != a.dim:
        raise DimensionMismatch("subspace does not live in the algebra")


def commutative_center(a: Algebra) -> Subspace:
    """Elements commuting with the whole algebra, as a canonical subspace.

    Computed as the kernel of the stacked maps x -> x*e_j - e_j*x.
    """
    n = a.dim
    rows = [[0] * n for _ in range(n * n)]
    for (i, j, k), c in a.entries():
        rows[j * n + k][i] += c  # (x e_j - e_j x)_k gets x_i (c[i,j,k] - c[j,i,k])
        rows[i * n + k][j] -= c
    basis = kernel_basis(Matrix(a.field, [a.field.wrap(r) for r in rows], n))
    return span(a.field, n, basis)


def change_basis(a: Algebra, t: Matrix) -> Algebra:
    """Structure constants of the same product in the basis e'_i = sum_j T[i][j] e_j."""
    if t.nrows != a.dim or t.ncols != a.dim:
        raise DimensionMismatch(f"basis change must be {a.dim}x{a.dim}")
    if t.field is not a.field:
        raise FieldMismatch("basis change over a different field")
    try:
        tinv = t.inverse()
    except SingularTransform:
        raise SingularTransform("basis change matrix is singular") from None
    table: dict[tuple[int, int, int], FieldElement] = {}
    for i in range(a.dim):
        for j in range(a.dim):
            prod_old = a.product_coords(t.rows[i], t.rows[j])
            prod_new = row_times_matrix(prod_old, tinv)
            for k, v in enumerate(prod_new):
                if v:
                    table[(i, j, k)] = v
    return Algebra(a.field, a.dim, table)
