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
FieldSpec.unwrap, the one door. Algebra(...) reads caller constants through
FieldSpec.element and checks their indices; Algebra._raw, beside
Element._raw, Matrix._raw and FieldElement._raw, takes the canonical
nonzero constants the library computes (change_basis, bowtie, factor,
random_baric, scalar_action) and only groups them by pair. Over Q the
product kernels (times and the basis associators) clear denominators once
and compute on Python ints, building one Fraction per nonzero value they
return.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterator, Mapping, Sequence

from .errors import DimensionMismatch, FieldMismatch, SingularTransform
from .fields import FieldElement, FieldSpec
from .linalg import Matrix, Subspace, _cleared, _rational_sums, kernel_basis, solve, span


def check_dim(dim) -> None:
    """Refuse an algebra dimension that is not an int of at least 1 (a bool or a float included)."""
    if type(dim) is not int or dim < 1:
        raise DimensionMismatch(f"algebra dimension must be an int of at least 1, got {dim!r}")


class Algebra:
    """A bilinear product on F^dim, described by its structure constants; the
    dimension and indices are plain ints, never bools or floats, as in documents."""

    __slots__ = ("field", "dim", "basis_names", "_by_pair")

    def __init__(
        self,
        field: FieldSpec,
        dim: int,
        table: Mapping[tuple[int, int, int], object],
        basis_names: Sequence[str] | None = None,
    ):
        check_dim(dim)
        clean = {}
        for (i, j, k), v in table.items():
            if not (type(i) is type(j) is type(k) is int
                    and 0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise DimensionMismatch(f"index ({i!r},{j!r},{k!r}) out of range for dim {dim}")
            c = field.element(v).value
            if c:
                clean[(i, j, k)] = c
        if basis_names is not None:
            basis_names = tuple(basis_names)
            if len(basis_names) != dim:
                raise DimensionMismatch("one basis name per dimension")
        self._fill(field, dim, clean, basis_names)

    @classmethod
    def _raw(cls, field: FieldSpec, dim: int, table: Mapping, basis_names: Sequence[str] | None = None):
        """The algebra with canonical, nonzero raw constants computed by the library,
        at in-range int indices; they are only sorted and grouped by pair."""
        self = object.__new__(cls)
        self._fill(field, dim, table, basis_names)
        return self

    def _fill(self, field: FieldSpec, dim: int, table: Mapping, basis_names) -> None:
        # (i, j) -> ((k, c), ...) in lexicographic order, raw values only
        by_pair: dict[tuple[int, int], list[tuple[int, object]]] = {}
        for (i, j, k), c in table.items():
            by_pair.setdefault((i, j), []).append((k, c))
        self.field = field
        self.dim = dim
        self.basis_names = None if basis_names is None else tuple(basis_names)
        self._by_pair = {p: tuple(sorted(by_pair[p])) for p in sorted(by_pair)}

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
        """Raw coordinates of x * y, from raw coordinates x and y; over Q the sums
        run on cleared ints, one Fraction per nonzero coordinate (linalg._rational_sums)."""
        by_pair = self._by_pair
        if self.field.p is None:
            dx, x = _cleared(x)
            dy, y = _cleared(y)
            terms = [(xi * yj, entries) for i, xi in enumerate(x) if xi
                     for j, yj in enumerate(y) if yj and (entries := by_pair.get((i, j)))]
            return _rational_sums(terms, self.dim, dx * dy)
        out = [0] * self.dim
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
        a, b = self.algebra, other.algebra
        return (a is b or a == b) and self.values == other.values

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


def _basis_associators(by_pair: dict, n: int, p: int | None):
    """The basis associators of a table, one pair (i, j) at a time, computed when asked.

    Returns a function of (i, j) giving a new {k * n + t: A(i,j,k)_t} on
    each call, with the nonzero values only (reduced mod p over F_p), where
    A(i,j,k) = (e_i e_j) e_k - e_i (e_j e_k) = sum_m c[i,j,m] e_m e_k -
    sum_m c[j,k,m] e_i e_m is summed over the nonzero constants only. Over
    Q the sums run on ints: the table is cleared of denominators once, with
    their lcm dc, and each nonzero value is one Fraction over dc^2.
    """
    if p is None:
        dc = lcm(*[c.denominator for row in by_pair.values() for _, c in row])
        by_pair = {pair: tuple([(k, c.numerator * (dc // c.denominator)) for k, c in row])
                   for pair, row in by_pair.items()}
        scale = dc * dc
    starting = [[] for _ in range(n)]  # m -> ((k * n, row of e_m e_k), ...)
    for (m, k), row in by_pair.items():
        starting[m].append((k * n, row))

    def block(i: int, j: int) -> dict:
        acc: dict[int, object] = {}
        for m, c in by_pair.get((i, j), ()):
            for kn, row in starting[m]:
                for t, d in row:
                    acc[kn + t] = acc.get(kn + t, 0) + c * d
        for kn, jk in starting[j]:
            for m, c in jk:
                for t, d in by_pair.get((i, m), ()):
                    acc[kn + t] = acc.get(kn + t, 0) - c * d
        if p is None:
            return {key: Fraction(v, scale) for key, v in acc.items() if v}
        return _sparse(acc, p)

    return block


def _basis_commutators(by_pair: dict, n: int, p: int | None):
    """The basis commutators of a table, one index i at a time: the one reading of [e_i, e_k].

    Returns a function of i giving {k * n + t: [e_i, e_k]_t} with the
    nonzero values only (reduced mod p over F_p), where [e_i, e_k]_t =
    c[i,k,t] - c[k,i,t]; the same keys as a _basis_associators block.
    """

    def block(i: int) -> dict:
        acc: dict[int, object] = {}
        for k in range(n):
            kn = k * n
            for t, c in by_pair.get((i, k), ()):
                acc[kn + t] = c
            for t, c in by_pair.get((k, i), ()):
                acc[kn + t] = acc.get(kn + t, 0) - c
        return _sparse(acc, p)

    return block


def _sparse(acc: dict, p: int | None) -> dict:
    """The nonzero values of a dict of raw values, reduced mod p over F_p."""
    if p is None:
        return {key: v for key, v in acc.items() if v}
    return {key: r for key, v in acc.items() if (r := v % p)}


def _left_alternative(block, n: int, p: int | None) -> tuple[bool, bool]:
    """(left alternative, associative), from one walk that reads each block once."""
    empty = True
    for i in range(n):
        if block(i, i):
            return False, False
        for j in range(i + 1, n):
            bij, bji = block(i, j), block(j, i)
            for key in bij.keys() | bji.keys():
                s = bij.get(key, 0) + bji.get(key, 0)
                if s if p is None else s % p:
                    return False, False
            empty = empty and not (bij or bji)
    return True, empty


def _associator_laws(a: Algebra, commutative: bool) -> tuple[bool, bool, bool]:
    """(associative, left alternative, right alternative), decided exactly.

    All three are read off the basis associators A(i,j,k), computed sparsely
    and only as far as each decision needs (see _basis_associators). The
    associator is trilinear, so (x,x,y) = sum_i x_i^2 A(i,i,y) +
    sum_{i<j} x_i x_j (A(i,j,y) + A(j,i,y)); evaluating at e_i and e_i + e_j
    shows it vanishes identically exactly when A(i,i,k) = 0 and
    A(i,j,k) + A(j,i,k) = 0 for i < j, over every field including F_2. One
    walk reads block (i, i), then (i, j) and (j, i) for i < j, and stops at
    the first failure of that law; a walk that ends has read every block,
    so the table is associative when all were empty. In the opposite
    algebra, x o y = yx, (x,x,y) is -(y,x,x), so the right law is the left
    law of the opposite table, read only when the table is neither
    associative (both laws hold) nor commutative (they coincide).
    """
    n, p = a.dim, a.field.p
    left, associative = _left_alternative(_basis_associators(a._by_pair, n, p), n, p)
    if associative or commutative:
        return associative, left, left
    opposite = {(j, i): row for (i, j), row in a._by_pair.items()}
    return False, left, _left_alternative(_basis_associators(opposite, n, p), n, p)[0]


def _find_unit(a: Algebra) -> Element | None:
    # solve u*e_j = e_j and e_j*u = e_j as one linear system in u, building only
    # the equations with an entry or a right-hand side of 1 (the units)
    n = a.dim
    units = {2 * j * (n + 1) + s for j in range(n) for s in (0, 1)}
    rows = {r: [0] * n for r in units}
    for (i, j, k), c in a.entries():
        rows.setdefault(2 * (j * n + k), [0] * n)[i] = c  # (u e_j)_k gets u_i c[i,j,k]
        rows.setdefault(2 * (i * n + k) + 1, [0] * n)[j] = c  # (e_i u)_k gets u_j c[i,j,k]
    # the system has rank at most n + 1: drop repeated equations and 0 = 0
    # before eliminating; 0 = 1 means there is no unit
    system = dict.fromkeys((tuple(rows[r]), int(r in units)) for r in sorted(rows))
    if any(b and not any(row) for row, b in system):
        return None
    system = [(row, b) for row, b in system if any(row)]
    field = a.field
    sol = solve(Matrix._raw(field, [row for row, _ in system], n), field.wrap([b for _, b in system]))
    if sol is None:
        return None
    return Element._raw(a, [c.value for c in sol])


def property_flags(a: Algebra) -> PropertyFlags:
    """Decide commutativity, associativity, alternativity and unitality.

    Commutativity asks that every basis commutator block be empty.
    Associativity and both alternative laws come from one kernel over the
    basis associators, exact over every field (see _associator_laws). The
    unit is found by solving a linear system since it need not be a basis
    vector.
    """
    commutative = not any(map(_basis_commutators(a._by_pair, a.dim, a.field.p), range(a.dim)))
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

    The kernel of the matrix whose column i is the _basis_commutators block
    of e_i, built from its nonzero rows only, in key order.
    """
    n, rows = a.dim, {}
    block = _basis_commutators(a._by_pair, n, a.field.p)
    for i in range(n):
        for key, v in block(i).items():
            rows.setdefault(key, [0] * n)[i] = v
    basis = kernel_basis(Matrix._raw(a.field, [rows[key] for key in sorted(rows)], n))
    return span(a.field, n, basis)


def change_basis(a: Algebra, t: Matrix) -> Algebra:
    """Structure constants of the same product in the basis e'_i = sum_j T[i][j] e_j.

    Each product e'_i e'_j (product_coords) is mapped back through T^-1,
    which is cleared once per call: one lcm d of its denominators over Q,
    and the nonzero entries of each row. So the n^2 products are applied on
    ints, with one Fraction per nonzero constant.
    """
    if t.nrows != a.dim or t.ncols != a.dim:
        raise DimensionMismatch(f"basis change must be {a.dim}x{a.dim}")
    if t.field is not a.field:
        raise FieldMismatch("basis change over a different field")
    try:
        tinv = t.inverse()
    except SingularTransform:
        raise SingularTransform("basis change matrix is singular") from None
    n, p = a.dim, a.field.p
    inv = tinv.values
    if p is None:
        d, flat = _cleared([x for row in inv for x in row])
        inv = [flat[r * n : (r + 1) * n] for r in range(n)]
    inv = [[(k, x) for k, x in enumerate(row) if x] for row in inv]
    rows = t.rows
    table = {}
    for i in range(n):
        for j in range(n):
            prod = [c.value for c in a.product_coords(rows[i], rows[j])]
            if p is None:
                dp, prod = _cleared(prod)
                scale = d * dp
            out = [0] * n
            for s, row in zip(prod, inv):
                if s:
                    for k, x in row:
                        out[k] += s * x
            for k, v in enumerate(out):
                if p:
                    v %= p
                elif v:
                    v = Fraction(v, scale)
                if v:
                    table[(i, j, k)] = v
    return Algebra._raw(a.field, n, table)
