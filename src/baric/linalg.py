"""Exact dense linear algebra over a FieldSpec.

Matrices are immutable tuples of rows of FieldElements. Subspaces are
stored by their reduced row-echelon basis with zero rows removed, which
is a canonical form: two subspaces are equal exactly when their stored
bases are identical, so Subspace supports ==, hashing and set membership.

Over prime fields the module can also enumerate every subspace of an
ambient space, walking reduced-echelon pivot patterns so that each
subspace is produced exactly once without any dedup storage.
"""

from __future__ import annotations

import os
from itertools import combinations, product
from typing import Iterable, Iterator, Sequence

from .errors import (
    DimensionMismatch,
    EnumerationTooLarge,
    FieldMismatch,
    FieldNotFinite,
    SingularTransform,
)
from .fields import FieldElement, FieldSpec

DEFAULT_ENUMERATION_CAP = 1 << 20


def enumeration_cap(override: int | None = None) -> int:
    """Active enumeration cap: explicit override, else BARIC_CAP, else 2^20.

    The cap bounds the number of items an exhaustive search visits: the
    p^dim vectors of iter_vectors, the subspace_count(p, dim) subspaces of
    enumerate_subspaces.
    """
    if override is not None:
        return override
    return int(os.environ.get("BARIC_CAP", DEFAULT_ENUMERATION_CAP))


Row = tuple[FieldElement, ...]


def _coerce_row(field: FieldSpec, row: Sequence) -> Row:
    return tuple(field.element(x) for x in row)


class Matrix:
    """Immutable dense matrix with exact entries."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: FieldSpec, rows: Iterable[Sequence], ncols: int | None = None):
        rows = tuple(tuple(r) for r in rows)
        if rows:
            ncols_seen = len(rows[0])
            if ncols is not None and ncols != ncols_seen:
                raise DimensionMismatch(f"declared {ncols} columns, rows have {ncols_seen}")
            ncols = ncols_seen
        elif ncols is None:
            raise DimensionMismatch("empty matrix needs an explicit column count")
        for r in rows:
            if len(r) != ncols:
                raise DimensionMismatch("ragged rows")
            for x in r:
                if not isinstance(x, FieldElement) or x.field is not field:
                    raise FieldMismatch("matrix entries must share one field")
        self.field = field
        self.nrows = len(rows)
        self.ncols = ncols
        self.rows = rows

    @classmethod
    def of(cls, field: FieldSpec, rows: Iterable[Sequence], ncols: int | None = None) -> "Matrix":
        """Build a matrix coercing ints / fractions / strings entrywise."""
        return cls(field, [_coerce_row(field, r) for r in rows], ncols)

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        one, zero = field.one, field.zero
        return cls(field, [tuple(one if i == j else zero for j in range(n)) for i in range(n)], n)

    def row(self, i: int) -> Row:
        return self.rows[i]

    def transpose(self) -> "Matrix":
        return Matrix(self.field, tuple(zip(*self.rows)) if self.rows else (), self.nrows)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field is not other.field:
            raise FieldMismatch("matrix product across fields")
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"{self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        cols = other.transpose().rows
        zero = self.field.zero
        out = []
        for r in self.rows:
            out_row = []
            for c in cols:
                acc = zero
                for a, b in zip(r, c):
                    if a and b:
                        acc = acc + a * b
                out_row.append(acc)
            out.append(tuple(out_row))
        return Matrix(self.field, out, other.ncols)

    def rref(self) -> "Matrix":
        """Reduced row-echelon form, zero rows kept at the bottom."""
        rows, _ = _rref(self.field, self.rows, self.ncols)
        return Matrix(self.field, rows, self.ncols)

    def rank(self) -> int:
        _, pivots = _rref(self.field, self.rows, self.ncols)
        return len(pivots)

    @property
    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and self.rank() == self.nrows

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise SingularTransform("only square matrices can be inverted")
        n = self.nrows
        ident = Matrix.identity(self.field, n)
        aug = [self.rows[i] + ident.rows[i] for i in range(n)]
        reduced, pivots = _rref(self.field, aug, 2 * n)
        if pivots != list(range(n)):
            raise SingularTransform("matrix is singular")
        return Matrix(self.field, [r[n:] for r in reduced[:n]], n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.field is other.field
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.ncols, self.rows))

    def __repr__(self) -> str:
        body = "; ".join(",".join(str(x) for x in r) for r in self.rows)
        return f"Matrix[{self.nrows}x{self.ncols}]({body})"


def row_times_matrix(v: Sequence[FieldElement], m: Matrix) -> Row:
    """v @ m for a coordinate row vector v."""
    if len(v) != m.nrows:
        raise DimensionMismatch(f"row of length {len(v)} times {m.nrows}x{m.ncols}")
    zero = m.field.zero
    out = [zero] * m.ncols
    for vi, r in zip(v, m.rows):
        if vi:
            for j, rj in enumerate(r):
                if rj:
                    out[j] = out[j] + vi * rj
    return tuple(out)


def _rref(field: FieldSpec, rows, ncols: int):
    """Gauss-Jordan elimination; returns (rows, pivot column list)."""
    m = [list(r) for r in rows]
    nrows = len(m)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = None
        for i in range(r, nrows):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        if piv != field.one:
            inv = field.one / piv
            m[r] = [inv * x for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return [tuple(row) for row in m], pivots


def kernel_basis(m: Matrix) -> list[Row]:
    """Basis of {x : m @ x^T = 0}, one vector per free column."""
    reduced, pivots = _rref(m.field, m.rows, m.ncols)
    pivot_set = set(pivots)
    zero, one = m.field.zero, m.field.one
    basis = []
    for free in range(m.ncols):
        if free in pivot_set:
            continue
        v = [zero] * m.ncols
        v[free] = one
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][free]
        basis.append(tuple(v))
    return basis


def solve(m: Matrix, b: Sequence[FieldElement]) -> Row | None:
    """One solution x of m @ x^T = b^T, or None if inconsistent.

    Free variables are set to zero.
    """
    if len(b) != m.nrows:
        raise DimensionMismatch("right-hand side length mismatch")
    aug = [m.rows[i] + (b[i],) for i in range(m.nrows)]
    reduced, pivots = _rref(m.field, aug, m.ncols + 1)
    if m.ncols in pivots:
        return None
    zero = m.field.zero
    x = [zero] * m.ncols
    for r, pc in enumerate(pivots):
        x[pc] = reduced[r][m.ncols]
    return tuple(x)


class Subspace:
    """A linear subspace in canonical reduced-echelon form."""

    __slots__ = ("field", "ambient_dim", "basis")

    def __init__(self, field: FieldSpec, ambient_dim: int, basis: tuple[Row, ...]):
        # callers must pass an RREF basis without zero rows; use span()
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = basis

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def is_zero(self) -> bool:
        return not self.basis

    def basis_matrix(self) -> Matrix:
        return Matrix(self.field, self.basis, self.ambient_dim)

    @classmethod
    def zero_space(cls, field: FieldSpec, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, ())

    @classmethod
    def full(cls, field: FieldSpec, ambient_dim: int) -> "Subspace":
        return span(field, ambient_dim, Matrix.identity(field, ambient_dim).rows)

    def contains_vector(self, v: Sequence[FieldElement]) -> bool:
        if len(v) != self.ambient_dim:
            raise DimensionMismatch(f"vector of length {len(v)} in dim {self.ambient_dim}")
        residue = list(v)
        for row in self.basis:
            pivot = _pivot_col(row)
            coeff = residue[pivot]
            if coeff:
                residue = [a - coeff * b for a, b in zip(residue, row)]
        return not any(residue)

    def contains(self, other: "Subspace") -> bool:
        self._check(other)
        return all(self.contains_vector(r) for r in other.basis)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check(other)
        return span(self.field, self.ambient_dim, self.basis + other.basis)

    __add__ = sum

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection via the left kernel of the stacked bases."""
        self._check(other)
        if self.is_zero or other.is_zero:
            return Subspace.zero_space(self.field, self.ambient_dim)
        stacked = Matrix(self.field, self.basis + other.basis, self.ambient_dim)
        basis, k = self.basis_matrix(), self.dim
        vectors = [row_times_matrix(w[:k], basis) for w in kernel_basis(stacked.transpose())]
        return span(self.field, self.ambient_dim, vectors)

    __and__ = intersect

    def _check(self, other: "Subspace") -> None:
        if self.field is not other.field:
            raise FieldMismatch("subspaces over different fields")
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("subspaces of different ambient dimension")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.field is other.field
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        rows = "; ".join(",".join(str(x) for x in r) for r in self.basis)
        return f"Subspace(dim {self.dim} of {self.ambient_dim}: {rows})"


def _pivot_col(row: Row) -> int:
    for j, x in enumerate(row):
        if x:
            return j
    raise ValueError("zero row has no pivot")


def span(field: FieldSpec, ambient_dim: int, vectors: Iterable[Sequence[FieldElement]]) -> Subspace:
    """Canonical subspace spanned by the given coordinate vectors."""
    vectors = [tuple(v) for v in vectors]
    for v in vectors:
        if len(v) != ambient_dim:
            raise DimensionMismatch(f"vector of length {len(v)} in dim {ambient_dim}")
    if not vectors:
        return Subspace.zero_space(field, ambient_dim)
    reduced, pivots = _rref(field, vectors, ambient_dim)
    return Subspace(field, ambient_dim, tuple(reduced[: len(pivots)]))


def span_of(field: FieldSpec, ambient_dim: int, vectors: Iterable[Sequence]) -> Subspace:
    """span() with entrywise coercion of ints, Fractions and strings."""
    return span(field, ambient_dim, [_coerce_row(field, v) for v in vectors])


def iter_vectors(field: FieldSpec, dim: int, cap: int | None = None) -> Iterator[Row]:
    """Every coordinate vector of F^dim in lexicographic order."""
    if field.p is None:
        raise FieldNotFinite("cannot enumerate vectors over the rationals")
    if field.p**dim > enumeration_cap(cap):
        raise EnumerationTooLarge(f"{field.p}^{dim} exceeds the enumeration cap")
    elems = list(field.elements())
    for combo in product(elems, repeat=dim):
        yield combo


def subspace_count(p: int, d: int) -> int:
    """Number of subspaces of F_p^d: the sum over k of the Gaussian binomials [d k]_p."""
    total, binom = 0, 1
    for k in range(d + 1):
        total += binom
        binom = binom * (p ** (d - k) - 1) // (p ** (k + 1) - 1)
    return total


def enumerate_subspaces(ambient: Subspace, cap: int | None = None) -> Iterator[Subspace]:
    """Every subspace of `ambient`, each exactly once, in canonical form.

    Walks pivot-column patterns of reduced-echelon coefficient matrices C
    and fills the free positions with all residues, so the output needs no
    deduplication. Each subspace is C @ B for the ambient's basis B; the
    product of two reduced-echelon matrices is reduced-echelon (B's pivot
    columns are unit vectors, so they copy C's), hence already canonical.
    The arithmetic runs on int residues; entries become FieldElements only
    when a subspace is yielded. Requires a finite field, and the cap bounds
    the number of subspaces visited, subspace_count(p, dim(ambient)).
    """
    field = ambient.field
    p = field.p
    if p is None:
        raise FieldNotFinite("subspace enumeration needs a finite field")
    d = ambient.dim
    total = subspace_count(p, d)
    if total > enumeration_cap(cap):
        raise EnumerationTooLarge(
            f"F_{p}^{d} has {total} subspaces, more than the enumeration cap"
        )
    n = ambient.ambient_dim
    table = field._interned()  # None above the interning limit
    make = field._make if table is None else table.__getitem__
    dense = [[x.value for x in row] for row in ambient.basis]
    sparse = [[(j, v) for j, v in enumerate(row) if v] for row in dense]
    for k in range(d + 1):
        for pivots in combinations(range(d), k):
            pivot_set = set(pivots)
            free_pos = [
                (r, c)
                for r in range(k)
                for c in range(pivots[r] + 1, d)
                if c not in pivot_set
            ]
            for fill in product(range(p), repeat=len(free_pos)):
                # row r of C @ B is B[pivots[r]] plus val * B[c] over its free (r, c)
                rows = [list(dense[pc]) for pc in pivots]
                for (r, c), val in zip(free_pos, fill):
                    if val:
                        row = rows[r]
                        for j, bj in sparse[c]:
                            row[j] += val * bj
                yield Subspace(
                    field, n, tuple(tuple([make(x % p) for x in row]) for row in rows)
                )
