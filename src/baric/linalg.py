"""Exact dense linear algebra over a FieldSpec.

Matrices are immutable, stored once as raw rows with FieldElement `rows`
as a view. Every entry point that takes FieldElements (Matrix, span,
solve, row_times_matrix, Subspace.contains_vector) checks them through
FieldSpec.unwrap, the one door to raw values; every kernel computes on
raw values (residues in [0, p) over F_p, Fractions over Q), Matrix._raw
builds the matrices they compute, and FieldSpec.wrap turns results back
into FieldElements. One Gauss-Jordan sweep (_rref) and one matrix product
(_times) serve both fields; over Q both clear denominators once (_cleared),
run on Python ints and build one Fraction per nonzero entry of the result.
Beside them, one membership test (membership) says whether a raw vector
lies in a Subspace.
Subspaces are stored by their reduced row-echelon rows as raw values, with
zero rows removed, and the pivot column of each row. That is a canonical
form: two subspaces are equal exactly when their stored rows are
identical, so Subspace supports ==, hashing and set membership.

Over prime fields the module can also enumerate every subspace of an
ambient space, walking reduced-echelon pivot patterns so that each
subspace is produced exactly once without any dedup storage, and keeps
the one sparse mod-p echelon (echelon_reduce, echelon_add) that the
commutant kernel and the weight search grow a row at a time.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, combinations, product
from math import lcm
from typing import Callable, Iterable, Iterator, Sequence

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
    """Active enumeration cap: the explicit override, or 2^20 when it is None.

    The cap bounds the number of items an exhaustive search visits: the
    p^dim vectors of iter_vectors, the subspace_count(p, dim) subspaces of
    enumerate_subspaces, the branch nodes of weights.enumerate_weights
    (the root and every value tried, pruned or not). A negative cap raises
    ValueError.
    """
    cap = DEFAULT_ENUMERATION_CAP if override is None else override
    if cap < 0:
        raise ValueError(f"enumeration cap must be nonnegative, got {cap}")
    return cap


Row = tuple[FieldElement, ...]


def _coerce_row(field: FieldSpec, row: Sequence) -> Row:
    return tuple(field.element(x) for x in row)


class Matrix:
    """Immutable dense matrix stored once, as `values`: a tuple of canonical raw rows.

    `rows` is their FieldElement view. Matrix(...) checks caller rows through
    FieldSpec.unwrap; Matrix._raw builds the matrices the library computes.
    """

    __slots__ = ("field", "ncols", "values")

    def __init__(self, field: FieldSpec, rows: Iterable[Sequence], ncols: int | None = None):
        rows = tuple(tuple(r) for r in rows)
        if ncols is None:
            if not rows:
                raise DimensionMismatch("empty matrix needs an explicit column count")
            ncols = len(rows[0])
        unwrap = field.unwrap
        self.values = tuple([unwrap(r, ncols) for r in rows])
        self.field = field
        self.ncols = ncols

    @classmethod
    def _raw(cls, field: FieldSpec, rows: Iterable[Sequence], ncols: int) -> "Matrix":
        """The matrix with raw rows of ncols values computed by the library, made canonical."""
        self = object.__new__(cls)
        canon = field.canon
        self.values = tuple([canon(r) for r in rows])
        self.field = field
        self.ncols = ncols
        return self

    @classmethod
    def of(cls, field: FieldSpec, rows: Iterable[Sequence], ncols: int | None = None) -> "Matrix":
        """Build a matrix coercing ints / fractions / strings entrywise."""
        return cls(field, [_coerce_row(field, r) for r in rows], ncols)

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        one, zero = field.one.value, field.zero.value
        return cls._raw(field, [[one if i == j else zero for j in range(n)] for i in range(n)], n)

    @property
    def nrows(self) -> int:
        return len(self.values)

    @property
    def rows(self) -> tuple[Row, ...]:
        """The rows as FieldElements, wrapped on each access."""
        wrap = self.field.wrap
        return tuple([wrap(r) for r in self.values])

    def transpose(self) -> "Matrix":
        # with no rows, zip has nothing to pair: the transpose is ncols empty rows
        columns = zip(*self.values) if self.values else [()] * self.ncols
        return Matrix._raw(self.field, columns, self.nrows)

    def rref(self) -> "Matrix":
        """Reduced row-echelon form, zero rows kept at the bottom."""
        rows, _ = _rref(self.field, self.values, self.ncols)
        return Matrix._raw(self.field, rows, self.ncols)

    def rank(self) -> int:
        _, pivots = _rref(self.field, self.values, self.ncols)
        return len(pivots)

    @property
    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and self.rank() == self.nrows

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise SingularTransform("only square matrices can be inverted")
        n = self.nrows
        ident = Matrix.identity(self.field, n).values
        aug = [self.values[i] + ident[i] for i in range(n)]
        reduced, pivots = _rref(self.field, aug, 2 * n)
        if pivots != list(range(n)):
            raise SingularTransform("matrix is singular")
        return Matrix._raw(self.field, [r[n:] for r in reduced[:n]], n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.field is other.field
            and self.ncols == other.ncols
            and self.values == other.values
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.ncols, self.values))

    def __repr__(self) -> str:
        body = "; ".join(",".join(str(x) for x in r) for r in self.values)
        return f"Matrix[{self.nrows}x{self.ncols}]({body})"


def row_times_matrix(v: Sequence[FieldElement], m: Matrix) -> Row:
    """v @ m for a coordinate row vector v (see _times)."""
    return m.field.wrap(_times(m.field.p, [m.field.unwrap(v, m.nrows)], m.values, m.ncols)[0])


def _cleared(values: Sequence) -> tuple[int, list[int]]:
    """(d, ints): the lcm d of the denominators of raw Q values (ints or Fractions)
    and the values times d, as ints."""
    d = lcm(*[x.denominator for x in values])
    return d, [x.numerator * (d // x.denominator) for x in values]


def _times(p: int | None, x: Sequence[Sequence], g: Sequence[Sequence], ncols: int) -> list[list]:
    """The raw rows of x @ g, g being raw rows of ncols columns, over F_p or (p None) Q.

    It skips the zero entries of x, and reads a row of g as its nonzero
    entries when a nonzero entry of x first meets it. Over F_p the rows are
    reduced mod p; over Q, g is cleared once and each row of x once
    (_cleared), the sums run on ints, and each nonzero entry is one Fraction.
    """
    if p is None:
        dg, flat = _cleared([y for row in g for y in row])
        g = [flat[r * ncols : (r + 1) * ncols] for r in range(len(g))]
        zero = Fraction(0)
    sparse = [None] * len(g)
    out = []
    for row in x:
        if p is None:
            d, row = _cleared(row)
            d *= dg
        acc = [0] * ncols
        for m, xm in enumerate(row):
            if xm:
                g_row = sparse[m]
                if g_row is None:
                    g_row = sparse[m] = [(c, y) for c, y in enumerate(g[m]) if y]
                for c, y in g_row:
                    acc[c] += xm * y
        out.append([v % p for v in acc] if p else [Fraction(v, d) if v else zero for v in acc])
    return out


def _rref(field: FieldSpec, rows: Iterable[Sequence], ncols: int):
    """Gauss-Jordan elimination on raw rows; returns (rows, pivot column list).

    The input rows are canonical raw values (residues in [0, p) over F_p,
    Fractions over Q), as Matrix.values holds them; so are the returned
    rows, zero rows at the bottom. One sweep serves both fields: each pivot
    row is swapped up to row r and its column cleared in every other row,
    f being that row's entry there. Over F_p the pivot row is scaled to 1
    and the others become (a - f*b) % p. Over Q each row is cleared once
    (_cleared) and, with piv the pivot and prev the one before (1 at first),
    the others become (piv*a - f*b) // prev on ints, an exact division
    (Bareiss, Math. Comp. 22, 1968; for Gauss-Jordan, Nakos, Turner &
    Williams, SIGSAM Bull. 1997); so each pivot row ends as the last pivot
    times its RREF row, and one Fraction is built per nonzero entry. Only
    over Q are zero rows dropped as they appear: over F_p piv = prev = 1, a
    zero row costs two tests per pivot, and dropping them more than doubled
    the unit and centre systems of componentwise(F_2, 120).
    """
    p = field.p
    m = [list(row) for row in rows] if p else [_cleared(row)[1] for row in rows]
    nrows = size = len(m)
    pivots: list[int] = []
    prev, r = 1, 0
    for c in range(ncols):
        if r == size:
            break
        for pr in range(r, size):
            if m[pr][c]:
                break
        else:
            continue
        pivot_row = m[pr]
        m[pr] = m[r]
        piv = pivot_row[c]
        if piv != 1 and p:
            inv = pow(piv, -1, p)
            pivot_row = [x * inv % p for x in pivot_row]
            piv = 1
        m[r] = pivot_row
        for i, row in enumerate(m):
            f = row[c]
            if not f:
                if piv != prev:
                    m[i] = [piv * a // prev for a in row]
            elif i != r:
                if p:
                    m[i] = [(a - f * b) % p for a, b in zip(row, pivot_row)]
                else:
                    m[i] = [(piv * a - f * b) // prev for a, b in zip(row, pivot_row)]
        if not p:
            m[r + 1 :] = [row for row in m[r + 1 :] if any(row)]
            size, prev = len(m), piv
        pivots.append(c)
        r += 1
    if not p:
        zero = field.zero.value
        m = [[Fraction(a, prev) if a else zero for a in row] for row in m]
        m += [(zero,) * ncols] * (nrows - size)
    return [tuple(row) for row in m], pivots


def kernel_basis(m: Matrix) -> list[Row]:
    """Basis of {x : m @ x^T = 0}, one vector per free column."""
    reduced, pivots = _rref(m.field, m.values, m.ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(m.ncols):
        if free in pivot_set:
            continue
        v = [0] * m.ncols
        v[free] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][free]
        basis.append(m.field.wrap(v))
    return basis


def solve(m: Matrix, b: Sequence[FieldElement]) -> Row | None:
    """One solution x of m @ x^T = b^T, or None if inconsistent.

    Free variables are set to zero.
    """
    b = m.field.unwrap(b, m.nrows)
    aug = [m.values[i] + (b[i],) for i in range(m.nrows)]
    reduced, pivots = _rref(m.field, aug, m.ncols + 1)
    if m.ncols in pivots:
        return None
    x = [0] * m.ncols
    for r, pc in enumerate(pivots):
        x[pc] = reduced[r][m.ncols]
    return m.field.wrap(x)


class Subspace:
    """A linear subspace in canonical reduced-echelon form.

    `rows` are the RREF basis rows as raw values, zero rows removed, and
    `pivots` the pivot column of each row.
    """

    __slots__ = ("field", "ambient_dim", "rows", "pivots")

    def __init__(self, field: FieldSpec, ambient_dim: int, rows: tuple[tuple, ...], pivots: tuple[int, ...]):
        # callers must pass canonical RREF rows and their pivots; use span()
        self.field = field
        self.ambient_dim = ambient_dim
        self.rows = rows
        self.pivots = pivots

    @property
    def basis(self) -> tuple[Row, ...]:
        """The RREF basis as FieldElement rows, wrapped on each access."""
        wrap = self.field.wrap
        return tuple([wrap(r) for r in self.rows])

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def is_zero(self) -> bool:
        return not self.rows

    def basis_matrix(self) -> Matrix:
        return Matrix._raw(self.field, self.rows, self.ambient_dim)

    @classmethod
    def zero_space(cls, field: FieldSpec, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, (), ())

    @classmethod
    def full(cls, field: FieldSpec, ambient_dim: int) -> "Subspace":
        # identity rows are already RREF, with the pivots on the diagonal
        n = ambient_dim
        return cls(field, n, Matrix.identity(field, n).values, tuple(range(n)))

    def contains_vector(self, v: Sequence[FieldElement]) -> bool:
        return membership(self)(self.field.unwrap(v, self.ambient_dim))

    def contains(self, other: "Subspace") -> bool:
        self._check(other)
        return all(map(membership(self), other.rows))

    def sum(self, other: "Subspace") -> "Subspace":
        self._check(other)
        return _raw_span(self.field, self.ambient_dim, self.rows + other.rows)

    __add__ = sum

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection via the left kernel of the stacked bases."""
        self._check(other)
        basis, k = self.basis_matrix(), self.dim
        stacked = Matrix._raw(self.field, self.rows + other.rows, self.ambient_dim)
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
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.ambient_dim, self.rows))

    def __repr__(self) -> str:
        rows = "; ".join(",".join(str(x) for x in r) for r in self.rows)
        return f"Subspace(dim {self.dim} of {self.ambient_dim}: {rows})"


def membership(s: Subspace) -> Callable[[Sequence], bool]:
    """The test "raw vector v lies in s", built once from the RREF rows of s.

    v lies in s exactly when, at each non-pivot column f, v[f] is the sum
    of v at each pivot times that row's entry at f. Over F_p the difference
    is reduced mod p, so v may hold unreduced ints; over Q it is compared
    exactly. The test stops at the first column that fails.
    """
    p = s.field.p
    pairs = list(zip(s.rows, s.pivots))
    free = [f for f in range(s.ambient_dim) if f not in s.pivots]

    def inside(v: Sequence) -> bool:
        for f in free:
            t = v[f]
            for row, pc in pairs:
                t -= v[pc] * row[f]
            if t % p if p else t:
                return False
        return True

    return inside


def echelon_reduce(echelon: dict[int, dict[int, int]], vec: dict[int, int], p: int) -> dict[int, int]:
    """Sparse row vec reduced mod p against echelon until its leading key has no row.

    echelon maps a leading key to a sparse row (key -> residue) whose entry
    there is 1; the leading key of a row is its least key. The result is
    empty exactly when vec lies in the span of the rows.
    """
    vec = {u: x % p for u, x in vec.items() if x % p}
    while vec:
        lead = min(vec)
        row = echelon.get(lead)
        if row is None:
            break
        f = vec[lead]
        for u, x in row.items():
            vec[u] = vec.get(u, 0) - f * x
        vec = {u: x % p for u, x in vec.items() if x % p}
    return vec


def echelon_add(echelon: dict[int, dict[int, int]], vec: dict[int, int], p: int) -> None:
    """Put a row reduced by echelon_reduce (nonzero) into echelon, scaled to 1 at its leading key."""
    lead = min(vec)
    inv = pow(vec[lead], -1, p)
    echelon[lead] = {u: x * inv % p for u, x in vec.items() if x % p}


def span(field: FieldSpec, ambient_dim: int, vectors: Iterable[Sequence[FieldElement]]) -> Subspace:
    """Canonical subspace spanned by the given coordinate vectors, unwrapped once."""
    return _raw_span(field, ambient_dim, [field.unwrap(v, ambient_dim) for v in vectors])


def _raw_span(field: FieldSpec, ambient_dim: int, rows: Sequence[Sequence]) -> Subspace:
    """Canonical subspace spanned by canonical raw rows; no rows give the zero space."""
    reduced, pivots = _rref(field, rows, ambient_dim)
    return Subspace(field, ambient_dim, tuple(reduced[: len(pivots)]), tuple(pivots))


def span_of(field: FieldSpec, ambient_dim: int, vectors: Iterable[Sequence]) -> Subspace:
    """span() with entrywise coercion of ints, Fractions and strings."""
    return span(field, ambient_dim, [_coerce_row(field, v) for v in vectors])


def iter_vectors(field: FieldSpec, dim: int, cap: int | None = None) -> Iterator[tuple[int, ...]]:
    """Every vector of F_p^dim as a tuple of residues 0..p-1, in lexicographic order."""
    if field.p is None:
        raise FieldNotFinite("cannot enumerate vectors over the rationals")
    if field.p**dim > enumeration_cap(cap):
        raise EnumerationTooLarge(f"{field.p}^{dim} exceeds the enumeration cap")
    yield from product(range(field.p), repeat=dim)


def _gaussian_binomials(p: int, d: int) -> Iterator[int]:
    """The Gaussian binomials [d k]_p for k = 0, ..., d: the k-dimensional subspaces of F_p^d."""
    binom = 1
    for k in range(d + 1):
        yield binom
        binom = binom * (p ** (d - k) - 1) // (p ** (k + 1) - 1)


def subspace_count(p: int, d: int) -> int:
    """Number of subspaces of F_p^d: the sum over k of the Gaussian binomials [d k]_p."""
    return sum(_gaussian_binomials(p, d))


def check_subspace_cap(ambient: Subspace, cap: int | None = None) -> None:
    """Refuse an ambient with more subspaces than the cap, before any is visited.

    The count is subspace_count(p, dim(ambient)), summed until it passes the cap and never printed.
    Requires a finite field.
    """
    p = ambient.field.p
    if p is None:
        raise FieldNotFinite("subspace enumeration needs a finite field")
    limit = enumeration_cap(cap)
    if any(total > limit for total in accumulate(_gaussian_binomials(p, ambient.dim))):
        raise EnumerationTooLarge(f"F_{p}^{ambient.dim} has more subspaces than the enumeration cap {limit}")


def enumerate_subspaces(ambient: Subspace, cap: int | None = None) -> Iterator[Subspace]:
    """Every subspace of `ambient`, each exactly once, in canonical form.

    Ordered by dimension, then as subspaces_of_dim lists them. Requires a
    finite field, and the cap bounds the number of subspaces visited,
    subspace_count(p, dim(ambient)) (see check_subspace_cap).
    """
    check_subspace_cap(ambient, cap)
    for k in range(ambient.dim + 1):
        yield from subspaces_of_dim(ambient, k)


def subspaces_of_dim(ambient: Subspace, k: int) -> Iterator[Subspace]:
    """Every k-dimensional subspace of `ambient`, each exactly once, in canonical form.

    Walks pivot-column patterns of k-row reduced-echelon coefficient
    matrices C, in lexicographic order, and fills the free positions with
    all residues, row-major, so the output needs no deduplication. Each
    subspace is C @ B for the ambient's basis B; the product of two
    reduced-echelon matrices is reduced-echelon (B's pivot columns are unit
    vectors, so they copy C's), hence already canonical, and its pivot
    columns are B's at C's pivots. Row r of C @ B depends only on row r's
    own free entries, so per pivot pattern each row's p^(free entries)
    canonical tuples are built once, in fill order, from the raw rows of
    the ambient, and each subspace is one tuple of their product.
    Requires a finite field; there is no cap here, so callers check one
    first (check_subspace_cap).
    """
    field = ambient.field
    p = field.p
    d = ambient.dim
    n = ambient.ambient_dim
    dense = ambient.rows
    for pivots in combinations(range(d), k):
        pivot_set = set(pivots)
        row_pivots = tuple([ambient.pivots[pc] for pc in pivots])
        choices = []
        for pc in pivots:
            # B[pc] plus val * B[c] over the free c after pc, the first c varying slowest
            rows = [dense[pc]]
            for c in range(pc + 1, d):
                if c not in pivot_set:
                    b = dense[c]
                    rows = [tuple([(x + val * y) % p for x, y in zip(row, b)]) for row in rows for val in range(p)]
            choices.append(rows)
        for rows in product(*choices):
            yield Subspace(field, n, rows, row_pivots)
