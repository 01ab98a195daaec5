"""Weight functionals and baric algebras.

A baric algebra is an algebra A together with a nonzero algebra
homomorphism w: A -> K, stored here once as the canonical raw values of
its coordinate vector on the chosen basis (`coords` is a FieldElement
view). The homomorphism condition on basis pairs, sum_k c[i,j,k] w_k =
w_i w_j, is checked on construction, so a BaricAlgebra is valid by the
time you hold one.

BaricAlgebra._raw skips that check for the weights the library makes
valid by construction: bowtie's w1 | w2 (Proposition 2.1 of the paper),
random_baric's and random_rational_baric's (_pivot_table solves each
c[i,j,0] from the condition), scalar_action's (any nonzero w satisfies
w(e_i e_j) = w_j w_i) and normalize_weight_one_basis's (the weight pulled
back along an invertible T). Documents, the catalog and every public
constructor keep the check; propcheck's P2.1 tests the paper's statement
on each product it builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from operator import mul
from typing import Sequence

from .algebra import Algebra, Element, _find_unit, change_basis, check_dim
from .errors import (
    CharacteristicObstruction,
    DimensionMismatch,
    EnumerationTooLarge,
    FieldMismatch,
    FieldNotFinite,
    WeightInvalid,
)
from .fields import FieldElement, FieldSpec
from .linalg import (
    Matrix,
    Subspace,
    echelon_add,
    echelon_reduce,
    enumeration_cap,
    iter_vectors,
    kernel_basis,
    span,
)


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
    """An algebra paired with a validated weight functional.

    BaricAlgebra(...) validates the weight; BaricAlgebra._raw pairs a weight
    that is valid by construction (see the module docstring) without it.
    """

    __slots__ = ("algebra", "weight", "provenance")

    def __init__(self, algebra: Algebra, weight: Weight, provenance: BowtieTag | None = None):
        if not validate_weight(algebra, weight):
            raise WeightInvalid("weight is zero or not multiplicative on basis pairs")
        self.algebra = algebra
        self.weight = weight
        self.provenance = provenance

    @classmethod
    def _raw(cls, algebra: Algebra, weight: Weight, provenance: BowtieTag | None = None) -> "BaricAlgebra":
        """The pair of an algebra and a weight the library built valid, not validated again."""
        self = object.__new__(cls)
        self.algebra = algebra
        self.weight = weight
        self.provenance = provenance
        return self

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
        rows = Matrix._raw(self.field, [self.weight.values], self.dim)
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
    """All weight functionals of the algebra over a prime field, in lexicographic order.

    w is a weight iff it is nonzero and w_i w_j = sum_k c[i,j,k] w_k for
    all i, j. Branch and linearise: w_0, w_1, ... are fixed in index order,
    each to every value 0..p-1 that a sparse mod-p echelon system allows
    (just one when the system forces w_i). Fixing w_i = a makes the
    equations of the pairs (i, j) and (j, i) linear, and those with j >= i
    join the system (the rest joined when w_j was fixed); a branch whose
    equations contradict the system is pruned. A leaf has every equation
    in its system, so it is a weight or zero; validate_weight checks it.
    Leaves come out in lexicographic order, that of iter_vectors.

    Over the rationals FieldNotFinite is raised. The cap bounds the branch
    nodes tried, the root and every value tried, pruned or not: EnumerationTooLarge
    is raised on trying node cap + 1, so a cap of 0 refuses any search.
    """
    field, n = algebra.field, algebra.dim
    p = field.p
    if p is None:
        raise FieldNotFinite("weights can only be enumerated over a prime field")
    cap = enumeration_cap(cap)
    too_many = f"the weight search visits more than {cap} branch nodes"
    if cap < 1:
        raise EnumerationTooLarge(too_many)
    found = []
    tried = 1  # the root
    # a node is (w_0 .. w_{i-1}, echelon); echelon rows are sparse over the
    # unknowns 0..n-1 and the constant key n, each row read as row . (w, 1) = 0
    stack = [((), {})]
    while stack:
        prefix, echelon = stack.pop()
        i = len(prefix)
        if i == n:
            w = Weight(field, prefix)
            if validate_weight(algebra, w):
                found.append(w)
            continue
        rest = echelon_reduce(echelon, {i: 1}, p)
        free = bool(rest) and min(rest) < n
        children = []
        for a in range(p) if free else (rest.get(n, 0),):
            tried += 1
            if tried > cap:
                raise EnumerationTooLarge(too_many)
            child = dict(echelon)
            if free:
                echelon_add(child, {**rest, n: rest.get(n, 0) - a}, p)
            if _linearise(algebra, child, i, a):
                children.append((prefix + (a,), child))
        stack.extend(reversed(children))
    return found


def _linearise(algebra: Algebra, echelon: dict, i: int, a: int) -> bool:
    """Add a w_j - sum_k c[i,j,k] w_k = 0 and its mirror for j >= i; False on a contradiction."""
    n, p, by_pair = algebra.dim, algebra.field.p, algebra._by_pair
    for j in range(i, n):
        for pair in {(i, j), (j, i)}:
            eq = {j: a}
            for k, c in by_pair.get(pair, ()):
                eq[k] = eq.get(k, 0) - c
            eq = echelon_reduce(echelon, eq, p)
            if eq:
                if min(eq) == n:
                    return False  # 0 = nonzero constant
                echelon_add(echelon, eq, p)
    return True


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
    return BaricAlgebra._raw(new_algebra, new_weight), t


def scalar_action_table(weight: Weight) -> dict:
    """Raw structure constants of the law x*y = w(y)*x: c[i,j,k] = w_j 1{k=i}, zeros left out."""
    n = len(weight)
    return {(i, j, i): wj for i in range(n) for j, wj in enumerate(weight.values) if wj}


def is_scalar_action(b: BaricAlgebra) -> bool:
    """Basis-level test for the law x*y = w(y)*x, with w the algebra's own weight."""
    return dict(b.algebra.entries()) == scalar_action_table(b.weight)


def scalar_action(field: FieldSpec, weights: Sequence) -> BaricAlgebra:
    """The algebra with x*y = w(y)*x on the chosen basis: c[i,j,k] = w_j 1{k=i}.

    Any nonzero w is a weight of it, w(e_i e_j) = w_j w_i; an empty w raises
    DimensionMismatch and a zero one WeightInvalid.
    """
    w = Weight(field, weights)
    check_dim(len(w))
    if not w.is_nonzero:
        raise WeightInvalid("weight is zero or not multiplicative on basis pairs")
    return BaricAlgebra._raw(Algebra._raw(field, len(w), scalar_action_table(w)), w)


def kpow(field: FieldSpec, n: int) -> BaricAlgebra:
    """The n-th bowtie power of the base field (left-associated).

    It is the all-ones member of scalar_action, c[i,j,k] = 1{k=i}, tagged
    as the product of its first n - 1 and its last coordinates; iterating
    bowtie() over n copies of the one-dimensional baric algebra produces
    exactly this algebra. It is the normal form of classify_scalar_action.
    """
    b = scalar_action(field, [1] * n)
    if n >= 2:
        b.provenance = BowtieTag(n - 1, 1)
    return b


def classify_scalar_action(b: BaricAlgebra) -> tuple[Matrix, BaricAlgebra] | None:
    """Detect the law x*y = w(y)*x and produce a verified normal form.

    Returns None when the law fails. Otherwise returns (iso, target)
    where target is the scalar-action algebra with identity constants and
    all-ones weight, and iso is the matrix of a weight-preserving
    isomorphism onto it (baric_isomorphic_by(iso, b, target) holds).
    When the input is already in that normal form the isomorphism is the
    identity; otherwise the weight-one basis construction of
    normalize_weight_one_basis runs. Where its averaging meets a vanishing
    partial weight sum over F_p, the kernel-shift basis is used instead
    (_kernel_shift_basis), so every scalar action over every field
    classifies onto K^n.
    """
    if not is_scalar_action(b):
        return None
    n = b.dim
    target = kpow(b.field, n)
    if b.algebra == target.algebra and b.weight == target.weight:
        return Matrix.identity(b.field, n), target
    try:
        normalized, t = normalize_weight_one_basis(b)
    except CharacteristicObstruction:
        t = _kernel_shift_basis(b)
        weight = Weight(b.field, [b.weight.at(row) for row in t.values])
        normalized = BaricAlgebra._raw(change_basis(b.algebra, t), weight)
    if normalized.algebra != target.algebra or normalized.weight != target.weight:
        raise AssertionError("scalar-action normalization missed the normal form")
    return t.inverse(), target


def _kernel_shift_basis(b: BaricAlgebra) -> Matrix:
    """A basis of weight-one vectors over any field: v, v + k_2, ..., v + k_n.

    v is e_l / w_l for the first l with w_l nonzero and k_2 .. k_n are the
    rows of Ker w, so the rows are invertible and each has weight one. In a
    scalar action e'_i e'_j = w(e'_j) e'_i = e'_i in this basis.
    """
    field = b.field
    lead = next(i for i, wi in enumerate(b.weight.values) if wi)
    v = [0] * b.dim
    v[lead] = (field.one / b.weight.coords[lead]).value
    rows = [v] + [[a + c for a, c in zip(v, k)] for k in b.kernel().rows]
    return Matrix._raw(field, rows, b.dim)


def baric_isomorphic_by(f: Matrix, b1: BaricAlgebra, b2: BaricAlgebra) -> bool:
    """Check that the row-vector map x -> x @ f is a weight-preserving isomorphism.

    True iff f is invertible, the target weight pulls back to the source
    weight on every basis vector, and the target algebra written in the
    basis of the rows of f (change_basis) has the source's structure
    constants, i.e. f is multiplicative on all basis pairs. An invertible f over
    another field than b2 raises FieldMismatch.
    """
    if f.nrows != b1.dim or f.ncols != b2.dim:
        raise DimensionMismatch("map matrix must be dim(source) x dim(target)")
    if f.nrows != f.ncols or not f.is_invertible:
        return False
    if f.field is not b2.field:
        raise FieldMismatch(f"{b2.field!r} vs {f.field!r}")
    # the pull-back w2(e_i @ f) on raw values; b1 over another field fails below if not here
    if b2.field.canon([b2.weight.at(row) for row in f.values]) != b1.weight.values:
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
    A limit stops the search once that many are found: a limit of 0 examines
    nothing and returns [], and a negative limit raises ValueError.

    Each candidate x is tested for w(x) = 1 first, then for x^2 = x one
    coordinate at a time (_square_is_self): a candidate is rejected at the
    first coordinate of x^2 - x that is nonzero, so over F_p a rejection
    costs about p/(p-1) quadratic forms of about n^2 work each, not an n^3
    product.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be nonnegative, got {limit}")
    one = b.field.one
    if b.field.is_finite:
        pool = (Element._raw(b.algebra, v) for v in iter_vectors(b.field, b.dim, cap))
    else:
        pool = [
            b.basis_element(i).scaled(one / wi) for i, wi in enumerate(b.weight.coords) if wi
        ]
        unit = _find_unit(b.algebra)
        if unit is not None and unit not in pool:
            pool.append(unit)
    square_is_self = _square_is_self(b.algebra)
    # islice tests the limit before it draws each candidate
    return list(islice((x for x in pool if b.weight(x) == one and square_is_self(x.values)), limit))


def _square_is_self(algebra: Algebra):
    """A test of x * x == x on raw coordinates, one coordinate of x * x at a time.

    Coordinate k of x * x is the quadratic form sum_ij x_i x_j c[i,j,k],
    kept as its nonzero rows only, {i: [c[i,0,k], ..., c[i,n-1,k]]}; the
    test returns False at the first k where the form minus x_k is nonzero
    (mod p over F_p).
    """
    n, p = algebra.dim, algebra.field.p
    forms: list[dict] = [{} for _ in range(n)]
    for (i, j), entries in algebra._by_pair.items():
        for k, c in entries:
            forms[k].setdefault(i, [0] * n)[j] = c

    def square_is_self(x) -> bool:
        for xk, form in zip(x, forms):
            s = sum([xi * sum(map(mul, row, x)) for i, row in form.items() if (xi := x[i])]) - xk
            if s if p is None else s % p:
                return False
        return True

    return square_is_self
