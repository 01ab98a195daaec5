import random
import time
from fractions import Fraction
from itertools import chain, combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF, QQ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError

from baric import (
    Algebra,
    DimensionMismatch,
    EnumerationTooLarge,
    FieldMismatch,
    FieldNotFinite,
    FieldSpec,
    Matrix,
    SingularTransform,
    Subspace,
    change_basis,
    enumerate_subspaces,
    kernel_basis,
    solve,
    span,
    span_of,
)
from baric.linalg import _times, membership, row_times_matrix, subspace_count

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
ORACLE_FIELDS = [Q, F2, F3, FieldSpec.prime(5), FieldSpec.prime(4099)]


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Independent counting oracle: product formula with exact integers."""
    num, den = 1, 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def galois_number(n: int, q: int) -> int:
    return sum(gaussian_binomial(n, k, q) for k in range(n + 1))


def brute_force_subspaces(field, n):
    """Second oracle: span every subset of F^n and deduplicate."""
    vectors = [
        tuple(field.element(v) for v in combo)
        for combo in _all_tuples(field.p, n)
    ]
    seen = set()
    for subset in chain.from_iterable(
        combinations(vectors, r) for r in range(min(len(vectors), n) + 1)
    ):
        seen.add(span_of(field, n, subset))
    return seen


def _all_tuples(p, n):
    if n == 0:
        yield ()
        return
    for rest in _all_tuples(p, n - 1):
        for v in range(p):
            yield (v,) + rest


def test_rref_examples():
    m = Matrix.of(Q, [[2, 4], [1, 2]])
    assert m.rref() == Matrix.of(Q, [[1, 2], [0, 0]])
    assert span_of(Q, 2, [[2, 4], [1, 2]]).basis == Matrix.of(Q, [[1, 2]]).rows

    ident = Matrix.identity(Q, 3)
    assert ident.rref() == ident

    m2 = Matrix.of(F2, [[1, 1], [1, 0]])  # [[1,1],[1,2]] with 2 = 0 mod 2
    assert m2.rref() == Matrix.identity(F2, 2)


def test_span_examples():
    assert span_of(Q, 3, []).dim == 0
    collinear = span_of(Q, 2, [[1, -1], [2, -2]])
    assert collinear.dim == 1
    assert collinear.basis == Matrix.of(Q, [[1, -1]]).rows
    assert span_of(F2, 3, [[1, 0, 1], [0, 1, 1]]).dim == 2


def test_span_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        span_of(Q, 2, [[1, 2, 3]])


def test_foreign_entries_rejected():
    f5_row = tuple(FieldSpec.prime(5).element(x) for x in (1, 4, 2))
    with pytest.raises(FieldMismatch):
        span(F3, 3, [f5_row])
    with pytest.raises(TypeError):
        span(F3, 3, [(1, 2, 0)])
    with pytest.raises(FieldMismatch):
        solve(Matrix.of(F3, [[1, 0, 0]]), f5_row[:1])


def test_subspace_ops_examples():
    e1 = span_of(Q, 2, [[1, 0]])
    e2 = span_of(Q, 2, [[0, 1]])
    assert (e1 + e2) == Subspace.full(Q, 2)
    assert e1.intersect(e2).dim == 0

    u = span_of(Q, 3, [[1, 1, 0], [0, 0, 1]])
    v = span_of(Q, 3, [[1, 1, 1]])
    assert u.intersect(v) == v
    assert u.contains(v)
    assert not v.contains(u)


def test_subspace_canonicity():
    a = span_of(Q, 3, [[1, 2, 3], [0, 1, 1]])
    b = span_of(Q, 3, [[1, 3, 4], [0, 2, 2]])
    assert a == b and hash(a) == hash(b)
    respanned = span_of(Q, 3, [[str(x) for x in row] for row in a.basis])
    assert respanned == a


def test_matrix_inverse_and_solve():
    t = Matrix.of(Q, [[1, 2], [3, 4]])
    inv = t.inverse()
    assert Matrix(Q, [row_times_matrix(r, inv) for r in t.rows]) == Matrix.identity(Q, 2)
    with pytest.raises(SingularTransform):
        Matrix.of(Q, [[1, 2], [2, 4]]).inverse()
    sol = solve(Matrix.of(Q, [[1, 1], [1, -1]]), [Q.element(4), Q.element(0)])
    assert sol == tuple(Matrix.of(Q, [[2, 2]]).rows[0])
    assert solve(Matrix.of(Q, [[1, 1], [1, 1]]), [Q.element(0), Q.element(1)]) is None


def test_transpose_of_a_matrix_with_no_rows():
    empty = Matrix(F3, [], 3)
    t = empty.transpose()
    assert (t.nrows, t.ncols) == (3, 0)
    assert t.rows == ((), (), ())
    assert t.transpose() == empty
    wide = Matrix.of(Q, [[1, 2, 3]])
    assert (wide.transpose().nrows, wide.transpose().ncols) == (3, 1)
    assert wide.transpose().transpose() == wide


def test_kernel_basis():
    m = Matrix.of(Q, [[1, 1, 1]])
    basis = kernel_basis(m)
    assert len(basis) == 2
    for v in basis:
        total = Q.zero
        for x in v:
            total = total + x
        assert total == Q.zero


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (3, 4)])
def test_enumeration_counts_match_galois_numbers(p, n):
    field = FieldSpec.prime(p)
    subs = list(enumerate_subspaces(Subspace.full(field, n)))
    assert len(subs) == galois_number(n, p) == subspace_count(p, n)
    assert len(set(subs)) == len(subs)


def test_enumeration_examples():
    assert len(list(enumerate_subspaces(Subspace.full(F2, 1)))) == 2
    assert len(list(enumerate_subspaces(Subspace.full(F2, 2)))) == 5
    assert len(list(enumerate_subspaces(Subspace.full(F2, 3)))) == 16


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2)])
def test_enumeration_matches_brute_force(p, n):
    field = FieldSpec.prime(p)
    fast = set(enumerate_subspaces(Subspace.full(field, n)))
    assert fast == brute_force_subspaces(field, n)


def test_enumeration_of_proper_ambient():
    ambient = span_of(F2, 4, [[1, 0, 0, 1], [0, 1, 1, 0]])
    subs = list(enumerate_subspaces(ambient))
    assert len(subs) == galois_number(2, 2)
    for s in subs:
        assert ambient.contains(s)


def test_enumeration_errors():
    with pytest.raises(FieldNotFinite):
        list(enumerate_subspaces(Subspace.full(Q, 2)))
    with pytest.raises(EnumerationTooLarge):
        list(enumerate_subspaces(Subspace.full(F2, 4), cap=8))


def _random_subspace(rng, field, n):
    count = rng.randint(0, n)
    if field.p is None:
        vecs = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(count)]
    else:
        vecs = [[rng.randrange(field.p) for _ in range(n)] for _ in range(count)]
    return span_of(field, n, vecs)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([Q, F2, F3]),
    st.integers(1, 4),
    st.integers(0, 10_000),
)
def test_dimension_formula(field, n, seed):
    rng = random.Random(seed)
    u = _random_subspace(rng, field, n)
    v = _random_subspace(rng, field, n)
    total = u.sum(v)
    meet = u.intersect(v)
    assert total.dim + meet.dim == u.dim + v.dim
    assert total.contains(u) and total.contains(v)
    assert u.contains(meet) and v.contains(meet)


# Independent oracle: sympy's DomainMatrix over QQ and GF(p). Entries cross
# the boundary as Fractions or ints; nothing of baric's arithmetic is used.


def _domain(field):
    return QQ if field.p is None else GF(field.p)


def _to_oracle(field, rows, ncols):
    K = _domain(field)
    entries = [[K.convert(x.value) for x in row] for row in rows]
    return DomainMatrix(entries, (len(entries), ncols), K)


def _from_oracle(field, entries):
    if field.p is None:
        return [[Fraction(int(x.numerator), int(x.denominator)) for x in row] for row in entries]
    return [[int(x) % field.p for x in row] for row in entries]


def _values(rows):
    return [[x.value for x in row] for row in rows]


@st.composite
def oracle_matrices(draw, square=False):
    """A field from Q, F_2, F_3, F_5, F_4099 and a small matrix over it.

    Entries are zero half of the time, so that rank drops and free columns
    are common.
    """
    field = draw(st.sampled_from(ORACLE_FIELDS))
    nrows = draw(st.integers(0, 5)) if not square else draw(st.integers(1, 4))
    ncols = nrows if square else draw(st.integers(1, 5))
    if field.p is None:
        nonzero = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    else:
        nonzero = st.integers(1, field.p - 1)
    entry = st.one_of(st.just(0), nonzero)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    return Matrix.of(field, rows, ncols)


def _oracle_rref(m: Matrix):
    reduced, pivots = _to_oracle(m.field, m.rows, m.ncols).rref()
    return _from_oracle(m.field, reduced.to_list())[: len(pivots)], list(pivots)


@settings(max_examples=150, deadline=None)
@given(oracle_matrices())
def test_span_and_rank_match_sympy(m):
    rows, pivots = _oracle_rref(m)
    s = span(m.field, m.ncols, m.rows)
    assert [list(r) for r in s.rows] == _values(s.basis) == rows
    assert list(s.pivots) == pivots
    assert m.rank() == len(pivots) == _to_oracle(m.field, m.rows, m.ncols).rank()


@settings(max_examples=150, deadline=None)
@given(oracle_matrices())
def test_kernel_basis_matches_sympy(m):
    _, pivots = _oracle_rref(m)
    free = [j for j in range(m.ncols) if j not in pivots]
    basis = kernel_basis(m)
    # one vector per free column: 1 there, 0 at the other free columns
    assert len(basis) == len(free)
    for v, f in zip(basis, free):
        assert [v[j].value for j in free] == [int(j == f) for j in free]
    ours = span(m.field, m.ncols, basis) if basis else Subspace.zero_space(m.field, m.ncols)
    oracle = _to_oracle(m.field, m.rows, m.ncols).nullspace()
    oracle_rows, _ = _oracle_rref(Matrix.of(m.field, _from_oracle(m.field, oracle.to_list()), m.ncols))
    assert _values(ours.basis) == oracle_rows


@settings(max_examples=150, deadline=None)
@given(oracle_matrices(), st.data())
def test_solve_matches_sympy(m, data):
    field = m.field
    b = Matrix.of(field, [[data.draw(st.integers(0, 6))] for _ in range(m.nrows)], 1)
    aug = [r + c for r, c in zip(m.rows, b.rows)]
    reduced, pivots = _to_oracle(field, aug, m.ncols + 1).rref()
    x = solve(m, [c[0] for c in b.rows])
    if m.ncols in pivots:
        assert x is None
        return
    # the solution with every free variable zero, read off sympy's RREF
    expected = [0] * m.ncols
    reduced = _from_oracle(field, reduced.to_list())
    for r, pc in enumerate(pivots):
        expected[pc] = reduced[r][m.ncols]
    assert x is not None and [v.value for v in x] == expected


@settings(max_examples=150, deadline=None)
@given(oracle_matrices(square=True))
def test_inverse_matches_sympy(m):
    oracle = _to_oracle(m.field, m.rows, m.ncols)
    try:
        expected = _from_oracle(m.field, oracle.inv().to_list())
    except DMNonInvertibleMatrixError:
        with pytest.raises(SingularTransform):
            m.inverse()
        return
    assert _values(m.inverse().rows) == expected


@st.composite
def rational_matrices(draw, square=False):
    """A field from ORACLE_FIELDS and a matrix over it at the shapes the library
    eliminates, built through Matrix._raw.

    Square n x n up to n = 12, which inverse augments to n x 2n, or else one
    of n x n, n x 2n and the tall n^2 x n systems of the unit and centre
    solvers, up to n = 7. Over Q numerators lie in -50..50 and denominators
    in 1..9; over F_p nonzero entries are residues 1..p-1. Zeros are int 0s,
    as _find_unit and commutative_center pass them. A column, or a row of a
    square matrix, may be the negative of an earlier one, so that ranks drop
    and free columns appear.
    """
    field = draw(st.sampled_from(ORACLE_FIELDS))
    n = draw(st.integers(1, 12 if square else 7))
    nrows, ncols = (n, n) if square else draw(st.sampled_from([(n, n), (n, 2 * n), (n * n, n)]))
    zeros = draw(st.sampled_from([0.0, 0.5, 0.9]))
    # entries come from a drawn seed: an n^2 x n matrix is too large to draw entrywise
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rows = [[0 if rng.random() < zeros else _random_entry(rng, field) for _ in range(ncols)] for _ in range(nrows)]
    if ncols > 1 and draw(st.booleans()):
        j = draw(st.integers(1, ncols - 1))
        i = draw(st.integers(0, j - 1))
        for row in rows:
            row[j] = -row[i]
    if square and n > 1 and draw(st.booleans()):
        j = draw(st.integers(1, n - 1))
        rows[j] = [-x for x in rows[draw(st.integers(0, j - 1))]]
    return Matrix._raw(field, rows, ncols)


def _random_entry(rng, field):
    """One drawn raw entry: a Fraction over Q, a residue 1..p-1 over F_p."""
    if field.p is None:
        return Fraction(rng.randint(-50, 50), rng.randint(1, 9))
    return rng.randint(1, field.p - 1)


def _canonical(field, rows):
    """Every raw entry is a Fraction over Q, an int in [0, p) over F_p."""
    if field.p is None:
        return all(type(x) is Fraction for row in rows for x in row)
    return all(type(x) is int and 0 <= x < field.p for row in rows for x in row)


@settings(max_examples=150, deadline=None)
@given(rational_matrices())
def test_rational_rref_and_rank_match_sympy(m):
    rows, pivots = _oracle_rref(m)
    reduced = m.rref()
    assert [list(r) for r in reduced.values[: len(pivots)]] == rows
    assert not any(any(r) for r in reduced.values[len(pivots) :])
    s = span(m.field, m.ncols, m.rows)
    assert [list(r) for r in s.rows] == rows and list(s.pivots) == pivots
    assert m.rank() == len(pivots)
    assert _canonical(m.field, reduced.values) and _canonical(m.field, s.rows)


@settings(max_examples=150, deadline=None)
@given(rational_matrices())
def test_rational_kernel_basis_matches_sympy(m):
    field = m.field
    oracle = _to_oracle(field, m.rows, m.ncols).nullspace()
    oracle_rows, _ = _oracle_rref(Matrix.of(field, _from_oracle(field, oracle.to_list()), m.ncols))
    basis = kernel_basis(m)
    ours = span(field, m.ncols, basis) if basis else Subspace.zero_space(field, m.ncols)
    assert len(basis) == len(oracle_rows)
    assert [list(r) for r in ours.rows] == oracle_rows
    assert _canonical(field, _values(basis)) and _canonical(field, ours.rows)


@settings(max_examples=150, deadline=None)
@given(rational_matrices(), st.booleans(), st.integers(0, 2**32 - 1))
def test_rational_solve_matches_sympy(m, consistent, seed):
    field = m.field
    rng = random.Random(seed)
    if consistent:  # b = m x: a tall system is almost never consistent otherwise
        x0 = [_random_entry(rng, field) for _ in range(m.ncols)]
        b = [sum(a * c for a, c in zip(row, x0)) for row in m.values]
    else:
        b = [_random_entry(rng, field) for _ in range(m.nrows)]
    b = field.wrap(b)
    reduced, pivots = _to_oracle(field, [r + (c,) for r, c in zip(m.rows, b)], m.ncols + 1).rref()
    x = solve(m, b)
    if m.ncols in pivots:
        assert x is None and not consistent
        return
    expected = [0] * m.ncols
    reduced = _from_oracle(field, reduced.to_list())
    for r, pc in enumerate(pivots):
        expected[pc] = reduced[r][m.ncols]
    assert x is not None and [v.value for v in x] == expected
    assert _canonical(field, _values([x]))


@settings(max_examples=100, deadline=None)
@given(rational_matrices(square=True))
def test_rational_inverse_matches_sympy(m):
    try:
        expected = _from_oracle(m.field, _to_oracle(m.field, m.rows, m.ncols).inv().to_list())
    except DMNonInvertibleMatrixError:
        with pytest.raises(SingularTransform):
            m.inverse()
        return
    inverse = m.inverse()
    assert [list(r) for r in inverse.values] == expected
    assert _canonical(m.field, inverse.values)


def test_rational_inverse_of_a_24x24_matrix_is_fast():
    # Fraction elimination took about 0.15 s here
    rng = random.Random(24)
    m = Matrix.of(Q, [[Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(24)] for _ in range(24)])
    start = time.perf_counter()
    inverse = m.inverse()
    assert time.perf_counter() - start < 0.1
    assert Matrix(Q, [row_times_matrix(r, inverse) for r in m.rows]) == Matrix.identity(Q, 24)


def _fraction_row_times_matrix(v, m):
    """v @ m term by term in Fraction arithmetic, reduced mod p over F_p: the
    reference for row_times_matrix and linalg._times."""
    out = [Fraction(0)] * m.ncols
    for vi, r in zip(v, m.values):
        for j, rj in enumerate(r):
            out[j] += Fraction(vi) * rj
    return out if m.field.p is None else [int(x) % m.field.p for x in out]


def test_rational_row_times_matrix_matches_the_fraction_loop():
    rng = random.Random(26)

    def entry(p):  # zeros half of the time; over Q mixed denominators, one above 10^30
        if rng.random() < 0.5:
            return 0
        if p is None:
            return Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 6, 7, 9, 10**31 + 9]))
        return rng.randrange(1, p)

    for field, _ in product(ORACLE_FIELDS, range(300)):
        p = field.p
        nrows, ncols = rng.randint(0, 7), rng.randint(1, 7)
        m = Matrix._raw(field, [[entry(p) for _ in range(ncols)] for _ in range(nrows)], ncols)
        u = rng.randrange(max(nrows, 1))
        # a multi-row x with an all-zero row; nrows = 0 is the zero space of Subspace.intersect
        x = [[entry(p) for _ in range(nrows)], [0] * nrows, [int(i == u) for i in range(nrows)]]
        expected = [_fraction_row_times_matrix(v, m) for v in x]
        got = _times(p, x, m.values, ncols)
        assert got == expected and _canonical(field, got)
        got = [[e.value for e in row_times_matrix(field.wrap(v), m)] for v in x]
        assert got == expected and _canonical(field, got)


def test_membership_matches_the_span_dimension_oracle():
    # v lies in s exactly when s's rows plus v span a space of dim s
    rng = random.Random(34)

    def scalar(p):  # over Q mixed denominators, one above 10^30
        if p is None:
            return Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 7, 10**31 + 9]))
        return rng.randrange(p)

    for field, _ in product(ORACLE_FIELDS, range(200)):
        p, n = field.p, rng.randint(0, 6)
        kind = rng.choice(["zero", "full", "span", "span", "span"])
        if kind == "zero":
            s = Subspace.zero_space(field, n)
        elif kind == "full":
            s = Subspace.full(field, n)
        else:
            s = span(field, n, [field.wrap([scalar(p) for _ in range(n)]) for _ in range(rng.randint(1, 3))])
        free = [f for f in range(n) if f not in s.pivots]
        vectors = []
        for _ in range(4):
            v = [0] * n
            for row in s.rows:
                c = scalar(p)
                v = [x + c * y for x, y in zip(v, row)]
            vectors.append(v)
            # off s by a nonzero step at the last free column and at a random one
            for f in free[-1:] + rng.sample(free, min(len(free), 1)):
                off = list(v)
                off[f] += rng.randrange(1, p) if p else Fraction(rng.choice([1, -3]), rng.choice([1, 10**31 + 9]))
                vectors.append(off)
        inside = membership(s)
        for v in vectors:
            expected = span(field, n, list(s.basis) + [field.wrap(v)]).dim == s.dim
            assert inside(v) == expected
            if p:  # unreduced, as the sums of c G in ideals._keeps reach it
                assert inside([x + p * rng.randint(-3, 3) for x in v]) == expected
            assert s.contains_vector(field.wrap(v)) == expected
        t = span(field, n, [field.wrap(v) for v in rng.sample(vectors, rng.randint(0, 3))])
        assert s.contains(t) == (span(field, n, list(s.basis) + list(t.basis)).dim == s.dim)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ORACLE_FIELDS), st.integers(1, 6), st.integers(0, 2**32 - 1), st.booleans())
def test_rational_change_basis_matches_sympy(field, n, seed, permutation):
    # c'[i,j,:] = (sum over a, b of T[i][a] T[j][b] c[a,b,:]) T^-1, in sympy's QQ or GF(p);
    # a permutation T is a swap map of P3.1, whose T^-1 is as sparse as T
    rng = random.Random(seed)

    def entry():
        if field.p is None:
            return Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 5, 8, 10**31 + 9]))
        return rng.randrange(field.p)

    density = rng.choice([0.2, 0.6, 1.0])
    a = Algebra(field, n, {key: entry() for key in product(range(n), repeat=3) if rng.random() < density})
    if permutation:
        perm = rng.sample(range(n), n)
        t = Matrix._raw(field, [[field.one.value if c == perm[r] else 0 for c in range(n)] for r in range(n)], n)
    else:
        t = Matrix._raw(field, [[entry() if rng.random() < 0.7 else 0 for _ in range(n)] for _ in range(n)], n)
    K = _domain(field)
    oracle_t = _to_oracle(field, t.rows, n)
    try:
        oracle_inverse = oracle_t.inv()
    except DMNonInvertibleMatrixError:
        with pytest.raises(SingularTransform):
            change_basis(a, t)
        return
    rows = oracle_t.to_list()
    constants = [(key, K.convert(c)) for key, c in a.entries()]
    expected = {}
    for i, j in product(range(n), repeat=2):
        product_ij = [K.zero] * n
        for (u, v, k), c in constants:
            product_ij[k] += rows[i][u] * rows[j][v] * c
        new = (DomainMatrix([product_ij], (1, n), K) * oracle_inverse).to_list()[0]
        expected.update({(i, j, k): x for k, x in enumerate(_from_oracle(field, [new])[0]) if x})
    assert dict(change_basis(a, t).entries()) == expected
