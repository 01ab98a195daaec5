import random
from itertools import chain, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baric import (
    DimensionMismatch,
    EnumerationTooLarge,
    FieldNotFinite,
    FieldSpec,
    Matrix,
    SingularTransform,
    Subspace,
    enumerate_subspaces,
    kernel_basis,
    solve,
    span_of,
)
from baric.linalg import subspace_count

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)


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
    assert t @ t.inverse() == Matrix.identity(Q, 2)
    with pytest.raises(SingularTransform):
        Matrix.of(Q, [[1, 2], [2, 4]]).inverse()
    sol = solve(Matrix.of(Q, [[1, 1], [1, -1]]), [Q.element(4), Q.element(0)])
    assert sol == tuple(Matrix.of(Q, [[2, 2]]).rows[0])
    assert solve(Matrix.of(Q, [[1, 1], [1, 1]]), [Q.element(0), Q.element(1)]) is None


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
