"""Differential tests for the raw-value kernels.

`enumerate_subspaces`, `sidedness`, `is_two_sided_ideal`,
`ideal_closure`, `product_coords` and the associativity and
alternativity flags of `property_flags` compute on raw values (int
residues, Fractions) internally. Each is compared here with a
construction written in FieldElement arithmetic that shares none of
those kernels: `span` of rows mapped by `row_times_matrix`; products as
the triple sum over the structure constants `a.table`; membership as
"adding the vector to the basis leaves the `span` dimension unchanged";
and, over F_2 and F_3, the algebra identities checked on every element.
"""

import random
import time
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baric import (
    Algebra,
    EnumerationTooLarge,
    FieldSpec,
    ParseError,
    Sided,
    Subspace,
    enumerate_subspaces,
    ideal_closure,
    is_two_sided_ideal,
    kernel_ideals,
    kpow,
    property_flags,
    random_baric,
    sidedness,
    span,
    span_of,
)
from baric import ideals, io
from baric.catalog import scalar_action, truncated_polynomials
from baric.cli import main
from baric.linalg import check_subspace_cap, row_times_matrix, subspace_count

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)
F4099 = FieldSpec.prime(4099)  # above the interning limit


def reference_subspaces(ambient: Subspace):
    """Reduced-echelon coefficient rows in FieldElements, mapped and re-spanned."""
    field = ambient.field
    d = ambient.dim
    elems = list(field.elements())
    zero, one = field.zero, field.one
    for k in range(d + 1):
        for pivots in combinations(range(d), k):
            free_pos = [
                (r, c)
                for r in range(k)
                for c in range(pivots[r] + 1, d)
                if c not in pivots
            ]
            for fill in product(elems, repeat=len(free_pos)):
                rows = [[zero] * d for _ in range(k)]
                for r, pc in enumerate(pivots):
                    rows[r][pc] = one
                for (r, c), val in zip(free_pos, fill):
                    rows[r][c] = val
                mapped = [row_times_matrix(r, ambient.basis_matrix()) for r in rows]
                yield span(field, ambient.ambient_dim, mapped)


def _random_vectors(rng, field, n, count):
    if field.p is None:
        draw = lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    else:
        draw = lambda: rng.randrange(field.p)
    return [[draw() if rng.random() < 0.6 else 0 for _ in range(n)] for _ in range(count)]


def _random_algebra(rng, field, n, density=0.3):
    """Sparse random structure constants, so that small ideals occur."""
    table = {}
    for (i, j, k), (c,) in zip(
        product(range(n), repeat=3), _random_vectors(rng, field, 1, n**3)
    ):
        if rng.random() < density:
            table[(i, j, k)] = c
    return Algebra(field, n, table)


def reference_product(a: Algebra, x, y) -> tuple:
    """x * y as the triple sum over the structure constants."""
    out = [a.field.zero] * a.dim
    for (i, j, k), c in a.table.items():
        out[k] = out[k] + x[i] * y[j] * c
    return tuple(out)


def reference_contains(s: Subspace, v) -> bool:
    return span(s.field, s.ambient_dim, s.basis + (tuple(v),)).dim == s.dim


def reference_sidedness(a: Algebra, s: Subspace) -> Sided:
    def closed(left):
        for v in s.basis:
            for j in range(a.dim):
                e = a.basis_element(j).coords
                image = reference_product(a, e, v) if left else reference_product(a, v, e)
                if not reference_contains(s, image):
                    return False
        return True

    if not closed(False):
        return Sided.NONE
    return Sided.TWO_SIDED if closed(True) else Sided.RIGHT


def reference_closure(a: Algebra, gens, side: Sided) -> Subspace:
    """Re-span the whole basis with all its products until nothing grows."""
    current = span(a.field, a.dim, [g.coords for g in gens])
    while True:
        vectors = list(current.basis)
        for v in current.basis:
            for j in range(a.dim):
                e = a.basis_element(j).coords
                vectors.append(reference_product(a, v, e))
                if side is Sided.TWO_SIDED:
                    vectors.append(reference_product(a, e, v))
        grown = span(a.field, a.dim, vectors)
        if grown == current:
            return current
        current = grown


@st.composite
def proper_ambients(draw):
    field, max_d = draw(st.sampled_from([(F2, 5), (F3, 4), (F5, 3), (F4099, 2)]))
    n = draw(st.integers(1, max_d + 2))
    d = draw(st.integers(0, min(max_d, n - 1)))
    rng = random.Random(draw(st.integers(0, 10_000)))
    ambient = span_of(field, n, _random_vectors(rng, field, n, d))
    return ambient


@settings(max_examples=40, deadline=None)
@given(proper_ambients())
def test_enumeration_matches_reference_construction(ambient):
    assert ambient.dim < ambient.ambient_dim
    fast = list(enumerate_subspaces(ambient))
    assert fast == list(reference_subspaces(ambient))
    assert len(fast) == subspace_count(ambient.field.p, ambient.dim)


@pytest.mark.parametrize("field", [F2, F3, F5, F4099])
def test_enumeration_of_full_space_matches_reference(field):
    n = 2 if field is F4099 else 3
    full = Subspace.full(field, n)
    assert list(enumerate_subspaces(full)) == list(reference_subspaces(full))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([Q, F2, F3, F5, F4099]),
    st.integers(1, 5),
    st.booleans(),
    st.integers(0, 10_000),
)
def test_sidedness_matches_reference(field, n, scalar, seed):
    rng = random.Random(seed)
    if scalar:
        # x*y = w(y) x: every subspace is a right ideal, few are two-sided
        a = scalar_action(field, [rng.choice([0, 1, 2]) for _ in range(n - 1)] + [1]).algebra
    else:
        a = _random_algebra(rng, field, n)
    vectors = _random_vectors(rng, field, n, rng.randint(0, n))
    gens = [a.element(v) for v in vectors]
    candidates = [span_of(field, n, vectors)]
    for side in (Sided.RIGHT, Sided.TWO_SIDED):
        closure = ideal_closure(a, gens, side)
        assert closure.space == reference_closure(a, gens, side)
        assert closure.sided is reference_sidedness(a, closure.space)
        candidates.append(closure.space)
    for s in candidates:
        expected = reference_sidedness(a, s)
        assert sidedness(a, s) is expected
        assert is_two_sided_ideal(a, s) == (expected is Sided.TWO_SIDED)


@st.composite
def small_algebras(draw, fields, max_dim=4, commutative=False):
    """Sparse random tensors of dim <= max_dim, with associative families mixed in.

    With commutative=True, symmetrized sparse tensors (c[i,j,k] = c[j,i,k])
    join the mix.
    """
    field = draw(st.sampled_from(fields))
    n = draw(st.integers(1, max_dim))
    rng = random.Random(draw(st.integers(0, 10_000)))
    kinds = ["sparse", "sparse", "sparse", "scalar", "chain"]
    if commutative:
        kinds += ["commutative", "commutative"]
    kind = draw(st.sampled_from(kinds))
    if kind == "scalar":
        return scalar_action(field, [rng.randrange(2) for _ in range(n - 1)] + [1]).algebra
    if kind == "chain":
        return truncated_polynomials(field, n).algebra
    a = _random_algebra(rng, field, n, draw(st.sampled_from([0.1, 0.2, 0.3])))
    if kind == "commutative":  # keep the i <= j half and mirror it
        table = {}
        for (i, j, k), c in a.table.items():
            if i <= j:
                table[i, j, k] = table[j, i, k] = c
        return Algebra(field, n, table)
    return a


@settings(max_examples=60, deadline=None)
@given(small_algebras([F2, F3, Q]), st.integers(0, 10_000))
def test_product_matches_triple_sum(a, seed):
    rng = random.Random(seed)
    x, y = (a.element(v).coords for v in _random_vectors(rng, a.field, a.dim, 2))
    assert a.product_coords(x, y) == list(reference_product(a, x, y))
    units = [a.basis_element(i).coords for i in range(a.dim)]
    for e in units:
        for f in units:
            assert a.product_coords(e, f) == list(reference_product(a, e, f))


def assert_flags_match_every_element(a: Algebra) -> None:
    """Check the identity flags of an algebra over a finite field on every element."""
    elements = [tuple(v) for v in product(a.field.elements(), repeat=a.dim)]
    index = {x: m for m, x in enumerate(elements)}
    mul = [[index[reference_product(a, x, y)] for y in elements] for x in elements]
    every = range(len(elements))
    associative = all(mul[mul[x][y]][z] == mul[x][mul[y][z]] for x in every for y in every for z in every)
    left = all(mul[mul[x][x]][y] == mul[x][mul[x][y]] for x in every for y in every)
    right = all(mul[y][mul[x][x]] == mul[mul[y][x]][x] for x in every for y in every)
    flags = property_flags(a)
    assert (flags.associative, flags.left_alternative, flags.right_alternative) == (
        associative,
        left,
        right,
    )


@settings(max_examples=60, deadline=None)
@given(small_algebras([F2], commutative=True))
def test_identity_flags_match_every_element_over_f2(a):
    assert_flags_match_every_element(a)


@settings(max_examples=30, deadline=None)
@given(small_algebras([F3], max_dim=3, commutative=True))
def test_identity_flags_match_every_element_over_f3(a):
    assert_flags_match_every_element(a)


def test_closure_spins_to_the_fixpoint():
    a = truncated_polynomials(Q, 5).algebra
    x = a.basis_element(1)  # x, x^2, x^3, x^4 each need the one before
    closure = ideal_closure(a, [x], Sided.TWO_SIDED)
    assert closure.space == reference_closure(a, [x], Sided.TWO_SIDED)
    assert closure.space.dim == 4


def test_subspace_count_values():
    assert subspace_count(2, 11) == 8933488744
    assert subspace_count(2, 20) > 9 * 10**30


def test_cap_bounds_the_subspaces_visited():
    full = Subspace.full(F2, 4)  # 67 subspaces, only 16 vectors
    assert len(list(enumerate_subspaces(full, cap=67))) == 67
    with pytest.raises(EnumerationTooLarge):
        next(enumerate_subspaces(full, cap=66))


def test_cap_refusal_never_prints_the_count():
    # F_2^250 has more than 4,300 digits of subspaces, past what Python prints as an int
    with pytest.raises(EnumerationTooLarge, match=r"^F_2\^250 has more subspaces than the enumeration cap 1048576$"):
        next(enumerate_subspaces(Subspace.full(F2, 250)))


def test_cap_refusal_stops_summing_past_the_cap():
    full = Subspace.full(F2, 1000)
    start = time.perf_counter()
    with pytest.raises(EnumerationTooLarge):
        check_subspace_cap(full)
    assert time.perf_counter() - start < 0.1


def test_cap_boundary_is_the_exact_subspace_count():
    full, cap = Subspace.full(F2, 11), subspace_count(2, 11)
    check_subspace_cap(full, cap)
    with pytest.raises(EnumerationTooLarge, match=f"F_2\\^11 has more subspaces than the enumeration cap {cap - 1}$"):
        check_subspace_cap(full, cap - 1)


def record_restricted_maps(monkeypatch):
    """Record each ideal whose restricted maps are built, the first work of kernel_ideals' walk."""
    built = []
    restricted_maps = ideals._restricted_maps
    monkeypatch.setattr(ideals, "_restricted_maps", lambda a, v: built.append(v) or restricted_maps(a, v))
    return built


def test_dim12_kernel_lattice_is_refused_at_once(monkeypatch, tmp_path, capsys):
    b = kpow(F2, 12)  # Ker w has 8.9e9 subspaces; 2^11 is within the cap
    visited = []
    monkeypatch.setattr(ideals, "is_two_sided_ideal", lambda a, s: visited.append(s))
    restricted = record_restricted_maps(monkeypatch)
    start = time.perf_counter()
    with pytest.raises(EnumerationTooLarge):
        kernel_ideals(b)
    assert restricted == []
    path = tmp_path / "kpow12.json"
    io.save(b, path)
    assert main(["decompose", str(path)]) == 1
    assert "EnumerationTooLarge" in capsys.readouterr().err
    assert visited == []
    assert time.perf_counter() - start < 5.0


def test_dim10_indecomposable_kernel_is_certified_past_the_cap(monkeypatch, tmp_path, capsys):
    # Ker w has 8.3e6 subspaces, past the 2^20 cap, but its endomorphism
    # ring is the scalars, so no subspace is needed for the verdict
    b = random_baric(F2, 10, commutative=True, unital=True, seed=1)
    assert len(ideals._commutant_basis(b.algebra, b.kernel())) == 1
    restricted = record_restricted_maps(monkeypatch)
    with pytest.raises(EnumerationTooLarge):
        kernel_ideals(b)
    assert restricted == []
    visited = []
    monkeypatch.setattr(ideals, "is_two_sided_ideal", lambda a, s: visited.append(s))
    path = tmp_path / "random10.json"
    io.save(b, path)
    assert main(["decompose", str(path)]) == 0
    assert "outcome=indecomposable" in capsys.readouterr().out.splitlines()
    assert visited == []


@pytest.mark.parametrize("field, n", [(F2, 10), (F3, 8)])
def test_truncated_chain_is_certified_past_the_cap(monkeypatch, tmp_path, capsys, field, n):
    # K[x]/(x^n) has a chain of kernel ideals, but Ker w has more subspaces
    # than the 2^20 cap; its endomorphism ring K[N]/(N^(n-1)) is local
    b = truncated_polynomials(field, n)
    restricted = record_restricted_maps(monkeypatch)
    with pytest.raises(EnumerationTooLarge):
        kernel_ideals(b)
    assert restricted == []
    visited = []
    monkeypatch.setattr(ideals, "is_two_sided_ideal", lambda a, s: visited.append(s))
    path = tmp_path / f"trunc{field.p}_{n}.json"
    io.save(b, path)
    start = time.perf_counter()
    assert main(["decompose", str(path)]) == 0
    assert time.perf_counter() - start < 1.0
    assert "outcome=indecomposable" in capsys.readouterr().out.splitlines()
    assert visited == []


def test_huge_modulus_is_refused_quickly():
    start = time.perf_counter()
    assert FieldSpec.prime(2**61 - 1).p == 2**61 - 1
    with pytest.raises(ParseError):
        FieldSpec.prime(10**29 + 7)  # 30 digits
    doc = {"field": {"kind": "prime", "p": 10**29 + 7}, "dim": 1, "mul": [], "weight": ["1"]}
    with pytest.raises(ParseError):
        io.document_to_algebra(doc)
    assert time.perf_counter() - start < 0.5


def test_primality_matches_trial_division():
    from baric.fields import _is_prime

    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(3000) if _is_prime(n)] == [n for n in range(3000) if trial(n)]
    # strong pseudoprimes to every prime base up to 31 and up to 37
    for n in (3825123056546413051, 318665857834031151167461):
        assert not _is_prime(n)
    with pytest.raises(ValueError):
        FieldSpec.prime(3825123056546413051)


@st.composite
def subspace_pairs(draw):
    field = draw(st.sampled_from([F2, F3, F5, F4099, Q]))
    n = draw(st.integers(1, 5))
    rng = random.Random(draw(st.integers(0, 10_000)))
    return tuple(
        span_of(field, n, _random_vectors(rng, field, n, draw(st.integers(0, n)))) for _ in range(2)
    )


@settings(max_examples=80, deadline=None)
@given(subspace_pairs())
def test_sum_matches_the_span_of_both_bases(pair):
    s, t = pair
    expected = span(s.field, s.ambient_dim, s.basis + t.basis)
    got = s.sum(t)
    assert got == expected and got.pivots == expected.pivots
    assert got == t + s and got.contains(s) and got.contains(t)


def test_span_of_no_vectors_is_the_zero_space():
    for field in (F2, F4099, Q):
        zero = span(field, 3, [])
        assert zero == Subspace.zero_space(field, 3) and zero.pivots == () and zero.rows == ()
        assert zero.sum(zero) == zero
