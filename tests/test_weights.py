import random
import time
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baric import (
    Algebra,
    BaricAlgebra,
    CharacteristicObstruction,
    DimensionMismatch,
    EnumerationTooLarge,
    FieldMismatch,
    FieldSpec,
    Matrix,
    Weight,
    WeightInvalid,
    baric_isomorphic_by,
    bowtie,
    change_basis,
    classify_scalar_action,
    enumerate_weights,
    find_weight_one_idempotents,
    is_scalar_action,
    kpow,
    nil_kernel_witness,
    normalize_weight_one_basis,
    random_baric,
    validate_weight,
)
from baric import catalog, io, weights
from baric.algebra import _find_unit
from baric.catalog import componentwise, dual_numbers, scalar_action, truncated_polynomials
from baric.linalg import iter_vectors
from baric.propcheck import random_rational_baric
from baric.weights import BowtieTag

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)


def test_validate_weight_examples():
    k2 = kpow(Q, 2)
    assert validate_weight(k2.algebra, Weight(Q, [1, 1]))
    assert not validate_weight(k2.algebra, Weight(Q, [0, 0]))
    k2_f3 = kpow(F3, 2)
    assert not validate_weight(k2_f3.algebra, Weight(F3, [1, 2]))
    assert validate_weight(k2_f3.algebra, Weight(F3, [1, 1]))


def test_baric_algebra_rejects_bad_weight():
    with pytest.raises(WeightInvalid):
        BaricAlgebra(kpow(Q, 2).algebra, Weight(Q, [1, 2]))
    with pytest.raises(WeightInvalid):
        BaricAlgebra(kpow(Q, 2).algebra, Weight(Q, [0, 0]))


def test_weight_is_multiplicative_on_random_elements():
    rng = random.Random(2)
    for b in (kpow(Q, 3), dual_numbers(Q), bowtie(dual_numbers(Q), kpow(Q, 1))):
        for _ in range(30):
            x = b.element([rng.randint(-3, 3) for _ in range(b.dim)])
            y = b.element([rng.randint(-3, 3) for _ in range(b.dim)])
            assert b.weight(x * y) == b.weight(x) * b.weight(y)


def test_enumerate_weights_examples():
    assert enumerate_weights(kpow(F3, 2).algebra) == [Weight(F3, [1, 1])]
    found = enumerate_weights(componentwise(F2, 2).algebra)
    assert found == [Weight(F2, [0, 1]), Weight(F2, [1, 0])]
    for seed in range(5):
        b1 = random_baric(F2, 2, seed=seed)
        b2 = random_baric(F2, 3, seed=seed + 100)
        bow = bowtie(b1, b2)
        assert enumerate_weights(bow.algebra) == [bow.weight]


def test_nil_kernel_examples():
    k2 = kpow(Q, 2)
    assert nil_kernel_witness(k2) is None

    # componentwise pair with first-projection weight, glued to the base
    # field: the kernel contains the idempotent ((0,1),0)
    mixed = bowtie(componentwise(Q, 2), kpow(Q, 1))
    witness = nil_kernel_witness(mixed)
    assert witness is not None and witness * witness == witness

    zero_mult = BaricAlgebra(Algebra(Q, 3, {(0, 0, 0): 1}), Weight(Q, [1, 0, 0]))
    assert nil_kernel_witness(zero_mult) is None


def test_nil_kernel_witness_tests_powers_up_to_dim():
    # f*f = f has weight one, and the kernel chain e_i * e_0 = e_(i+1) gives
    # e_0^k = e_(k-1): the first left-normed power of e_0 that vanishes is e_0^dim
    m = 4
    table = {(0, 0, 0): 1, **{(1 + i, 1, 2 + i): 1 for i in range(m - 1)}}
    weight = Weight(Q, [1] + [0] * m)
    chain = BaricAlgebra(Algebra(Q, m + 1, table), weight)
    assert nil_kernel_witness(chain) is None
    # closing the chain with e_last * e_0 = e_0 keeps every power of e_0 nonzero
    cycle = BaricAlgebra(Algebra(Q, m + 1, {**table, (m, 1, 1): 1}), weight)
    assert nil_kernel_witness(cycle) == cycle.basis_element(1)


def test_nil_kernel_implies_unique_weight():
    for seed in range(40):
        b = random_baric(F3, 3, seed=seed)
        if nil_kernel_witness(b) is None:
            assert enumerate_weights(b.algebra) == [b.weight]


def test_normalize_weight_one_basis_examples():
    b = scalar_action(Q, [1, 0, 1])
    normalized, t = normalize_weight_one_basis(b)
    assert t == Matrix.of(Q, [[1, 0, 0], [1, 1, 0], ["1/2", "1/2", "1/2"]])
    assert normalized.weight == Weight.ones(Q, 3)
    assert change_basis(b.algebra, t) == normalized.algebra

    already = kpow(Q, 3)
    normalized, t = normalize_weight_one_basis(already)
    assert normalized.weight == Weight.ones(Q, 3)
    assert t.is_invertible

    with pytest.raises(CharacteristicObstruction):
        normalize_weight_one_basis(kpow(F2, 2))


def test_normalize_reorders_when_leading_weight_vanishes():
    b = scalar_action(Q, [0, 1, 0])
    normalized, t = normalize_weight_one_basis(b)
    assert normalized.weight == Weight.ones(Q, 3)
    assert change_basis(b.algebra, t) == normalized.algebra


def test_classify_scalar_action_examples():
    result = classify_scalar_action(kpow(Q, 3))
    assert result is not None
    iso, target = result
    assert iso == Matrix.identity(Q, 3)
    assert target == kpow(Q, 3)

    b = scalar_action(Q, [1, 0])
    result = classify_scalar_action(b)
    assert result is not None
    iso, target = result
    assert target == kpow(Q, 2)
    assert baric_isomorphic_by(iso, b, target)

    assert classify_scalar_action(dual_numbers(Q)) is None


def _fp_weights(field, max_dim):
    """Nonzero residue weights of length 1 to max_dim."""
    return st.integers(1, max_dim).flatmap(
        lambda n: st.lists(st.integers(0, field.p - 1), min_size=n, max_size=n).filter(any)
    )


def _assert_classified_onto_the_field_power(b):
    iso, target = classify_scalar_action(b)
    assert target == kpow(b.field, b.dim)
    assert baric_isomorphic_by(iso, b, target)


def test_classify_scalar_action_obstruction():
    # the L6.2 averaging meets a vanishing partial weight sum on these; the
    # kernel-shift basis classifies them onto K^n all the same
    for b in (scalar_action(F2, [1, 1, 0]), scalar_action(F3, [1, 1, 1, 0])):
        with pytest.raises(CharacteristicObstruction):
            normalize_weight_one_basis(b)
        _assert_classified_onto_the_field_power(b)
    # already-normal inputs classify over any field
    result = classify_scalar_action(kpow(F2, 2))
    assert result is not None and result[0] == Matrix.identity(F2, 2)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([F2, F3, F5]), st.data())
def test_every_fp_scalar_action_classifies_onto_the_field_power(field, data):
    _assert_classified_onto_the_field_power(scalar_action(field, data.draw(_fp_weights(field, 6))))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([F2, F3, F5]), st.data())
def test_every_fp_product_of_scalar_actions_classifies_onto_the_field_power(field, data):
    # C6.1 over F_p: the product of two scalar actions is one, so it is K^(n1 + n2)
    b1, b2 = (scalar_action(field, data.draw(_fp_weights(field, 3))) for _ in range(2))
    _assert_classified_onto_the_field_power(bowtie(b1, b2))


def test_is_scalar_action():
    assert is_scalar_action(kpow(F3, 3))
    assert not is_scalar_action(dual_numbers(Q))


def test_baric_isomorphic_by_examples():
    k2 = kpow(Q, 2)
    assert baric_isomorphic_by(Matrix.identity(Q, 2), k2, k2)
    swap = Matrix.of(Q, [[0, 1], [1, 0]])
    assert baric_isomorphic_by(swap, k2, k2)
    k1 = kpow(Q, 1)
    doubling = Matrix.of(Q, [[2]])
    assert not baric_isomorphic_by(doubling, k1, k1)
    singular = Matrix.of(Q, [[0, 0], [0, 0]])
    assert not baric_isomorphic_by(singular, k2, k2)


def test_baric_isomorphic_by_refuses_a_map_over_another_field():
    k2 = kpow(F3, 2)
    with pytest.raises(FieldMismatch):
        baric_isomorphic_by(Matrix.of(FieldSpec.prime(5), [[2, 0], [0, 1]]), k2, k2)


def _oracle_isomorphic_by(f, b1, b2):
    """x -> x f is a weight-preserving isomorphism, tested on every element pair."""
    field, n = b1.field, b1.dim

    def image(x):
        return b2.element([sum((x[i] * f.rows[i][k] for i in range(n)), field.zero) for k in range(n)])

    xs = [b1.element(v) for v in product(range(field.p), repeat=n)]
    images = {x: image(x.coords) for x in xs}
    if sum(y.is_zero for y in images.values()) != 1:  # a nonzero x maps to zero
        return False
    for x in xs:
        if b2.weight(images[x]) != b1.weight(x):
            return False
        for y in xs:
            if images[x] * images[y] != image((x * y).coords):
                return False
    return True


def _random_matrix(rng, field, n, invertible):
    while True:
        rows = [[rng.randrange(field.p) for _ in range(n)] for _ in range(n)]
        if not invertible:
            # the last row is a combination of the others (zero when n = 1)
            coeffs = [rng.randrange(field.p) for _ in range(n - 1)]
            rows[-1] = [sum(c * r[k] for c, r in zip(coeffs, rows)) for k in range(n)]
        m = Matrix.of(field, rows)
        if m.is_invertible == invertible:
            return m


def test_baric_isomorphic_by_matches_element_oracle():
    rng = random.Random(11)
    verdicts = []
    for field in (F2, F3):
        for n in (1, 2, 3):
            # K^n has n weights, so t^-1 below is also multiplicative onto
            # copies that fail only the weight test
            last = Weight(field, [0] * (n - 1) + [1])
            sources = [random_baric(field, n, seed=seed) for seed in range(5)]
            for b1 in sources + [BaricAlgebra(componentwise(field, n).algebra, last)]:
                t = _random_matrix(rng, field, n, invertible=True)
                copy = change_basis(b1.algebra, t)
                # x -> x t^-1 maps b1 onto the copy; only one weight of the copy matches
                cases = [(t.inverse(), BaricAlgebra(copy, w)) for w in enumerate_weights(copy)]
                b2 = BaricAlgebra(copy, Weight(field, [b1.weight(r) for r in t.rows]))
                cases += [
                    (_random_matrix(rng, field, n, invertible=True), b2),
                    (_random_matrix(rng, field, n, invertible=False), b2),
                    (_random_matrix(rng, field, n, invertible=True), b1),
                ]
                for f, target in cases:
                    expected = _oracle_isomorphic_by(f, b1, target)
                    assert baric_isomorphic_by(f, b1, target) == expected, (b1.algebra.table, f)
                    verdicts.append(expected)
    assert verdicts.count(True) >= 36 and verdicts.count(False) >= 36


def test_find_weight_one_idempotents():
    d2 = dual_numbers(F2)
    found = find_weight_one_idempotents(d2)
    assert found == [d2.element([1, 0])]
    over_q = find_weight_one_idempotents(dual_numbers(Q))
    assert dual_numbers(Q).element([1, 0]) in over_q
    scaled = scalar_action(Q, [2, 0, 3])
    assert find_weight_one_idempotents(scaled) == [
        scaled.element(["1/2", "0", "0"]),
        scaled.element(["0", "0", "1/3"]),
    ]
    k2 = kpow(F3, 2)
    found = find_weight_one_idempotents(k2)
    # every (a, b) with a + b = 1 is idempotent: x*x = w(x) x = x
    assert len(found) == 3


@pytest.mark.parametrize("field", [Q, F3], ids=lambda f: f.token)
def test_find_weight_one_idempotents_draws_no_candidate_past_the_limit(field, monkeypatch):
    drawn = []

    def counting_iter_vectors(*args):
        for v in iter_vectors(*args):
            drawn.append(v)
            yield v

    monkeypatch.setattr(weights, "iter_vectors", counting_iter_vectors)
    b = kpow(field, 2)
    assert find_weight_one_idempotents(b, limit=0) == []
    assert drawn == []
    assert len(find_weight_one_idempotents(b, limit=1)) == 1
    # over F3 the scan stops at its first hit, (0, 1)
    assert drawn == ([(0, 0), (0, 1)] if field.is_finite else [])


@pytest.mark.parametrize("field", [F2, F3, Q], ids=lambda f: f.token)
def test_kpow_is_the_tagged_all_ones_scalar_action(field):
    assert catalog.scalar_action is weights.scalar_action
    for n in range(1, 6):
        tagged = weights.scalar_action(field, [1] * n)
        if n >= 2:
            tagged.provenance = BowtieTag(n - 1, 1)
            assert io.dumps(bowtie(kpow(field, n - 1), kpow(field, 1))) == io.dumps(tagged)
        assert io.dumps(kpow(field, n)) == io.dumps(tagged)


def _raw_idempotent_scan(b):
    """Weight-one idempotents as residue tuples, from every vector of F_p^n in lexicographic order."""
    p, n, w = b.field.p, b.dim, b.weight.values
    entries = list(b.algebra.entries())
    found = []
    for v in product(range(p), repeat=n):
        if sum(wi * vi for wi, vi in zip(w, v)) % p != 1:
            continue
        square = [0] * n
        for (i, j, k), c in entries:
            square[k] += c * v[i] * v[j]
        if tuple(s % p for s in square) == v:
            found.append(v)
    return found


@pytest.mark.parametrize("field, max_dim", [(F2, 8), (F3, 8), (F5, 6)], ids=["p2", "p3", "p5"])
def test_idempotent_scan_matches_a_raw_scan(field, max_dim):
    seen = 0
    for dim, commutative, unital in product(range(1, max_dim + 1), (False, True), (False, True)):
        b = random_baric(field, dim, commutative=commutative, unital=unital, seed=dim)
        expected = _raw_idempotent_scan(b)
        assert [x.values for x in find_weight_one_idempotents(b)] == expected
        assert [x.values for x in find_weight_one_idempotents(b, limit=1)] == expected[:1]
        seen += len(expected)
    assert seen


def _structured_tables(field, max_dim):
    """Tables whose coordinate forms of x * x have zero rows, zero columns or no rows at all."""
    p = field.p
    for n in range(1, max_dim + 1):
        yield kpow(field, n)
        yield truncated_polynomials(field, n)
        yield componentwise(field, n)
        # the last coordinate of x * x is never reached: its form is empty
        yield BaricAlgebra(Algebra(field, n, {(0, 0, 0): 1}), Weight(field, [1] + [0] * (n - 1)))
        if n >= 2:
            yield scalar_action(field, [1] + [0] * (n - 2) + [p - 1])
            yield scalar_action(field, [0] * (n - 1) + [1])
    yield dual_numbers(field)
    yield catalog.group_algebra_z2(field)
    for d1, d2 in product(range(1, max_dim), repeat=2):
        if d1 + d2 <= max_dim:
            left = random_baric(field, d1, commutative=True, unital=True, seed=d1)
            right = random_baric(field, d2, seed=d2)
            yield bowtie(left, right)
            yield bowtie(right, left)


@pytest.mark.parametrize(
    "field, max_dim",
    [(F2, 8), (F3, 6), (F5, 4), (FieldSpec.prime(31), 3)],
    ids=["p2", "p3", "p5", "p31"],
)
def test_idempotent_scan_matches_a_raw_scan_on_structured_tables(field, max_dim):
    # over F31 a coordinate's sum passes p^2 before it is reduced
    seen = 0
    for b in _structured_tables(field, max_dim):
        expected = _raw_idempotent_scan(b)
        assert [x.values for x in find_weight_one_idempotents(b)] == expected
        assert [x.values for x in find_weight_one_idempotents(b, limit=1)] == expected[:1]
        seen += len(expected)
    assert seen


def test_the_fp_scan_squares_no_candidate(monkeypatch):
    b = random_baric(F3, 6, commutative=True, unital=True, seed=6)
    # every vector of weight one reaches the x^2 = x test
    candidates = sum(b.weight(x) == F3.one for x in map(b.element, iter_vectors(F3, 6)))
    products = []
    times = Algebra.times

    def counted(self, x, y):
        products.append((x, y))
        return times(self, x, y)

    monkeypatch.setattr(Algebra, "times", counted)
    found = find_weight_one_idempotents(b)
    assert products == []
    assert candidates == 3**5
    assert [x.values for x in found] == _raw_idempotent_scan(b)


def test_the_rational_pool_keeps_the_candidates_that_square_to_themselves():
    kept = dropped = 0
    # K[x]/(x^3) on the basis 1 + x, x, x^2: its unit 1 is no rescaled basis vector
    t = Matrix.of(Q, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    shifted = change_basis(truncated_polynomials(Q, 3).algebra, t)
    bs = [scalar_action(Q, [2, 3]), truncated_polynomials(Q, 3), BaricAlgebra(shifted, Weight(Q, [1, 0, 0]))]
    bs += [random_rational_baric(n, [1] + [seed % 3 - 1] * (n - 1), seed=seed)
           for n in range(1, 6) for seed in range(6)]
    for b in bs:
        pool = [b.basis_element(i).scaled(Q.one / wi) for i, wi in enumerate(b.weight.coords) if wi]
        unit = _find_unit(b.algebra)
        if unit is not None and unit not in pool:
            pool.append(unit)
        expected = [x for x in pool if x * x == x]
        assert find_weight_one_idempotents(b) == expected
        kept += len(expected)
        dropped += len(pool) - len(expected)
    assert kept and dropped


def test_iter_vectors_yields_residue_tuples_in_lexicographic_order():
    vectors = list(iter_vectors(F3, 2))
    assert vectors == [(a, b) for a in range(3) for b in range(3)]
    assert all(type(c) is int for v in vectors for c in v)


def test_kernel_subspace():
    b = bowtie(componentwise(Q, 2), kpow(Q, 1))
    kernel = b.kernel()
    assert kernel.dim == b.dim - 1
    for row in kernel.basis:
        assert b.weight(row) == Q.zero


@pytest.mark.parametrize("field", [F2, F3, FieldSpec.prime(4099), Q], ids=lambda f: f.token)
def test_weight_of_an_element_agrees_with_its_coordinates(field):
    b = random_baric(field, 4, seed=5) if field.is_finite else kpow(Q, 4)
    rng = random.Random(7)
    for _ in range(20):
        x = b.element([rng.randrange(-9, 9) for _ in range(b.dim)])
        assert b.weight(x) == b.weight(x.coords)
        assert b.weight(x).field is field


def test_weight_of_a_foreign_element_is_refused():
    w = Weight(F3, [1, 1, 1])
    with pytest.raises(FieldMismatch):
        w(kpow(FieldSpec.prime(5), 3).algebra.element([1, 2, 3]))
    with pytest.raises(DimensionMismatch):
        w(kpow(F3, 2).algebra.element([1, 2]))


def _scanned_weights(a):
    """Every weight by the p^n scan, testing each pair on the FieldElement table."""
    p, n = a.field.p, a.dim
    rows = {}
    for (i, j, k), c in a.table.items():
        rows.setdefault((i, j), []).append((k, c.value))
    return [
        Weight(a.field, w)
        for w in product(range(p), repeat=n)
        if any(w) and all(
            (sum(c * w[k] for k, c in rows.get((i, j), ())) - w[i] * w[j]) % p == 0
            for i in range(n)
            for j in range(n)
        )
    ]


def _weight_search_inputs(field, n, seed):
    """Random, random commutative unital, catalog and weightless sparse tables of dim n."""
    rng = random.Random(seed)
    p = field.p
    density = rng.choice([0.1, 0.3, 0.7])
    sparse = {
        (i, j, k): rng.randrange(1, p)
        for i, j, k in product(range(n), repeat=3)
        if rng.random() < density
    }
    # constants only into later basis vectors: every w_i^2 = 0 forces w = 0
    nilpotent = {
        (i, j, k): rng.randrange(1, p)
        for i, j, k in product(range(n), repeat=3)
        if k > max(i, j) and rng.random() < density
    }
    return [
        Algebra(field, n, sparse),
        Algebra(field, n, nilpotent),
        random_baric(field, n, seed=seed).algebra,
        random_baric(field, n, commutative=True, unital=True, seed=seed).algebra,
        kpow(field, n).algebra,
        truncated_polynomials(field, n).algebra,
        componentwise(field, n).algebra,
    ]


# dim 0 has no algebra to search (Algebra refuses it); the p^n scan bounds the dims over F5
@pytest.mark.parametrize("field, max_dim", [(F2, 8), (F3, 8), (F5, 6)], ids=["F2", "F3", "F5"])
def test_weight_search_matches_the_scan(field, max_dim):
    for n in range(1, max_dim + 1):
        for seed in range(3 if n < max_dim else 1):
            for a in _weight_search_inputs(field, n, seed):
                assert enumerate_weights(a) == _scanned_weights(a)
    # the weightless tables have no weight at all
    assert enumerate_weights(_weight_search_inputs(field, max_dim, 0)[1]) == []


def test_weight_search_cap_counts_branch_nodes():
    # Every value tried counts, pruned or not. kpow(F, n): the root tries all p
    # values of w_0; w_0 = 0 forces w = 0 and w_0 = 1 forces w = (1, ..., 1),
    # two forced paths, and the other p - 2 are pruned. componentwise(F, n):
    # after w_0 .. w_(i-1) = 0, w_i tries all p values, w_i = 1 forces the rest
    # to 0, w_i = 0 branches again, and the other p - 2 are pruned.
    for field, n in ((F2, 3), (F3, 5), (F5, 4)):
        p = field.p
        cases = [
            (kpow(field, n).algebra, 1 + 2 * n + (p - 2), 1),
            (componentwise(field, n).algebra, 1 + n + n * (n + 1) // 2 + n * (p - 2), n),
        ]
        for a, nodes, weights in cases:
            assert len(enumerate_weights(a, cap=nodes)) == weights
            with pytest.raises(EnumerationTooLarge, match=f"more than {nodes - 1} branch nodes"):
                enumerate_weights(a, cap=nodes - 1)
    with pytest.raises(EnumerationTooLarge):
        enumerate_weights(kpow(F2, 1).algebra, cap=0)


def test_weight_search_cap_bounds_the_values_tried():
    # a free w_0 over F_p tries p values: the cap stops the search within them
    a = componentwise(FieldSpec.prime(1000000007), 2).algebra
    start = time.perf_counter()
    with pytest.raises(EnumerationTooLarge, match="more than 10 branch nodes"):
        enumerate_weights(a, cap=10)
    assert time.perf_counter() - start < 0.1


def test_weight_search_on_a_dim_24_algebra_is_fast():
    # 2^24 functionals are past the default cap; the branch search visits few nodes
    b = random_baric(F2, 24, commutative=True, unital=True, seed=1)
    start = time.perf_counter()
    found = enumerate_weights(b.algebra)
    assert time.perf_counter() - start < 1.0
    assert b.weight in found
