import time
from collections import defaultdict
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baric import (
    Algebra,
    BaricAlgebra,
    DecompOutcome,
    DimensionMismatch,
    EnumerationTooLarge,
    FactorsNotCommutativeUnital,
    FieldMismatch,
    FieldSpec,
    Ideal,
    Sided,
    Subspace,
    Weight,
    bowtie,
    decomposability,
    embed,
    embedded_ideal_check,
    enumerate_subspaces,
    find_weight_one_idempotents,
    ideal_closure,
    is_two_sided_ideal,
    kernel_ideal_bijection,
    kernel_ideals,
    kpow,
    project_ideal,
    random_baric,
    sidedness,
    span_of,
)
from baric import ideals
from baric.catalog import componentwise, dual_numbers, scalar_action, truncated_polynomials
from baric.ideals import KernelIdealBijection, _commutant_basis, _is_local_commutative

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)


def test_ideal_closure_examples():
    d2 = dual_numbers(Q)
    empty = ideal_closure(d2.algebra, [], Sided.TWO_SIDED)
    assert empty.space.is_zero

    k2 = kpow(Q, 2)
    closure = ideal_closure(k2.algebra, [k2.element([1, -1])], Sided.TWO_SIDED)
    assert closure.space == span_of(Q, 2, [[1, -1]])
    assert closure.space == k2.kernel()
    assert closure.sided is Sided.TWO_SIDED

    in_d2 = ideal_closure(d2.algebra, [d2.element([0, 1])], Sided.TWO_SIDED)
    assert in_d2.space == span_of(Q, 2, [[0, 1]])


def test_ideal_closure_grows():
    # the span of the unit of D2 closes up to the whole algebra
    d2 = dual_numbers(Q)
    closure = ideal_closure(d2.algebra, [d2.element([1, 0])], Sided.RIGHT)
    assert closure.space.dim == 2


def test_ideal_closure_is_fixed_point():
    dd = bowtie(dual_numbers(F2), dual_numbers(F2))
    closure = ideal_closure(dd.algebra, [dd.element([0, 1, 0, 1])], Sided.TWO_SIDED)
    a = dd.algebra
    for v in closure.space.basis:
        for j in range(a.dim):
            ej = [a.field.zero] * a.dim
            ej[j] = a.field.one
            assert closure.space.contains_vector(a.product_coords(v, ej))
            assert closure.space.contains_vector(a.product_coords(ej, v))


def test_sidedness_examples():
    k2 = kpow(Q, 2)
    left_block = span_of(Q, 2, [[1, 0]])
    assert sidedness(k2.algebra, left_block) is Sided.RIGHT

    assert sidedness(k2.algebra, k2.kernel()) is Sided.TWO_SIDED
    dd = bowtie(dual_numbers(Q), dual_numbers(Q))
    assert sidedness(dd.algebra, dd.kernel()) is Sided.TWO_SIDED
    assert dd.kernel().dim == dd.dim - 1

    d2 = dual_numbers(Q)
    unit_span = span_of(Q, 2, [[1, 0]])
    assert sidedness(d2.algebra, unit_span) is Sided.NONE


@pytest.mark.parametrize("test", [sidedness, is_two_sided_ideal])
def test_ideal_tests_refuse_a_subspace_outside_the_algebra(test):
    a = bowtie(dual_numbers(F3), dual_numbers(F3)).algebra
    with pytest.raises(FieldMismatch):
        test(a, span_of(Q, 4, [[0, 1, 0, 0]]))
    for n in (3, 5):
        with pytest.raises(DimensionMismatch):
            test(a, span_of(F3, n, [[0, 1] + [0] * (n - 2)]))


def test_embedded_ideal_check_examples():
    d2 = dual_numbers(Q)
    dd = bowtie(d2, d2)
    nil = Ideal(span_of(Q, 2, [[0, 1]]), Sided.TWO_SIDED)
    assert embedded_ideal_check(dd, "left", nil) is True

    k2 = kpow(Q, 2)
    k1 = kpow(Q, 1)
    whole = Ideal(Subspace.full(Q, 1), Sided.TWO_SIDED)
    assert embedded_ideal_check(k2, "left", whole) is False

    zero = Ideal(Subspace.zero_space(Q, 2), Sided.TWO_SIDED)
    assert embedded_ideal_check(dd, "right", zero) is True
    assert k1.dim == 1


def test_embedded_ideal_check_contract_exhaustive():
    # the direct two-sidedness test must agree with kernel containment
    for field in (F2, F3):
        d2 = dual_numbers(field)
        dd = bowtie(d2, d2)
        for side, fac in (("left", d2), ("right", d2)):
            kernel = fac.kernel()
            for s in enumerate_subspaces(Subspace.full(field, fac.dim)):
                if not is_two_sided_ideal(fac.algebra, s):
                    continue
                direct = embedded_ideal_check(dd, side, Ideal(s, Sided.TWO_SIDED))
                assert direct == kernel.contains(s)


def test_project_ideal_examples():
    k2 = kpow(Q, 2)
    result = project_ideal(k2, Ideal(k2.kernel(), Sided.TWO_SIDED))
    assert result.left.dim == 1  # the whole one-dimensional factor
    assert result.right.dim == 1
    assert k2.kernel() != Subspace.full(Q, 2)

    dd = bowtie(dual_numbers(Q), dual_numbers(Q))
    block = span_of(Q, 4, [[0, 1, 0, 0]])
    assert sidedness(dd.algebra, block) is Sided.TWO_SIDED
    result = project_ideal(dd, Ideal(block, Sided.TWO_SIDED))
    assert result.left == span_of(Q, 2, [[0, 1]])
    assert result.left_is_ideal
    assert result.right.is_zero and result.right_is_ideal

    zero = Subspace.zero_space(Q, 4)
    result = project_ideal(dd, Ideal(zero, Sided.TWO_SIDED))
    assert result.left.is_zero and result.right.is_zero


def test_ideal_contracts_exhaustive_on_dual_pair():
    """Every ideal-behavior contract, checked over the full lattice of
    the four-dimensional product of dual-number algebras over F_2."""
    d2 = dual_numbers(F2)
    dd = bowtie(d2, d2)
    kernel = dd.kernel()
    right_kernel = d2.kernel()
    kernel_subspaces = list(enumerate_subspaces(kernel))
    assert len(kernel_subspaces) == 16

    for s in enumerate_subspaces(Subspace.full(F2, 4)):
        if not is_two_sided_ideal(dd.algebra, s):
            continue
        result = project_ideal(dd, Ideal(s, Sided.TWO_SIDED))
        if result.left.dim != d2.dim:
            assert result.left_is_ideal == right_kernel.contains(result.right)
        if kernel.contains(s):
            assert (result.left.dim == d2.dim) == (s == kernel)

    # the kernel projects onto the whole left factor without being everything
    full_proj = project_ideal(dd, Ideal(kernel, Sided.TWO_SIDED))
    assert full_proj.left.dim == d2.dim
    assert kernel != Subspace.full(F2, 4)


def test_kernel_ideal_bijection_dual_pair():
    dd = bowtie(dual_numbers(F2), dual_numbers(F2))
    result = kernel_ideal_bijection(dd)
    assert len(result.left_ideals) == 2
    assert len(result.right_ideals) == 2
    assert len(result.bowtie_ideals) == 4
    assert result.verified

    for i in result.left_ideals:
        for j in result.right_ideals:
            image = result.phi(i, j)
            assert result.psi(image) == (i, j)


def test_kernel_ideal_bijection_rejects_a_phi_without_the_right_block(monkeypatch):
    def left_block_only(self, left, right):
        rows = [embed(self.bow, "left", r).coords for r in left.basis]
        return span_of(self.bow.field, self.bow.dim, rows)

    monkeypatch.setattr(KernelIdealBijection, "phi", left_block_only)
    assert not kernel_ideal_bijection(bowtie(dual_numbers(F2), dual_numbers(F2))).verified


def _four_condition_verdict(result):
    """The P5.4 verdict tested in full: psi inverts phi, phi is injective, the
    images are the product kernel-ideals, and phi inverts psi."""
    images = {(i, j): result.phi(i, j) for i in result.left_ideals for j in result.right_ideals}
    return (
        all(result.psi(image) == pair for pair, image in images.items())
        and len(set(images.values())) == len(images)
        and set(images.values()) == set(result.bowtie_ideals)
        and all(result.phi(*result.psi(s)) == s for s in result.bowtie_ideals)
    )


@pytest.mark.parametrize("field, d1, d2", [(F2, 2, 3), (F2, 3, 4), (F3, 2, 2), (F3, 3, 3)])
@pytest.mark.parametrize("seed", range(3))
def test_kernel_ideal_bijection_verdict_matches_the_four_condition_reference(field, d1, d2, seed):
    def factor(dim, s):
        return random_baric(field, dim, commutative=True, unital=True, seed=s)

    result = kernel_ideal_bijection(bowtie(factor(d1, seed), factor(d2, seed + 100)))
    assert result.verified == _four_condition_verdict(result)


def test_kernel_ideal_bijection_verdict_matches_the_reference_on_the_phi_mutant(monkeypatch):
    def left_block_only(self, left, right):
        rows = [embed(self.bow, "left", r).coords for r in left.basis]
        return span_of(self.bow.field, self.bow.dim, rows)

    monkeypatch.setattr(KernelIdealBijection, "phi", left_block_only)
    result = kernel_ideal_bijection(bowtie(dual_numbers(F2), dual_numbers(F2)))
    assert not result.verified
    assert result.verified == _four_condition_verdict(result)


def test_kernel_ideal_bijection_trivial_cases():
    k2 = kpow(F2, 2)
    result = kernel_ideal_bijection(k2)
    assert result.verified
    assert len(result.left_ideals) == 1
    assert result.bowtie_ideals == (Subspace.zero_space(F2, 2),)
    zero_l = result.left_ideals[0]
    zero_r = result.right_ideals[0]
    assert result.phi(zero_l, zero_r).is_zero
    assert result.psi(Subspace.zero_space(F2, 2)) == (zero_l, zero_r)


def test_kernel_ideal_bijection_requires_commutative_unital():
    k2 = kpow(F2, 2)
    with pytest.raises(FactorsNotCommutativeUnital):
        kernel_ideal_bijection(bowtie(k2, k2))


def test_kernel_ideals_of_field_square():
    for field in (F2, F3):
        square = kpow(field, 2)
        inside = kernel_ideals(square)
        assert set(inside) == {Subspace.zero_space(field, 2), square.kernel()}


def test_kernel_ideals_are_the_ideals_among_every_kernel_subspace_in_order():
    # the walk in Ker w coordinates against sidedness tests of every subspace of Ker w
    cases = []
    for field, dims in ((F2, range(1, 7)), (F3, range(1, 5)), (F5, range(1, 4))):
        for n, commutative, unital, seed in product(dims, (False, True), (False, True), range(3)):
            cases.append(random_baric(field, n, commutative=commutative, unital=unital, seed=seed))
        for n in dims:
            cases += [kpow(field, n), truncated_polynomials(field, n), componentwise(field, n)]
        cu = [random_baric(field, 2, commutative=True, unital=True, seed=seed) for seed in (1, 2)]
        cases += [
            dual_numbers(field),
            bowtie(*cu),
            bowtie(random_baric(field, 2, seed=3), random_baric(field, 2, seed=4)),
            bowtie(dual_numbers(field), truncated_polynomials(field, 3)),
        ]
    for b in cases:
        expected = [s for s in enumerate_subspaces(b.kernel()) if is_two_sided_ideal(b.algebra, s)]
        assert [(s.rows, s.pivots) for s in kernel_ideals(b)] == [(s.rows, s.pivots) for s in expected]


def test_kernel_ideal_bijection_refuses_a_product_kernel_past_the_cap_before_any_walk(monkeypatch):
    # the factor kernels, F_2^7 and F_2^6, are within the cap; the product's F_2^14 is not
    cu = {"commutative": True, "unital": True}
    bow = bowtie(random_baric(F2, 8, seed=3, **cu), random_baric(F2, 7, seed=4, **cu))
    walked = []
    walk = ideals.enumerate_subspaces
    monkeypatch.setattr(ideals, "enumerate_subspaces", lambda ambient, cap=None: walked.append(ambient) or walk(ambient, cap))
    start = time.perf_counter()
    with pytest.raises(EnumerationTooLarge, match=r"^F_2\^14 has more subspaces"):
        kernel_ideal_bijection(bow)
    assert walked == []
    assert time.perf_counter() - start < 0.2


def test_decomposability_examples():
    cw3 = componentwise(F2, 3)
    result = decomposability(cw3)
    assert result.outcome is DecompOutcome.DECOMPOSABLE
    assert result.n1 is not None and result.n2 is not None
    assert result.n1.intersect(result.n2).is_zero
    assert result.n1.sum(result.n2) == cw3.kernel()
    assert {result.n1, result.n2} == {
        span_of(F2, 3, [[0, 1, 0]]),
        span_of(F2, 3, [[0, 0, 1]]),
    }

    assert decomposability(dual_numbers(F2)).outcome is DecompOutcome.INDECOMPOSABLE
    dd = bowtie(dual_numbers(F2), dual_numbers(F2))
    assert decomposability(dd).outcome is DecompOutcome.INDECOMPOSABLE


def test_decomposability_no_idempotent():
    # e0*e0 = e0 + e1 and e0*e1 = e1 make x*x = x unsolvable at weight one:
    # weight-one elements are e0 + b*e1 and square to e0 + (1+b)*e1.
    from baric import Algebra, BaricAlgebra, Weight, WeightInvalid

    table = {(0, 0, 0): 1, (0, 0, 1): 1, (0, 1, 1): 1}
    for field in (F2, F3):
        b = BaricAlgebra(Algebra(field, 2, table), Weight(field, [1, 0]))
        assert decomposability(b).outcome is DecompOutcome.NO_WEIGHT1_IDEMPOTENT
    # over Q the idempotent search is not exhaustive, so absence is not claimed
    b = BaricAlgebra(Algebra(Q, 2, table), Weight(Q, [1, 0]))
    assert decomposability(b).outcome is DecompOutcome.UNDECIDED

    with pytest.raises(WeightInvalid):
        BaricAlgebra(Algebra(F2, 2, {}), Weight(F2, [1, 0]))


def test_decomposability_over_rationals():
    cw3 = componentwise(Q, 3)
    undecided = decomposability(cw3)
    assert undecided.outcome is DecompOutcome.UNDECIDED

    # f0*f0 = f0 - f1: f0 - f1 is a weight-one idempotent the search misses
    missed = BaricAlgebra(Algebra(Q, 2, {(0, 0, 0): 1, (0, 0, 1): -1}), Weight(Q, [1, 0]))
    result = decomposability(missed)
    assert result.outcome is DecompOutcome.UNDECIDED and result.idempotent is None
    # x*y = w(y) x with w = (2, 3): e0/2 has weight one and is idempotent
    scaled = scalar_action(Q, [2, 3])
    result = decomposability(scaled)
    assert result.outcome is DecompOutcome.UNDECIDED
    assert result.idempotent == scaled.element(["1/2", "0"])


def test_indecomposability_preserved_for_fixed_family():
    family = [dual_numbers(F2), truncated_polynomials(F2, 3)]
    for b1 in family:
        assert decomposability(b1).outcome is DecompOutcome.INDECOMPOSABLE
    for b1 in family:
        for b2 in family:
            result = decomposability(bowtie(b1, b2))
            assert result.outcome is DecompOutcome.INDECOMPOSABLE


def reference_decomposability(b):
    """The brute-force decision: every kernel ideal, then every ordered pair.

    The lattice is listed by testing each subspace of Ker w, and the first
    complementary pair (n1, n2) with n2 at or after n1 in enumeration order
    is the witness.
    """
    idems = find_weight_one_idempotents(b, limit=1)
    if not idems:
        return DecompOutcome.NO_WEIGHT1_IDEMPOTENT, None, None, None
    kernel = b.kernel()
    candidates = [
        s for s in enumerate_subspaces(kernel)
        if s.dim > 0 and is_two_sided_ideal(b.algebra, s)
    ]
    for i, n1 in enumerate(candidates):
        for n2 in candidates[i:]:
            if (
                n1.dim + n2.dim == kernel.dim
                and n1.intersect(n2).dim == 0
                and n1.sum(n2) == kernel
            ):
                return DecompOutcome.DECOMPOSABLE, idems[0], n1, n2
    return DecompOutcome.INDECOMPOSABLE, idems[0], None, None


def _catalog_baric(field, kind, n):
    if kind == "truncated":
        return truncated_polynomials(field, n)
    if kind == "componentwise":
        return componentwise(field, n)
    return kpow(field, n)


def assert_matches_reference(b):
    result = decomposability(b)
    outcome, idempotent, n1, n2 = reference_decomposability(b)
    assert result.outcome is outcome
    assert result.idempotent == idempotent
    assert result.n1 == n1 and result.n2 == n2


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from([F2, F3]),
    st.integers(1, 5),
    st.sampled_from(["general", "commutative", "commutative_unital"]),
    st.integers(0, 10_000),
)
def test_decomposability_matches_lattice_search(field, n, kind, seed):
    flags = {
        "general": {},
        "commutative": {"commutative": True},
        "commutative_unital": {"commutative": True, "unital": True},
    }[kind]
    assert_matches_reference(random_baric(field, n, seed=seed, **flags))


@pytest.mark.parametrize("field", [F2, F3])
@pytest.mark.parametrize("kind", ["truncated", "componentwise", "kpow"])
def test_decomposability_matches_lattice_search_on_catalog(field, kind):
    for n in range(1, 6 if field is F2 else 5):
        assert_matches_reference(_catalog_baric(field, kind, n))


def test_decomposability_matches_lattice_search_on_products():
    assert_matches_reference(bowtie(componentwise(F2, 2), truncated_polynomials(F2, 3)))
    assert_matches_reference(bowtie(dual_numbers(F3), componentwise(F3, 2)))


def _endomorphism_ring_is_local(b):
    """(dim E > 1, E commutative and local) for E = End_M(Ker w)."""
    basis = _commutant_basis(b.algebra, b.kernel())
    return len(basis) > 1, _is_local_commutative(basis, b.field.p)


@pytest.mark.parametrize("field, max_n", [(F2, 7), (F3, 6), (F5, 4)])
def test_decomposability_matches_lattice_search_on_chains(field, max_n):
    # K[x]/(x^n): E = K[N]/(N^(n-1)) is local, so the Frobenius test certifies it
    for n in range(1, max_n + 1):
        b = truncated_polynomials(field, n)
        if n >= 3:
            assert _endomorphism_ring_is_local(b) == (True, True)
        assert_matches_reference(b)


def _chain_times_line(field, n):
    """K[x]/(x^n) x K as a ring, weighted by the chain's constant term.

    Ker w splits into the ideal (x) of the chain and the line of (0, 1), and
    E = K[N]/(N^(n-1)) x K is commutative, of dimension n, and not local.
    """
    table = {(i, j, i + j): 1 for i in range(n) for j in range(n) if i + j < n}
    table[n, n, n] = 1
    return BaricAlgebra(Algebra(field, n + 1, table), Weight(field, [1] + [0] * n))


@pytest.mark.parametrize("field", [F2, F3])
def test_decomposability_matches_lattice_search_on_chain_products(field):
    for n1, n2 in ((2, 2), (2, 3), (3, 3)):
        chain = truncated_polynomials(field, n2)
        assert_matches_reference(bowtie(truncated_polynomials(field, n1), chain))
        assert_matches_reference(bowtie(componentwise(field, n1), chain))
    # dim E > 1 and E not local: the search finds the witness
    for b in (componentwise(field, 3), componentwise(field, 4), _chain_times_line(field, 3)):
        assert _endomorphism_ring_is_local(b) == (True, False)
        assert_matches_reference(b)


def test_frobenius_test_refuses_a_non_commutative_ring():
    # I, E01, E10 and [[0, 1], [1, 1]] span M_2(F_2), which holds the idempotent
    # E00 and is not local; X^2 - X has rank 3 on them, so only the
    # commutativity test keeps the Frobenius count from certifying the span
    basis = [[[1, 0], [0, 1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]], [[0, 1], [1, 1]]]
    assert not _is_local_commutative(basis, 2)
    k3 = kpow(F2, 3)  # E = M_2(F_2)
    assert not _is_local_commutative(_commutant_basis(k3.algebra, k3.kernel()), 2)


@pytest.mark.parametrize("unital", [False, True])
def test_decomposability_matches_lattice_search_on_commutative_f5(unital):
    for n in range(1, 6):
        for seed in range(8):
            assert_matches_reference(random_baric(F5, n, commutative=True, unital=unital, seed=seed))


def _brute_force_commutant_count(a, v):
    """Number of d x d matrices X over F_p with XG = GX for every generator G.

    G runs over e_j * (.) and (.) * e_j on V, with V's basis coordinates of
    each image found by trying every coefficient vector.
    """
    p, d = a.field.p, v.dim
    combos = {}
    for coeffs in product(range(p), repeat=d):
        vec = [0] * a.dim
        for c, row in zip(coeffs, v.basis):
            vec = [x + c * y.value for x, y in zip(vec, row)]
        combos[tuple(x % p for x in vec)] = coeffs
    generators = []
    for j in range(a.dim):
        e = a.basis_element(j).coords
        for left in (False, True):
            images = [a.product_coords(e, r) if left else a.product_coords(r, e) for r in v.basis]
            generators.append([combos[tuple(x.value for x in image)] for image in images])

    def mul(x, y):
        return [[sum(x[r][m] * y[m][c] for m in range(d)) % p for c in range(d)] for r in range(d)]

    count = 0
    for entries in product(range(p), repeat=d * d):
        x = [entries[r * d:(r + 1) * d] for r in range(d)]
        count += all(mul(x, g) == mul(g, x) for g in generators)
    return count


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(F2, 4), (F3, 3)]),
    st.data(),
)
def test_commutant_dim_matches_brute_force_count(field_and_max, data):
    field, max_n = field_and_max
    n = data.draw(st.integers(1, max_n))
    kind = data.draw(st.sampled_from(["general", "commutative", "commutative_unital", "catalog", "left"]))
    if kind == "catalog":
        b = _catalog_baric(field, data.draw(st.sampled_from(["truncated", "componentwise", "kpow"])), n)
    elif kind == "left":
        # e0 e0 = e0 and e0 e_i = sum_k A[i][k] e_k on the kernel, all else
        # zero: only the left map of e0 acts, so E is the commutant of A
        entries = data.draw(st.lists(st.integers(0, field.p - 1), min_size=n * n, max_size=n * n))
        table = {(0, 0, 0): 1}
        table.update({(0, i, k): entries[i * n + k] for i in range(1, n) for k in range(1, n)})
        b = BaricAlgebra(Algebra(field, n, table), Weight(field, [1] + [0] * (n - 1)))
    else:
        flags = {"commutative": kind != "general", "unital": kind == "commutative_unital"}
        b = random_baric(field, n, seed=data.draw(st.integers(0, 10_000)), **flags)
    kernel = b.kernel()
    assert field.p ** len(_commutant_basis(b.algebra, kernel)) == _brute_force_commutant_count(b.algebra, kernel)


def _generators(a, v):
    """e_j * (.) and (.) * e_j on V as d x d matrices mod p in V's RREF coordinates."""
    p = a.field.p
    return [
        [[image[pc] % p for pc in v.pivots] for image in (a.times_basis(row, j, left) for row in v.rows)]
        for j in range(a.dim)
        for left in (False, True)
    ]


def _mul(x, y, p):
    return [[sum(x[r][m] * y[m][c] for m in range(len(y))) % p for c in range(len(y[0]))] for r in range(len(x))]


def _d_squared_commutant_dim(a, v):
    """dim E from the d^2-unknown system XG = GX, one sparse equation per entry.

    Each equation is reduced into an echelon as it comes; the count stops
    at rank d^2 - 1, as the scalars always lie in E.
    """
    p, d = a.field.p, v.dim
    echelon = {}
    for j in range(a.dim):
        for left in (False, True):
            images = [a.times_basis(row, j, left) for row in v.rows]
            g = [[image[pc] % p for pc in v.pivots] for image in images]
            for r in range(d):
                for c in range(d):
                    # (XG - GX)[r][c] = sum_m X[r][m] G[m][c] - G[r][m] X[m][c]
                    eq = defaultdict(int)
                    for m in range(d):
                        eq[r * d + m] += g[m][c]
                        eq[m * d + c] -= g[r][m]
                    while eq := {u: x % p for u, x in eq.items() if x % p}:
                        lead = min(eq)
                        row = echelon.get(lead)
                        if row is None:
                            inv = pow(eq[lead], -1, p)
                            echelon[lead] = {u: x * inv % p for u, x in eq.items()}
                            if len(echelon) == d * d - 1:
                                return 1
                            break
                        f = eq[lead]
                        for u, x in row.items():
                            eq[u] = eq.get(u, 0) - f * x
    return d * d - len(echelon)


def _assert_commutant_dims_agree(b):
    """On Ker w and on all of A, the spin-up basis commutes with every generator,
    is linearly independent and has as many elements as the d^2 system's dim E."""
    whole = span_of(b.field, b.dim, [b.algebra.basis_element(j).coords for j in range(b.dim)])
    p = b.field.p
    for v in (b.kernel(), whole):
        basis = _commutant_basis(b.algebra, v)
        assert len(basis) == _d_squared_commutant_dim(b.algebra, v)
        for g in _generators(b.algebra, v):
            assert all(_mul(x, g, p) == _mul(g, x, p) for x in basis)
        assert span_of(b.field, v.dim**2, [[e for row in x for e in row] for x in basis]).dim == len(basis)


@pytest.mark.parametrize("field", [F2, F3, F5])
@pytest.mark.parametrize("flags", [{}, {"commutative": True}, {"commutative": True, "unital": True}])
def test_commutant_dim_matches_the_d_squared_system_on_random_algebras(field, flags):
    for n in range(2, 8):
        for seed in range(10):
            _assert_commutant_dims_agree(random_baric(field, n, seed=seed, **flags))


@pytest.mark.parametrize("field", [F2, F3, F5])
@pytest.mark.parametrize("kind", ["truncated", "componentwise", "kpow"])
def test_commutant_dim_matches_the_d_squared_system_on_catalog(field, kind):
    # componentwise and kpow: no one vector spans Ker w, so several seeds spin
    for n in range(2, 9):
        _assert_commutant_dims_agree(_catalog_baric(field, kind, n))


@pytest.mark.parametrize("field", [F2, F3])
def test_commutant_dim_matches_the_d_squared_system_on_products(field):
    for seed in range(6):
        left = random_baric(field, 2 + seed % 3, commutative=True, unital=True, seed=seed)
        right = random_baric(field, 2 + seed // 3, commutative=True, unital=True, seed=seed + 100)
        _assert_commutant_dims_agree(bowtie(left, right))
    _assert_commutant_dims_agree(bowtie(componentwise(field, 3), truncated_polynomials(field, 3)))
    _assert_commutant_dims_agree(bowtie(kpow(field, 2), dual_numbers(field)))


def test_commutant_dim_of_spaces_of_dimension_0_and_1():
    # Ker w is 0 in the dim-1 algebras and a line in the dim-2 ones
    for b in (kpow(F2, 1), truncated_polynomials(F3, 1), kpow(F5, 2), dual_numbers(F3)):
        _assert_commutant_dims_agree(b)
    assert _commutant_basis(kpow(F2, 1).algebra, kpow(F2, 1).kernel()) == []
    assert _commutant_basis(kpow(F5, 2).algebra, kpow(F5, 2).kernel()) == [[[1]]]


def test_commutant_dim_of_a_dim_19_kernel_is_fast():
    # the d^2 system took 1.75 s here; the spin-up needs well under a second
    b = random_baric(F3, 20, seed=1)
    kernel = b.kernel()
    assert kernel.dim == 19
    start = time.perf_counter()
    assert len(_commutant_basis(b.algebra, kernel)) == 1
    assert time.perf_counter() - start < 1.0


def _single_span_phi(result, left, right):
    """phi as one span of both blocks' embedded basis rows."""
    rows = [embed(result.bow, "left", r).coords for r in left.basis]
    rows += [embed(result.bow, "right", r).coords for r in right.basis]
    return span_of(result.bow.field, result.bow.dim, rows)


@pytest.mark.parametrize("field, d1, d2", [(F2, 2, 3), (F2, 3, 3), (F3, 2, 2), (F3, 2, 3)])
@pytest.mark.parametrize("seed", range(3))
def test_phi_matches_the_single_span_of_both_embeddings(field, d1, d2, seed):
    def factor(dim, s):
        return random_baric(field, dim, commutative=True, unital=True, seed=s)

    result = kernel_ideal_bijection(bowtie(factor(d1, seed), factor(d2, seed + 100)))
    for i in result.left_ideals:
        for j in result.right_ideals:
            image = result.phi(i, j)
            expected = _single_span_phi(result, i, j)
            assert image == expected and image.pivots == expected.pivots
