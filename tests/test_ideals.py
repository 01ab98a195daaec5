from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baric import (
    Algebra,
    BaricAlgebra,
    DecompOutcome,
    FactorsNotCommutativeUnital,
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
from baric.catalog import componentwise, dual_numbers, truncated_polynomials
from baric.ideals import KernelIdealBijection, _commutant_dim

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)


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
    for field in (F2, F3, Q):
        b = BaricAlgebra(Algebra(field, 2, table), Weight(field, [1, 0]))
        assert decomposability(b).outcome is DecompOutcome.NO_WEIGHT1_IDEMPOTENT

    with pytest.raises(WeightInvalid):
        BaricAlgebra(Algebra(F2, 2, {}), Weight(F2, [1, 0]))


def test_decomposability_over_rationals():
    cw3 = componentwise(Q, 3)
    undecided = decomposability(cw3)
    assert undecided.outcome is DecompOutcome.UNDECIDED


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
    assert field.p ** _commutant_dim(b.algebra, kernel) == _brute_force_commutant_count(b.algebra, kernel)
