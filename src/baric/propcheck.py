"""Executable checks for every verifiable statement about the construction.

Each check id (P2.1, L6.1, ...) names one statement; check() runs its
suite of randomized and exhaustive trials and returns a PropReport. All
randomness is derived from (id, seed, trial), so rerunning with the same
seed reproduces the identical report, and a failure ships a replayable
counterexample.

Random instances come from random_baric(): the weight starts with a one,
the structure constants are sampled freely except that the leading
coefficient of every basis product is solved from the homomorphism
condition, so every sample is a valid baric algebra by construction.
Suites that need associative factors draw from a fixed generator list
(field powers, scalar-action algebras, truncated polynomial algebras,
componentwise products, the order-two group algebra) because random
tensors are essentially never associative.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

from . import io
from .algebra import (
    Algebra,
    Element,
    _basis_associators,
    _basis_commutators,
    _find_unit,
    associator,
    change_basis,
    check_dim,
    commutative_center,
    commutator,
    property_flags,
)
from .bowtie import (
    associativity_character,
    associator_closed_blocks,
    associator_closed_form,
    bowtie,
    commutator_closed_blocks,
    commutator_closed_form,
    embed,
    idempotent_family,
    split_element,
    structural_isos,
    transport_iso,
)
from .catalog import (
    componentwise,
    dual_numbers,
    group_algebra_z2,
    scalar_action,
    truncated_polynomials,
)
from .errors import DimensionMismatch, FieldNotFinite, UnknownProposition, WeightInvalid
from .fields import FieldSpec
from .ideals import (
    DecompOutcome,
    Ideal,
    Sided,
    decomposability,
    is_two_sided_ideal,
    kernel_ideal_bijection,
    kernel_ideals,
    project_ideal,
    embedded_ideal_check,
)
from .linalg import Matrix, Subspace, enumerate_subspaces, enumeration_cap
from .weights import (
    BaricAlgebra,
    Weight,
    baric_isomorphic_by,
    classify_scalar_action,
    enumerate_weights,
    is_scalar_action,
    kpow,
    normalize_weight_one_basis,
    validate_weight,
)


class CheckFailure(Exception):
    """Raised inside a trial when the statement under test fails.

    Given the factor pair, the message is followed by both factor documents.
    """

    def __init__(self, message: str, b1: BaricAlgebra | None = None, b2: BaricAlgebra | None = None):
        if b1 is not None:
            message += "\nleft factor:\n" + io.dumps(b1) + "right factor:\n" + io.dumps(b2)
        super().__init__(message)


@dataclass(frozen=True)
class RunConfig:
    """Caps shared by all suites; field/max_dim override per-suite defaults.

    A max_dim below 1, a field that is not prime and a negative cap raise ValueError when built.
    """

    field: FieldSpec | None = None
    max_dim: int | None = None
    cap: int | None = None

    def __post_init__(self):
        if self.max_dim is not None and self.max_dim < 1:
            raise ValueError(f"max_dim must be at least 1, got {self.max_dim}")
        if self.field is not None and not self.field.is_finite:
            raise ValueError(f"the sampling field must be a prime field, got {self.field.token}")
        enumeration_cap(self.cap)


@dataclass(frozen=True)
class PropReport:
    proposition_id: str
    trials: int
    failures: int
    seed: int
    first_counterexample: str | None = None

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def line(self, counterexample_path: str | None = None) -> str:
        text = (
            f"{self.proposition_id} trials={self.trials} "
            f"failures={self.failures} seed={self.seed}"
        )
        if counterexample_path is not None:
            text += f" counterexample={counterexample_path}"
        return text


# -- instance generators -------------------------------------------------


def _pivot_table(dim, w, draw, solve_lead, start=0, commutative=False) -> dict:
    """Structure constants valid for the weight w, by the pivot construction.

    For each basis pair (i, j) with i, j >= start, c[i,j,k] for k >= 1 is
    drawn and c[i,j,0] = solve_lead(w_i w_j - sum_k c[i,j,k] w_k). Zero
    entries are left out.
    """
    table = {}
    for i in range(start, dim):
        for j in range(start, dim):
            if commutative and j < i:
                continue
            tail = [draw() for _ in range(dim - 1)]
            lead = solve_lead(w[i] * w[j] - sum(c * wk for c, wk in zip(tail, w[1:])))
            for k, c in enumerate([lead] + tail):
                if c:
                    table[(i, j, k)] = c
                    if commutative and i != j:
                        table[(j, i, k)] = c
    return table


def random_baric(
    field: FieldSpec,
    dim: int,
    *,
    commutative: bool = False,
    unital: bool = False,
    seed: int = 0,
) -> BaricAlgebra:
    """A valid random baric algebra over a prime field, deterministic per seed.

    The weight starts with a one; c[i,j,k] is sampled freely for k >= 1
    and c[i,j,0] is solved from the homomorphism condition. The
    commutative flag symmetrizes sampling, the unital flag pins e_0 as a
    two-sided unit.
    """
    if not field.is_finite:
        raise FieldNotFinite("random_baric samples over prime fields")
    check_dim(dim)
    p = field.p
    rng = random.Random(seed)
    w = [1] + [rng.randrange(p) for _ in range(dim - 1)]
    table: dict[tuple[int, int, int], int] = {}
    if unital:
        for j in range(dim):
            table[(0, j, j)] = 1
            table[(j, 0, j)] = 1
    table.update(
        _pivot_table(
            dim, w, lambda: rng.randrange(p), lambda r: r % p,
            start=int(unital), commutative=commutative,
        )
    )
    return BaricAlgebra._raw(Algebra._raw(field, dim, table), Weight(field, w))


def random_rational_baric(dim: int, weight, seed: int = 0) -> BaricAlgebra:
    """A valid random baric algebra over the rationals with the given weight.

    Same pivot construction as random_baric, with free constants drawn
    from -2..2; the leading weight coordinate must be nonzero so the
    leading coefficient can be solved.
    """
    check_dim(dim)
    field = FieldSpec.rationals()
    w = Weight(field, weight)
    if len(w) != dim:
        raise DimensionMismatch(f"weight of length {len(w)} for dim {dim}")
    if not w.values[0]:
        raise ValueError("leading weight coordinate must be nonzero")
    rng = random.Random(seed)
    table = _pivot_table(
        dim,
        w.values,
        lambda: Fraction(rng.randint(-2, 2)),
        lambda r: r / w.values[0],
    )
    return BaricAlgebra._raw(Algebra._raw(field, dim, table), w)


def _associative_generator(field: FieldSpec, rng: random.Random) -> BaricAlgebra:
    kind = rng.randrange(6)
    if kind == 0:
        return kpow(field, rng.randint(1, 3))
    if kind == 1:
        coords = [rng.randrange(field.p) for _ in range(rng.randint(1, 3))]
        if not any(coords):
            coords[0] = 1
        return scalar_action(field, coords)
    if kind == 2:
        return dual_numbers(field)
    if kind == 3:
        return truncated_polynomials(field, 3)
    if kind == 4:
        return componentwise(field, rng.randint(1, 3))
    return group_algebra_z2(field)


def _seed32(rng: random.Random) -> int:
    return rng.getrandbits(32)


def _field_for(cfg: RunConfig, rng: random.Random) -> FieldSpec:
    if cfg.field is not None:
        return cfg.field
    return FieldSpec.prime(rng.choice((2, 3)))


def _dim(rng: random.Random, cfg: RunConfig, lo: int, hi: int) -> int:
    if cfg.max_dim is not None:
        hi = max(lo, min(hi, cfg.max_dim))
    return rng.randint(lo, hi)


def _random_element(rng: random.Random, b: BaricAlgebra) -> Element:
    p = b.field.p
    draws = [rng.randrange(p) if p else rng.randint(-3, 3) for _ in range(b.dim)]
    return Element._raw(b.algebra, draws)


def _random_pair(rng, cfg, field, lo=1, hi=3, **flags):
    b1 = random_baric(field, _dim(rng, cfg, lo, hi), seed=_seed32(rng), **flags)
    b2 = random_baric(field, _dim(rng, cfg, lo, hi), seed=_seed32(rng), **flags)
    return b1, b2


def _bounded_pair(rng, cfg, field, hi, total, **flags):
    """Two random factors of dimension at most hi and at most total together.

    Both dimensions are drawn before either seed.
    """
    d1 = _dim(rng, cfg, 1, min(hi, total - 1))
    d2 = _dim(rng, cfg, 1, min(hi, total - d1))
    b1 = random_baric(field, d1, seed=_seed32(rng), **flags)
    b2 = random_baric(field, d2, seed=_seed32(rng), **flags)
    return b1, b2


# -- the suites ----------------------------------------------------------


def _check_p21(rng, t, cfg):
    field = cfg.field or FieldSpec.prime(5)
    b1, b2 = _random_pair(rng, cfg, field)
    try:
        bow = bowtie(b1, b2)
    except WeightInvalid:
        raise CheckFailure("combined weight is not multiplicative", b1, b2) from None
    for _ in range(5):
        x, y = _random_element(rng, bow), _random_element(rng, bow)
        if bow.weight(x * y) != bow.weight(x) * bow.weight(y):
            raise CheckFailure(f"weight not multiplicative at x={x!r} y={y!r}", b1, b2)
    # bowtie trusts Proposition 2.1, so the statement is decided here on every basis pair
    if not validate_weight(bow.algebra, bow.weight):
        raise CheckFailure("combined weight is not multiplicative", b1, b2)


def _check_p31(rng, t, cfg):
    field = _field_for(cfg, rng)
    b1, b2 = _random_pair(rng, cfg, field, hi=2)
    b3 = random_baric(field, _dim(rng, cfg, 1, 2), seed=_seed32(rng))
    isos = structural_isos(b1, b2, b3)
    if not isos.swap_verified:
        raise CheckFailure("swap map failed verification", b1, b2)
    if not isos.assoc_verified:
        raise CheckFailure("regrouping map failed verification", b1, b2)


def _random_invertible(rng, field, n) -> Matrix:
    for _ in range(200):
        m = Matrix.of(field, [[rng.randrange(field.p) for _ in range(n)] for _ in range(n)])
        if m.is_invertible:
            return m
    return Matrix.identity(field, n)


def _check_p32(rng, t, cfg):
    field = _field_for(cfg, rng)
    b1, b2 = _random_pair(rng, cfg, field, hi=2)
    tmat = _random_invertible(rng, field, b1.dim)
    moved = BaricAlgebra(
        change_basis(b1.algebra, tmat),
        Weight(field, [b1.weight.at(v) for v in tmat.values]),
    )
    f = tmat.inverse()
    _, ok = transport_iso(f, b1, moved, b2)
    if not ok:
        raise CheckFailure("transported map failed verification", b1, b2)


def _check_p33(rng, t, cfg):
    field = _field_for(cfg, rng)
    b1, b2 = _random_pair(rng, cfg, field, hi=3, unital=True)
    bow = bowtie(b1, b2)
    e1 = _find_unit(b1.algebra)
    e2 = _find_unit(b2.algebra)
    lams = list(field.elements()) if field.p <= 5 else [
        field.element(rng.randrange(field.p)) for _ in range(5)
    ]
    members = [idempotent_family(bow, e1, e2, lam) for lam in lams]
    one = field.one
    for m in members:
        if m * m != m:
            raise CheckFailure(f"family member {m!r} is not idempotent", b1, b2)
        if bow.weight(m) != one:
            raise CheckFailure(f"family member {m!r} has weight != 1", b1, b2)
    for e in members:
        for f_ in members:
            if e * f_ != e:
                raise CheckFailure(f"family law ef=e fails at e={e!r} f={f_!r}", b1, b2)


def _check_c31(rng, t, cfg):
    field = _field_for(cfg, rng)
    b1, b2 = _random_pair(rng, cfg, field)
    center = commutative_center(bowtie(b1, b2).algebra)
    if center.dim != 0:
        raise CheckFailure(f"commutative center has dimension {center.dim}", b1, b2)


def _check_p41(rng, t, cfg):
    if t == 0:
        control = componentwise(FieldSpec.prime(2), 2)
        found = enumerate_weights(control.algebra, cfg.cap)
        if len(found) != 2:
            raise CheckFailure(
                f"componentwise control: expected 2 weights, found {len(found)}"
            )
    field = _field_for(cfg, rng)
    b1, b2 = _bounded_pair(rng, cfg, field, 3, 6)
    bow = bowtie(b1, b2)
    found = enumerate_weights(bow.algebra, cfg.cap)
    if found != [bow.weight]:
        raise CheckFailure(f"expected exactly the stored weight, found {found!r}", b1, b2)


def _check_c41(rng, t, cfg):
    field = _field_for(cfg, rng)
    b1, b2 = _bounded_pair(rng, cfg, field, 3, 6)
    bow = bowtie(b1, b2)
    for side, fac, lo in (("left", b1, 0), ("right", b2, b1.dim)):
        for i in range(fac.dim):
            for j in range(fac.dim):
                image = embed(bow, side, fac.basis_element(i) * fac.basis_element(j))
                if (bow.basis_element(lo + i) * bow.basis_element(lo + j)).values != image.values:
                    raise CheckFailure("embedding is not multiplicative", b1, b2)
            if bow.weight.values[lo + i] != fac.weight.values[i]:
                raise CheckFailure("embedding does not preserve weight", b1, b2)
    if len(enumerate_weights(bow.algebra, cfg.cap)) != 1:
        raise CheckFailure("ambient weight is not unique", b1, b2)


def _check_p51(rng, t, cfg):
    field = _field_for(cfg, rng)
    hi = 3 if field.p == 2 else 2
    b1, b2 = _random_pair(rng, cfg, field, hi=hi)
    bow = bowtie(b1, b2)
    for side, fac in (("left", b1), ("right", b2)):
        full = Subspace.full(field, fac.dim)
        kernel = fac.kernel()
        for s in enumerate_subspaces(full, cfg.cap):
            if not is_two_sided_ideal(fac.algebra, s):
                continue
            direct = embedded_ideal_check(bow, side, Ideal(s, Sided.TWO_SIDED))
            expected = kernel.contains(s)
            if direct != expected:
                raise CheckFailure(
                    f"{side} ideal {s!r}: embedded check {direct}, "
                    f"kernel containment {expected}", b1, b2
                )


def _check_p52(rng, t, cfg):
    field = _field_for(cfg, rng)
    b1, b2 = _random_pair(rng, cfg, field, hi=2)
    bow = bowtie(b1, b2)
    right_kernel = b2.kernel()
    for s in enumerate_subspaces(Subspace.full(field, bow.dim), cfg.cap):
        if not is_two_sided_ideal(bow.algebra, s):
            continue
        proj = project_ideal(bow, Ideal(s, Sided.TWO_SIDED))
        if proj.left.dim == b1.dim:
            continue
        expected = right_kernel.contains(proj.right)
        if proj.left_is_ideal != expected:
            raise CheckFailure(
                f"ideal {s!r}: left projection ideal={proj.left_is_ideal}, "
                f"right-in-kernel={expected}", b1, b2
            )


def _check_p53(rng, t, cfg):
    field = _field_for(cfg, rng)
    b1, b2 = _random_pair(rng, cfg, field, hi=2, commutative=True)
    bow = bowtie(b1, b2)
    kernel = bow.kernel()
    for s in kernel_ideals(bow, cfg.cap):
        proj = project_ideal(bow, Ideal(s, Sided.TWO_SIDED))
        if (proj.left.dim == b1.dim) != (s == kernel):
            raise CheckFailure(
                f"kernel ideal {s!r}: full left projection vs kernel equality "
                "disagree", b1, b2
            )


def _check_p54(rng, t, cfg):
    field = _field_for(cfg, rng)
    hi, total = (3, 5) if field.p == 2 else (2, 4)
    b1, b2 = _bounded_pair(rng, cfg, field, hi, total, commutative=True, unital=True)
    result = kernel_ideal_bijection(bowtie(b1, b2), cfg.cap)
    if not result.verified:
        raise CheckFailure("kernel ideal pairing failed to verify", b1, b2)


def _check_p55(rng, t, cfg):
    field = cfg.field or FieldSpec.prime(2)
    for _ in range(30):
        b1, b2 = _random_pair(rng, cfg, field, lo=2, hi=3, commutative=True, unital=True)
        if all(
            decomposability(b, cfg.cap).outcome is DecompOutcome.INDECOMPOSABLE
            for b in (b1, b2)
        ):
            break
    else:
        b1, b2 = dual_numbers(field), truncated_polynomials(field, 3)
    result = decomposability(bowtie(b1, b2), cfg.cap)
    if result.outcome is not DecompOutcome.INDECOMPOSABLE:
        raise CheckFailure(
            f"product of indecomposable factors reported {result.outcome.value}", b1, b2
        )


def _check_closed_form(rng, cfg, direct, closed_form, direct_blocks, closed_blocks, labels):
    """Compare a closed form with direct computation on every basis tuple and one random tuple.

    Both sides are multilinear, so the basis tuples decide the statement.
    They are compared as sparse blocks: direct_blocks reads the product's
    own table and closed_blocks (from bowtie) only the factors, each a
    function of all but the last index giving {last * n + t: value}. The
    random tuple goes through the element forms, direct and closed_form.
    The first disagreement is reported in product(range(n), repeat=arity)
    order, basis tuples before the random one.
    """
    field = cfg.field or FieldSpec.prime(3)
    b1, b2 = _random_pair(rng, cfg, field)
    bow = bowtie(b1, b2)
    n = bow.dim
    randoms = [_random_element(rng, bow) for _ in labels]
    found = direct_blocks(bow.algebra._by_pair, n, field.p)
    expected = closed_blocks(b1, b2)
    for head in product(range(n), repeat=len(labels) - 1):
        d, c = found(*head), expected(*head)
        if d != c:
            last = min(key for key in d.keys() | c.keys() if d.get(key) != c.get(key)) // n
            _closed_form_failure(direct, labels, [bow.basis_element(i) for i in head + (last,)], b1, b2)
    closed = closed_form(b1, b2, *[split_element(b1, b2, x) for x in randoms])
    if direct(*randoms).values != tuple([c.value for c in closed]):
        _closed_form_failure(direct, labels, randoms, b1, b2)


def _closed_form_failure(direct, labels, args, b1, b2):
    at = " ".join(f"{label}={x!r}" for label, x in zip(labels, args))
    raise CheckFailure(f"{direct.__name__} closed form disagrees at {at}", b1, b2)


def _check_l31(rng, t, cfg):
    _check_closed_form(
        rng, cfg, commutator, commutator_closed_form,
        _basis_commutators, commutator_closed_blocks, "xy",
    )


def _check_l61(rng, t, cfg):
    _check_closed_form(
        rng, cfg, associator, associator_closed_form,
        _basis_associators, associator_closed_blocks, "xyz",
    )


def _check_p61(rng, t, cfg):
    field = _field_for(cfg, rng)
    if t % 2 == 0:
        b1 = _associative_generator(field, rng)
        b2 = _associative_generator(field, rng)
    else:
        b1, b2 = _random_pair(rng, cfg, field, hi=2)
    bow = bowtie(b1, b2)
    character = associativity_character(b1, b2)
    law_on_product = is_scalar_action(bow)
    if character.bowtie_associative != law_on_product:
        raise CheckFailure(
            f"associativity={character.bowtie_associative} but scalar law="
            f"{law_on_product}", b1, b2
        )
    both_factors = character.scalar_action_left and character.scalar_action_right
    if character.bowtie_associative != both_factors:
        raise CheckFailure(
            f"associativity={character.bowtie_associative} but factor laws="
            f"{both_factors}", b1, b2
        )


def _check_p62(rng, t, cfg):
    field = cfg.field or FieldSpec.prime(3)
    b1 = _associative_generator(field, rng)
    b2 = _associative_generator(field, rng)
    flags = property_flags(bowtie(b1, b2).algebra)
    if not (
        flags.associative == flags.left_alternative == flags.right_alternative
    ):
        raise CheckFailure(
            f"associative={flags.associative} left_alt={flags.left_alternative} "
            f"right_alt={flags.right_alternative}", b1, b2
        )


def _check_l62(rng, t, cfg):
    n = _dim(rng, cfg, 1, 6)
    eps = [1] + [rng.randrange(2) for _ in range(n - 1)]
    if t % 2 == 0:
        b = random_rational_baric(n, eps, seed=_seed32(rng))
    else:
        shuffled = eps[:]
        rng.shuffle(shuffled)
        b = scalar_action(FieldSpec.rationals(), shuffled)
    normalized, tmat = normalize_weight_one_basis(b)
    if normalized.weight != Weight.ones(b.field, n):
        raise CheckFailure(f"normalized weight is not all ones: {normalized.weight!r}")
    if not tmat.is_invertible:
        raise CheckFailure("basis change matrix is singular")
    # read the new basis back in b: each row t_i has weight one, and
    # t_i t_j = sum_k c'[i,j,k] t_k for the returned constants c'
    basis = [Element._raw(b.algebra, v) for v in tmat.values]
    if any(b.weight(t) != b.field.one for t in basis):
        raise CheckFailure("a new basis vector does not have weight one in the algebra")
    zero, products = b.algebra.zero(), {}
    for (i, j, k), c in normalized.algebra.table.items():
        products[i, j] = products.get((i, j), zero) + basis[k].scaled(c)
    for (i, ti), (j, tj) in product(enumerate(basis), repeat=2):
        if ti * tj != products.get((i, j), zero):
            raise CheckFailure(f"t_{i} t_{j} differs from the returned structure constants")


def _rand_rational_weights(rng, n):
    coords = [
        Fraction(rng.randint(-2, 3), rng.choice((1, 1, 2)))
        for _ in range(n)
    ]
    if not any(coords):
        coords[0] = Fraction(1)
    return coords


def _check_classified(b, *factors):
    """b classifies onto K^dim through a verified map; a failure carries the factors if given."""
    result = classify_scalar_action(b)
    if result is None:
        raise CheckFailure(f"scalar-action algebra not recognized: {b!r}", *factors)
    iso, target = result
    if target != kpow(b.field, b.dim):
        raise CheckFailure(f"classification target is not the field power: {target!r}", *factors)
    if not baric_isomorphic_by(iso, b, target):
        raise CheckFailure("classification map failed verification", *factors)


def _check_p63(rng, t, cfg):
    field = FieldSpec.rationals()
    if t == 0 and classify_scalar_action(dual_numbers(field)) is not None:
        raise CheckFailure("dual numbers wrongly classified as scalar-action")
    n = _dim(rng, cfg, 1, 4)
    _check_classified(scalar_action(field, _rand_rational_weights(rng, n)))


def _check_c61(rng, t, cfg):
    field = FieldSpec.rationals()
    if t == 0:
        bad = bowtie(dual_numbers(field), kpow(field, 1))
        if property_flags(bad.algebra).associative:
            raise CheckFailure("product with a non-scalar-action factor is associative")
    n1 = _dim(rng, cfg, 1, 3)
    n2 = _dim(rng, cfg, 1, 3)
    b1 = scalar_action(field, _rand_rational_weights(rng, n1))
    b2 = scalar_action(field, _rand_rational_weights(rng, n2))
    bow = bowtie(b1, b2)
    if not property_flags(bow.algebra).associative:
        raise CheckFailure("product of scalar-action factors is not associative", b1, b2)
    _check_classified(bow, b1, b2)
    ident = Matrix.identity(field, n1 + n2)
    combined = bowtie(kpow(field, n1), kpow(field, n2))
    if not baric_isomorphic_by(ident, combined, kpow(field, n1 + n2)):
        raise CheckFailure("identity is not an isomorphism onto the combined power")


def _check_ex21(rng, t, cfg):
    fields = [
        FieldSpec.prime(2),
        FieldSpec.prime(3),
        FieldSpec.prime(5),
        FieldSpec.rationals(),
    ]
    field = cfg.field or fields[t % len(fields)]
    square = kpow(field, 2)
    one = field.one
    expected = {(i, j, i): one for i in range(2) for j in range(2)}
    if square.algebra.table != expected:
        raise CheckFailure("field square has unexpected structure constants")
    if square.weight != Weight.ones(field, 2):
        raise CheckFailure("field square has unexpected weight")
    for _ in range(3):
        x, y = _random_element(rng, square), _random_element(rng, square)
        if x * y != x.scaled(square.weight(y)):
            raise CheckFailure(f"product law fails at x={x!r} y={y!r}")


def _check_ex51(rng, t, cfg):
    field = cfg.field or FieldSpec.prime(2 if t % 2 == 0 else 3)
    square = kpow(field, 2)
    kernel = square.kernel()
    inside = kernel_ideals(square, cfg.cap)
    expected = {Subspace.zero_space(field, 2), kernel}
    if set(inside) != expected:
        raise CheckFailure(f"kernel ideals of the field square: {inside!r}")
    result = kernel_ideal_bijection(square, cfg.cap)
    if not result.verified:
        raise CheckFailure("kernel ideal pairing failed on the field square")
    if set(result.bowtie_ideals) != {Subspace.zero_space(field, 2)}:
        raise CheckFailure("field square kernel has unexpected proper ideals")


def _check_ex61(rng, t, cfg):
    fields = [FieldSpec.prime(2), FieldSpec.prime(3), FieldSpec.rationals()]
    field = cfg.field or fields[t % len(fields)]
    n = 1 + t % 4
    power = kpow(field, n)
    flags = property_flags(power.algebra)
    if not flags.associative:
        raise CheckFailure(f"power of dimension {n} is not associative")
    if flags.commutative != (n == 1):
        raise CheckFailure(f"power of dimension {n}: wrong commutativity")
    x = _random_element(rng, power)
    if power.weight(x) != field.element(sum(x.values)):
        raise CheckFailure("power weight is not the coordinate sum")
    iterated = kpow(field, 1)
    try:
        for _ in range(n - 1):
            iterated = bowtie(iterated, kpow(field, 1))
    except WeightInvalid:
        raise CheckFailure(f"iterated product refuses its factors at n={n}") from None
    if iterated != power:
        raise CheckFailure(f"iterated product differs from the direct power at n={n}")


@dataclass(frozen=True)
class CheckSpec:
    run: Callable
    default_trials: int
    summary: str


CHECKS: dict[str, CheckSpec] = {
    "P2.1": CheckSpec(_check_p21, 200, "product of baric algebras is baric"),
    "P3.1": CheckSpec(_check_p31, 100, "swap and regrouping isomorphisms verify"),
    "P3.2": CheckSpec(_check_p32, 100, "factor isomorphisms transport across the product"),
    "P3.3": CheckSpec(_check_p33, 100, "factor idempotents give a weight-one family with ef=e"),
    "C3.1": CheckSpec(_check_c31, 100, "the product has zero commutative center"),
    "P4.1": CheckSpec(_check_p41, 100, "the product has exactly one weight functional"),
    "C4.1": CheckSpec(_check_c41, 100, "factors embed into a unique-weight product"),
    "P5.1": CheckSpec(_check_p51, 50, "factor ideal survives embedding iff inside the factor kernel"),
    "P5.2": CheckSpec(_check_p52, 20, "left projection is an ideal iff right projection is in the kernel"),
    "P5.3": CheckSpec(_check_p53, 50, "full left projection of a kernel ideal forces the whole kernel"),
    "P5.4": CheckSpec(_check_p54, 20, "kernel ideals pair bijectively with factor ideal pairs"),
    "P5.5": CheckSpec(_check_p55, 20, "indecomposability is preserved by the product"),
    "L3.1": CheckSpec(_check_l31, 200, "closed-form commutator equals direct computation"),
    "L6.1": CheckSpec(_check_l61, 200, "closed-form associator equals direct computation"),
    "P6.1": CheckSpec(_check_p61, 50, "associative products are exactly the scalar-action ones"),
    "P6.2": CheckSpec(_check_p62, 50, "associative = left alternative = right alternative"),
    "L6.2": CheckSpec(_check_l62, 50, "rational algebras admit an all-weight-one basis"),
    "P6.3": CheckSpec(_check_p63, 50, "rational scalar-action algebras are field powers"),
    "C6.1": CheckSpec(_check_c61, 20, "products of rational scalar-action algebras combine powers"),
    "EX2.1": CheckSpec(_check_ex21, 8, "the field square: identity constants, sum weight"),
    "EX5.1": CheckSpec(_check_ex51, 2, "field square kernel has no proper nonzero ideals"),
    "EX6.1": CheckSpec(_check_ex61, 8, "field powers: associative iterated products"),
}

PROPOSITION_IDS: tuple[str, ...] = tuple(CHECKS)


def check(
    proposition_id: str,
    trials: int | None = None,
    seed: int = 0,
    config: RunConfig | None = None,
) -> PropReport:
    """Run one check suite and report trials, failures and a counterexample."""
    spec = CHECKS.get(proposition_id)
    if spec is None:
        raise UnknownProposition(f"unknown check id {proposition_id!r}")
    cfg = config or RunConfig()
    n = spec.default_trials if trials is None else trials
    if n < 0:
        raise ValueError(f"trials must be nonnegative, got {n}")
    failures = 0
    first = None
    for t in range(n):
        rng = random.Random(f"{proposition_id}:{seed}:{t}")
        try:
            spec.run(rng, t, cfg)
        except CheckFailure as exc:
            failures += 1
            if first is None:
                first = f"trial={t}\n{exc}"
    return PropReport(proposition_id, n, failures, seed, first)
