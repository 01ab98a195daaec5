import hashlib
import random
from dataclasses import replace
from types import SimpleNamespace

import pytest

from baric import (
    Algebra,
    DimensionMismatch,
    associator,
    commutator,
    commutator_closed_form,
    FieldNotFinite,
    FieldSpec,
    Matrix,
    PROPOSITION_IDS,
    PropReport,
    RunConfig,
    Subspace,
    UnknownProposition,
    Weight,
    WeightInvalid,
    bowtie,
    change_basis,
    check,
    classify_scalar_action,
    decomposability,
    embedded_ideal_check,
    is_scalar_action,
    kpow,
    normalize_weight_one_basis,
    project_ideal,
    property_flags,
    random_baric,
    random_rational_baric,
    structural_isos,
    validate_weight,
)
from baric import io, propcheck, weights
from baric.algebra import Element
from baric.bowtie import (
    associativity_character,
    associator_closed_blocks,
    commutator_closed_blocks,
    embed,
    idempotent_family,
)
from baric.catalog import componentwise, dual_numbers
from baric.ideals import DecompOutcome, Decomposability
from baric.weights import BaricAlgebra

F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)


def test_random_baric_is_valid_for_any_seed():
    for seed in range(25):
        b = random_baric(F5, 3, seed=seed)
        assert validate_weight(b.algebra, b.weight)
        assert b.weight.coords[0] == F5.one


def test_random_baric_is_deterministic():
    a = random_baric(F3, 3, commutative=True, seed=42)
    b = random_baric(F3, 3, commutative=True, seed=42)
    assert a == b
    c = random_baric(F3, 3, commutative=True, seed=43)
    assert a != c or a.algebra.table == c.algebra.table


def test_random_baric_flags():
    b = random_baric(F3, 3, commutative=True, seed=7)
    for (i, j, k), v in b.algebra.table.items():
        assert b.algebra.table.get((j, i, k)) == v

    b = random_baric(F3, 3, unital=True, seed=7)
    flags = property_flags(b.algebra)
    assert flags.unital and flags.unit == b.element([1, 0, 0])
    import random as _random

    rng = _random.Random(0)
    for _ in range(10):
        x = b.element([rng.randrange(3) for _ in range(3)])
        assert flags.unit * x == x
        assert x * flags.unit == x


def test_random_baric_rejects_rationals():
    with pytest.raises(FieldNotFinite):
        random_baric(FieldSpec.rationals(), 2, seed=0)


def test_random_rational_baric():
    for seed in range(10):
        b = random_rational_baric(4, [1, 0, 1, 0], seed=seed)
        assert validate_weight(b.algebra, b.weight)
    with pytest.raises(ValueError):
        random_rational_baric(2, [0, 1], seed=0)
    for weight in ([1, 1], [1, 1, 1, 1]):
        with pytest.raises(DimensionMismatch):
            random_rational_baric(3, weight, seed=0)


def test_unknown_proposition():
    with pytest.raises(UnknownProposition):
        check("P9.9", trials=1)


def test_negative_trials_rejected():
    with pytest.raises(ValueError, match="trials"):
        check("P2.1", trials=-3)
    assert check("P2.1", trials=0) == PropReport("P2.1", 0, 0, 0)


def test_check_failure_appends_factor_documents():
    from baric import io
    from baric.propcheck import CheckFailure

    b1, b2 = random_baric(F3, 2, seed=1), random_baric(F3, 1, seed=2)
    assert str(CheckFailure("plain")) == "plain"
    assert str(CheckFailure("bad", b1, b2)) == (
        "bad\nleft factor:\n" + io.dumps(b1) + "right factor:\n" + io.dumps(b2)
    )


def test_reports_are_replayable():
    first = check("P2.1", trials=10, seed=5)
    second = check("P2.1", trials=10, seed=5)
    assert first == second
    assert first.line() == "P2.1 trials=10 failures=0 seed=5"


def test_report_line_with_counterexample_path():
    report = check("C3.1", trials=2, seed=1)
    assert report.passed
    assert "counterexample=/tmp/x" in report.line("/tmp/x")


@pytest.mark.parametrize("pid", PROPOSITION_IDS)
def test_every_suite_passes_smoke(pid):
    report = check(pid, trials=4, seed=123)
    assert report.failures == 0, report.first_counterexample


def test_field_override_is_honored():
    report = check("P4.1", trials=5, seed=9, config=RunConfig(field=F2))
    assert report.passed


def test_maxdim_override():
    report = check("L3.1", trials=5, seed=9, config=RunConfig(max_dim=2))
    assert report.passed


def _associator_form_without_w2p2(b1, b2, x, y, z):
    """The L6.1 closed form with the w2(p2)(a1 c1 - w1(c1) a1) term left out."""
    (a1, a2), (p1, p2), (c1, c2) = x, y, z
    left = associator(a1, p1, c1)
    right = associator(a2, p2, c2) + (a2 * c2 - a2.scaled(b2.weight(c2))).scaled(b1.weight(p1))
    return left.coords + right.coords


def _commutator_form_without_w2c2(b1, b2, x, y):
    """The L3.1 closed form with the w2(c2) a1 term left out."""
    (a1, a2), (c1, c2) = x, y
    left = commutator(a1, c1) - c1.scaled(b2.weight(a2))
    right = commutator(a2, c2) + a2.scaled(b1.weight(c1)) - c2.scaled(b1.weight(a1))
    return left.coords + right.coords


def _commutator_blocks_without_w2c2(b1, b2):
    """commutator_closed_blocks with the same w2(c2) a1 term left out: w_k e_i for i left, k right."""
    blocks = commutator_closed_blocks(b1, b2)
    n1, n, p = b1.dim, b1.dim + b2.dim, b1.field.p

    def block(i):
        out = dict(blocks(i))
        for k in range(n1, n) if i < n1 else ():
            key = k * n + i
            out[key] = (out.get(key, 0) - b2.weight.values[k - n1]) % p
        return {key: v for key, v in out.items() if v}

    return block


def _associator_blocks_without_w2p2(b1, b2):
    """associator_closed_blocks with the same w2(p2)(a1 c1 - w1(c1) a1) term left out:
    the blocks with i in the left factor and j in the right are empty."""
    blocks = associator_closed_blocks(b1, b2)
    return lambda i, j: {} if i < b1.dim <= j else blocks(i, j)


def _drawn_pairs(pid, trials, seed=0):
    """The factor pair each closed-form trial draws, replayed from the check's rng."""
    for t in range(trials):
        rng = random.Random(f"{pid}:{seed}:{t}")
        yield propcheck._random_pair(rng, RunConfig(), F3)


def _assert_named_counterexample(report, labels):
    text = report.first_counterexample
    assert text.startswith("trial=")
    assert all(f"{label}=(" in text for label in labels)
    assert "left factor:" in text and "right factor:" in text


def test_l31_catches_a_dropped_term(monkeypatch):
    # w2(c2) a1 is nonzero at a1 = e_0, c2 = e_0 in every trial (both weights start with 1)
    monkeypatch.setattr(propcheck, "commutator_closed_form", _commutator_form_without_w2c2)
    monkeypatch.setattr(propcheck, "commutator_closed_blocks", _commutator_blocks_without_w2c2)
    report = check("L3.1", trials=3)
    assert report.failures == 3
    _assert_named_counterexample(report, "xy")


def test_l61_catches_a_dropped_term(monkeypatch):
    # The dropped term w2(p2)(a1 c1 - w1(c1) a1) vanishes identically exactly when
    # the left factor obeys x*y = w(y)*x (as every one-dimensional factor does), so
    # the mutant is wrong on precisely the other trials, and each of them must fail.
    monkeypatch.setattr(propcheck, "associator_closed_form", _associator_form_without_w2p2)
    monkeypatch.setattr(propcheck, "associator_closed_blocks", _associator_blocks_without_w2p2)
    trials = 10
    wrong = sum(not is_scalar_action(b1) for b1, _ in _drawn_pairs("L6.1", trials))
    assert 0 < wrong < trials
    report = check("L6.1", trials=trials)
    assert report.failures == wrong
    _assert_named_counterexample(report, "xyz")


def _associator_blocks_with_one_flipped_sign(b1, b2):
    """associator_closed_blocks with the sign of w_j w_k e_i flipped in the block (i, j) = (0, n1) only."""
    blocks = associator_closed_blocks(b1, b2)
    n1, n, p = b1.dim, b1.dim + b2.dim, b1.field.p
    w = b1.weight.values + b2.weight.values

    def block(i, j):
        out = dict(blocks(i, j))
        for k in range(n1) if (i, j) == (0, n1) else ():
            out[k * n] = (out.get(k * n, 0) + 2 * w[j] * w[k]) % p
        return {key: v for key, v in out.items() if v}

    return block


def test_l61_names_the_basis_tuple_of_one_wrong_cross_block(monkeypatch):
    # w_0 = w_n1 = 1, so over F3 the block (0, n1) is off by 2 e_0 at k = 0 in every
    # trial, and every earlier basis triple is right; the element forms are not patched
    monkeypatch.setattr(propcheck, "associator_closed_blocks", _associator_blocks_with_one_flipped_sign)
    report = check("L6.1", trials=5, seed=4)
    assert report.failures == 5
    b1, b2 = next(_drawn_pairs("L6.1", 1, seed=4))
    assert (b1.dim, b2.dim) == (3, 2)
    bow = bowtie(b1, b2)
    x, y, z = (bow.basis_element(i) for i in (0, b1.dim, 0))
    assert report.first_counterexample == (
        f"trial=0\nassociator closed form disagrees at x={x!r} y={y!r} z={z!r}\n"
        "left factor:\n" + io.dumps(b1) + "right factor:\n" + io.dumps(b2)
    )


def _bowtie_with_doubled_cross_terms(b1, b2):
    """bowtie with w2(b2) a1 and w1(b1) a2 counted twice, so the combined weight fails."""
    n1, bow = b1.dim, bowtie(b1, b2)
    table = {
        (i, j, k): 2 * c if (i < n1) != (j < n1) else c for (i, j, k), c in bow.algebra.entries()
    }
    return BaricAlgebra(Algebra(bow.field, bow.dim, table), bow.weight, bow.provenance)


def test_p21_reports_a_product_weight_that_is_not_multiplicative(monkeypatch):
    # both factor weights start with 1, so e_0 e_n1 = 2 e_0 breaks w(xy) = w(x) w(y)
    monkeypatch.setattr(propcheck, "bowtie", _bowtie_with_doubled_cross_terms)
    report = check("P2.1", trials=10)
    assert report.failures == 10
    text = report.first_counterexample
    assert "combined weight is not multiplicative" in text
    assert "left factor:" in text and "right factor:" in text


def _raw_bowtie_with_doubled_cross_terms(b1, b2):
    """_bowtie_with_doubled_cross_terms built raw, as bowtie builds: nothing on the way refuses it."""
    n1, bow, p = b1.dim, bowtie(b1, b2), b1.field.p
    table = {
        (i, j, k): 2 * c % p if (i < n1) != (j < n1) else c for (i, j, k), c in bow.algebra.entries()
    }
    return BaricAlgebra._raw(Algebra._raw(bow.field, bow.dim, table), bow.weight, bow.provenance)


def test_p21_decides_a_raw_product_weight_that_is_not_multiplicative(monkeypatch):
    # bowtie no longer validates its weight, so P2.1 decides the statement itself
    monkeypatch.setattr(propcheck, "bowtie", _raw_bowtie_with_doubled_cross_terms)
    report = check("P2.1", trials=10)
    assert report.failures == 10
    text = report.first_counterexample
    assert "not multiplicative" in text.splitlines()[1]
    assert "left factor:" in text and "right factor:" in text
    # with element trials that cannot see it, the basis-pair test still does
    monkeypatch.setattr(propcheck, "_random_element", lambda rng, b: b.algebra.zero())
    report = check("P2.1", trials=10)
    assert report.failures == 10
    assert report.first_counterexample.splitlines()[1] == "combined weight is not multiplicative"


def _bowtie_with_doubled_weight(b1, b2):
    """bowtie whose weight is doubled after it was validated: 2w(xy) != 4w(x)w(y) over F5."""
    bow = bowtie(b1, b2)
    bow.weight = Weight(bow.field, [2 * c for c in bow.weight.values])
    return bow


def _flipped(result, name):
    """A copy of a frozen dataclass result with one boolean field negated."""
    return replace(result, **{name: not getattr(result, name)})


def _commutator_form_off_by_one(b1, b2, x, y):
    """commutator_closed_form with one added to the first coordinate: wrong at every tuple."""
    first, *rest = commutator_closed_form(b1, b2, x, y)
    return (first + b1.field.one, *rest)


# One planted fault per check id: (check id, propcheck name, wrong function,
# a fragment of the failure message). The last row leaves the basis blocks of
# L3.1 right and breaks only the element form, which the random tuple reads.
PLANTED_FAULTS = [
    pytest.param("P2.1", "bowtie", _bowtie_with_doubled_weight, "weight not multiplicative at", id="P2.1"),
    pytest.param(
        "P3.1", "structural_isos", lambda *bs: _flipped(structural_isos(*bs), "swap_verified"),
        "swap map failed verification", id="P3.1",
    ),
    pytest.param("P3.2", "transport_iso", lambda *args: (None, False), "transported map failed verification", id="P3.2"),
    pytest.param("P3.3", "idempotent_family", lambda bow, *args: bow.algebra.zero(), "has weight != 1", id="P3.3"),
    pytest.param(
        "C3.1", "commutative_center", lambda a: Subspace.full(a.field, a.dim),
        "commutative center has dimension", id="C3.1",
    ),
    pytest.param("P4.1", "enumerate_weights", lambda *args: [], "componentwise control: expected 2 weights", id="P4.1"),
    pytest.param("C4.1", "embed", lambda b, side, x: b.algebra.zero(), "embedding is not multiplicative", id="C4.1"),
    pytest.param(
        "P5.1", "embedded_ideal_check", lambda *args: not embedded_ideal_check(*args),
        "kernel containment", id="P5.1",
    ),
    pytest.param(
        "P5.2", "project_ideal", lambda bow, ideal: _flipped(project_ideal(bow, ideal), "left_is_ideal"),
        "right-in-kernel", id="P5.2",
    ),
    pytest.param(
        "P5.3", "project_ideal",
        lambda bow, ideal: replace(
            project_ideal(bow, ideal), left=Subspace.zero_space(bow.field, bow.provenance.left_dim)
        ),
        "full left projection vs kernel equality", id="P5.3",
    ),
    pytest.param(
        "P5.4", "kernel_ideal_bijection", lambda *args: SimpleNamespace(verified=False),
        "kernel ideal pairing failed to verify", id="P5.4",
    ),
    pytest.param(
        "P5.5", "decomposability",
        lambda b, cap=None: (
            Decomposability(DecompOutcome.DECOMPOSABLE) if b.provenance else decomposability(b, cap)
        ),
        "product of indecomposable factors reported decomposable", id="P5.5",
    ),
    pytest.param(
        "L3.1", "commutator_closed_blocks", _commutator_blocks_without_w2c2,
        "commutator closed form disagrees at", id="L3.1",
    ),
    pytest.param(
        "L6.1", "associator_closed_blocks", _associator_blocks_with_one_flipped_sign,
        "associator closed form disagrees at", id="L6.1",
    ),
    pytest.param("P6.1", "is_scalar_action", lambda b: not is_scalar_action(b), "but scalar law=", id="P6.1"),
    pytest.param(
        "P6.2", "property_flags", lambda a: _flipped(property_flags(a), "left_alternative"),
        "left_alt=", id="P6.2",
    ),
    pytest.param(
        "L6.2", "normalize_weight_one_basis",
        lambda b: (normalize_weight_one_basis(b)[0], Matrix.of(b.field, [[0] * b.dim] * b.dim)),
        "basis change matrix is singular", id="L6.2",
    ),
    pytest.param(
        "P6.3", "classify_scalar_action", lambda b: None, "scalar-action algebra not recognized", id="P6.3",
    ),
    pytest.param(
        "C6.1", "baric_isomorphic_by", lambda *args: False, "classification map failed verification", id="C6.1",
    ),
    pytest.param(
        "EX2.1", "kpow", componentwise, "field square has unexpected structure constants", id="EX2.1",
    ),
    pytest.param("EX5.1", "kernel_ideals", lambda *args: [], "kernel ideals of the field square", id="EX5.1"),
    pytest.param(
        "EX6.1", "property_flags", lambda a: _flipped(property_flags(a), "associative"),
        "is not associative", id="EX6.1",
    ),
    pytest.param(
        "L3.1", "commutator_closed_form", _commutator_form_off_by_one,
        "commutator closed form disagrees at", id="L3.1-random-tuple",
    ),
]


def test_every_check_id_has_a_planted_fault():
    assert sorted(row.values[0] for row in PLANTED_FAULTS) == sorted([*PROPOSITION_IDS, "L3.1"])


@pytest.mark.parametrize("pid, name, fault, fragment", PLANTED_FAULTS)
def test_each_check_reports_its_planted_fault(pid, name, fault, fragment, monkeypatch):
    monkeypatch.setattr(propcheck, name, fault)
    report = check(pid, trials=3, seed=0)
    assert report.failures >= 1
    assert fragment in report.first_counterexample.splitlines()[1]


def _in_the_opposite_algebra(x):
    """x read in the algebra with every product reversed: weights and idempotents stay, e*f becomes f*e."""
    a = x.algebra
    return Element._raw(Algebra(a.field, a.dim, {(j, i, k): c for (i, j, k), c in a.entries()}), x.values)


def _with_weight(b, coords):
    """b with its weight replaced after it was validated."""
    b.weight = Weight(b.field, coords)
    return b


def _refusing_bowtie(b1, b2):
    raise WeightInvalid("refused for the test")


def _doubled_basis_change(b):
    """normalize_weight_one_basis with the change-of-basis matrix doubled: each new vector has weight two."""
    normalized, t = normalize_weight_one_basis(b)
    return normalized, Matrix.of(b.field, [[2 * c for c in row] for row in t.values])


# Every other failure message of every check: (check id, propcheck name, wrong
# function, a fragment of the failure message, trials). Each fault passes the
# tests that come before its message in the check. The swapped EX6.1 bowtie
# first differs in its split at n = 3, in trial 2. EX6.1's coordinate-sum row
# runs trial 0 only; test_ex61_reports_a_zeroed_power_weight_at_every_n runs
# the same fault at n = 1 to 4.
FAILURE_MESSAGES = [
    pytest.param(
        "P3.1", "structural_isos", lambda *bs: _flipped(structural_isos(*bs), "assoc_verified"),
        "regrouping map failed verification", 3, id="P3.1-regrouping",
    ),
    pytest.param(
        "P3.3", "idempotent_family", lambda bow, e1, e2, lam: embed(bow, "left", e1) + embed(bow, "right", e2),
        "is not idempotent", 3, id="P3.3-idempotent",
    ),
    pytest.param(
        "P3.3", "idempotent_family", lambda *args: _in_the_opposite_algebra(idempotent_family(*args)),
        "family law ef=e fails", 3, id="P3.3-family-law",
    ),
    pytest.param(
        "C4.1", "bowtie", _bowtie_with_doubled_weight, "embedding does not preserve weight", 3, id="C4.1-weight",
    ),
    pytest.param("C4.1", "enumerate_weights", lambda *args: [], "ambient weight is not unique", 3, id="C4.1-unique"),
    pytest.param(
        "P6.1", "associativity_character",
        lambda *bs: _flipped(associativity_character(*bs), "scalar_action_left"),
        "but factor laws=", 3, id="P6.1-factor-laws",
    ),
    pytest.param(
        "L6.2", "normalize_weight_one_basis", lambda b: (SimpleNamespace(weight=Weight(b.field, [0] * b.dim)), None),
        "normalized weight is not all ones", 3, id="L6.2-weight",
    ),
    pytest.param(
        "L6.2", "normalize_weight_one_basis", _doubled_basis_change,
        "a new basis vector does not have weight one", 3, id="L6.2-basis-weight",
    ),
    pytest.param(
        "P6.3", "kpow", lambda field, n: kpow(field, n + 1),
        "classification target is not the field power", 3, id="P6.3-target",
    ),
    pytest.param(
        "P6.3", "classify_scalar_action",
        lambda b: classify_scalar_action(b) or (Matrix.identity(b.field, b.dim), b),
        "dual numbers wrongly classified", 3, id="P6.3-dual-numbers",
    ),
    pytest.param(
        "C6.1", "property_flags", lambda a: _flipped(property_flags(a), "associative"),
        "non-scalar-action factor is associative", 3, id="C6.1-control",
    ),
    pytest.param(
        "C6.1", "scalar_action", lambda field, w: dual_numbers(field),
        "scalar-action factors is not associative", 3, id="C6.1-associative",
    ),
    pytest.param(
        "C6.1", "Matrix", SimpleNamespace(identity=lambda field, n: Matrix.of(field, [[0] * n] * n)),
        "identity is not an isomorphism", 3, id="C6.1-identity",
    ),
    pytest.param(
        "EX2.1", "kpow", lambda field, n: _with_weight(kpow(field, n), [1] + [0] * (n - 1)),
        "field square has unexpected weight", 3, id="EX2.1-weight",
    ),
    pytest.param(
        "EX2.1", "_random_element", lambda rng, b: dual_numbers(b.field).element([0, 1]),
        "product law fails", 3, id="EX2.1-product-law",
    ),
    pytest.param(
        "EX5.1", "kernel_ideal_bijection", lambda *args: SimpleNamespace(verified=False),
        "pairing failed on the field square", 3, id="EX5.1-pairing",
    ),
    pytest.param(
        "EX5.1", "kernel_ideal_bijection", lambda *args: SimpleNamespace(verified=True, bowtie_ideals=[]),
        "unexpected proper ideals", 3, id="EX5.1-proper-ideals",
    ),
    pytest.param(
        "EX6.1", "property_flags", lambda a: _flipped(property_flags(a), "commutative"),
        "wrong commutativity", 3, id="EX6.1-commutativity",
    ),
    pytest.param(
        "EX6.1", "bowtie", lambda b1, b2: bowtie(b2, b1), "iterated product differs", 3, id="EX6.1-iterated",
    ),
    pytest.param(
        "EX6.1", "kpow", lambda field, n: _with_weight(kpow(field, n), [0] * n),
        "power weight is not the coordinate sum", 1, id="EX6.1-coordinate-sum",
    ),
    pytest.param(
        "EX6.1", "bowtie", _refusing_bowtie, "iterated product refuses its factors", 3, id="EX6.1-refused",
    ),
]


@pytest.mark.parametrize("pid, name, fault, fragment, trials", FAILURE_MESSAGES)
def test_each_failure_message_is_reached_by_its_fault(pid, name, fault, fragment, trials, monkeypatch):
    monkeypatch.setattr(propcheck, name, fault)
    report = check(pid, trials=trials, seed=0)
    assert report.failures >= 1
    assert fragment in report.first_counterexample.splitlines()[1]


def test_ex61_reports_a_zeroed_power_weight_at_every_n(monkeypatch):
    # the coordinate-sum test runs before the iterated bowtie, which would refuse the zeroed factors
    monkeypatch.setattr(propcheck, "kpow", lambda field, n: _with_weight(kpow(field, n), [0] * n))
    spec, messages = propcheck.CHECKS["EX6.1"], []

    def recording(rng, t, cfg):
        try:
            spec.run(rng, t, cfg)
        except propcheck.CheckFailure as exc:
            messages.append(str(exc))
            raise

    monkeypatch.setitem(propcheck.CHECKS, "EX6.1", replace(spec, run=recording))
    assert check("EX6.1", trials=4, seed=0).failures == 4
    assert messages == ["power weight is not the coordinate sum"] * 4


@pytest.mark.parametrize("config", [None, RunConfig(field=F3)], ids=["p2", "p3"])
def test_p55_falls_back_to_a_fixed_pair_when_no_draw_is_indecomposable(config, monkeypatch):
    # K^3 with its first-coordinate weight has a decomposable kernel, so every draw is rejected
    fallbacks = []

    def counting_dual_numbers(field):
        fallbacks.append(field)
        return dual_numbers(field)

    monkeypatch.setattr(propcheck, "random_baric", lambda field, dim, **kw: componentwise(field, 3))
    monkeypatch.setattr(propcheck, "dual_numbers", counting_dual_numbers)
    report = check("P5.5", trials=2, config=config)
    assert report.failures == 0, report.first_counterexample
    assert fallbacks == [config.field if config else F2] * 2


def _opposite_change_basis(a, t):
    """change_basis followed by reversing every product: weights still validate."""
    moved = change_basis(a, t)
    return Algebra(moved.field, moved.dim, {(j, i, k): c for (i, j, k), c in moved.entries()})


def test_l62_reads_the_new_basis_back_in_the_algebra(monkeypatch):
    # The opposite product is wrong exactly when b is not commutative; a check
    # that recomputes the answer with change_basis cannot see it.
    commutative = []
    normalize = propcheck.normalize_weight_one_basis

    def recording_normalize(b):
        commutative.append(property_flags(b.algebra).commutative)
        return normalize(b)

    for module in (weights, propcheck):
        monkeypatch.setattr(module, "change_basis", _opposite_change_basis)
    monkeypatch.setattr(propcheck, "normalize_weight_one_basis", recording_normalize)
    report = check("L6.2", trials=20)
    assert 0 < report.failures == commutative.count(False) < 20
    assert "differs from the returned structure constants" in report.first_counterexample


# SHA-256 over the documents that random_baric, random_rational_baric and
# scalar_action draw and the PropReport reprs of check(pid, 2, seed), for
# every check id and seeds 0 and 1. A change that moves a seeded draw or a
# report changes it.
SEEDED_DRAWS_DIGEST = "0cebe73d615a30847ec3b2b7624e2023843c751257a44c7fd14fb16f57a8f564"


def test_seeded_draws_and_reports_are_pinned(monkeypatch):
    digest = hashlib.sha256()

    def recording(make):
        def drawn(*args, **kwargs):
            b = make(*args, **kwargs)
            digest.update(io.dumps(b).encode())
            return b

        return drawn

    for name in ("random_baric", "random_rational_baric", "scalar_action"):
        monkeypatch.setattr(propcheck, name, recording(getattr(propcheck, name)))
    for pid in PROPOSITION_IDS:
        for seed in (0, 1):
            digest.update(repr(check(pid, 2, seed)).encode())
    assert digest.hexdigest() == SEEDED_DRAWS_DIGEST
