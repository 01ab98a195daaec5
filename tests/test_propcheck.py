import random

import pytest

from baric import (
    Algebra,
    DimensionMismatch,
    associator,
    commutator,
    FieldNotFinite,
    FieldSpec,
    PROPOSITION_IDS,
    PropReport,
    RunConfig,
    UnknownProposition,
    bowtie,
    change_basis,
    check,
    is_scalar_action,
    property_flags,
    random_baric,
    random_rational_baric,
    validate_weight,
)
from baric import propcheck, weights
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


def _left_factors(pid, trials, seed=0):
    """The left factor each closed-form trial draws, replayed from the check's rng."""
    for t in range(trials):
        rng = random.Random(f"{pid}:{seed}:{t}")
        yield propcheck._random_pair(rng, RunConfig(), F3)[0]


def _assert_named_counterexample(report, labels):
    text = report.first_counterexample
    assert text.startswith("trial=")
    assert all(f"{label}=(" in text for label in labels)
    assert "left factor:" in text and "right factor:" in text


def test_l31_catches_a_dropped_term(monkeypatch):
    # w2(c2) a1 is nonzero at a1 = e_0, c2 = e_0 in every trial (both weights start with 1)
    monkeypatch.setattr(propcheck, "commutator_closed_form", _commutator_form_without_w2c2)
    report = check("L3.1", trials=3)
    assert report.failures == 3
    _assert_named_counterexample(report, "xy")


def test_l61_catches_a_dropped_term(monkeypatch):
    # The dropped term w2(p2)(a1 c1 - w1(c1) a1) vanishes identically exactly when
    # the left factor obeys x*y = w(y)*x (as every one-dimensional factor does), so
    # the mutant is wrong on precisely the other trials, and each of them must fail.
    monkeypatch.setattr(propcheck, "associator_closed_form", _associator_form_without_w2p2)
    trials = 10
    wrong = sum(not is_scalar_action(b.algebra, b.weight) for b in _left_factors("L6.1", trials))
    assert 0 < wrong < trials
    report = check("L6.1", trials=trials)
    assert report.failures == wrong
    _assert_named_counterexample(report, "xyz")


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
