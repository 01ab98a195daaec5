import pytest

from baric import (
    FieldNotFinite,
    FieldSpec,
    PROPOSITION_IDS,
    PropReport,
    RunConfig,
    UnknownProposition,
    check,
    property_flags,
    random_baric,
    random_rational_baric,
    validate_weight,
)

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
