"""Job lists of the three workloads, and the checks on every job's output.

`build(workload, seed, variant, tiny)` writes the input documents of one
pass under `in<variant>/` (relative to the current directory) and returns
its jobs. A job is one `baric` CLI command on one document; its check
looks only at the job's stdout, the files it wrote and the input
documents, so it is computed by the benchmark and not by the program under
test. Jobs of one pass run in order, so a check may use the output of an
earlier job of the same pass (P5.5 needs the verdicts on the factors).

Passes cycle through VARIANTS input sets drawn from the seed, so one run
averages over several random inputs instead of timing one draw again.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import inputs
from metrics import PROPOSITION_IDS

VARIANTS = 6


@dataclass
class Job:
    name: str
    argv: list
    check: Callable  # (stdout, outputs of earlier jobs by name) -> error text or None
    writes: tuple = field(default_factory=tuple)


class Mismatch(Exception):
    pass


def _expect(condition, message):
    if not condition:
        raise Mismatch(message)


def _lines(stdout, key):
    return [line[len(key) + 1:] for line in stdout.splitlines() if line.startswith(key + "=")]


def _value(stdout, key):
    """The value of `key=` on any line (lines may hold several key=value pairs)."""
    match = re.search(rf"(?:^|\s){re.escape(key)}=(\S+)", stdout, re.M)
    _expect(match is not None, f"no {key}= in output")
    return match.group(1)


# -- an independent reading of an input document ---------------------------


class Doc:
    """Structure constants of a document, for checks that redo the arithmetic."""

    def __init__(self, doc):
        self.p = doc["field"].get("p")
        self.dim = doc["dim"]
        self.by_pair = {}
        for i, j, k, c in doc["mul"]:
            self.by_pair.setdefault((i, j), []).append((k, self.scalar(c)))
        self.weight = [self.scalar(x) for x in doc["weight"]]

    def scalar(self, text):
        value = Fraction(text)
        if self.p is None:
            return value
        return value.numerator * pow(value.denominator, -1, self.p) % self.p

    def reduce(self, value):
        return value if self.p is None else value % self.p

    def vector(self, text):
        return [self.scalar(x) for x in text.split(",")]

    def product(self, x, y):
        out = [0] * self.dim
        for (i, j), entries in self.by_pair.items():
            s = x[i] * y[j]
            if s:
                for k, c in entries:
                    out[k] += s * c
        return [self.reduce(v) for v in out]

    def apply(self, functional, x):
        return self.reduce(sum(a * b for a, b in zip(functional, x)))

    def is_weight(self, w):
        for i in range(self.dim):
            for j in range(self.dim):
                image = sum(c * w[k] for k, c in self.by_pair.get((i, j), ()))
                if self.reduce(image - w[i] * w[j]):
                    return False
        return any(w)


# -- checks -----------------------------------------------------------------


def check_verify(pid, seed):
    def check(out, earlier):
        lines = out.splitlines()
        _expect(len(lines) == 1, f"expected one line, got {len(lines)}")
        _expect(re.fullmatch(rf"{re.escape(pid)} trials=\d+ failures=0 seed={seed}", lines[0]) is not None,
                f"bad verify line {lines[0]!r}")

    return check


def check_decompose(doc, expect=None, factors=()):
    """Outcome and witness; `factors` are job names whose verdicts decide P5.5."""

    def check(out, earlier):
        outcome = _value(out, "outcome")
        want = expect
        if factors and all(_value(earlier[f], "outcome") == "indecomposable" for f in factors):
            want = "indecomposable"
        _expect(want is None or outcome == want, f"outcome={outcome}, expected {want}")
        if outcome in ("decomposable", "indecomposable"):
            e = doc.vector(_value(out, "idempotent"))
            _expect(doc.apply(doc.weight, e) == 1, "witness idempotent does not have weight one")
            _expect(doc.product(e, e) == e, "witness is not idempotent")
        n1, n2 = _lines(out, "n1_vector"), _lines(out, "n2_vector")
        _expect((outcome == "decomposable") == bool(n1 and n2), "n1/n2 vectors do not match the outcome")
        _expect(len(n1) + len(n2) in (0, doc.dim - 1), "n1 and n2 do not add up to the kernel dimension")

    return check


def check_bijection(out, earlier):
    _expect(_value(out, "verified") == "true", "verified is not true")
    left, right = int(_value(out, "left_ideals")), int(_value(out, "right_ideals"))
    pairs, ideals = int(_value(out, "pairs")), int(_value(out, "bowtie_ideals"))
    _expect(pairs == left * right, "pairs is not left_ideals * right_ideals")
    _expect(pairs == ideals, f"P5.4: pairs={pairs} but bowtie_ideals={ideals}")


def check_ideal(doc, side):
    def check(out, earlier):
        vectors = _lines(out, "vector")
        _expect(int(_value(out, "dim")) == len(vectors), "dim does not match the vector count")
        sided = _value(out, "sided")
        _expect(sided == "two_sided" or (side == "right" and sided == "right"), f"closure is {sided}")
        for v in vectors:
            _expect(len(doc.vector(v)) == doc.dim, "vector of the wrong length")

    return check


def check_check(n, commutative=None, associative=None, center=None, bowtie=None):
    def check(out, earlier):
        _expect(_value(out, "dim") == str(n), "wrong dim")
        _expect(_value(out, "weight_valid") == "true", "weight not valid")
        if commutative is not None:
            _expect(_value(out, "commutative") == commutative, "commutative flag")
        if associative is not None:
            _expect(_value(out, "associative") == associative, "associative flag")
            # P6.2 for products, and every associative algebra is alternative
            if associative == "true":
                _expect(_value(out, "left_alternative") == "true", "associative but not left alternative")
                _expect(_value(out, "right_alternative") == "true", "associative but not right alternative")
        if center is not None:
            _expect(_value(out, "center_dim") == str(center), "center dimension")
        if bowtie is not None:
            _expect(_value(out, "bowtie") == bowtie, "bowtie split")

    return check


def check_classify(n):
    def check(out, earlier):
        _expect(_value(out, "scalar_action") == "true", "scalar action not detected")
        _expect(_value(out, "target_dim") == str(n), "target dimension")
        _expect(len(_lines(out, "iso_row")) == n, "isomorphism has the wrong number of rows")
        _expect(_value(out, "verified") == "true", "isomorphism not verified")

    return check


def check_weights(doc):
    def check(out, earlier):
        found = [doc.vector(w) for w in _lines(out, "weight")]
        _expect(int(_value(out, "count")) == len(found), "count does not match the listed weights")
        _expect(_value(out, "stored_weight_found") == "true", "stored weight not found")
        _expect(doc.weight in found, "stored weight missing from the list")
        _expect(len({tuple(w) for w in found}) == len(found), "duplicate weights")
        for w in found:
            _expect(doc.is_weight(w), f"listed weight {w} is not multiplicative")

    return check


def check_idempotents(doc):
    def check(out, earlier):
        found = [doc.vector(x) for x in _lines(out, "idempotent")]
        _expect(int(_value(out, "count")) == len(found), "count does not match the listed idempotents")
        _expect(_value(out, "search") == "exhaustive", "search was not exhaustive")
        _expect(found, "no idempotent of weight one found")
        for x in found:
            _expect(doc.apply(doc.weight, x) == 1 and doc.product(x, x) == x, f"{x} is not a weight-one idempotent")

    return check


def check_written(n):
    def check(out, earlier):
        _expect(_value(out, "dim") == str(n), "written document has the wrong dimension")

    return check


def run_check(job, out, earlier):
    try:
        job.check(out, earlier)
    except Mismatch as exc:
        return str(exc)
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return None


# -- job lists --------------------------------------------------------------


class _Pass:
    def __init__(self, variant):
        self.dir = Path(f"in{variant}")
        self.out = Path(f"out{variant}")
        self.dir.mkdir(exist_ok=True)
        self.out.mkdir(exist_ok=True)
        self.jobs = []
        self.docs = {}

    def doc(self, name, doc):
        path = self.dir / f"{name}.json"
        inputs.write(doc, path)
        self.docs[name] = Doc(doc)
        return str(path)

    def add(self, name, argv, check, writes=()):
        self.jobs.append(Job(name, [str(a) for a in argv], check, tuple(writes)))


def _verify(p, rng, tiny):
    seed = rng.randrange(1 << 30)
    for pid in PROPOSITION_IDS:
        argv = ["verify", "--props", pid, "--seed", seed] + (["--trials", 1] if tiny else [])
        p.add(f"verify:{pid}", argv, check_verify(pid, seed))


def _random_kernel_vector(rng, doc, p):
    """A random vector whose weight is zero, as a CLI coordinate string."""
    d = Doc(doc)
    n = d.dim
    while True:
        x = [rng.randrange(p) for _ in range(n)]
        lead = next((i for i, wi in enumerate(d.weight) if wi), None)
        x[lead] = 0
        x[lead] = (-d.apply(d.weight, x) * pow(d.weight[lead], -1, p)) % p
        if any(x):
            return ",".join(map(str, x))


def _lattice(p, rng, tiny):
    rcu = inputs.random_commutative_unital
    for q, n in (((2, 4), (2, 5), (3, 4)) if tiny else ((2, 5), (2, 6), (2, 7), (3, 5), (3, 6))):
        name = f"f{q}_{n}"
        path = p.doc(name, rcu(rng, q, n))
        p.add(f"decompose:{name}", ["decompose", path], check_decompose(p.docs[name]))
    # products of commutative unital factors, where P5.4 and P5.5 apply
    for q, n1, n2 in ((2, 2, 2), (3, 2, 2)) if tiny else ((2, 3, 4), (3, 3, 3)):
        left, right = rcu(rng, q, n1), rcu(rng, q, n2)
        verdicts = []
        for name, doc in ((f"f{q}_{n1}a", left), (f"f{q}_{n2}b", right)):
            path = p.doc(name, doc)
            p.add(f"decompose:{name}", ["decompose", path], check_decompose(p.docs[name]))
            verdicts.append(f"decompose:{name}")
        name = f"prod{q}_{n1}{n2}"
        product = inputs.bowtie(left, right)
        path = p.doc(name, product)
        p.add(f"decompose:{name}", ["decompose", path], check_decompose(p.docs[name], factors=verdicts))
        p.add(f"bijection:{name}", ["bijection", path], check_bijection)
        if q == 2:
            written = p.out / f"ideal_{name}.json"
            p.add(f"ideal:{name}", ["ideal", path, "--gens", _random_kernel_vector(rng, product, q), "-o", written],
                  check_ideal(p.docs[name], "two"), writes=[written])
    # fixed lattices: K^n has every kernel subspace as an ideal (ideal-rich),
    # K[x]/(x^n) a chain, the componentwise K^n a boolean lattice
    fixed = (
        [("kpow2_4", inputs.kpow(2, 4), "decomposable"), ("trunc3_4", inputs.truncated_polynomials(3, 4), "indecomposable")]
        if tiny else
        [("kpow2_6", inputs.kpow(2, 6), "decomposable"), ("kpow2_7", inputs.kpow(2, 7), "decomposable"),
         ("trunc2_7", inputs.truncated_polynomials(2, 7), "indecomposable"),
         ("trunc3_6", inputs.truncated_polynomials(3, 6), "indecomposable"),
         ("comp2_7", inputs.componentwise(2, 7, 0), "decomposable"),
         ("comp3_6", inputs.componentwise(3, 6, 0), "decomposable")]
    )
    for name, doc, outcome in fixed:
        path = p.doc(name, doc)
        p.add(f"decompose:{name}", ["decompose", path], check_decompose(p.docs[name], outcome))
    name, doc, _ = fixed[1]
    gens = ";".join(_random_kernel_vector(rng, doc, doc["field"]["p"]) for _ in range(2))
    p.add(f"ideal:{name}", ["ideal", p.dir / f"{name}.json", "--gens", gens, "--side", "right"],
          check_ideal(p.docs[name], "right"))


def _tensor(p, rng, tiny):
    s = (lambda n: max(2, n // 3)) if tiny else (lambda n: n)
    n = s(20)
    path = p.doc(f"kpow5_{n}", inputs.kpow(5, n))
    p.add(f"check:kpow5_{n}", ["check", path], check_check(n, "false", "true", 0))
    n = s(14)
    path = p.doc(f"truncq_{n}", inputs.truncated_polynomials(None, n))
    p.add(f"check:truncq_{n}", ["check", path], check_check(n, "true", "true", n))
    for q, n in ((None, s(12)), (5, s(16))):
        name = f"comp{q or 'q'}_{n}"
        path = p.doc(name, inputs.componentwise(q, n, rng.randrange(n)))
        p.add(f"check:{name}", ["check", path], check_check(n, "true", "true", n))
    for n in (s(10), s(11), s(12)):
        name = f"scalarq_{n}"
        path = p.doc(name, inputs.scalar_action(None, inputs.random_rationals(rng, n, 5)))
        p.add(f"check:{name}", ["check", path], check_check(n, "false", "true", 0))
        p.add(f"classify:{name}", ["classify", path], check_classify(n))
    for q, n in ((3, s(8)), (5, s(9)), (None, s(7))):
        name = f"random{q or 'q'}_{n}"
        path = p.doc(name, inputs.random_baric(rng, q, n))
        p.add(f"check:{name}", ["check", path], check_check(n))
    for q, n in ((2, s(12)), (3, s(8))):
        name = f"unital{q}_{n}"
        path = p.doc(name, inputs.random_commutative_unital(rng, q, n))
        p.add(f"weights:{name}", ["weights", path], check_weights(p.docs[name]))
        p.add(f"idempotents:{name}", ["idempotents", path], check_idempotents(p.docs[name]))
    n1, n2 = s(5), s(6)
    left = p.doc(f"scalarq_{n1}", inputs.scalar_action(None, inputs.random_rationals(rng, n1, 5)))
    right = p.doc(f"scalarq_{n2}", inputs.scalar_action(None, inputs.random_rationals(rng, n2, 5)))
    written = p.out / "bowtie.json"
    p.add("bowtie:scalarq", ["bowtie", left, right, "-o", written], check_written(n1 + n2), writes=[written])
    # P6.1: the product of scalar-action algebras is associative; C3.1: zero center
    p.add("check:bowtie", ["check", written], check_check(n1 + n2, "false", "true", 0, f"{n1},{n2}"))
    n = s(22)
    written = p.out / "kpow.json"
    p.add("kpow:p5", ["kpow", n, "--field", "p5", "-o", written], check_written(n), writes=[written])
    p.add("check:kpow", ["check", written], check_check(n, "false", "true", 0))


BUILDERS = {"verify": _verify, "lattice": _lattice, "tensor": _tensor}


def build(workload, seed, variant, tiny=False):
    """Write the inputs of one pass into the current directory and return its jobs."""
    rng = random.Random(f"{workload}:{seed}:{variant}:{'tiny' if tiny else 'full'}")
    p = _Pass(variant)
    BUILDERS[workload](p, rng, tiny)
    return p.jobs


def written_roundtrip(path: Path):
    """None if a document written by a job reloads and re-saves byte-identically."""
    from baric import io

    text = path.read_text(encoding="utf-8")
    doc = json.loads(text)
    again = io.dumps_subspace(io.load_subspace(path)) if "ambient_dim" in doc else io.dumps(io.load(path))
    return None if again == text else f"{path} does not re-save byte-identically"
