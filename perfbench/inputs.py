"""Seeded input documents for the benchmark, built without calling baric.

Every generator returns a document in the JSON layout `baric` reads
(field, dim, mul, weight, optional provenance). Inputs are built here, not
by the library, so a change to the program under test cannot change the
inputs it is measured on.
"""

from __future__ import annotations

import json
from fractions import Fraction


def _field(p):
    return {"kind": "rational"} if p is None else {"kind": "prime", "p": p}


def _doc(p, dim, table, weight, provenance=None):
    doc = {
        "field": _field(p),
        "dim": dim,
        "mul": [[i, j, k, str(c)] for (i, j, k), c in sorted(table.items()) if c],
        "weight": [str(x) for x in weight],
    }
    if provenance is not None:
        doc["provenance"] = {"bowtie": {"left": provenance[0], "right": provenance[1]}}
    return doc


def random_commutative_unital(rng, p, dim):
    """A random commutative F_p algebra with unit e_0 and a weight w(e_0) = 1.

    c[i,j,k] for k >= 1 is drawn freely; c[i,j,0] is solved from
    w(e_i e_j) = w(e_i) w(e_j), so the weight is valid by construction.
    """
    w = [1] + [rng.randrange(p) for _ in range(dim - 1)]
    table = {}
    for j in range(dim):
        table[(0, j, j)] = 1
        table[(j, 0, j)] = 1
    for i in range(1, dim):
        for j in range(i, dim):
            tail = [rng.randrange(p) for _ in range(dim - 1)]
            lead = (w[i] * w[j] - sum(c * wk for c, wk in zip(tail, w[1:]))) % p
            for k, c in enumerate([lead] + tail):
                table[(i, j, k)] = c
                table[(j, i, k)] = c
    return _doc(p, dim, table, w)


def truncated_polynomials(p, n):
    """K[x]/(x^n): basis 1, x, ..., x^(n-1); weight is evaluation at 0."""
    table = {(i, j, i + j): 1 for i in range(n) for j in range(n) if i + j < n}
    return _doc(p, n, table, [1] + [0] * (n - 1))


def componentwise(p, n, weight_index):
    """K^n with the componentwise product; the weight picks one coordinate."""
    weight = [0] * n
    weight[weight_index] = 1
    return _doc(p, n, {(i, i, i): 1 for i in range(n)}, weight)


def scalar_action(p, weights):
    """x*y = w(y) x on the basis: c[i,j,i] = w_j."""
    n = len(weights)
    table = {(i, j, i): wj for i in range(n) for j, wj in enumerate(weights)}
    return _doc(p, n, table, weights)


def kpow(p, n):
    """The n-th power of the base field: c[i,j,i] = 1, every weight one."""
    return scalar_action(p, [1] * n)


def random_rationals(rng, n, magnitude):
    """n nonzero rationals, the first equal to one, numerators and denominators up to magnitude."""
    out = [Fraction(1)]
    while len(out) < n:
        value = Fraction(rng.randint(-magnitude, magnitude), rng.randint(1, magnitude))
        if value:
            out.append(value)
    return out


def random_baric(rng, p, dim):
    """A random (usually non-associative) F_p or Q algebra with a valid weight."""
    if p is None:
        w = random_rationals(rng, dim, 3)
        draw = lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    else:
        w = [1] + [rng.randrange(p) for _ in range(dim - 1)]
        draw = lambda: rng.randrange(p)
    table = {}
    for i in range(dim):
        for j in range(dim):
            tail = [draw() for _ in range(dim - 1)]
            lead = w[i] * w[j] - sum(c * wk for c, wk in zip(tail, w[1:]))  # w[0] is 1
            lead = lead if p is None else lead % p
            for k, c in enumerate([lead] + tail):
                table[(i, j, k)] = c
    return _doc(p, dim, table, w)


def bowtie(left, right):
    """The product document of two factor documents (same field)."""
    n1, n2 = left["dim"], right["dim"]
    p = left["field"].get("p")
    parse = Fraction if p is None else int
    w1 = [parse(x) for x in left["weight"]]
    w2 = [parse(x) for x in right["weight"]]
    table = {}
    for i, j, k, c in left["mul"]:
        table[(i, j, k)] = parse(c)
    for i, j, k, c in right["mul"]:
        table[(n1 + i, n1 + j, n1 + k)] = parse(c)
    for i in range(n1):
        for j, wj in enumerate(w2):
            table[(i, n1 + j, i)] = wj
    for i in range(n2):
        for j, wj in enumerate(w1):
            table[(n1 + i, j, n1 + i)] = wj
    return _doc(p, n1 + n2, table, w1 + w2, (n1, n2))


def write(doc, path):
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
