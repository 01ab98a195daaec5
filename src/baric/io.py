"""JSON documents for baric algebras and subspaces.

An algebra document looks like

    {
      "field": {"kind": "rational"}            or {"kind": "prime", "p": 5},
      "dim": 2,
      "basis": ["1", "x"],                     optional
      "mul": [[0, 0, 0, "1"], [0, 1, 1, "1"]], entries [i, j, k, coeff]
      "weight": ["1", "0"],
      "provenance": {"bowtie": {"left": 1, "right": 1}}   optional
    }

Coefficients are strings, never JSON numbers, so exact rationals survive
the round trip. Omitted (i, j, k) triples are zero; duplicates are an
error. Saving is canonical: triples sorted lexicographically, scalars in
canonical form, fixed key order. save -> load -> save is byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path

from .algebra import Algebra
from .bowtie import bowtie, factors
from .errors import DuplicateTriple, ParseError, WeightInvalid
from .fields import FieldSpec, parse_scalar
from .linalg import Subspace, span
from .weights import BaricAlgebra, BowtieTag, Weight


def _is_index(value) -> bool:
    # JSON true/false load as Python bools, which are ints
    return isinstance(value, int) and not isinstance(value, bool)


def _field_to_json(field: FieldSpec) -> dict:
    if field.p is None:
        return {"kind": "rational"}
    return {"kind": "prime", "p": field.p}


def _field_from_json(doc, where: str) -> FieldSpec:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ParseError(f"{where}: expected an object with a 'kind' key")
    kind = doc["kind"]
    if kind == "rational":
        return FieldSpec.rationals()
    if kind == "prime":
        p = doc.get("p")
        if not isinstance(p, int):
            raise ParseError(f"{where}: prime field needs an integer 'p'")
        try:
            return FieldSpec.prime(p)
        except ValueError as exc:
            raise ParseError(f"{where}: {exc}") from exc
    raise ParseError(f"{where}: unknown field kind {kind!r}")


def algebra_to_document(b: BaricAlgebra) -> dict:
    doc: dict = {
        "field": _field_to_json(b.field),
        "dim": b.dim,
    }
    if b.algebra.basis_names is not None:
        doc["basis"] = list(b.algebra.basis_names)
    doc["mul"] = [[i, j, k, str(c)] for (i, j, k), c in b.algebra.entries()]
    doc["weight"] = [str(w) for w in b.weight.values]
    if b.provenance is not None:
        doc["provenance"] = {
            "bowtie": {
                "left": b.provenance.left_dim,
                "right": b.provenance.right_dim,
            }
        }
    return doc


def document_to_algebra(doc) -> BaricAlgebra:
    if not isinstance(doc, dict):
        raise ParseError("document root must be an object")
    field = _field_from_json(doc.get("field"), "field")
    dim = doc.get("dim")
    if not _is_index(dim) or dim < 1:
        raise ParseError("dim: expected a positive integer")

    names = doc.get("basis")
    if names is not None:
        if not isinstance(names, list) or not all(isinstance(s, str) for s in names):
            raise ParseError("basis: expected an array of strings")
        if len(names) != dim:
            raise ParseError(f"basis: expected {dim} names, got {len(names)}")

    mul = doc.get("mul")
    if not isinstance(mul, list):
        raise ParseError("mul: expected an array of [i, j, k, coeff] entries")
    table = {}
    for pos, entry in enumerate(mul):
        where = f"mul[{pos}]"
        if not (isinstance(entry, list) and len(entry) == 4):
            raise ParseError(f"{where}: expected [i, j, k, coeff]")
        i, j, k, coeff = entry
        for name, idx in (("i", i), ("j", j), ("k", k)):
            if not _is_index(idx) or not 0 <= idx < dim:
                raise ParseError(f"{where}: index {name}={idx!r} out of range for dim {dim}")
        if not isinstance(coeff, str):
            raise ParseError(f"{where}: coefficient must be a string")
        if (i, j, k) in table:
            raise DuplicateTriple(f"{where}: triple ({i},{j},{k}) appears twice")
        try:
            table[(i, j, k)] = parse_scalar(coeff, field)
        except ParseError as exc:
            raise ParseError(f"{where}: {exc}") from exc

    weight_doc = doc.get("weight")
    if not isinstance(weight_doc, list) or len(weight_doc) != dim:
        raise ParseError(f"weight: expected an array of {dim} coefficient strings")
    coords = []
    for pos, text in enumerate(weight_doc):
        if not isinstance(text, str):
            raise ParseError(f"weight[{pos}]: coefficient must be a string")
        try:
            coords.append(parse_scalar(text, field))
        except ParseError as exc:
            raise ParseError(f"weight[{pos}]: {exc}") from exc
    weight = Weight(field, coords)

    # the weight is validated before the provenance is read
    b = BaricAlgebra(Algebra(field, dim, table, names), weight)
    prov = doc.get("provenance")
    if prov is not None:
        _read_provenance(prov, b)
    return b


def _read_provenance(prov, b: BaricAlgebra) -> None:
    """Tag b with its bowtie split, once the product of its blocks rebuilds b."""
    if not (isinstance(prov, dict) and isinstance(prov.get("bowtie"), dict)):
        raise ParseError("provenance: expected {'bowtie': {'left': int, 'right': int}}")
    split = prov["bowtie"]
    n1, n2 = split.get("left"), split.get("right")
    if not (_is_index(n1) and _is_index(n2) and n1 >= 1 and n2 >= 1):
        raise ParseError("provenance: block dimensions must be positive integers")
    if n1 + n2 != b.dim:
        raise ParseError(f"provenance: blocks {n1}+{n2} do not sum to dim {b.dim}")
    if not (any(b.weight.values[:n1]) and any(b.weight.values[n1:])):
        raise ParseError("provenance: a factor weight block is zero")
    b.provenance = BowtieTag(n1, n2)
    try:
        rebuilt = bowtie(*factors(b)).algebra
    except WeightInvalid:  # a factor block's weight is not multiplicative
        rebuilt = None
    if rebuilt != b.algebra:
        raise ParseError("provenance: multiplication table is not a bowtie product")


def dumps(b: BaricAlgebra) -> str:
    return json.dumps(algebra_to_document(b), indent=2) + "\n"


def loads(text: str) -> BaricAlgebra:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return document_to_algebra(doc)


def save(b: BaricAlgebra, path) -> None:
    Path(path).write_text(dumps(b), encoding="utf-8")


def load(path) -> BaricAlgebra:
    return loads(Path(path).read_text(encoding="utf-8"))


def subspace_to_document(s: Subspace) -> dict:
    return {
        "field": _field_to_json(s.field),
        "ambient_dim": s.ambient_dim,
        "vectors": [[str(x) for x in row] for row in s.rows],
    }


def document_to_subspace(doc) -> Subspace:
    if not isinstance(doc, dict):
        raise ParseError("subspace document root must be an object")
    field = _field_from_json(doc.get("field"), "field")
    n = doc.get("ambient_dim")
    if not _is_index(n) or n < 0:
        raise ParseError("ambient_dim: expected a nonnegative integer")
    vectors_doc = doc.get("vectors")
    if not isinstance(vectors_doc, list):
        raise ParseError("vectors: expected an array of coordinate arrays")
    vectors = []
    for pos, row in enumerate(vectors_doc):
        if not (isinstance(row, list) and len(row) == n and all(isinstance(x, str) for x in row)):
            raise ParseError(f"vectors[{pos}]: expected {n} coefficient strings")
        vectors.append([parse_scalar(x, field) for x in row])
    return span(field, n, vectors)


def dumps_subspace(s: Subspace) -> str:
    return json.dumps(subspace_to_document(s), indent=2) + "\n"


def save_subspace(s: Subspace, path) -> None:
    Path(path).write_text(dumps_subspace(s), encoding="utf-8")


def load_subspace(path) -> Subspace:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return document_to_subspace(doc)
