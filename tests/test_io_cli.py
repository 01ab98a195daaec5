import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from baric import (
    Algebra,
    BaricAlgebra,
    DuplicateTriple,
    FieldSpec,
    ParseError,
    Weight,
    WeightInvalid,
    bowtie,
    decomposability,
    kpow,
    random_baric,
    random_rational_baric,
    span_of,
)
from baric import io, weights
from baric.catalog import componentwise, dual_numbers, scalar_action
from baric.cli import main
from baric.propcheck import PROPOSITION_IDS

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)

FIELD_SQUARE_DOC = {
    "field": {"kind": "rational"},
    "dim": 2,
    "mul": [[0, 0, 0, "1"], [0, 1, 0, "1"], [1, 0, 1, "1"], [1, 1, 1, "1"]],
    "weight": ["1", "1"],
}


def test_load_field_square_document():
    b = io.document_to_algebra(FIELD_SQUARE_DOC)
    assert b.algebra == kpow(Q, 2).algebra
    assert b.weight == kpow(Q, 2).weight
    assert b.provenance is None


def test_load_rejects_zero_weight():
    doc = dict(FIELD_SQUARE_DOC, weight=["0", "0"])
    with pytest.raises(WeightInvalid):
        io.document_to_algebra(doc)


def test_load_rejects_duplicate_triple():
    doc = dict(FIELD_SQUARE_DOC)
    doc["mul"] = doc["mul"] + [[0, 0, 0, "2"]]
    with pytest.raises(DuplicateTriple):
        io.document_to_algebra(doc)


def test_load_diagnostics():
    with pytest.raises(ParseError, match="dim"):
        io.document_to_algebra({"field": {"kind": "rational"}, "dim": 0})
    with pytest.raises(ParseError, match=r"mul\[0\]"):
        io.document_to_algebra(dict(FIELD_SQUARE_DOC, mul=[[0, 0, 5, "1"]]))
    with pytest.raises(ParseError, match=r"weight\[1\]"):
        io.document_to_algebra(dict(FIELD_SQUARE_DOC, weight=["1", "x"]))
    with pytest.raises(ParseError, match="field"):
        io.document_to_algebra(dict(FIELD_SQUARE_DOC, field={"kind": "real"}))
    with pytest.raises(ParseError):
        io.loads("not json")


def test_load_refuses_json_booleans_as_integers(tmp_path, capsys):
    bad_docs = [
        dict(FIELD_SQUARE_DOC, dim=True, mul=[[0, 0, 0, "1"]], weight=["1"]),
        dict(FIELD_SQUARE_DOC, mul=FIELD_SQUARE_DOC["mul"][:3] + [[True, True, True, "1"]]),
        dict(FIELD_SQUARE_DOC, mul=[[0, 0, False, "1"]] + FIELD_SQUARE_DOC["mul"][1:]),
    ]
    for doc in bad_docs:
        with pytest.raises(ParseError):
            io.document_to_algebra(doc)
    square = io.algebra_to_document(bowtie(kpow(Q, 1), kpow(Q, 1)))
    square["provenance"]["bowtie"]["left"] = True
    with pytest.raises(ParseError, match="provenance"):
        io.document_to_algebra(square)
    with pytest.raises(ParseError, match="ambient_dim"):
        io.document_to_subspace({"field": {"kind": "rational"}, "ambient_dim": True, "vectors": [["1"]]})

    path = tmp_path / "bool.json"
    path.write_text(json.dumps(bad_docs[1]), encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert "error=ParseError" in capsys.readouterr().err


def test_provenance_round_trip_and_validation():
    dd = bowtie(dual_numbers(Q), dual_numbers(Q))
    text = io.dumps(dd)
    back = io.loads(text)
    assert back == dd
    assert back.provenance == dd.provenance

    doc = io.algebra_to_document(dd)
    doc["provenance"]["bowtie"]["left"] = 3
    doc["provenance"]["bowtie"]["right"] = 1
    with pytest.raises(ParseError, match="provenance"):
        io.document_to_algebra(doc)

    plain = io.algebra_to_document(dual_numbers(Q))
    plain["provenance"] = {"bowtie": {"left": 1, "right": 1}}
    with pytest.raises(ParseError, match="provenance"):
        io.document_to_algebra(plain)

    # Each tampering keeps w = (1, 0, 1, 0) multiplicative, so only the
    # provenance check can refuse it.
    tampered = {
        # cross block: (e_0, 0)(0, f_0) also picks up e_1
        "cross": lambda mul: mul.append([0, 2, 1, "1"]),
        # wrong block: e_0 e_0 gains a term in the kernel of the right factor
        "extra": lambda mul: mul.append([0, 0, 3, "1"]),
        # wrong block: e_0 e_0 lands on f_0, so the left factor's weight fails
        "moved": lambda mul: mul.__setitem__(0, [0, 0, 2, "1"]),
    }
    for name, tamper in tampered.items():
        doc = io.algebra_to_document(dd)
        assert doc["mul"][0] == [0, 0, 0, "1"]
        tamper(doc["mul"])
        with pytest.raises(ParseError, match="not a bowtie product"):
            io.document_to_algebra(doc)
        del doc["provenance"]
        assert io.document_to_algebra(doc).dim == 4, name


def test_a_tagged_load_validates_the_weight_once(monkeypatch):
    # the provenance is checked on the document's table; no factor is built
    b = bowtie(random_baric(F3, 3, seed=1), random_baric(F3, 4, seed=2))
    text = io.dumps(b)
    calls = []
    validate = weights.validate_weight
    monkeypatch.setattr(weights, "validate_weight", lambda a, w: calls.append(1) or validate(a, w))
    assert io.loads(text) == b
    assert len(calls) == 1


SQUARE_WITH_PROVENANCE = dict(FIELD_SQUARE_DOC, provenance={"bowtie": {"left": 1, "right": 1}})
F3_LINE = {"field": {"kind": "prime", "p": 3}, "ambient_dim": 2, "vectors": [["1", "0"]]}
LONG_DIGITS = "7" * 5000  # past the 4,300 digits Python converts to an int by default


@pytest.mark.parametrize("loader, text, message", [
    ("algebra", json.dumps(dict(FIELD_SQUARE_DOC, field="q")), "field: expected an object"),
    ("algebra", json.dumps(dict(FIELD_SQUARE_DOC, field={"kind": "prime", "p": "5"})), "integer 'p'"),
    (
        "algebra",
        json.dumps(dict(FIELD_SQUARE_DOC, field={"kind": "prime", "p": True})),
        "field: prime field needs an integer 'p'",
    ),
    ("algebra", "[]", "document root must be an object"),
    ("algebra", json.dumps(dict(FIELD_SQUARE_DOC, basis=[1, 2])), "basis: expected an array of strings"),
    ("algebra", json.dumps(dict(FIELD_SQUARE_DOC, basis=["1"])), "basis: expected 2 names, got 1"),
    ("algebra", json.dumps(dict(FIELD_SQUARE_DOC, mul={})), "mul: expected an array"),
    ("algebra", json.dumps(dict(FIELD_SQUARE_DOC, mul=[[0, 0, 0]])), r"mul\[0\]: expected \[i, j, k, coeff\]"),
    ("algebra", json.dumps(dict(FIELD_SQUARE_DOC, mul=[[0, 0, 0, 1]])), r"mul\[0\]: coefficient must be a string"),
    ("algebra", json.dumps(dict(FIELD_SQUARE_DOC, mul=[[0, 0, 0, "x"]])), r"mul\[0\]: bad scalar literal"),
    ("algebra", json.dumps(dict(FIELD_SQUARE_DOC, weight=["1"])), "weight: expected an array of 2"),
    ("algebra", json.dumps(dict(FIELD_SQUARE_DOC, weight=[1, "1"])), r"weight\[0\]: coefficient must be a string"),
    pytest.param("algebra", '{"field": {"kind": "prime", "p": %s}}' % LONG_DIGITS, "invalid JSON: Exceeds the limit", id="long-json-p"),
    pytest.param("algebra", json.dumps(FIELD_SQUARE_DOC).replace('"dim": 2', f'"dim": {LONG_DIGITS}'), "invalid JSON", id="long-json-dim"),
    pytest.param("algebra", json.dumps(dict(FIELD_SQUARE_DOC, mul=[[0, 0, 0, LONG_DIGITS]])), r"mul\[0\]: scalar literal too long", id="long-mul-coeff"),
    pytest.param("algebra", json.dumps(dict(FIELD_SQUARE_DOC, weight=["1", f"1/{LONG_DIGITS}"])), r"weight\[1\]: scalar literal too long", id="long-weight-denominator"),
    ("algebra", json.dumps(dict(FIELD_SQUARE_DOC, provenance={"bowtie": 1})), "provenance: expected"),
    (
        "algebra",
        json.dumps(dict(SQUARE_WITH_PROVENANCE, provenance={"bowtie": {"left": 1, "right": 2}})),
        "blocks 1\\+2 do not sum to dim 2",
    ),
    ("subspace", "[]", "subspace document root must be an object"),
    ("subspace", json.dumps(dict(F3_LINE, vectors={})), "vectors: expected an array"),
    ("subspace", json.dumps(dict(F3_LINE, vectors=[["1"]])), r"vectors\[0\]: expected 2 coefficient strings"),
    ("subspace", json.dumps(dict(F3_LINE, vectors=[["1", "x"]])), r"vectors\[0\]\[1\]: bad scalar literal 'x'"),
    pytest.param("subspace", json.dumps(dict(F3_LINE, vectors=[[f"-{LONG_DIGITS}", "0"]])), r"vectors\[0\]\[0\]: scalar literal too long", id="long-vector-entry"),
    pytest.param("subspace", json.dumps(F3_LINE).replace('"ambient_dim": 2', f'"ambient_dim": {LONG_DIGITS}'), "invalid JSON", id="long-json-ambient-dim"),
    ("subspace", "{", "invalid JSON"),
])
def test_malformed_documents_are_parse_errors(tmp_path, loader, text, message):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match=message):
        (io.load if loader == "algebra" else io.load_subspace)(path)


def test_save_load_save_is_byte_identical(tmp_path):
    cases = [
        kpow(Q, 3),
        dual_numbers(Q),
        bowtie(dual_numbers(Q), kpow(Q, 2)),
        random_baric(FieldSpec.prime(5), 3, seed=1),
    ]
    for idx, b in enumerate(cases):
        path1 = tmp_path / f"a{idx}.json"
        path2 = tmp_path / f"b{idx}.json"
        io.save(b, path1)
        io.save(io.load(path1), path2)
        assert path1.read_bytes() == path2.read_bytes()


def test_loading_unsorted_document_canonicalizes(tmp_path):
    doc = dict(FIELD_SQUARE_DOC)
    doc["mul"] = list(reversed(doc["mul"]))
    path = tmp_path / "messy.json"
    path.write_text(json.dumps(doc))
    b = io.load(path)
    out = tmp_path / "clean.json"
    io.save(b, out)
    reloaded = io.load(out)
    assert reloaded == b
    assert json.loads(out.read_text())["mul"] == FIELD_SQUARE_DOC["mul"]


def test_subspace_round_trip(tmp_path):
    s = span_of(Q, 3, [[1, 2, 3], [0, 1, 1]])
    path = tmp_path / "s.json"
    io.save_subspace(s, path)
    assert io.load_subspace(path) == s


# -- command line ---------------------------------------------------------


def test_cli_kpow_check_roundtrip(tmp_path, capsys):
    out = tmp_path / "k3.json"
    assert main(["kpow", "3", "--field", "q", "-o", str(out)]) == 0
    capsys.readouterr()
    assert main(["check", str(out)]) == 0
    text = capsys.readouterr().out
    assert "associative=true" in text
    assert "commutative=false" in text
    assert "center_dim=0" in text
    assert "weight=1,1,1" in text


def test_cli_bowtie_and_weights(tmp_path, capsys):
    left = tmp_path / "a.json"
    right = tmp_path / "b.json"
    out = tmp_path / "ab.json"
    io.save(dual_numbers(F2), left)
    io.save(dual_numbers(F2), right)
    assert main(["bowtie", str(left), str(right), "-o", str(out)]) == 0
    capsys.readouterr()
    assert main(["weights", str(out)]) == 0
    text = capsys.readouterr().out
    assert "count=1" in text
    assert "weight=1,0,1,0" in text
    assert "stored_weight_found=true" in text


def test_cli_weights_over_rationals(tmp_path, capsys):
    path = tmp_path / "d2.json"
    io.save(dual_numbers(Q), path)
    assert main(["weights", str(path)]) == 0
    assert "valid=true" in capsys.readouterr().out


def test_cli_idempotents(tmp_path, capsys):
    path = tmp_path / "d2.json"
    io.save(dual_numbers(F2), path)
    assert main(["idempotents", str(path)]) == 0
    text = capsys.readouterr().out
    assert "idempotent=1,0" in text
    assert "count=1" in text


def test_cli_ideal_and_project(tmp_path, capsys):
    bow = tmp_path / "dd.json"
    io.save(bowtie(dual_numbers(F2), dual_numbers(F2)), bow)
    ideal_out = tmp_path / "ideal.json"
    code = main([
        "ideal", str(bow), "--gens", "0,1,0,0", "--side", "two",
        "-o", str(ideal_out),
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "dim=1" in text and "sided=two_sided" in text

    assert main(["project", str(bow), "--ideal", str(ideal_out)]) == 0
    text = capsys.readouterr().out
    assert "left_dim=1 left_is_ideal=true" in text
    assert "right_dim=0 right_is_ideal=true" in text


def test_cli_project_of_an_ideal_with_a_right_block(tmp_path, capsys):
    bow = tmp_path / "dd.json"
    io.save(bowtie(dual_numbers(F2), dual_numbers(F2)), bow)
    ideal = tmp_path / "ideal.json"
    assert main(["ideal", str(bow), "--gens", "0,1,0,1", "-o", str(ideal)]) == 0
    capsys.readouterr()
    assert main(["project", str(bow), "--ideal", str(ideal)]) == 0
    assert capsys.readouterr().out == (
        "left_dim=1 left_is_ideal=true\n"
        "left_vector=0,1\n"
        "right_dim=1 right_is_ideal=true\n"
        "right_vector=0,1\n"
    )


def test_cli_project_refuses_a_subspace_that_is_no_ideal(tmp_path, capsys):
    bow = tmp_path / "dd.json"
    io.save(bowtie(dual_numbers(F2), dual_numbers(F2)), bow)
    sub = tmp_path / "s.json"
    io.save_subspace(span_of(F2, 4, [[1, 0, 0, 0]]), sub)
    assert main(["project", str(bow), "--ideal", str(sub)]) == 1
    assert capsys.readouterr().out == "error=NotAnIdeal sided=none\n"


def test_cli_project_requires_bowtie(tmp_path, capsys):
    plain = tmp_path / "d2.json"
    io.save(dual_numbers(F2), plain)
    sub = tmp_path / "s.json"
    io.save_subspace(span_of(F2, 2, [[0, 1]]), sub)
    assert main(["project", str(plain), "--ideal", str(sub)]) == 1


def test_cli_project_refuses_an_ideal_over_another_field(tmp_path, capsys):
    bow = tmp_path / "dd.json"
    io.save(bowtie(dual_numbers(F3), dual_numbers(F3)), bow)
    sub = tmp_path / "s.json"
    io.save_subspace(span_of(Q, 4, [[1, 0, 0, 0]]), sub)
    assert main(["project", str(bow), "--ideal", str(sub)]) == 2
    assert "error=FieldMismatch" in capsys.readouterr().err


def test_cli_bijection_and_decompose(tmp_path, capsys):
    bow = tmp_path / "dd.json"
    io.save(bowtie(dual_numbers(F2), dual_numbers(F2)), bow)
    assert main(["bijection", str(bow)]) == 0
    text = capsys.readouterr().out
    assert "pairs=4" in text and "bowtie_ideals=4" in text
    assert "verified=true" in text

    assert main(["decompose", str(bow)]) == 0
    assert "outcome=indecomposable" in capsys.readouterr().out


def test_cli_decompose_claims_no_absence_over_rationals(tmp_path, capsys):
    # f0*f0 = f0 - f1 has the weight-one idempotent f0 - f1; x*y = w(y) x
    # with w = (2, 3) has e0/2
    missed = BaricAlgebra(Algebra(Q, 2, {(0, 0, 0): 1, (0, 0, 1): -1}), Weight(Q, [1, 0]))
    for b, expected in (
        (missed, "outcome=undecided\n"),
        (scalar_action(Q, [2, 3]), "outcome=undecided\nidempotent=1/2,0\n"),
    ):
        path = tmp_path / "b.json"
        io.save(b, path)
        assert main(["decompose", str(path)]) == 0
        assert capsys.readouterr().out == expected


def test_cli_classify(tmp_path, capsys):
    path = tmp_path / "k2.json"
    io.save(kpow(Q, 2), path)
    assert main(["classify", str(path)]) == 0
    text = capsys.readouterr().out
    assert "scalar_action=true target_dim=2" in text
    assert "verified=true" in text

    d2 = tmp_path / "d2.json"
    io.save(dual_numbers(Q), d2)
    assert main(["classify", str(d2)]) == 0
    assert "scalar_action=false" in capsys.readouterr().out


def test_cli_classify_exits_1_when_its_map_fails_verification(tmp_path, capsys, monkeypatch):
    import baric.cli as cli

    monkeypatch.setattr(cli, "baric_isomorphic_by", lambda f, b1, b2: False)
    path = tmp_path / "sq.json"
    io.save(scalar_action(Q, [2, 3]), path)
    assert main(["classify", str(path)]) == 1
    assert capsys.readouterr().out.endswith("verified=false\n")


def test_cli_verify_subset(tmp_path, capsys):
    code = main([
        "verify", "--props", "P4.1,EX2.1", "--trials", "5", "--seed", "1",
        "--field", "p3", "--maxdim", "3", "--outdir", str(tmp_path),
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("P4.1 trials=5 failures=0 seed=1")
    assert lines[1].startswith("EX2.1 trials=5 failures=0 seed=1")


def test_cli_parse_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    assert main(["check", str(bad)]) == 2
    assert "error=ParseError" in capsys.readouterr().err

    doc = dict(FIELD_SQUARE_DOC, weight=["0", "0"])
    zero_w = tmp_path / "zero.json"
    zero_w.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["check", str(zero_w)]) == 2

    assert main(["kpow", "2", "--field", "p4", "-o", str(tmp_path / "x.json")]) == 2

    k2 = tmp_path / "k2.json"
    io.save(kpow(F3, 2), k2)
    assert main(["ideal", str(k2), "--gens", "1"]) == 2
    assert "error=DimensionMismatch" in capsys.readouterr().err
    assert main(["ideal", str(k2), "--gens", "1,0;0,x"]) == 2
    assert "error=ParseError detail=gens[1][1]: bad scalar literal 'x'" in capsys.readouterr().err
    assert main(["ideal", str(k2), "--gens", f"1,{LONG_DIGITS}"]) == 2
    assert "error=ParseError detail=gens[0][1]: scalar literal too long" in capsys.readouterr().err

    missing = main(["check", str(tmp_path / "absent.json")])
    assert missing == 2


def test_cli_runs_the_handler_bound_to_its_name_when_the_command_runs(monkeypatch):
    import baric.cli as cli

    monkeypatch.setattr(cli, "_cmd_kpow", lambda args: 7)
    assert main(["kpow", "1", "--field", "q", "-o", "unused.json"]) == 7


def test_cli_parser_is_built_once_and_keeps_no_state_between_commands(tmp_path, monkeypatch, capsys):
    import baric.cli as cli

    assert cli.build_parser() is cli.build_parser()
    caps = []

    def spy(b, cap=None):
        caps.append(cap)
        return decomposability(b, cap)

    monkeypatch.setattr(cli, "decomposability", spy)
    path = tmp_path / "k3.json"
    io.save(kpow(F2, 3), path)
    with pytest.raises(SystemExit) as exc:
        main(["decompose", str(path), "--cap", "x"])
    assert exc.value.code == 2
    assert main(["decompose", str(path), "--cap", "5"]) == 1
    assert main(["decompose", str(path)]) == 0
    assert caps == [5, None]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == cli.build_parser.__wrapped__().format_help()


def test_cli_unwritable_output_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "no_such_dir" / "k2.json"
    assert main(["kpow", "2", "--field", "p3", "-o", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error=FileNotFoundError detail=")


def test_cli_division_by_zero_is_a_usage_error(tmp_path, capsys):
    doc = dict(FIELD_SQUARE_DOC, mul=FIELD_SQUARE_DOC["mul"][:-1] + [[1, 1, 1, "1/0"]])
    path = tmp_path / "div0.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert "error=DivisionByZero" in capsys.readouterr().err

    square = tmp_path / "square.json"
    io.save(kpow(Q, 2), square)
    assert main(["ideal", str(square), "--gens", "1/0,1"]) == 2
    captured = capsys.readouterr()
    assert "error=DivisionByZero" in captured.err and captured.out == ""


def test_cli_negative_trials_exit_2(capsys):
    assert main(["verify", "--props", "P2.1", "--trials", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error=ValueError" in captured.err


@pytest.mark.parametrize("props", [",,", "", " , ", "EX2.1,P9.9"])
def test_cli_verify_refuses_props_naming_no_check(props, capsys):
    # an unknown id is refused before any check runs, the known EX2.1 included
    assert main(["verify", "--props", props, "--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    if "P9.9" in props:
        assert "error=UnknownProposition" in captured.err and "'P9.9'" in captured.err
    else:
        assert "error=ValueError" in captured.err and "names no check id" in captured.err


@pytest.mark.parametrize("maxdim", ["0", "-2"])
def test_cli_verify_refuses_maxdim_below_one(maxdim, capsys):
    assert main(["verify", "--props", "L3.1", "--trials", "1", "--maxdim", maxdim]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error=ValueError" in captured.err and "max_dim" in captured.err
    assert main(["verify", "--props", "L3.1", "--trials", "1", "--maxdim", "1"]) == 0


@pytest.mark.parametrize("option", [["--cap", "-1"], ["--field", "q"]])
def test_cli_verify_refuses_a_bad_option_before_the_first_run(option, capsys):
    assert main(["verify", "--trials", "1", *option]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error=ValueError" in captured.err


@pytest.mark.parametrize("kind", ["missing", "file"])
def test_cli_verify_refuses_an_outdir_that_is_no_directory(kind, tmp_path, capsys):
    # refused before any check runs, so no report line is printed and none is lost
    outdir = tmp_path / "out"
    if kind == "file":
        outdir.write_text("", encoding="utf-8")
    assert main(["verify", "--props", "P2.1,EX2.1", "--trials", "1", "--outdir", str(outdir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error=NotADirectoryError" in captured.err
    assert outdir.exists() == (kind == "file")


def test_cli_negative_cap_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "k3.json"
    io.save(kpow(F2, 3), path)
    assert main(["weights", str(path), "--cap", "-1"]) == 2
    assert "error=ValueError" in capsys.readouterr().err
    # over Q these commands scan nothing, but a negative cap is still refused
    q_path = tmp_path / "q3.json"
    io.save(kpow(Q, 3), q_path)
    for command in ("weights", "idempotents", "decompose"):
        assert main([command, str(q_path), "--cap", "-1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "error=ValueError" in err
    # 0 still refuses any scan
    assert main(["weights", str(path), "--cap", "0"]) == 1
    assert "error=EnumerationTooLarge" in capsys.readouterr().err
    assert main(["weights", str(path), "--cap", "8"]) == 0
    assert "count=1" in capsys.readouterr().out


def test_cli_bijection_refuses_a_kernel_too_large_to_count_in_print(tmp_path, capsys):
    # Ker w of the left factor is F_2^244, with more than 4,300 digits of subspaces
    path = tmp_path / "cw245.json"
    io.save(bowtie(componentwise(F2, 245), componentwise(F2, 1)), path)
    assert main(["bijection", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error=EnumerationTooLarge detail=F_2^244 has more subspaces than the enumeration cap 1048576\n"


def test_cli_verify_runs_the_checks_after_a_cap_refusal(capsys):
    # P5.5 scans the 11^6 vectors of a product over F_11, past the default cap
    assert main(["verify", "--field", "p11", "--trials", "5", "--seed", "0"]) == 1
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert len(lines) == 21 and all(line.endswith(" trials=5 failures=0 seed=0") for line in lines)
    assert [line.split()[0] for line in lines] == [pid for pid in PROPOSITION_IDS if pid != "P5.5"]
    assert err == "error=EnumerationTooLarge check=P5.5 detail=11^6 exceeds the enumeration cap\n"


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2


def test_cli_exits_141_in_silence_when_the_reader_closes_the_pipe(tmp_path):
    # kpow(F2, 14) has 8,192 weight-one idempotents, far more lines than a pipe buffer holds
    path = tmp_path / "k14.json"
    io.save(kpow(F2, 14), path)
    src = str(Path(io.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "baric.cli", "idempotents", str(path)]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline().startswith(b"idempotent=")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 141
    assert err == b""


class _ClosedStdout:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_cli_returns_141_and_reports_no_error_when_stdout_is_closed(tmp_path, capsys, monkeypatch):
    path = tmp_path / "k2.json"
    io.save(kpow(F2, 2), path)
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    assert main(["idempotents", str(path)]) == 141
    assert "error=" not in capsys.readouterr().err


def test_cli_verify_failure_writes_counterexample(tmp_path, capsys, monkeypatch):
    import baric.propcheck as propcheck

    def always_fail(rng, t, cfg):
        raise propcheck.CheckFailure("forced failure for the test")

    monkeypatch.setitem(
        propcheck.CHECKS,
        "P2.1",
        propcheck.CheckSpec(always_fail, 3, "forced"),
    )
    code = main([
        "verify", "--props", "P2.1", "--trials", "3", "--outdir", str(tmp_path),
    ])
    assert code == 1
    out = capsys.readouterr().out
    assert "failures=3" in out and "counterexample=" in out
    files = list(tmp_path.glob("counterexample_*.txt"))
    assert len(files) == 1
    assert "forced failure" in files[0].read_text()


# SHA-256 over (argv, exit code, stdout) of every run below and the bytes
# of each file a run writes with -o. A change to any command's output,
# exit code or written document changes it.
CLI_TRANSCRIPT_DIGEST = "0dca13566a9ea1bcb9a8622aa1bc29930cb96fe98c51f37f1ce39bcb0ab36b6a"

CLI_TRANSCRIPT_RUNS = (
    ["kpow", "3", "--field", "q", "-o", "k3.json"],
    ["kpow", "2", "--field", "p3", "-o", "k2.json"],
    ["bowtie", "d2.json", "d2.json", "-o", "dd.json"],
    ["bowtie", "r3.json", "d3.json", "-o", "rd.json"],
    ["check", "k3.json"],
    ["check", "dd.json"],
    ["check", "r3.json"],
    ["check", "rq.json"],
    ["weights", "dd.json"],
    ["weights", "rd.json"],
    ["weights", "rq.json"],
    ["idempotents", "r3.json"],
    ["idempotents", "dd.json"],
    ["idempotents", "sq.json"],
    ["ideal", "dd.json", "--gens", "0,1,0,0", "-o", "ideal.json"],
    ["ideal", "r3.json", "--gens", "0,1,0", "--side", "right"],
    ["ideal", "dd.json", "--gens", "1/0,1,0,0"],
    ["project", "dd.json", "--ideal", "ideal.json"],
    ["bijection", "dd.json"],
    ["bijection", "rd.json"],
    ["decompose", "dd.json"],
    ["decompose", "cw3.json"],
    ["decompose", "rd.json"],
    ["decompose", "sq.json"],
    ["classify", "k3.json"],
    ["classify", "sq.json"],
    ["classify", "d2.json"],
    ["verify", "--trials", "1"],
)


def test_cli_transcripts_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    io.save(dual_numbers(F2), "d2.json")
    io.save(dual_numbers(F3), "d3.json")
    io.save(componentwise(F2, 3), "cw3.json")
    io.save(random_baric(F3, 3, commutative=True, unital=True, seed=7), "r3.json")
    io.save(random_rational_baric(3, [1, 2, 0], seed=1), "rq.json")
    io.save(scalar_action(Q, [2, 3]), "sq.json")
    digest = hashlib.sha256()
    for argv in CLI_TRANSCRIPT_RUNS:
        code = main(argv)
        digest.update(repr((argv, code, capsys.readouterr().out)).encode())
        if "-o" in argv:
            digest.update(Path(argv[argv.index("-o") + 1]).read_bytes())
    assert digest.hexdigest() == CLI_TRANSCRIPT_DIGEST
