"""Command-line interface.

Every command prints machine-parseable key=value lines. Exit codes:
0 success / all checks pass, 1 a check failed (a counterexample path is
printed when one was written), 2 usage or parse errors, 141 (128 + SIGPIPE)
when the reader closed stdout, as a shell reports a writer that SIGPIPE ended.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from pathlib import Path

from . import io
from .algebra import commutative_center, property_flags
from .bowtie import bowtie
from .errors import BaricError, DimensionMismatch, DivisionByZero, EnumerationTooLarge
from .fields import FieldSpec
from .ideals import (
    Sided,
    decomposability,
    ideal_closure,
    kernel_ideal_bijection,
    project_ideal,
    Ideal,
    sidedness,
)
from .linalg import enumeration_cap
from .propcheck import PROPOSITION_IDS, RunConfig, check
from .weights import (
    baric_isomorphic_by,
    classify_scalar_action,
    enumerate_weights,
    find_weight_one_idempotents,
    kpow,
)

# exit 2: malformed input (ValueError), DivisionByZero (a ZeroDivisionError), a bad path
_USAGE_ERRORS = (ValueError, DivisionByZero, OSError)


def _coords_text(coords) -> str:
    return ",".join(str(c) for c in coords)


def _parse_vectors(text: str, field: FieldSpec, dim: int):
    """The nonempty `--gens` vectors; a bad entry is named as gens[vector][entry]."""
    vectors = []
    for chunk in filter(None, map(str.strip, text.split(";"))):
        parts = [p.strip() for p in chunk.split(",")]
        if len(parts) != dim:
            raise DimensionMismatch(f"vector {chunk!r} has {len(parts)} entries, expected {dim}")
        where = f"gens[{len(vectors)}]"
        vectors.append([io._read_scalar(p, field, f"{where}[{j}]") for j, p in enumerate(parts)])
    return vectors


def _print_rows(key: str, rows) -> None:
    for row in rows:
        print(f"{key}={_coords_text(row)}")


def _bool(b: bool) -> str:
    return "true" if b else "false"


def _cmd_check(args) -> int:
    b = io.load(args.file)
    flags = property_flags(b.algebra)
    center = commutative_center(b.algebra)
    print(f"file={args.file}")
    print(f"field={b.field.token} dim={b.dim}")
    print(f"weight={_coords_text(b.weight.values)} weight_valid=true")
    line = (
        f"commutative={_bool(flags.commutative)}"
        f" associative={_bool(flags.associative)}"
        f" left_alternative={_bool(flags.left_alternative)}"
        f" right_alternative={_bool(flags.right_alternative)}"
        f" unital={_bool(flags.unital)}"
    )
    if flags.unit is not None:
        line += f" unit={_coords_text(flags.unit.values)}"
    print(line)
    print(f"center_dim={center.dim}")
    if b.provenance is not None:
        print(f"bowtie={b.provenance.left_dim},{b.provenance.right_dim}")
    return 0


def _write(result, path) -> int:
    io.save(result, path)
    print(f"written={path} dim={result.dim}")
    return 0


def _cmd_bowtie(args) -> int:
    return _write(bowtie(io.load(args.left), io.load(args.right)), args.output)


def _cmd_kpow(args) -> int:
    return _write(kpow(FieldSpec.from_token(args.field), args.n), args.output)


def _cmd_weights(args) -> int:
    b = io.load(args.file)
    if b.field.is_finite:
        found = enumerate_weights(b.algebra, args.cap)
        _print_rows("weight", (w.values for w in found))
        print(f"count={len(found)}")
        stored = b.weight in found
        print(f"stored_weight_found={_bool(stored)}")
        return 0 if stored else 1
    print(f"stored={_coords_text(b.weight.values)} valid=true")
    print("count=unknown note=enumeration_needs_a_prime_field")
    return 0


def _cmd_idempotents(args) -> int:
    b = io.load(args.file)
    found = find_weight_one_idempotents(b, args.cap)
    _print_rows("idempotent", (x.values for x in found))
    print(f"count={len(found)}")
    print(f"search={'exhaustive' if b.field.is_finite else 'heuristic'}")
    return 0


def _cmd_ideal(args) -> int:
    b = io.load(args.file)
    side = Sided.TWO_SIDED if args.side == "two" else Sided.RIGHT
    gens = [b.element(v) for v in _parse_vectors(args.gens, b.field, b.dim)]
    ideal = ideal_closure(b.algebra, gens, side)
    print(f"dim={ideal.space.dim}")
    print(f"sided={ideal.sided.value}")
    _print_rows("vector", ideal.space.rows)
    if args.output:
        io.save_subspace(ideal.space, args.output)
        print(f"written={args.output}")
    return 0


def _cmd_project(args) -> int:
    b = io.load(args.file)
    space = io.load_subspace(args.ideal)
    label = sidedness(b.algebra, space)
    if label is not Sided.TWO_SIDED:
        print(f"error=NotAnIdeal sided={label.value}")
        return 1
    result = project_ideal(b, Ideal(space, label))
    print(f"left_dim={result.left.dim} left_is_ideal={_bool(result.left_is_ideal)}")
    _print_rows("left_vector", result.left.rows)
    print(f"right_dim={result.right.dim} right_is_ideal={_bool(result.right_is_ideal)}")
    _print_rows("right_vector", result.right.rows)
    return 0


def _cmd_bijection(args) -> int:
    b = io.load(args.file)
    result = kernel_ideal_bijection(b, args.cap)
    pairs = len(result.left_ideals) * len(result.right_ideals)
    print(
        f"left_ideals={len(result.left_ideals)}"
        f" right_ideals={len(result.right_ideals)}"
        f" pairs={pairs}"
        f" bowtie_ideals={len(result.bowtie_ideals)}"
    )
    print(f"verified={_bool(result.verified)}")
    return 0 if result.verified else 1


def _cmd_decompose(args) -> int:
    b = io.load(args.file)
    result = decomposability(b, args.cap)
    print(f"outcome={result.outcome.value}")
    if result.idempotent is not None:
        print(f"idempotent={_coords_text(result.idempotent.values)}")
    if result.n1 is not None:
        _print_rows("n1_vector", result.n1.rows)
        _print_rows("n2_vector", result.n2.rows)
    return 0


def _cmd_classify(args) -> int:
    b = io.load(args.file)
    result = classify_scalar_action(b)
    if result is None:
        print("scalar_action=false")
        return 0
    iso, target = result
    print(f"scalar_action=true target_dim={target.dim}")
    _print_rows("iso_row", iso.values)
    verified = baric_isomorphic_by(iso, b, target)
    print(f"verified={_bool(verified)}")
    return 0 if verified else 1


def _cmd_verify(args) -> int:
    if args.props is not None:
        ids = [p.strip() for p in args.props.split(",") if p.strip()]
        if not ids:
            raise ValueError(f"--props {args.props!r} names no check id")
        for pid in ids:
            check(pid, 0)  # an unknown id is refused before any check runs
    else:
        ids = list(PROPOSITION_IDS)
    field = FieldSpec.from_token(args.field) if args.field else None
    cfg = RunConfig(field=field, max_dim=args.maxdim, cap=args.cap)
    if args.outdir is not None and not Path(args.outdir).is_dir():
        # refused before any check runs, not at the first counterexample to write
        raise NotADirectoryError(f"--outdir {args.outdir!r} is not an existing directory")
    all_pass = True
    for pid in ids:
        # a cap refusal fails this check only: each check draws from its own seeded stream
        try:
            report = check(pid, args.trials, args.seed, cfg)
        except EnumerationTooLarge as exc:
            print(f"error=EnumerationTooLarge check={pid} detail={exc}", file=sys.stderr)
            all_pass = False
            continue
        path = None
        if report.failures and report.first_counterexample:
            path = Path(args.outdir or ".") / f"counterexample_{pid.replace('.', '_')}.txt"
            path.write_text(report.first_counterexample + "\n", encoding="utf-8")
        print(report.line(str(path) if path else None))
        all_pass = all_pass and report.passed
    return 0 if all_pass else 1


_CAP_HELP = (
    "most items an exhaustive search may visit: branch nodes of the weight "
    "search, p^n vectors for idempotent scans, every subspace of the searched "
    "space for ideal lattices (default: 2^20)"
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `baric` parser, built once per process; main runs the handler `_cmd_<command>`.

    Each parse_args call fills a new namespace, so nothing carries over between commands.
    """
    parser = argparse.ArgumentParser(
        prog="baric",
        description="Exact computations with finite-dimensional baric algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    document = argparse.ArgumentParser(add_help=False)
    document.add_argument("file")
    capped = argparse.ArgumentParser(add_help=False, parents=[document])
    capped.add_argument("--cap", type=int, default=None, help=_CAP_HELP)

    sub.add_parser("check", parents=[document], help="validate a document and report its properties")

    p = sub.add_parser("bowtie", help="build the product of two algebra documents")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("kpow", help="build the n-th power of the base field")
    p.add_argument("n", type=int)
    p.add_argument("--field", required=True, help="q for rationals, pP for a prime field")
    p.add_argument("-o", "--output", required=True)

    sub.add_parser("weights", parents=[capped], help="enumerate weights (prime field) or verify (rationals)")
    sub.add_parser("idempotents", parents=[capped], help="search weight-one idempotents")

    p = sub.add_parser("ideal", parents=[document], help="ideal closure of generators")
    p.add_argument("--gens", required=True, help="semicolon-separated coordinate vectors")
    p.add_argument("--side", choices=("right", "two"), default="two")
    p.add_argument("-o", "--output", default=None, help="write the subspace as JSON")

    p = sub.add_parser("project", parents=[document], help="project a product ideal onto the factors")
    p.add_argument("--ideal", required=True, help="subspace JSON file")

    sub.add_parser("bijection", parents=[capped], help="verify the kernel ideal pairing")
    sub.add_parser("decompose", parents=[capped], help="decompose the kernel into two ideals")
    sub.add_parser("classify", parents=[document], help="detect the scalar-action law and normalize")

    # its own --cap: one from a parent parser would come first in `verify --help`
    p = sub.add_parser("verify", help="run the executable checks")
    p.add_argument("--props", default=None, help="comma-separated check ids")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--field", default=None, help="pP to pin the sampling field")
    p.add_argument("--maxdim", type=int, default=None)
    p.add_argument("--cap", type=int, default=None, help=_CAP_HELP)
    p.add_argument("--outdir", default=None, help="directory for counterexample files")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "cap", None) is not None:
            enumeration_cap(args.cap)  # a negative cap is a usage error before any work
        # looked up when the command runs, so a rebound module name takes effect
        return globals()[f"_cmd_{args.command}"](args)
    except BrokenPipeError:
        # the reader closed stdout: say nothing, and send the interpreter's last flush to devnull
        with contextlib.suppress(AttributeError, OSError):
            fd, devnull = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return 141
    except (*_USAGE_ERRORS, BaricError) as exc:
        print(f"error={type(exc).__name__} detail={exc}", file=sys.stderr)
        return 2 if isinstance(exc, _USAGE_ERRORS) else 1


if __name__ == "__main__":
    sys.exit(main())
