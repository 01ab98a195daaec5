"""Per-layer tracing of `baric` from outside the library.

`Tracer.install()` replaces each traced function with a timing wrapper in
every place that holds it: module globals of every `baric` module (the
package copies names with `from .linalg import span`) and class
attributes (including aliases such as `Subspace.__add__ = sum`).
`uninstall()` puts the originals back.

Spans are aggregated in memory by name as (calls, total, self), where self
is the span's duration minus the time its child spans cover. Individual
span records are kept only down to depth 3 (job, `cli.main`, command,
first library call), so memory stays bounded however many inner calls run.

`FieldCounter` counts FieldElement operations in a separate pass with no
timers at all: a timed span around every scalar operation would cost more
than the operation itself.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

RECORD_DEPTH = 3

# (module, attribute path) of every traced callable.
TRACED = (
    ("linalg", "enumerate_subspaces"),
    ("linalg", "iter_vectors"),
    ("linalg", "span"),
    ("linalg", "row_times_matrix"),
    ("linalg", "kernel_basis"),
    ("linalg", "solve"),
    ("linalg", "Subspace.contains_vector"),
    ("linalg", "Subspace.basis_matrix"),
    ("linalg", "Subspace.intersect"),
    ("linalg", "Subspace.sum"),
    ("linalg", "Matrix.inverse"),
    ("linalg", "Matrix.rank"),
    ("algebra", "Algebra.product_coords"),
    ("algebra", "property_flags"),
    ("algebra", "commutative_center"),
    ("algebra", "change_basis"),
    ("weights", "validate_weight"),
    ("weights", "enumerate_weights"),
    ("weights", "find_weight_one_idempotents"),
    ("weights", "normalize_weight_one_basis"),
    ("weights", "baric_isomorphic_by"),
    ("bowtie", "bowtie"),
    ("bowtie", "associator_closed_form"),
    ("bowtie", "commutator_closed_form"),
    ("bowtie", "structural_isos"),
    ("ideals", "is_two_sided_ideal"),
    ("ideals", "kernel_ideals"),
    ("ideals", "ideal_closure"),
    ("ideals", "decomposability"),
    ("ideals", "kernel_ideal_bijection"),
    ("io", "load"),
    ("io", "save"),
    ("io", "load_subspace"),
    ("io", "save_subspace"),
    ("propcheck", "check"),
    ("cli", "main"),
    *(("cli", f"_cmd_{cmd}") for cmd in (
        "check", "bowtie", "kpow", "weights", "idempotents", "ideal",
        "project", "bijection", "decompose", "classify", "verify",
    )),
)

GENERATORS = {"linalg.enumerate_subspaces", "linalg.iter_vectors"}


def _baric_modules():
    return [m for name, m in list(sys.modules.items()) if name == "baric" or name.startswith("baric.")]


def _rebind(original, replacement, undo):
    """Point every module global and class attribute holding `original` at `replacement`."""
    for module in _baric_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
            elif isinstance(value, type) and value.__module__.startswith("baric"):
                for cattr, cvalue in list(vars(value).items()):
                    if cvalue is original:
                        setattr(value, cattr, replacement)
                        undo.append((value, cattr, original))


class Tracer:
    """Aggregated spans and counters for one traced pass."""

    def __init__(self):
        self.stack = []  # [name, start, child_time, record index or None]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, total, self
        self.counts = defaultdict(int)
        self.records = []  # [name, depth, parent index, start, end]
        self._undo = []

    # -- spans ---------------------------------------------------------

    def enter(self, name):
        stack = self.stack
        index = None
        if len(stack) <= RECORD_DEPTH:
            parent = stack[-1][3] if stack else None
            index = len(self.records)
            self.records.append([name, len(stack), parent, perf_counter(), None])
        stack.append([name, perf_counter(), 0.0, index])

    def exit(self):
        end = perf_counter()
        name, start, child, index = self.stack.pop()
        duration = end - start
        entry = self.stats[name]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        if self.stack:
            self.stack[-1][2] += duration
        if index is not None:
            self.records[index][4] = end

    # -- wrappers ------------------------------------------------------

    def _function(self, name, fn):
        enter, exit_, counts = self.enter, self.exit, self.counts
        after = _AFTER.get(name)
        name_of = _NAME_OF.get(name)
        if after is None and name_of is None:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_()

            return traced

        @functools.wraps(fn)
        def traced_with_counts(*args, **kwargs):
            if name == "linalg.span":  # the row count needs the iterable materialized
                args = (*args[:2], list(args[2]))
            before = counts["linalg.iter_vectors.yielded"]
            enter(name_of(args) if name_of else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if after is not None:
                after(counts, args, result, before)
            return result

        return traced_with_counts

    def _generator(self, name, fn):
        enter, exit_ = self.enter, self.exit
        counts = self.counts
        key = name + ".yielded"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    enter(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        exit_()
                    counts[key] += 1
                    yield item
            finally:
                inner.close()

        return traced

    def install(self):
        import baric.cli  # noqa: F401  (loads every module that holds a traced name)

        for module_name, path in TRACED:
            owner = sys.modules[f"baric.{module_name}"]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            name = f"{module_name}.{path}"
            make = self._generator if name in GENERATORS else self._function
            _rebind(original, make(name, original), self._undo)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write(self, path: Path):
        doc = {
            "spans": {k: {"calls": c, "total_s": t, "self_s": s} for k, (c, t, s) in sorted(self.stats.items())},
            "counts": dict(sorted(self.counts.items())),
            "records": self.records,
        }
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def _after_span(counts, args, result, before):
    counts["linalg.span.rows_in"] += len(args[2])
    counts["linalg.span.rank_out"] += result.dim


def _after_ideal(counts, args, result, before):
    counts["ideals.is_two_sided_ideal.tested"] += 1
    counts["ideals.is_two_sided_ideal.found"] += bool(result)


def _after_weights(counts, args, result, before):
    algebra = args[0]
    counts["weights.enumerate_weights.scanned"] += algebra.field.p ** algebra.dim
    counts["weights.enumerate_weights.found"] += len(result)


def _after_idempotents(counts, args, result, before):
    if args[0].field.is_finite:
        counts["weights.find_weight_one_idempotents.scanned"] += counts["linalg.iter_vectors.yielded"] - before
        counts["weights.find_weight_one_idempotents.found"] += len(result)


def _bytes(key, path_arg):
    def after(counts, args, result, before):
        counts[key] += Path(args[path_arg]).stat().st_size

    return after


_AFTER = {
    "linalg.span": _after_span,
    "ideals.is_two_sided_ideal": _after_ideal,
    "weights.enumerate_weights": _after_weights,
    "weights.find_weight_one_idempotents": _after_idempotents,
    "io.load": _bytes("io.bytes_read", 0),
    "io.load_subspace": _bytes("io.bytes_read", 0),
    "io.save": _bytes("io.bytes_written", 1),
    "io.save_subspace": _bytes("io.bytes_written", 1),
}

_NAME_OF = {"propcheck.check": lambda args: f"propcheck.check.{args[0]}"}


def layer_metrics(tracer: Tracer, fields: dict, overhead: float) -> dict:
    """Every per-layer metric value, from one traced pass and one counted pass."""
    stats, counts = tracer.stats, tracer.counts

    def ratio(num, den):
        return counts[num] / counts[den] if counts[den] else 0.0

    values = dict(fields)
    for name, (calls, total, self_time) in stats.items():
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_time
        if name.startswith("propcheck.check."):
            values[f"{name}.s"] = total
        elif name.startswith("cli._cmd_"):
            values[f"cli.{name[len('cli._cmd_'):]}.s"] = total
    values["cli.self_s"] = sum(s for name, (_, _, s) in stats.items() if name == "cli.main" or name.startswith("cli._cmd_"))
    for gen in GENERATORS:
        values[f"{gen}.yielded"] = counts[f"{gen}.yielded"]
    values["linalg.span.rank_ratio"] = ratio("linalg.span.rank_out", "linalg.span.rows_in")
    values["ideals.is_two_sided_ideal.hit_ratio"] = ratio("ideals.is_two_sided_ideal.found", "ideals.is_two_sided_ideal.tested")
    for fn in ("weights.enumerate_weights", "weights.find_weight_one_idempotents"):
        values[f"{fn}.hit_ratio"] = ratio(f"{fn}.found", f"{fn}.scanned")
    values["io.bytes_read"] = counts["io.bytes_read"]
    values["io.bytes_written"] = counts["io.bytes_written"]
    values["trace.overhead"] = overhead
    return values


class FieldCounter:
    """Counts FieldElement arithmetic by field kind, and truth tests, with no timers."""

    OPS = ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__", "__pow__", "inverse", "__eq__")

    def __init__(self):
        self.fp_ops = 0
        self.q_ops = 0
        self.truth_tests = 0
        self._undo = []

    def install(self):
        from baric.fields import FieldElement

        for op in self.OPS:
            original = vars(FieldElement)[op]
            self._undo.append((op, original))
            setattr(FieldElement, op, self._counted(original))
        original_bool = vars(FieldElement)["__bool__"]
        self._undo.append(("__bool__", original_bool))

        def truth(value):
            self.truth_tests += 1
            return original_bool(value)

        FieldElement.__bool__ = truth

    def _counted(self, fn):
        def counted(value, *args):
            if value.field.p is None:
                self.q_ops += 1
            else:
                self.fp_ops += 1
            return fn(value, *args)

        return counted

    def uninstall(self):
        from baric.fields import FieldElement

        for op, original in reversed(self._undo):
            setattr(FieldElement, op, original)
        self._undo.clear()

    def metrics(self) -> dict:
        return {
            "fields.fp_ops": self.fp_ops,
            "fields.q_ops": self.q_ops,
            "fields.truth_tests": self.truth_tests,
        }
