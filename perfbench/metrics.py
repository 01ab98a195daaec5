"""Every metric the benchmark reports, with its unit and what it should move.

END_TO_END metrics come from untraced runs (`--trace 0`). PER_LAYER
metrics come from the traced run (`--trace 1`). Each per-layer entry names
the workload on which it must be nonzero (the self-test asserts this) and
the end-to-end metric(s) a change to that layer should move there.
BENCHMARK.json lists the same names and units; the self-test keeps the two
in step.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = {
    "verify": "baric verify over all 22 checks at default trials, one job per check id: "
    "what a reader of the paper runs; product_coords, closed forms and Q arithmetic dominate",
    "lattice": "decompose/bijection/ideal on F2/F3 documents, ideal-poor random algebras "
    "beside ideal-rich kpow and chain truncated polynomials: subspace enumeration dominates",
    "tensor": "check/classify/weights/idempotents/bowtie/kpow on large single tensors over "
    "Q and F_p: n^3 identity checks, big eliminations, p^n scans and document writes",
}


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    bound: float


# wall_s: median wall time of one pass over the job list; job_p50_ms: median
# job latency pooled over all passes; setup_s: fresh interpreter + import
# baric + write one pass of inputs; peak_rss_mb: peak resident memory of the
# run's process. The three times are scaled by calibration rounds to a host
# of fixed speed (calibrate.py); see README.md, "Repeatability".
END_TO_END = (
    EndToEnd("wall_s", "s", 0.25),
    EndToEnd("job_p50_ms", "ms", 0.25),
    EndToEnd("setup_s", "s", 0.25),
    EndToEnd("peak_rss_mb", "MB", 0.10),
)


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    workload: str
    moves: str


def _layer(name, workload, moves, unit=None, better="lower"):
    if unit is None:
        unit = "s" if name.endswith("_s") or name.endswith(".s") else "count"
    return Layer(name, unit, better, workload, moves)


PROPOSITION_IDS = (
    "P2.1", "P3.1", "P3.2", "P3.3", "C3.1", "P4.1", "C4.1", "P5.1", "P5.2", "P5.3", "P5.4",
    "P5.5", "L3.1", "L6.1", "P6.1", "P6.2", "L6.2", "P6.3", "C6.1", "EX2.1", "EX5.1", "EX6.1",
)

# Commands each workload runs, with the workload whose time they dominate.
CLI_COMMANDS = {
    "verify": "verify",
    "decompose": "lattice",
    "bijection": "lattice",
    "ideal": "lattice",
    "check": "tensor",
    "classify": "tensor",
    "bowtie": "tensor",
    "kpow": "tensor",
    "weights": "tensor",
    "idempotents": "tensor",
}

PER_LAYER = (
    # fields: counted in a pass of their own, without timers
    _layer("fields.fp_ops", "lattice", "wall_s on lattice (F_p arithmetic)"),
    _layer("fields.q_ops", "tensor", "wall_s on tensor and verify (Q arithmetic)"),
    _layer("fields.truth_tests", "verify", "wall_s on verify (FieldElement.__bool__)"),
    # linalg
    _layer("linalg.enumerate_subspaces.yielded", "lattice", "wall_s on lattice"),
    _layer("linalg.enumerate_subspaces.self_s", "lattice", "wall_s on lattice"),
    _layer("linalg.iter_vectors.yielded", "tensor", "wall_s on tensor"),
    _layer("linalg.iter_vectors.self_s", "tensor", "wall_s on tensor"),
    _layer("linalg.span.calls", "lattice", "wall_s and job_p50_ms on lattice"),
    _layer("linalg.span.self_s", "lattice", "wall_s and job_p50_ms on lattice"),
    _layer("linalg.span.rank_ratio", "lattice", "wall_s and job_p50_ms on lattice", "ratio", "higher"),
    _layer("linalg.Subspace.contains_vector.calls", "lattice", "wall_s and job_p50_ms on lattice"),
    _layer("linalg.Subspace.contains_vector.self_s", "lattice", "wall_s and job_p50_ms on lattice"),
    _layer("linalg.Subspace.basis_matrix.calls", "lattice", "wall_s and job_p50_ms on lattice"),
    _layer("linalg.row_times_matrix.calls", "lattice", "wall_s and job_p50_ms on lattice"),
    _layer("linalg.Subspace.intersect.self_s", "lattice", "wall_s on lattice"),
    _layer("linalg.Subspace.sum.self_s", "lattice", "wall_s on lattice"),
    _layer("linalg.kernel_basis.self_s", "tensor", "wall_s on tensor"),
    _layer("linalg.solve.self_s", "tensor", "wall_s on tensor"),
    _layer("linalg.Matrix.inverse.self_s", "tensor", "wall_s on tensor"),
    _layer("linalg.Matrix.rank.self_s", "tensor", "wall_s on tensor"),
    # algebra
    _layer("algebra.Algebra.product_coords.calls", "verify", "wall_s on verify and tensor"),
    _layer("algebra.Algebra.product_coords.self_s", "verify", "wall_s on verify and tensor"),
    _layer("algebra.property_flags.self_s", "tensor", "wall_s on tensor"),
    _layer("algebra.commutative_center.self_s", "tensor", "wall_s on tensor"),
    _layer("algebra.change_basis.self_s", "tensor", "wall_s on tensor"),
    # weights
    _layer("weights.validate_weight.calls", "tensor", "wall_s on tensor"),
    _layer("weights.validate_weight.self_s", "tensor", "wall_s on tensor"),
    _layer("weights.enumerate_weights.self_s", "tensor", "wall_s on tensor"),
    _layer("weights.enumerate_weights.hit_ratio", "tensor", "wall_s on tensor", "ratio", "higher"),
    _layer("weights.find_weight_one_idempotents.self_s", "tensor", "wall_s on tensor"),
    _layer("weights.find_weight_one_idempotents.hit_ratio", "tensor", "wall_s on tensor", "ratio", "higher"),
    _layer("weights.normalize_weight_one_basis.self_s", "tensor", "wall_s on tensor and verify (L6.2, P6.3, C6.1)"),
    _layer("weights.baric_isomorphic_by.self_s", "tensor", "wall_s on tensor and verify (L6.2, P6.3, C6.1)"),
    # bowtie
    _layer("bowtie.bowtie.calls", "verify", "wall_s on verify"),
    _layer("bowtie.bowtie.self_s", "verify", "wall_s on verify"),
    _layer("bowtie.associator_closed_form.self_s", "verify", "wall_s on verify"),
    _layer("bowtie.commutator_closed_form.self_s", "verify", "wall_s on verify"),
    _layer("bowtie.structural_isos.self_s", "verify", "wall_s on verify"),
    # ideals
    _layer("ideals.is_two_sided_ideal.calls", "lattice", "wall_s and peak_rss_mb on lattice"),
    _layer("ideals.is_two_sided_ideal.self_s", "lattice", "wall_s and peak_rss_mb on lattice"),
    _layer("ideals.is_two_sided_ideal.hit_ratio", "lattice", "wall_s and peak_rss_mb on lattice", "ratio", "higher"),
    _layer("ideals.kernel_ideals.self_s", "lattice", "wall_s and peak_rss_mb on lattice"),
    _layer("ideals.ideal_closure.calls", "lattice", "wall_s and peak_rss_mb on lattice"),
    _layer("ideals.ideal_closure.self_s", "lattice", "wall_s and peak_rss_mb on lattice"),
    _layer("ideals.decomposability.self_s", "lattice", "wall_s and peak_rss_mb on lattice"),
    _layer("ideals.kernel_ideal_bijection.self_s", "lattice", "wall_s and peak_rss_mb on lattice"),
    # io
    _layer("io.load.self_s", "tensor", "job_p50_ms on tensor, setup_s on all workloads"),
    _layer("io.save.self_s", "tensor", "job_p50_ms on tensor, setup_s on all workloads"),
    _layer("io.bytes_read", "tensor", "job_p50_ms on tensor, setup_s on all workloads", "B"),
    _layer("io.bytes_written", "tensor", "job_p50_ms on tensor, setup_s on all workloads", "B"),
    # propcheck: inclusive time of each check id
    *(_layer(f"propcheck.check.{pid}.s", "verify", "wall_s and job_p50_ms on verify") for pid in PROPOSITION_IDS),
    # cli: inclusive time of each command, plus parsing and formatting
    *(_layer(f"cli.{cmd}.s", wl, f"wall_s and job_p50_ms on {wl}") for cmd, wl in CLI_COMMANDS.items()),
    _layer("cli.self_s", "tensor", "job_p50_ms on every workload (argument parsing, output formatting)"),
    # traced wall_s over untraced wall_s on the same pass
    _layer("trace.overhead", "verify", "nothing: the cost of tracing itself", "ratio"),
)
