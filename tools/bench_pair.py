"""Benchmark the working tree against HEAD in alternating pairs and write BENCH_<name>.json.

    python3 tools/bench_pair.py --workloads verify,lattice,tensor --out BENCH_<n>.json
    python3 tools/bench_pair.py --seed 17 --pairs 5 --out held_out.json

The parent is the commit HEAD; the change is the working tree (tracked and
untracked files that are not ignored). Both are exported with `git archive`
into a fresh directory, so neither shares `perfbench/_work` with the other;
the working tree is first written as a git tree through a temporary index,
which adds blob and tree objects to the object store but no ref or index
entry. For each workload, `perfbench/run.py` (at its own default duration)
then runs once per side per pair, parent first in even pairs and change
first in odd ones. The output records the parent's SHA, the tree of `src/`
each side ran and, per workload, every pair of every end-to-end metric and
of the calibration round time (read from the run's context line), the
median and quartiles of each side, and each run's correctness.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("wall_s", "job_p50_ms", "setup_s", "peak_rss_mb")
SIDES = ("parent", "change")
RUN_SECONDS = 30  # perfbench/run.py's default --seconds


def git(*args: str, env: dict | None = None) -> str:
    out = subprocess.run(
        ["git", *args], cwd=ROOT, env=env, check=True, capture_output=True, text=True
    )
    return out.stdout.strip()


def working_tree() -> str:
    """A git tree object of the working tree, written through a temporary index."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        git("add", "-A", ".", env=env)
        return git("write-tree", env=env)


def export(treeish: str, dest: Path) -> None:
    dest.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "archive", "--format=tar", treeish], cwd=ROOT, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_once(checkout: Path, workload: str, args) -> tuple[dict, dict]:
    """One perfbench run: its figures, and the machine from its context line."""
    out = subprocess.run(
        [
            sys.executable, str(checkout / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(args.seed), "--trace", "0",
        ],
        cwd=checkout, check=True, capture_output=True, text=True,
    ).stdout.splitlines()
    context, result = json.loads(out[-3]), json.loads(out[-1])
    return {
        **{name: result["metrics"][name]["value"] for name in METRICS},
        "calibration_round_ms": context["unscaled"]["calibration_round_ms"],
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "golden": context["golden"],
    }, context["machine"]


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(runs: dict[str, list[dict]]) -> dict:
    """Pairs, medians and quartiles of each metric, and each run's correctness."""
    metrics = {}
    for name in METRICS + ("calibration_round_ms",):
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        metrics[name] = {
            "pairs": [[p, c] for p, c in zip(parent, change)],
            "parent": summary(parent),
            "change": summary(change),
            "change_lower_in": sum(c < p for p, c in zip(parent, change)),
        }
    checks = ("correct", "attempted", "failed", "golden")
    return {
        "pairs": len(runs["parent"]),
        "metrics": metrics,
        "runs": {side: [{key: r[key] for key in checks} for r in runs[side]] for side in SIDES},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="verify", help="comma-separated (default verify)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    if not set(workloads) <= {"verify", "lattice", "tensor"}:
        parser.error(f"unknown workload in {args.workloads!r}")
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, to give quartiles")

    parent = git("rev-parse", "HEAD^{commit}")
    trees = {"parent": parent, "change": working_tree()}
    src = {side: git("rev-parse", trees[side] + ":src") for side in SIDES}
    report = {
        "parent": {"sha": parent, "src_tree": src["parent"]},
        "change": {"src_tree": src["change"]},
    }
    report.update(
        seed=args.seed,
        seconds=RUN_SECONDS,
        order="alternating: parent first in even pairs, change first in odd pairs",
        workloads={},
    )
    with tempfile.TemporaryDirectory(prefix="bench_pair-") as tmp:
        checkouts = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            export(trees[side], checkouts[side])
        for workload in workloads:
            runs: dict[str, list[dict]] = {side: [] for side in SIDES}
            for pair in range(args.pairs):
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    figures, report["machine"] = run_once(checkouts[side], workload, args)
                    runs[side].append(figures)
                    print(f"{workload} pair {pair} {side}: " + " ".join(
                        f"{name}={figures[name]:.4g}" for name in METRICS
                    ), file=sys.stderr)
            report["workloads"][workload] = compare(runs)
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
