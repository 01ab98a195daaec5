"""Self-tests of the benchmark, at tiny sizes: python3 perfbench/selftest.py

Runs each workload through run.py in fresh processes and checks that
every metric is emitted with its unit, that a seed fixes the inputs,
transcripts and exact counts, that every per-layer metric is nonzero on
the workload that names it, and that traced outputs match untraced ones.
In-process, it corrupts the program's output (a `verified=false`, one
changed transcript byte) and checks that the jobs are counted as failed.
It also checks that a directory holding only the benchmark exits nonzero
without a result. Exits 1 if any test fails.
"""

from __future__ import annotations

import builtins
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import metrics  # noqa: E402

EXACT = (".calls", ".yielded", "fields.", "io.bytes_")


def tiny(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-3]), json.loads(lines[-1])


def test_metrics_counts_and_seeds():
    for workload in metrics.WORKLOADS:
        for trace, expected in ((0, metrics.END_TO_END), (1, metrics.PER_LAYER)):
            context, result = tiny(workload, 1, trace)
            again_context, again = tiny(workload, 1, trace)
            other_context, _ = tiny(workload, 2, trace)
            where = f"{workload} --trace {trace}"
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, where
            assert {k: v["unit"] for k, v in result["metrics"].items()} == {m.name: m.unit for m in expected}, where
            for key in ("inputs_sha256", "transcripts_sha256"):
                assert context[key] == again_context[key], f"{where}: {key} differs for one seed"
            assert context["inputs_sha256"] != other_context["inputs_sha256"], f"{where}: seed 2 gave seed 1's inputs"
            if trace:
                values = {k: v["value"] for k, v in result["metrics"].items()}
                repeat = {k: v["value"] for k, v in again["metrics"].items()}
                for name, value in values.items():
                    if name.startswith(EXACT) or name.endswith(EXACT):
                        assert value == repeat[name], f"{where}: {name} is {value} then {repeat[name]}"
                for m in expected:
                    if m.workload == workload:
                        assert values[m.name] != 0, f"{where}: {m.name} is zero"


def _in_process(argv):
    import run

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().splitlines()[-1])


def test_verified_false_is_a_failure():
    sys.path.insert(0, str(ROOT / "src"))
    import baric.cli as cli

    original = cli._cmd_bijection

    def corrupted(args):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = original(args)
        print(buf.getvalue().replace("verified=true", "verified=false"), end="")
        return code

    argv = ["--workload", "lattice", "--seed", "1", "--seconds", "0", "--tiny"]
    assert _in_process(argv)["failed"] == 0
    cli._cmd_bijection = corrupted
    try:
        result = _in_process(argv)
    finally:
        cli._cmd_bijection = original
    assert result["failed"] > 0 and not result["correct"], result


def test_one_changed_byte_is_a_failure():
    sys.path.insert(0, str(ROOT / "src"))
    import baric.cli as cli
    import run
    import workloads

    def one_byte_off(*args, **kwargs):
        args = [a.replace("file=", "file:", 1) if isinstance(a, str) else a for a in args]
        builtins.print(*args, **kwargs)

    work = HERE / "_work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    cwd = os.getcwd()
    try:
        os.chdir(work)
        jobs = workloads.build("tensor", 1, 0, tiny=True)
        clean = run.Run(None)
        golden = {"0": run.judge(clean, 0, run.run_pass(jobs)[1])}
        assert not clean.failures, clean.failures
        record = run.Run(golden)
        run.judge(record, 0, run.run_pass(jobs)[1])
        assert not record.failures, record.failures
        cli.print = one_byte_off
        try:
            record = run.Run(golden)
            run.judge(record, 0, run.run_pass(jobs)[1])
        finally:
            del cli.print
        checks = sum(job.argv[0] == "check" for job in jobs)
        assert len(record.failures) == checks, record.failures
        assert all("golden" in f for f in record.failures), record.failures
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)


def test_benchmark_json_matches_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(metrics.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        (m.name, m.unit, "lower", m.bound) for m in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in metrics.PER_LAYER
    ]


def test_bare_directory_fails():
    bare = HERE / "_work" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "_traces", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "0", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=180,
        )
        assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    failed = 0
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            try:
                test()
                print(f"ok   {name}")
            except Exception:
                failed += 1
                print(f"FAIL {name}\n{traceback.format_exc()}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
