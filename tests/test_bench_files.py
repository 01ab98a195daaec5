"""Every BENCH_*.json at the root of the repository is well formed."""

import importlib.util
import json
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
METRICS = ("wall_s", "job_p50_ms", "setup_s", "peak_rss_mb", "calibration_round_ms")
SIDES = ("parent", "change")
SHA = re.compile("[0-9a-f]{40}")


def _assert_well_formed_workload(w):
    n = w["pairs"]
    assert n >= 2
    for name in METRICS:
        m = w["metrics"][name]
        assert len(m["pairs"]) == n and all(len(pair) == 2 for pair in m["pairs"])
        for column, side in enumerate(SIDES):
            values = [pair[column] for pair in m["pairs"]]
            s = m[side]
            assert s["median"] == statistics.median(values)
            assert min(values) <= s["q1"] <= s["median"] <= s["q3"] <= max(values)
        assert m["change_lower_in"] == sum(c < p for p, c in m["pairs"])
    for side in SIDES:
        runs = w["runs"][side]
        assert len(runs) == n
        assert all(r["correct"] is True and r["failed"] == 0 and r["attempted"] > 0 for r in runs)


def test_there_is_a_bench_file():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_is_well_formed(path):
    report = json.loads(path.read_text(encoding="utf-8"))
    assert SHA.fullmatch(report["parent"]["sha"])
    for side in SIDES:
        assert SHA.fullmatch(report[side]["src_tree"])
    assert report["parent"]["src_tree"] != report["change"]["src_tree"]
    assert report["seconds"] > 0 and isinstance(report["seed"], int)
    assert {"cpus", "python", "platform"} <= set(report["machine"])
    assert report["workloads"]
    for w in report["workloads"].values():
        _assert_well_formed_workload(w)


def test_bench_pair_summaries_pass_the_same_check():
    spec = importlib.util.spec_from_file_location("bench_pair", ROOT / "tools" / "bench_pair.py")
    bench_pair = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pair)
    run = {"correct": True, "attempted": 22, "failed": 0, "golden": "checked"}
    runs = {
        side: [dict(run, **{name: scale * (3 + k % 4) for name in METRICS}) for k in range(7)]
        for side, scale in (("parent", 1.0), ("change", 0.8))
    }
    w = bench_pair.compare(runs)
    _assert_well_formed_workload(w)
    assert w["metrics"]["wall_s"]["change_lower_in"] == 7
    assert w["metrics"]["wall_s"]["parent"] == {"median": 4.0, "q1": 3.5, "q3": 5.0}
