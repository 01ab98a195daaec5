"""The benchmark's tracer finds every function it wraps, and every layer it reports is entered.

perfbench/tracer.py rebinds each name in TRACED and each FieldElement
operation in FieldCounter.OPS by lookup, so a rename or removal in the
library would crash every traced run. The tracer and metrics sources are
executed here without importing them as a package or writing anything
next to them.

A refactor can also leave a traced function uncalled on the workload
whose per-layer metric it feeds, which would read 0. The last test runs
each workload traced at smoke-test sizes (perfbench/run.py --tiny, about
half a second each) and checks every per-layer metric the workload names;
run.py writes its spans to perfbench/_traces/, which git ignores.
"""

import importlib
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

import baric
from baric.fields import FieldElement

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _load(path):
    module = types.ModuleType(f"perfbench_{path.stem}")
    sys.modules[module.__name__] = module  # dataclasses look their module up there
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


METRICS = _load(PERFBENCH / "metrics.py")


def test_traced_paths_resolve():
    tracer = _load(TRACER)
    assert tracer.TRACED
    for module_name, path in tracer.TRACED:
        owner = importlib.import_module(f"baric.{module_name}")
        for attr in path.split("."):
            assert hasattr(owner, attr), f"baric.{module_name}.{path}"
            owner = getattr(owner, attr)
        assert callable(owner), f"baric.{module_name}.{path}"


def test_the_verify_workload_runs_every_check():
    """The verify workload builds one job per id in metrics.PROPOSITION_IDS, so a
    check missing there would never be benchmarked or traced."""
    assert METRICS.PROPOSITION_IDS == baric.PROPOSITION_IDS


def test_counted_field_operations_resolve():
    tracer = _load(TRACER)
    for op in (*tracer.FieldCounter.OPS, "__bool__"):
        assert op in vars(FieldElement), op


@pytest.mark.parametrize("workload", sorted(METRICS.WORKLOADS))
def test_every_layer_is_entered_on_the_workload_that_names_it(workload):
    argv = [
        sys.executable, str(PERFBENCH / "run.py"), "--workload", workload, "--seed", "1",
        "--seconds", "0", "--trace", "1", "--tiny",
    ]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    named = [m.name for m in METRICS.PER_LAYER if m.workload == workload]
    assert named
    assert [name for name in named if not values[name]] == []
