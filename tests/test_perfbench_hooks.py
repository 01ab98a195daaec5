"""The benchmark's tracer finds every function it wraps.

perfbench/tracer.py rebinds each name in TRACED and each FieldElement
operation in FieldCounter.OPS by lookup, so a rename or removal in the
library would crash every traced run. The tracer source is executed
here without importing it as a package or writing anything next to it.
"""

import importlib
import types
from pathlib import Path

from baric.fields import FieldElement

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def test_traced_paths_resolve():
    tracer = _load_tracer()
    assert tracer.TRACED
    for module_name, path in tracer.TRACED:
        owner = importlib.import_module(f"baric.{module_name}")
        for attr in path.split("."):
            assert hasattr(owner, attr), f"baric.{module_name}.{path}"
            owner = getattr(owner, attr)
        assert callable(owner), f"baric.{module_name}.{path}"


def test_counted_field_operations_resolve():
    tracer = _load_tracer()
    for op in (*tracer.FieldCounter.OPS, "__bool__"):
        assert op in vars(FieldElement), op
