"""The traced benchmark run wraps library entry points by name.

bench/tracer.py lists them in TARGETS; a name that no longer resolves would
break `bench/run.py --trace 1`, so each one is checked here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("module, path", [(m, p) for m, p, _ in load_targets()])
def test_trace_target_resolves(module, path):
    owner = importlib.import_module(f"soclecoh.{module}")
    if "." in path:
        # methods are wrapped in their class __dict__, so inherited ones do not count
        cls_name, attr = path.split(".")
        assert callable(vars(getattr(owner, cls_name)).get(attr))
    else:
        assert callable(getattr(owner, path, None))
