"""The benchmark's tracer wraps library bindings by name; a refactor that
drops one would otherwise only show when a traced benchmark run stops.

bench/tracer.py is loaded by path and only read: nothing is wrapped.
"""

import importlib.util
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("where", [t[0] for t in tracer.TARGETS]
                         + [tracer.KDTREE_TARGET])
def test_every_trace_target_resolves(where):
    owner, attr, value = tracer._resolve(where)
    assert value is not None, f"{where} is gone; bench/tracer.py wraps it"
    assert callable(value)
