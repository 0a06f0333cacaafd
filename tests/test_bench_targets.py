"""The benchmark's tracer wraps library bindings by name; a refactor that
drops one would otherwise only show when a traced benchmark run stops, and
one that routes a call around its binding would read as 0 calls.

bench/tracer.py is loaded by path; only the last test installs it.
"""

import importlib.util
from pathlib import Path

import pytest

import holocurve.cli as cli
import holocurve.criterion as criterion
import holocurve.nehari as nehari
import holocurve.oracle as oracle

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


# The scipy bindings and nehari.solve_ivp are first-use shims; each of these
# tiny runs calls one.
_SHIM_RUNS = [
    ("boundary", "curve.kind = example2\nnehari.kind = inverse_square\n"
     "boundary.rays = 2\nboundary.s_points = 3\nboundary.ring_samples = 64\n"),
    ("covering", "covering.radii = 0.3\ncovering.resolution = 20\n"),
    ("injectivity", "injectivity.samples = 500\n"),
]


def test_tracer_records_the_scipy_shims(tmp_path):
    shims = [(nehari, "solve_ivp"), (criterion, "minimize"),
             (criterion, "dijkstra"), (oracle, "cKDTree")]
    originals = [getattr(module, attr) for module, attr in shims]
    trace = tracer.Tracer()
    restore = tracer.install(trace)
    try:
        for i, (command, text) in enumerate(_SHIM_RUNS):
            cfg = tmp_path / f"{i}.cfg"
            cfg.write_text(text)
            assert cli.main([command, str(cfg), "--output",
                             str(tmp_path)]) == 0, command
    finally:
        restore()
    names = {span[0] for span in trace.spans}
    # criterion.minimize is wrapped but no longer called: the critical-point
    # search is a plain Newton iteration.
    for name in ["nehari.solve_ivp", "criterion.dijkstra", "oracle.kdtree"]:
        assert name in names, f"no {name} span: a call bypassed its binding"
    for (module, attr), original in zip(shims, originals):
        assert getattr(module, attr) is original
