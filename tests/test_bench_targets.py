"""The benchmark's tracer wraps library bindings by name; a refactor that
drops one would otherwise only show when a traced benchmark run stops, and
one that routes a call around its binding would read as 0 calls.

bench/tracer.py is loaded by path; only the shim test installs it.  The
weight gate and expectations tests read bench/workloads.json and change
nothing there.
"""

import importlib.util
import json
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


# The scipy bindings and nehari.solve_ivp are first-use shims.  Only the
# boundary run calls one, nehari.solve_ivp for its profile.
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
    assert "nehari.solve_ivp" in names, "a call bypassed its binding"
    assert "criterion.intrinsic_min_distance" in names
    # criterion.minimize, criterion.dijkstra and oracle.cKDTree are wrapped
    # but no longer called: the critical-point search is a plain Newton
    # iteration, the covering distance a quadrature bracket and the
    # injectivity pair search a numpy sweep.
    assert not names & {"criterion.minimize", "criterion.dijkstra",
                        "oracle.kdtree"}
    for (module, attr), original in zip(shims, originals):
        assert getattr(module, attr) is original


def test_write_scan_csv_publishes_the_whole_table_once(tmp_path, capsys,
                                                      monkeypatch):
    # The tracer reads criterion.csv_rows from the report and
    # criterion.csv_bytes from the file when cli.write_scan_csv returns.
    calls = []
    publish = cli.write_scan_csv

    def spy(report, path):
        publish(report, path)
        calls.append((report.n_points,
                      len(Path(path).read_text().splitlines())))

    monkeypatch.setattr(cli, "write_scan_csv", spy)
    cfg = tmp_path / "refine.cfg"
    cfg.write_text("curve.kind = tan_truncation\ngrid.n_r = 20\n"
                   "grid.n_theta = 12\ngrid.r_max = 0.7\ngrid.refine = 2\n")
    assert cli.main(["check-criterion", str(cfg), "--output",
                     str(tmp_path)]) == 1
    capsys.readouterr()
    [(n_points, lines)] = calls
    assert n_points > 1 + 20 * 12       # refinement picks follow the grid
    assert lines == n_points + 1


def _bench_ops():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.json"
    workloads = json.loads(path.read_text())["workloads"]
    return [op for spec in workloads.values()
            for op in spec["ops"] + spec["edge_ops"]]


@pytest.mark.parametrize("op", _bench_ops(), ids=lambda op: op["id"])
def test_bench_weights_are_admitted_without_a_phase_solve(op, monkeypatch):
    # build_weight gates every weight-taking subcommand: on a bench op it
    # must neither turn the run into exit 2 nor add a phase solve to it.
    solves = []
    monkeypatch.setattr(nehari, "solve_ivp",
                        lambda *args, **kwargs: solves.append(args))
    cli.build_weight(cli.parse_config(_config_text(op),
                                      command=op["command"]))
    assert solves == []


def _config_text(op):
    return "".join(f"{key} = {value}\n" for key, value in op["config"].items())


@pytest.mark.parametrize("op", _bench_ops(), ids=lambda op: op["id"])
def test_bench_ops_meet_their_expectations(op, tmp_path, capsys):
    # The bench checks each op's exit code and expected stdout lines, edge
    # ops included; a library change must keep them.
    cfg = tmp_path / "op.cfg"
    cfg.write_text(_config_text(op))
    code = cli.main([op["command"], str(cfg), "--output", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == op["expect"]["exit"]
    for key, value in op["expect"]["lines"].items():
        assert f"{key} = {value}" in out.splitlines()
