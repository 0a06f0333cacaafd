"""Op checks, timeouts, statistics and refusal outside a full checkout."""
import json
import shutil
import subprocess
import sys
import time

import pytest

import harness
import run
from harness import OpResult, check, load_workloads

BENCH = harness.BENCH_DIR


def _op(exit_code=0, lines=None):
    return {"id": "x", "command": "check-criterion", "config": {},
            "expect": {"exit": exit_code, "lines": lines or {}},
            "timeout_s": 30}


def test_check_accepts_expected_outcome():
    res = OpResult("x", "check-criterion", 1.0, 0,
                   "verdict = holds\nn_points = 3\n", digest="a")
    check(_op(0, {"verdict": "holds"}), res, "a")
    assert res.ok


@pytest.mark.parametrize("exit_code, stdout, digest, problem", [
    (1, "verdict = holds\n", "a", "exit 1, want 0 (verdict = holds)"),
    (0, "verdict = fails\n", "a", "verdict = 'fails', want 'holds'"),
    (0, "verdict = holds\n", "b", "differs from the first repetition"),
])
def test_check_reports_each_mismatch(exit_code, stdout, digest, problem):
    res = OpResult("x", "check-criterion", 1.0, exit_code, stdout,
                   digest=digest)
    check(_op(0, {"verdict": "holds"}), res, "a")
    assert not res.ok
    assert any(problem in p for p in res.problems), res.problems


def test_spawn_kills_an_op_at_its_timeout(tmp_path):
    t0 = time.perf_counter()
    wall, code, _ = harness.spawn(
        [sys.executable, "-c", "import time; time.sleep(60)"], {}, 0.5,
        tmp_path / "out", tmp_path / "err")
    assert code is None
    assert 0.4 < wall < 10 and time.perf_counter() - t0 < 10


def test_inprocess_op_stops_at_its_timeout(tmp_path):
    def hang(argv):
        while True:
            time.sleep(0.01)

    res = harness.run_op_inprocess(hang, _op(), 0, tmp_path, 0.3)
    assert res.exit is None and not res.ok
    assert "timed out" in res.problems[0]


def test_summary_reports_a_tail_only_with_ten_samples_beyond_it():
    assert run.summary([3.0, 1.0, 2.0]) == {"median": 2.0, "n": 3,
                                            "tail": None}
    s = run.summary([float(i) for i in range(100)])
    assert s["tail"] == {"p": 90.0, "value": 89.0}


def test_workloads_match_benchmark_json():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    spec = load_workloads()
    assert [w["name"] for w in declared["workloads"]] == list(
        spec["workloads"])
    layer_metrics = {m for row in spec["layers"] for m in row["metrics"]}
    per_layer = {m["name"] for m in declared["per_layer"]}
    assert layer_metrics <= per_layer
    for workload in spec["workloads"].values():
        ids = [op["id"] for op in workload["ops"] + workload["edge_ops"]]
        assert len(ids) == len(set(ids))


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark it exits non-zero and
    prints no result."""
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-defaults",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_end_to_end_repeats_ops_and_compares_their_output(tmp_path):
    spec = {"ops": [op for op in load_workloads()["workloads"]
                    ["cli-defaults"]["ops"]
                    if op["id"] == "reproduce-example/1"],
            "edge_ops": []}
    record = {}
    deadline = time.perf_counter() + 120
    values, ops = run.end_to_end(spec, 0, 4.0, tmp_path, deadline, record)
    assert len(ops) >= 2 and all(r.ok for r in ops)
    assert len({r.digest for r in ops}) == 1
    assert values["pass_s"] > 0 and values["setup_s"] > 0
