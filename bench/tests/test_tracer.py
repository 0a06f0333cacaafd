"""The traced run: wrappers see their calls, counts repeat, the cliff shows.

The module fixture traces every op of every workload once at seed 0; the
slowest op, the O(N^2) injectivity cliff, takes about 30 s per run.
"""
import time

import pytest

import tracer
from harness import inprocess_pass, load_workloads

SPEC = load_workloads()
CLIFF = ("collision-scan", "injectivity/example2-2e4")


def _op(workload, op_id):
    return next(op for op in SPEC["workloads"][workload]["ops"]
                if op["id"] == op_id)


def _trace_op(op, seed, work):
    trace = tracer.Tracer()
    _, (res,) = inprocess_pass([op], seed, work, time.perf_counter() + 150,
                               trace)
    assert res.ok, res.problems
    return trace


def _counts(trace):
    metrics = tracer.layer_metrics(trace.spans)
    return {k: v for k, v in metrics.items() if not k.endswith("_s")
            and k != "jets.ns_per_point"}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    work = tmp_path_factory.mktemp("traced")
    return {(name, op["id"]): _trace_op(op, 0, work)
            for name, w in SPEC["workloads"].items() for op in w["ops"]}


def test_layer_metrics_split_self_and_inclusive_time():
    spans = [
        ["criterion.scan", 0.0, 10.0, -1, None],
        ["jets.eval", 1.0, 4.0, 0, {"points": 100}],
        ["jets.eval", 5.0, 6.0, 0, {"points": 50}],
        ["nehari.extremal_profile", 20.0, 30.0, -1, None],
        ["nehari.extremal_profile", 21.0, 22.0, 3, None],
    ]
    m = tracer.layer_metrics(spans)
    assert m["criterion.scan_s"] == pytest.approx(6.0)
    assert m["jets.eval_s"] == pytest.approx(4.0)
    assert m["jets.eval_points"] == 150 and m["jets.eval_calls"] == 2
    assert m["jets.ns_per_point"] == pytest.approx(4.0e9 / 150)
    # A nested call of the same function is not counted twice.
    assert m["nehari.profile_s"] == pytest.approx(10.0)


def test_install_finds_every_target_and_restore_puts_originals_back():
    import holocurve.cli
    import holocurve.jets

    before = (holocurve.cli.scan, holocurve.jets.HoloCurve.eval)
    restore = tracer.install(tracer.Tracer())
    assert holocurve.cli.scan is not before[0]
    restore()
    assert (holocurve.cli.scan, holocurve.jets.HoloCurve.eval) == before


def test_a_missing_target_is_an_error_and_wraps_nothing(monkeypatch):
    import holocurve.cli

    before = holocurve.cli.scan
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + [
        ("holocurve.oracle:no_such_function", "oracle.gone", None)])
    with pytest.raises(LookupError, match="holocurve.oracle:no_such"):
        tracer.install(tracer.Tracer())
    assert holocurve.cli.scan is before


def test_wrapper_cost_is_positive():
    assert 0 < tracer.wrapper_cost_s(batches=3, calls=2000) < 1e-3


def test_every_wrapper_sees_calls(traced):
    """Each binding, including each `from .x import y` name in a consumer's
    namespace, is called on some workload."""
    seen = set()
    for trace in traced.values():
        seen.update(trace.calls)
    wanted = {t[0] for t in tracer.TARGETS} | {tracer.KDTREE_TARGET}
    assert wanted - seen == set()


def test_layer_metrics_are_nonzero_on_their_mapped_workload(traced):
    per_workload = {}
    for (name, _), trace in traced.items():
        total = per_workload.setdefault(name, {})
        for metric, value in tracer.layer_metrics(trace.spans).items():
            total[metric] = total.get(metric, 0) + value
    for row in SPEC["layers"]:
        for metric in row["metrics"]:
            if metric == "cli.import_s":
                continue  # measured by run.py, not from spans
            assert any(per_workload[w][metric] > 0 for w in row["on"]), \
                (metric, row["on"])


@pytest.mark.parametrize("workload, op_id, must", [
    ("cli-defaults", "boundary/example2-inverse_square",
     {"criterion.minimize_calls": lambda n: n >= 1}),
    ("grid-scale", "check-criterion/example2-256k",
     {"criterion.csv_rows": lambda n: n == 256001}),
    CLIFF + ({"oracle.brute_calls": lambda n: n >= 1},),
])
def test_counts_repeat_exactly(traced, tmp_path, workload, op_id, must):
    first = _counts(traced[(workload, op_id)])
    again = _counts(_trace_op(_op(workload, op_id), 0, tmp_path))
    assert again == first
    assert first["jets.eval_calls"] > 0
    for metric, ok in must.items():
        assert ok(first[metric]), (metric, first[metric])


def test_cliff_op_falls_back_to_brute_force_on_another_seed(tmp_path):
    counts = _counts(_trace_op(_op(*CLIFF), 1, tmp_path))
    assert counts["oracle.brute_calls"] >= 1
