"""holocurve benchmark: CLI times end to end, and a traced per-layer run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; it uses the checkout it sits in.  Workloads, their ops,
the expected outcome of each op and the map from layer metrics to the
end-to-end metrics they should move are in bench/workloads.json.

--trace 0 (the end-to-end numbers, with tracing off):
  * setup_s: median over 5 fresh interpreters of `import holocurve`, after
    one untimed import that also fills the bytecode cache.
  * Then passes over the workload's ops, each op a fresh
    `python -m holocurve ...`, one after another (a closed loop with one
    client), for about S seconds and at least one pass.  pass_s is the
    median over passes of the summed op wall times (each from spawn to
    reap, without the benchmark's own hashing and clean-up between ops),
    and peak_rss_mb the median over passes of the largest child max-RSS in
    the pass.  Per-subcommand times are printed and saved, not part of the
    final line, because no subcommand runs in every workload.
--trace 1 (the per-layer numbers): one untraced and then one traced pass of
  the same ops in this process through holocurve.cli.main, with wrappers
  from bench/tracer.py, after one untimed warm-up pass.  A wrap target the
  library no longer has stops the run with an error and no result.  The
  tracing overhead trace.overhead_s is the number of wrapper calls times
  the measured cost of one wrapper call; the traced minus the untraced
  pass time is printed too, but one pair of passes is within pass-to-pass
  noise.

Every op's exit code and verdict lines are checked against workloads.json,
and an op whose output differs byte for byte from its first repetition in
the run fails.  The traced run compares all three in-process passes; a
--trace 0 run compares only when it makes more than one pass: at 30
seconds grid-scale always does, cli-defaults only on a fast host, and
collision-scan never.  Ops past their timeout are killed and count
as failed.  A workload's edge ops (inputs whose documented outcome is exit
5) run once per run outside the timed passes; their mismatches are
reported as cli.edge_contract_failures and do not fail the run.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  A full record with run metadata goes to
bench/.out/results/<workload>-seed<N>-trace<T>.json.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import (OUT, ROOT, SRC, check, child_env,  # noqa: E402
                     inprocess_pass, load_workloads, run_op_process, spawn)

RUN_LIMIT_S = 165.0          # hard wall-time limit of one benchmark run
SETUP_REPEATS = 5


def metadata(seed: int) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    env = child_env()
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "git_commit": git_commit(), "seed": seed,
        "env": {k: env.get(k) for k in ("HOLOCURVE_WORKERS",
                                        "OMP_NUM_THREADS",
                                        "OPENBLAS_NUM_THREADS")},
    }


def git_commit() -> str | None:
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def summary(values: list) -> dict:
    """Median and the highest of p90/p99/p99.9 with >= 10 samples beyond it
    (the tail is None below 100 samples), with the sample count."""
    xs = sorted(values)
    n = len(xs)
    out = {"median": statistics.median(xs), "n": n, "tail": None}
    for permille in (999, 990, 900):
        if n * (1000 - permille) >= 10 * 1000:
            rank = -(-n * permille // 1000)        # nearest rank, 1-based
            out["tail"] = {"p": permille / 10, "value": xs[rank - 1]}
            break
    return out


def describe(name: str, s: dict, unit: str) -> str:
    tail = (f"p{s['tail']['p']:g} {s['tail']['value']:.6g} {unit}"
            if s["tail"] else "no tail percentile (needs >= 100 samples)")
    return f"{name} = {s['median']:.6g} {unit}  [median of n={s['n']}; {tail}]"


def check_setup(work: Path, deadline: float) -> None:
    """Import holocurve once in a fresh interpreter (filling the bytecode
    cache) and make sure it is this checkout's copy."""
    probe = ("import holocurve, os, sys; "
             "print(os.path.realpath(holocurve.__file__))")
    wall, code, _ = spawn([sys.executable, "-c", probe], child_env(),
                          deadline - time.perf_counter(), work / "probe.out",
                          work / "probe.err")
    where = (work / "probe.out").read_text().strip()
    want = os.path.realpath(SRC / "holocurve")
    if code != 0 or not where.startswith(want + os.sep):
        sys.exit(f"error: cannot import holocurve from {want} "
                 f"(exit {code}, got {where or 'nothing'})")


def measure_setup(work: Path, deadline: float) -> list:
    times = []
    for _ in range(SETUP_REPEATS):
        wall, code, _ = spawn([sys.executable, "-c", "import holocurve"],
                              child_env(), deadline - time.perf_counter(),
                              work / "setup.out", work / "setup.err")
        if code != 0:
            sys.exit(f"error: `import holocurve` exited {code}")
        times.append(wall)
    return times


def run_edge_ops(spec: dict, seed: int, work: Path, deadline: float) -> list:
    results = []
    for op in spec["edge_ops"]:
        timeout = min(op["timeout_s"], deadline - time.perf_counter())
        res = run_op_process(op, seed, work / "edge", timeout)
        check(op, res)
        results.append(res)
    return results


def end_to_end(spec: dict, seed: int, seconds: float, work: Path,
               deadline: float, record: dict):
    """Time passes of fresh-interpreter ops; return (metrics, op results)."""
    setup = measure_setup(work, deadline)
    passes, first_digest = [], {}
    started = time.perf_counter()
    while True:
        ops = []
        t0 = time.perf_counter()
        for op in spec["ops"]:
            timeout = min(op["timeout_s"], deadline - time.perf_counter())
            res = run_op_process(op, seed, work / f"pass{len(passes)}",
                                 timeout)
            check(op, res, first_digest.get(op["id"]))
            first_digest.setdefault(op["id"], res.digest)
            ops.append(res)
        now = time.perf_counter()
        passes.append({"wall_s": sum(r.wall_s for r in ops),
                       "elapsed_s": now - t0, "ops": ops})
        typical = statistics.median(p["elapsed_s"] for p in passes)
        longest = max(p["elapsed_s"] for p in passes)
        if now - started + typical > seconds or now + 1.25 * longest \
                > deadline:
            break

    pass_s = summary([p["wall_s"] for p in passes])
    rss = summary([max(r.max_rss_mb for r in p["ops"]) for p in passes])
    per_command = {}
    for cmd in dict.fromkeys(op["command"] for op in spec["ops"]):
        per_command[cmd.replace("-", "_") + "_s"] = summary(
            [sum(r.wall_s for r in p["ops"] if r.command == cmd)
             for p in passes])

    print(describe("setup_s", summary(setup), "s"))
    print(describe("pass_s", pass_s, "s"))
    print(describe("peak_rss_mb", rss, "MB"))
    for name, s in per_command.items():
        print(describe(name, s, "s"))
    record["pass_wall_s"] = [p["wall_s"] for p in passes]
    record["per_subcommand"] = per_command
    record["setup_samples_s"] = setup
    return ({"setup_s": statistics.median(setup),
             "pass_s": pass_s["median"], "peak_rss_mb": rss["median"]},
            [r for p in passes for r in p["ops"]])


def traced(spec: dict, seed: int, work: Path, deadline: float,
           record: dict):
    """Untraced and traced in-process passes; return (metrics, results)."""
    import tracer

    os.environ.pop("HOLOCURVE_WORKERS", None)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import holocurve.cli  # noqa: F401
    import_s = time.perf_counter() - t0

    try:
        tracer.install(tracer.Tracer())()    # fail before the first pass
    except LookupError as exc:
        sys.exit(f"error: {exc}")

    ops = spec["ops"]
    # The warm-up pass pays first-call set-up and is not timed.
    _, warm = inprocess_pass(ops, seed, work / "warmup", deadline)
    untraced_s, plain = inprocess_pass(ops, seed, work / "untraced",
                                       deadline)
    trace = tracer.Tracer()
    traced_s, results = inprocess_pass(ops, seed, work / "traced", deadline,
                                       trace)
    for op, first, *again in zip(ops, warm, plain, results):
        check(op, first)
        for res in again:
            check(op, res, first.digest)

    wrapper_s = tracer.wrapper_cost_s()
    metrics = {"cli.import_s": import_s}
    metrics.update(tracer.layer_metrics(trace.spans))
    metrics["trace.untraced_pass_s"] = untraced_s
    metrics["trace.traced_pass_s"] = traced_s
    metrics["trace.overhead_s"] = len(trace.spans) * wrapper_s
    print(f"tracing overhead = {metrics['trace.overhead_s']:.6g} s "
          f"({len(trace.spans)} wrapper calls x {wrapper_s * 1e9:.0f} ns); "
          f"traced - untraced pass = {traced_s - untraced_s:+.3f} s "
          f"(a single pair of passes, so mostly noise)")
    record["wrapper_calls"] = len(trace.spans)
    record["wrapper_cost_s"] = wrapper_s
    with open(OUT / "results" / (record["name"] + "-spans.json"), "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "counts"],
                   "spans": trace.spans}, fh)
    return metrics, warm + plain + results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S

    if not (SRC / "holocurve" / "__init__.py").is_file():
        sys.exit(f"error: no holocurve sources under {SRC}")
    workloads = load_workloads()["workloads"]
    if args.workload not in workloads:
        sys.exit(f"error: unknown workload {args.workload!r} "
                 f"(choose from {', '.join(workloads)})")
    spec = workloads[args.workload]
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)

    work = OUT / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"name": name, "workload": args.workload,
              "metadata": metadata(args.seed), "seconds": args.seconds}
    print(f"# workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}: {spec['why']}")
    print("# metadata " + json.dumps(record["metadata"]))
    check_setup(work, deadline)

    if args.trace:
        values, ops = traced(spec, args.seed, work, deadline, record)
    else:
        values, ops = end_to_end(spec, args.seed, args.seconds, work,
                                 deadline, record)
    edge = run_edge_ops(spec, args.seed, work, deadline)

    for tag, results in (("", ops), (" (edge op)", edge)):
        for res in results:
            status = "ok" if res.ok else "FAIL: " + "; ".join(res.problems)
            print(f"op {res.op_id}{tag}: exit {res.exit}, "
                  f"{res.wall_s:.3f} s, {status}")
    failed = sum(1 for r in ops if not r.ok)
    values["cli.edge_contract_failures"] = sum(1 for r in edge if not r.ok)
    print(f"fail_ratio = {failed}/{len(ops)}")
    print(f"edge ops failing their documented contract = "
          f"{values['cli.edge_contract_failures']}/{len(edge)}")

    declared_metrics = declared["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared_metrics}
    if args.trace:
        for name_, m in metrics.items():
            print(f"{name_} = {m['value']:.6g} {m['unit']}")
    result = {"correct": failed == 0, "attempted": len(ops),
              "failed": failed, "metrics": metrics}
    record.update(result, ops=[vars(r) for r in ops],
                  edge_ops=[vars(r) for r in edge])
    with open(OUT / "results" / (name + ".json"), "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
