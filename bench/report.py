"""Every metric of every workload, from one command.

    python3 bench/report.py [--seed N]

Runs bench/run.py on each workload for BENCHMARK.json's run_seconds, first
end to end (--trace 0) and then traced (--trace 1), and prints each run's
report followed by one table of the end-to-end and per-layer metrics.  A
per-layer metric that reads 0 on a workload its row in workloads.json maps
it to is flagged.  About five minutes on a 2-core machine.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    layers = json.loads((BENCH / "workloads.json").read_text())["layers"]
    names = [w["name"] for w in declared["workloads"]]
    seconds = str(declared["run_seconds"])

    results, ok = {}, True
    for name in names:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", seconds,
                 "--trace", str(trace)], capture_output=True, text=True)
            print(proc.stdout, end="")
            print(proc.stderr, end="", file=sys.stderr)
            if proc.returncode != 0:
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            results.setdefault(name, {}).update(result["metrics"])

    def value(workload, metric):
        return results.get(workload, {}).get(metric, {}).get("value")

    print(f"\n{'metric':32} {'unit':6}" + "".join(f" {n:>15}" for n in names))
    for m in declared["end_to_end"] + declared["per_layer"]:
        cells = [value(n, m["name"]) for n in names]
        print(f"{m['name']:32} {m['unit']:6}" + "".join(
            f" {'-':>15}" if v is None else f" {v:>15.6g}" for v in cells))
    unseen = [m for row in layers for m in row["metrics"]
              if not any(value(n, m) for n in row["on"])]
    print("layer metrics reading 0 on every workload mapped to them: "
          + (", ".join(unseen) or "none"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
