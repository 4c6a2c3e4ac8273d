"""Record baseline numbers: several seeded runs of every workload.

    python3 bench/baseline.py --out bench/baseline.json

For each workload it makes ``RUNS`` untraced runs, seeds 1..RUNS, and one
traced run with seed 1.  For each end-to-end metric it writes the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread, which
is the inter-quartile distance as a share of the median.  The machine
description (nproc, CPU model, Python and numpy versions) goes with them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import BENCH, ROOT, machine

RUNS = 10


def one_run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    report = {
        "machine": machine(),
        "run_seconds": spec["run_seconds"],
        "seeds": list(range(1, RUNS + 1)),
        "workloads": {},
    }
    for name in (w["name"] for w in spec["workloads"]):
        runs = [one_run(name, seed, 0) for seed in report["seeds"]]
        metrics = {m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in runs]) for m in spec["end_to_end"]}
        traced = one_run(name, 1, 1)
        report["workloads"][name] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": metrics,
            "per_layer_seed_1": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for metric, s in metrics.items():
            print(f"{name:8s} {metric:12s} median {s['median']:.4f} spread {s['spread']:.4f}", flush=True)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
