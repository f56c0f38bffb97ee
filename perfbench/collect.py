"""Repeat the benchmark over seeds and report the spread of each metric.

    python3 perfbench/collect.py --seeds 1-10 [--workloads cctm-step,cli-small]
        [--trace 0|1] [--out perfbench/BASELINE.json]

Runs perfbench/run.py once per (workload, seed), one after another, and
prints for each end-to-end metric the median, the quartiles and the spread,
(Q3 - Q1) / median as statistics.quantiles(values, n=4) gives them, next to
the metric's bound. With --out it stores these summaries, the environment
record and every run's values in a JSON file, under the key "trace0" or
"trace1", keeping what the file holds under the other key.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.splitlines()
    env = json.loads(next(line for line in lines if line.startswith("# env "))[6:])
    return json.loads(lines[-1]), env


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    record = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "trace": args.trace,
              "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds(args.seeds):
            result, env = one_run(workload, seed, spec["run_seconds"], args.trace)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        record["env"] = env
        names = list(runs[0]["metrics"])
        stats = {}
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs]
            stats[name] = {**summary(values), "unit": runs[0]["metrics"][name]["unit"],
                           "bound": bounds.get(name), "values": values}
        record["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": stats,
        }
        for name, s in stats.items():
            spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
            bound = "" if s["bound"] is None else f" (bound {s['bound']})"
            print(f"  {name:42s} median {s['median']:.6g} {s['unit']:8s} "
                  f"Q1 {s['q1']:.6g} Q3 {s['q3']:.6g} spread {spread}{bound}", flush=True)
    if args.out:
        out = Path(args.out)
        stored = json.loads(out.read_text()) if out.exists() else {}
        stored[f"trace{args.trace}"] = record
        out.write_text(json.dumps(stored, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
