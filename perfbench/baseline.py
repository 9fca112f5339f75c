"""Runs the benchmark on several seeds per workload and summarizes it.

Run from the repository root:

    python3 perfbench/baseline.py --out perfbench/baseline.json

For each workload of BENCHMARK.json this makes ten untraced runs (seeds
1-10) and one traced run (seed 1), one process at a time.
Per end-to-end metric it records the median, the quartiles and the spread
(quartile distance over median) that the acceptance rule uses, and keeps
every run's result line and the environment of the first run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n{proc.stderr}"
        )
    env = next(json.loads(x)["env"] for x in lines if x.startswith('{"env"'))
    return {"seed": seed, "wall_s": wall, "env": env, "result": json.loads(lines[-1])}


def summarize(runs: list) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "unit": runs[0]["result"]["metrics"][name]["unit"],
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    doc = {}
    for name in (w["name"] for w in bench["workloads"]):
        runs = [run_once(name, seed, bench["run_seconds"], 0) for seed in SEEDS]
        traced = run_once(name, SEEDS[0], bench["run_seconds"], 1)
        doc[name] = {
            "env": runs[0]["env"],
            "end_to_end": summarize(runs),
            "per_layer": traced["result"]["metrics"],
            "traced_wall_s": traced["wall_s"],
            "runs": [{k: r[k] for k in ("seed", "wall_s", "result")} for r in runs],
        }
        for metric, s in doc[name]["end_to_end"].items():
            print(f"{name} {metric}: median {s['median']:.6g} {s['unit']}, spread {s['spread']:.4f}",
                  file=sys.stderr)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
