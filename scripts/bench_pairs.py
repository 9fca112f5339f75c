"""Alternating parent/change runs of perfbench, written to one BENCH file.

Run from the repository root:

    python3 scripts/bench_pairs.py --parent HEAD~1 --workload codebook_mc \
        --pairs 10 --seconds 26 --seed 1 --seed 7 --out BENCH_11.json

Each side is extracted into its own temporary directory: a revision by
``git archive``, the working tree (the default ``--change``) by copying the
files git tracks or would track. ``perfbench/run.py`` then runs from each
directory in turn, ``--pairs`` times for each ``--seed``, and the side that
goes first alternates from pair to pair so that a drift of the machine's
speed hits both sides alike. One traced run per side (``--trace 1``) adds
the per-layer metrics. The BENCH file holds the environment, both commit
ids, every run's metrics, per seed the median and quartiles of each
end-to-end metric on each side and in how many pairs the change beat the
parent, and the traced metrics of both sides.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def extract(rev: str | None, dest: str) -> str:
    """Writes the tree of rev (the working tree when None) into dest;
    returns the commit id it names."""
    if rev is None:
        names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
        for name in filter(None, names.split("\0")):
            src = os.path.join(ROOT, name)
            if os.path.isfile(src):
                os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
                shutil.copy2(src, os.path.join(dest, name))
        dirty = bool(git("status", "--porcelain"))
        return git("rev-parse", "HEAD") + ("+working-tree" if dirty else "")
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    archive = subprocess.run(
        ["git", "archive", "--format=tar", sha], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tempfile.TemporaryFile() as fh:
        fh.write(archive)
        fh.seek(0)
        with tarfile.open(fileobj=fh) as tar:
            tar.extractall(dest, filter="data")
    return sha


def run_bench(tree: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run; returns its env line and its result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True,
    )
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("{")]
    if not lines:
        raise RuntimeError(f"perfbench printed no result in {tree}:\n{proc.stderr[-2000:]}")
    env = json.loads(lines[0]).get("env", {}) if len(lines) > 1 else {}
    result = json.loads(lines[-1])
    result["returncode"] = proc.returncode
    return {"env": env, "result": result}


def quartiles(values: list) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list, better: dict) -> dict:
    out = {}
    for name, direction in better.items():
        sides = {
            side: [r["metrics"][name] for r in runs if r["side"] == side and name in r["metrics"]]
            for side in ("parent", "change")
        }
        if not sides["parent"] or len(sides["parent"]) != len(sides["change"]):
            continue
        pairs = list(zip(sides["parent"], sides["change"]))
        wins = sum((c < p) if direction == "lower" else (c > p) for p, c in pairs)
        out[name] = {
            "better": direction,
            "parent": quartiles(sides["parent"]),
            "change": quartiles(sides["change"]),
            "wins": wins,
            "pairs": len(pairs),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--change", default=None, help="change revision (default: the working tree)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--seed", type=int, action="append", help="battery order seed; repeatable (default 1)")
    parser.add_argument("--out", required=True, help="BENCH file to write")
    args = parser.parse_args(argv)
    seeds = args.seed or [1]

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees, commits = {}, {}
        for side, rev in (("parent", args.parent), ("change", args.change)):
            trees[side] = os.path.join(tmp, side)
            os.makedirs(trees[side])
            commits[side] = extract(rev, trees[side])
        with open(os.path.join(trees["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}

        runs, env = [], {}
        for seed in seeds:
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    got = run_bench(trees[side], args.workload, seed, args.seconds, 0)
                    env = env or got["env"]
                    res = got["result"]
                    metrics = {k: v["value"] for k, v in res.get("metrics", {}).items()}
                    runs.append({"seed": seed, "pair": pair, "side": side,
                                 "correct": res.get("correct"),
                                 "returncode": res["returncode"], "metrics": metrics})
                    print(f"seed {seed} pair {pair} {side}: "
                          + json.dumps(metrics, sort_keys=True), flush=True)
        traced = {}
        for side in ("parent", "change"):
            res = run_bench(trees[side], args.workload, seeds[0], args.seconds, 1)["result"]
            traced[side] = {"correct": res.get("correct"), "returncode": res["returncode"],
                            "metrics": {k: v["value"] for k, v in res.get("metrics", {}).items()}}

    # what differs between runs or sides is recorded per run, or as the commits
    for key in ("commit", "seed", "battery_order", "source_sha256"):
        env.pop(key, None)
    doc = {
        "workload": args.workload,
        "seeds": seeds,
        "seconds": args.seconds,
        "environment": env,
        "parent": commits["parent"],
        "change": commits["change"],
        "runs": runs,
        "traced": traced,
        "summary": {
            str(seed): summarize([r for r in runs if r["seed"] == seed], better)
            for seed in seeds
        },
        "traced_summary": {
            name: {"parent": traced["parent"]["metrics"].get(name),
                   "change": traced["change"]["metrics"].get(name), "better": better[name]}
            for name in better
            if name in traced["parent"]["metrics"] or name in traced["change"]["metrics"]
        },
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for seed, summary in doc["summary"].items():
        for name, row in summary.items():
            p, c = row["parent"], row["change"]
            print(f"seed {seed} {name}: parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]  "
                  f"change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]  "
                  f"wins {row['wins']}/{row['pairs']}")
    ok = all(r["correct"] and r["returncode"] == 0 for r in runs)
    ok = ok and all(t["correct"] and t["returncode"] == 0 for t in traced.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
