"""Alternating parent/change runs of perfbench, written to one BENCH file.

Run from the repository root:

    python3 scripts/bench_pairs.py --parent HEAD~1 --workload codebook_mc \
        --workload oracle_scan --pairs 10 --seconds 26 --seed 1 --seed 7 \
        --out BENCH_12.json

Each side is extracted into its own temporary directory: a revision by
``git archive``, the working tree (the default ``--change``) by copying the
files git tracks or would track. ``perfbench/run.py`` then runs from each
directory in turn, ``--pairs`` times for each ``--workload`` and ``--seed``
(both repeatable), and the side that goes first alternates from pair to
pair so that a drift of the machine's speed hits both sides alike. One
traced run per side and workload (``--trace 1``) adds the per-layer
metrics. The BENCH file holds the environment, both commit ids, every
run's metrics, per workload and seed the median, quartiles, min and max
of each end-to-end metric on each side and in how many pairs the change
beat the parent, and per workload the traced metrics of both sides. Each
run also keeps perfbench's report lines (``parse_report``), and the
summary gives the same figures for the raw pass wall, ``battery_wall_s``,
and the number of passes a run completed, ``passes``, which are printed
beside the end-to-end rows. The
environment adds the variables in ``SETUP_VARIABLES``, or null. Each
end-to-end metric with a bound in ``BENCHMARK.json`` also gets the
change's median move as a share of that bound and a verdict (see
``judge``), which are printed with the medians. Each ``--claim
WORKLOAD:METRIC`` (repeatable) marks a gain the change claims: that
summary row gets a ``claim`` entry (see ``claim``), and the script prints
"claim met" or "claim not met" for it.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Variables the runs inherit that move setup_s: with the first set, every
# process compiles its sources from text; the others size the BLAS pools.
SETUP_VARIABLES = ("PYTHONDONTWRITEBYTECODE", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# perfbench's report lines: "<workload> <name> = <value> <unit> (n=<count>)"
REPORT_LINE = re.compile(r"(\S+) (\S+) = (\S+) (\S+) \(n=([^)]*)\)")
# summarized from the battery_wall_s line: the raw pass wall and the passes run
REPORTED = {"battery_wall_s": "lower", "passes": "higher"}


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
        untar(fh, dest)
    return sha


def untar(fh, dest: str) -> None:
    """Extracts the tar file fh into dest, through the "data" filter where
    tarfile has one (Python 3.10.12, 3.11.4 and later)."""
    with tarfile.open(fileobj=fh) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


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
    return {"env": env, "result": result, "report": parse_report(proc.stdout, workload)}


def parse_report(stdout: str, workload: str) -> dict:
    """perfbench's report lines for workload, by name: value, unit and the
    count n (an int where it is one, else its text, as "0/2700")."""
    out = {}
    for line in stdout.splitlines():
        got = REPORT_LINE.fullmatch(line.strip())
        if got and got[1] == workload:
            n = got[5]
            out[got[2]] = {"value": float(got[3]), "unit": got[4],
                           "n": int(n) if n.isdigit() else n}
    return out


def reported(run: dict) -> dict:
    """A run's raw pass wall and pass count, from its battery_wall_s line;
    empty where the run printed none."""
    wall = run.get("report", {}).get("battery_wall_s")
    return {} if wall is None else {"battery_wall_s": wall["value"], "passes": wall["n"]}


def setup_environment(environ=os.environ) -> dict:
    """Each of SETUP_VARIABLES' value in environ, None where unset."""
    return {name: environ.get(name) for name in SETUP_VARIABLES}


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
        out[name] = {"better": direction, "wins": wins, "pairs": len(pairs)}
        for side, values in sides.items():
            out[name][side] = dict(quartiles(values), min=min(values), max=max(values))
    return out


def summarize_seed(runs: list, better: dict) -> dict:
    """``summarize`` of the runs' metrics, then of their ``reported``
    pass wall and pass count."""
    out = summarize(runs, better)
    out.update(summarize([{"side": r["side"], "metrics": reported(r)} for r in runs], REPORTED))
    return out


def judge(row: dict, bound: float) -> dict:
    """The change's median move in a summary row against its bound.

    ``move`` is the change's median less the parent's, over the parent's
    median (or absolute where that median is 0), signed so that worse is
    positive; ``bound_share`` is move / bound. ``parent_spread`` is the
    parent's quartile distance on the same scale. Where that spread is
    wider than the bound, the parent's own runs move further than the
    bound, so the verdict is "unresolved", unless every change run beats
    every parent run (by the side's min and max): then it is "better in
    every run". Otherwise it is "worse past bound" where the move is over
    the bound, else "within bound".
    """
    parent, change = row["parent"], row["change"]
    scale = abs(parent["median"]) or 1.0
    lower = row["better"] == "lower"
    sign = 1.0 if lower else -1.0
    move = sign * (change["median"] - parent["median"]) / scale
    spread = (parent["q3"] - parent["q1"]) / scale
    if spread > bound:
        every = change["max"] < parent["min"] if lower else change["min"] > parent["max"]
        verdict = "better in every run" if every else "unresolved"
    elif move > bound:
        verdict = "worse past bound"
    else:
        verdict = "within bound"
    return {"bound": bound, "move": move, "bound_share": move / bound,
            "parent_spread": spread, "verdict": verdict}


def claim(row: dict) -> dict:
    """Whether a summary row shows the gain the change claims: the change
    wins at least nine tenths of the pairs (ties count for neither), and
    its median beats the parent's by more than the parent's quartile
    distance. ``gain`` is that median difference, signed so that better is
    positive, in the metric's unit."""
    parent, change = row["parent"], row["change"]
    sign = 1.0 if row["better"] == "lower" else -1.0
    gain = sign * (parent["median"] - change["median"])
    spread = parent["q3"] - parent["q1"]
    met = 10 * row["wins"] >= 9 * row["pairs"] and gain > spread
    return {"gain": gain, "parent_spread": spread, "met": met}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--change", default=None, help="change revision (default: the working tree)")
    parser.add_argument("--workload", action="append", required=True, help="perfbench workload; repeatable")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--seed", type=int, action="append", help="battery order seed; repeatable (default 1)")
    parser.add_argument("--out", required=True, help="BENCH file to write")
    parser.add_argument("--claim", action="append", default=[],
                        help="WORKLOAD:METRIC whose gain the change claims; repeatable")
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
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        claims = [tuple(text.split(":", 1)) for text in args.claim]
        for text, claimed in zip(args.claim, claims):
            if len(claimed) != 2 or claimed[0] not in args.workload or claimed[1] not in better:
                parser.error(f"--claim {text}: expected WORKLOAD:METRIC, a --workload "
                             "and a metric BENCHMARK.json names")

        runs, env, traced = [], {}, {}
        for workload in args.workload:
            for seed in seeds:
                for pair in range(args.pairs):
                    order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                    for side in order:
                        got = run_bench(trees[side], workload, seed, args.seconds, 0)
                        env = env or got["env"]
                        res = got["result"]
                        metrics = {k: v["value"] for k, v in res.get("metrics", {}).items()}
                        runs.append({"workload": workload, "seed": seed, "pair": pair,
                                     "side": side, "correct": res.get("correct"),
                                     "returncode": res["returncode"], "metrics": metrics,
                                     "report": got["report"]})
                        print(f"{workload} seed {seed} pair {pair} {side}: "
                              + json.dumps({**metrics, **reported(runs[-1])}, sort_keys=True),
                              flush=True)
            traced[workload] = {}
            for side in ("parent", "change"):
                res = run_bench(trees[side], workload, seeds[0], args.seconds, 1)["result"]
                traced[workload][side] = {
                    "correct": res.get("correct"), "returncode": res["returncode"],
                    "metrics": {k: v["value"] for k, v in res.get("metrics", {}).items()},
                }

    # what differs between runs or sides is recorded per run, or as the commits
    for key in ("commit", "workload", "seed", "battery_order", "source_sha256"):
        env.pop(key, None)
    env.update(setup_environment())
    summary = {
        workload: {
            str(seed): summarize_seed(
                [r for r in runs if r["workload"] == workload and r["seed"] == seed], better
            )
            for seed in seeds
        }
        for workload in args.workload
    }
    for workload, by_seed in summary.items():
        for rows in by_seed.values():
            for name, row in rows.items():
                if name in bounds:
                    row.update(judge(row, bounds[name]))
                if (workload, name) in claims:
                    row["claim"] = claim(row)
    doc = {
        "workloads": args.workload,
        "seeds": seeds,
        "seconds": args.seconds,
        "environment": env,
        "parent": commits["parent"],
        "change": commits["change"],
        "runs": runs,
        "traced": traced,
        "summary": summary,
        "traced_summary": {
            workload: {
                name: {"parent": sides["parent"]["metrics"].get(name),
                       "change": sides["change"]["metrics"].get(name), "better": better[name]}
                for name in better
                if name in sides["parent"]["metrics"] or name in sides["change"]["metrics"]
            }
            for workload, sides in traced.items()
        },
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for workload, by_seed in summary.items():
        for seed, rows in by_seed.items():
            for name, row in rows.items():
                p, c = row["parent"], row["change"]
                line = (f"{workload} seed {seed} {name}: parent {p['median']:.4g} "
                        f"[{p['q1']:.4g}, {p['q3']:.4g}]  change {c['median']:.4g} "
                        f"[{c['q1']:.4g}, {c['q3']:.4g}]  wins {row['wins']}/{row['pairs']}")
                if "verdict" in row:
                    line += (f"  move {row['move']:+.1%} = {row['bound_share']:+.2f} of bound "
                             f"{row['bound']:g} (parent spread {row['parent_spread']:.1%}): "
                             f"{row['verdict']}")
                if "claim" in row:
                    got = row["claim"]
                    line += (f"  claim {'met' if got['met'] else 'not met'} (gain "
                             f"{got['gain']:.4g} against parent spread {got['parent_spread']:.4g})")
                print(line)
    ok = all(r["correct"] and r["returncode"] == 0 for r in runs)
    ok = ok and all(
        t["correct"] and t["returncode"] == 0 for sides in traced.values() for t in sides.values()
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
