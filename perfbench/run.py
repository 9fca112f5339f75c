"""coordlab benchmark: four workloads, correctness-gated, optionally traced.

Run from the repository root:

    python3 perfbench/run.py --workload frontier_two_node --seed 1 --seconds 26 --trace 0

Workloads (see ``workloads.py``): frontier_two_node, frontier_cascade,
codebook_mc, oracle_scan. A run generates its workload's fixed battery,
orders it by ``--seed``, and runs whole passes over it in one process
(``--jobs 1``, no extra threads) until ``--seconds`` are used; at least one
pass always runs. Every output is checked against ``reference.json``
(recorded by ``record.py``) and against invariants; any failed check makes
the run print ``"correct": false`` and exit 1.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:

    setup_s        median of 5 fresh processes, start -> inputs generated
    peak_rss_mb    peak resident memory of this process
    ok_share       share of attempted ops that did not fail
    battery_ref_s  median wall of one pass over the battery, at the
                   reference machine speed

On a host that shares its cores with other tenants the machine's speed
drifts, by up to 2x over minutes on a 2-core Xeon sandbox, for coordlab and
any other code alike; no run is long enough to average that out. So while a pass runs, ``SpeedProbe`` times a fixed
kernel that does not touch coordlab every 0.25 s of CPU time, and
battery_ref_s is the pass wall (the kernels' own time taken out) times the
mean of PROBE_REF_S / kernel wall over the pass: the seconds the pass would
take on a machine where the kernel takes PROBE_REF_S. A change that makes
coordlab 2x slower doubles it; a change of the machine's speed cancels out.

Before it, the run prints the workload's own figures (solves_per_s,
solve_s_p50, solve_s_p90, samples_per_s, codes_per_s, grid_cells_per_s,
failed_share) and the raw pass wall, battery_wall_s, with their units and
sample counts, and the run environment.
Per-op medians are printed, not gated: three of the four batteries hold a
handful of ops of very different sizes, so their median jumps from one op
to another with the machine's noise.

With ``--trace 1`` the run makes one pass in which every unit runs twice,
once untraced and once with span wrappers installed around coordlab's
public functions (``spans.py``), and reports per-layer metrics and the
tracing overhead. The traced copies let every two-node solve run to
completion, so ``s_max`` and ``worst_gap`` are the real ones.

Exit codes: 0 all checks passed, 1 a check failed, 2 the coordlab sources
or the reference are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_REPEATS = 5
PROBE_INTERVAL_S = 0.25   # process CPU time between two probe kernels
PROBE_REF_S = 0.003       # the kernel's wall on an idle 2-core Xeon sandbox

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
    "battery_ref_s": "s",
}

# name -> unit; every traced run reports all of them, 0 where the layer did
# no work on that workload. A self time is a span's duration minus its
# children's, so cli.self_s is cli.main minus the coordination_code and
# prob_core calls it makes.
PER_LAYER = {
    "region_solver.solve_two_node.calls": "count",
    "region_solver.solve_two_node.self_s": "s",
    "region_solver.solve_two_node.s_max": "s",
    "region_solver.solve_cascade.calls": "count",
    "region_solver.solve_cascade.self_s": "s",
    "region_solver.delta_star.calls": "count",
    "region_solver.delta_star.s": "s",
    "region_solver.certified_ratio": "ratio",
    "region_solver.worst_gap": "bits",
    "region_solver.self_s": "s",
    "coordination_code.build_codebook_code.s.small": "s",
    "coordination_code.build_codebook_code.s.large": "s",
    "coordination_code.build_codebook_code.s.symbol": "s",
    "coordination_code.codebook_bytes.small": "bytes",
    "coordination_code.codebook_bytes.large": "bytes",
    "coordination_code.expected_tv_monte_carlo.us_per_sample.small": "us",
    "coordination_code.expected_tv_monte_carlo.us_per_sample.large": "us",
    "coordination_code.expected_tv_monte_carlo.us_per_sample.symbol": "us",
    "coordination_code.expected_tv_exact.calls": "count",
    "coordination_code.expected_tv_exact.s": "s",
    "coordination_code.jobs2_speedup": "ratio",
    "coordination_code.self_s": "s",
    "oracle.exhaustive_best_code.calls": "count",
    "oracle.exhaustive_best_code.us_per_code": "us",
    "oracle.theorem_consistency_scan.self_s": "s",
    "oracle.grid_min_mi.calls": "count",
    "oracle.grid_min_mi.ns_per_cell": "ns",
    "oracle.self_s": "s",
    "prob_core.calls": "count",
    "prob_core.s": "s",
    "cli.main.calls": "count",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_share": "ratio",
    "trace.span_cost_share": "ratio",
    "trace.spans": "count",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # set-up process: a fresh process that only imports and generates inputs
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "coordlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _commit():
    try:
        # the ceiling keeps git from reporting an enclosing repository
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args, workload) -> dict:
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "workload": workload.name,
        "seed": args.seed,
        "battery_order": [str(u[0]) for u in workload.order],
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure_setup(args) -> list:
    """Wall from spawning a fresh process to its inputs being generated."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only",
    ]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process failed with exit code {code}")
        times.append(t1 - t0)
    return times


class SpeedProbe:
    """Samples the machine's speed while the code under test runs.

    Every ``PROBE_INTERVAL_S`` of process CPU time, SIGPROF runs a fixed
    kernel that does not touch coordlab (interpreter work, small-array
    numpy calls and a random gather from a 4 MB array, the kinds of work
    the workloads mix) and records its wall. A slower kernel means a slower
    machine at that moment, whatever the code under test does.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.big = rng.random(1 << 19)
        self.idx = rng.integers(0, 1 << 19, size=1 << 15)
        self.small = rng.random(8)
        self.samples = []
        self.kernel()  # first calls into numpy are slower

    def kernel(self) -> float:
        t0 = time.perf_counter()
        counts = {}
        for i in range(6000):
            counts[i % 97] = counts.get(i % 97, 0) + (i * i) % 7
        a = self.small
        for _ in range(150):
            a = np.exp(-a) / np.sum(np.exp(-a))
        np.log1p(self.big[self.idx]).sum() + self.big[self.idx[::-1]].sum()
        return time.perf_counter() - t0

    def _on_tick(self, signum, frame):
        self.samples.append(self.kernel())

    def speed(self) -> float:
        """Mean of PROBE_REF_S / kernel wall: the factor that rescales a
        wall measured while the probe ran to the reference speed."""
        samples = self.samples or [self.kernel()]
        return statistics.mean(PROBE_REF_S / s for s in samples)

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGPROF, self._on_tick)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._previous)


def run_pass(workload, deadline, probe):
    """One pass over the battery; returns its results, its wall without the
    probe's kernels, and that wall rescaled to the reference speed."""
    t0 = time.perf_counter()
    with probe:
        results = [workload.run_unit(unit, deadline) for unit in workload.order]
    wall = time.perf_counter() - t0 - sum(probe.samples)
    return results, wall, wall * probe.speed()


def layer_values(tracer, traced, untraced, jobs2_speedup) -> dict:
    from spans import layer_metrics, span_cost
    from workloads import TOL

    agg = layer_metrics(tracer)
    names, modules = agg["by_name"], agg["by_module"]
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "s_max": 0.0, "spans": []}

    def name(n):
        return names.get(n, empty)

    def by_tag(n, cls):
        return [s for s in name(n)["spans"] if s.tag == cls]

    solves = name("region_solver.solve_two_node")["spans"] + name("region_solver.solve_cascade")["spans"]
    gaps = [s.attrs.get("gap") for s in solves]
    done = [g for g in gaps if g is not None]
    v = {
        "region_solver.solve_two_node.calls": name("region_solver.solve_two_node")["calls"],
        "region_solver.solve_two_node.self_s": name("region_solver.solve_two_node")["self_s"],
        "region_solver.solve_two_node.s_max": name("region_solver.solve_two_node")["s_max"],
        "region_solver.solve_cascade.calls": name("region_solver.solve_cascade")["calls"],
        "region_solver.solve_cascade.self_s": name("region_solver.solve_cascade")["self_s"],
        "region_solver.delta_star.calls": name("region_solver.delta_star")["calls"],
        "region_solver.delta_star.s": name("region_solver.delta_star")["s"],
        "region_solver.certified_ratio": (
            sum(g <= TOL for g in done) / len(gaps) if gaps else 0.0
        ),
        "region_solver.worst_gap": max(done, default=0.0),
        "coordination_code.expected_tv_exact.calls": name("coordination_code.expected_tv_exact")["calls"],
        "coordination_code.expected_tv_exact.s": name("coordination_code.expected_tv_exact")["s"],
        "coordination_code.jobs2_speedup": jobs2_speedup,
        "oracle.exhaustive_best_code.calls": name("oracle.exhaustive_best_code")["calls"],
        "oracle.grid_min_mi.calls": name("oracle.grid_min_mi")["calls"],
        "oracle.theorem_consistency_scan.self_s": name("oracle.theorem_consistency_scan")["self_s"],
        "prob_core.calls": modules.get("prob_core", empty)["calls"],
        "prob_core.s": modules.get("prob_core", empty)["s"],
        "cli.main.calls": name("cli.main")["calls"],
        "cli.self_s": name("cli.main")["self_s"],
        "trace.spans": len(tracer.spans),
    }
    for module in ("region_solver", "coordination_code", "oracle"):
        v[f"{module}.self_s"] = modules.get(module, empty)["self_s"]
    for cls in ("small", "large", "symbol"):
        builds = by_tag("coordination_code.build_codebook_code", cls)
        v[f"coordination_code.build_codebook_code.s.{cls}"] = sum(s.duration for s in builds)
        if cls != "symbol":
            v[f"coordination_code.codebook_bytes.{cls}"] = max(
                (8 * s.attrs.get("m1", 0) for s in builds), default=0
            )
        mc = by_tag("coordination_code.expected_tv_monte_carlo", cls)
        samples = sum(s.attrs.get("samples", 0) for s in mc)
        v[f"coordination_code.expected_tv_monte_carlo.us_per_sample.{cls}"] = (
            1e6 * sum(s.duration for s in mc) / samples if samples else 0.0
        )
    for n, key, scale in (
        ("oracle.exhaustive_best_code", "us_per_code", 1e6),
        ("oracle.grid_min_mi", "ns_per_cell", 1e9),
    ):
        spans = name(n)["spans"]
        space = sum(s.attrs.get("space", 0) for s in spans)
        v[f"{n}.{key}"] = scale * sum(s.duration for s in spans) / space if space else 0.0
    v["cli.bytes_written"] = sum(
        len(b) for r in traced for op in r.ops
        if isinstance(op.out, dict) and "blobs" in op.out for b in op.out["blobs"].values()
    )
    # overhead on the units that finished in both passes
    base = {r.key: r for r in untraced}
    matched = [
        (r.wall, base[r.key].wall) for r in traced
        if not any(op.out is None for op in r.ops + base[r.key].ops)
    ]
    v["trace.overhead_share"] = (
        sum(t for t, _ in matched) / sum(u for _, u in matched) - 1.0 if matched else 0.0
    )
    # the wrappers' own cost, free of the machine's run-to-run drift that
    # dominates the measured difference above
    v["trace.span_cost_share"] = len(tracer.spans) * span_cost() / sum(r.wall for r in traced)
    return v


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "coordlab", "__init__.py")):
        print(f"perfbench: no coordlab sources under {SRC}", file=sys.stderr)
        return 2
    if not os.path.isfile(REFERENCE):
        print(f"perfbench: missing {REFERENCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    scratch = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=scratch)
    try:
        workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, work_dir)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)[workload.name]
        return measure(args, workload, reference)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            os.rmdir(scratch)


def timed_run(args, workload, setup_times):
    """Whole untraced passes until ``args.seconds`` are used (at least one)."""
    from workloads import SOLVE_DEADLINE_S

    passes, pass_walls, ref_walls = [], [], []
    probe = SpeedProbe()
    while True:
        results, wall, ref_wall = run_pass(workload, SOLVE_DEADLINE_S, probe)
        passes.append(results)
        pass_walls.append(wall)
        ref_walls.append(ref_wall)
        if sum(pass_walls) + statistics.mean(pass_walls) > args.seconds:
            break
    checked = [r for results in passes for r in results]
    ops = [op for r in checked for op in r.ops]
    failed = sum(op.failed for op in ops)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": (len(ops) - failed) / len(ops),
        "battery_ref_s": statistics.median(ref_walls),
    }
    report = dict(workload.report(checked))
    report["failed_share"] = (failed / len(ops), "ratio", f"{failed}/{len(ops)}")
    report["setup_s"] = (metrics["setup_s"], "s", len(setup_times))
    report["peak_rss_mb"] = (metrics["peak_rss_mb"], "MB", 1)
    report["battery_wall_s"] = (statistics.median(pass_walls), "s", len(pass_walls))
    report["battery_ref_s"] = (metrics["battery_ref_s"], "s", len(ref_walls))
    return checked, metrics, report


def traced_run(workload, reference):
    """Each unit once untraced and once traced, the traced copy without the
    solve deadline."""
    from spans import Tracer
    from workloads import SOLVE_DEADLINE_S

    tracer = Tracer()
    untraced, traced = [], []

    def traced_unit(unit):
        tracer.tag = workload.tag(unit)
        with tracer:
            traced.append(workload.run_unit(unit, None))

    # untraced and traced copies of each unit alternate which goes first, so
    # drift in the machine's speed cancels out of the overhead
    for i, unit in enumerate(workload.order):
        if i % 2:
            traced_unit(unit)
        untraced.append(workload.run_unit(unit, SOLVE_DEADLINE_S))
        if not i % 2:
            traced_unit(unit)
    speedup, errors = 0.0, []
    if hasattr(workload, "jobs_check"):
        speedup, errors = workload.jobs_check(reference)
    metrics = layer_values(tracer, traced, untraced, speedup)
    return untraced + traced, metrics, errors


def measure(args, workload, reference: dict) -> int:
    """Runs the workload, checks every output, prints the result lines."""
    report = {}
    if args.trace == 0:
        checked, metrics, report = timed_run(args, workload, measure_setup(args))
        units, errors = END_TO_END, []
    else:
        checked, metrics, errors = traced_run(workload, reference)
        units = PER_LAYER
    ops = [op for r in checked for op in r.ops]
    for r in checked:
        errors += workload.verify(r, reference[r.key])
        for op in r.ops:
            if op.error:
                print(f"failed op in {workload.name} {r.key}: {op.error}", file=sys.stderr)
    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    print(json.dumps({"env": environment(args, workload)}, sort_keys=True))
    for name, (value, unit, count) in report.items():
        print(f"{workload.name} {name} = {value:.6g} {unit} (n={count})")
    print(json.dumps({
        "correct": not errors,
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
