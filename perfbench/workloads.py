"""The benchmark's four workloads: inputs, timed work units and checks.

Each workload owns a fixed battery of inputs, recorded against
``reference.json``; the workload seed sets the order in which the battery's
units run. Keeping the battery fixed is what makes runs with different
seeds comparable and lets every output be checked against a value recorded
at a known commit. A unit is the smallest piece whose outputs can be
checked on their own (one instance's frontier curve, one simulate cell,
one oracle call); an op is one call a user would make (one solve, one
simulate command, one oracle call), and ops are what ``attempted`` and
``failed`` count.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from coordlab import cli
from coordlab import instances as ins
from coordlab import oracle as orc
from coordlab import prob_core as pc
from coordlab import region_solver as rs

TOL = rs.SolverConfig().duality_gap_tol
VALUE_SLACK = 1e-12      # float noise allowed on top of the certified gaps
ENDPOINT_TOL = 1e-9      # R(0) against I(X;Y) computed by prob_core

# A two-node solve that runs longer than this counts as failed and is cut
# off, so one plateaued point costs a bounded share of a timed run. Every
# other solve of the battery takes under 1 s on a 2-core Xeon.
SOLVE_DEADLINE_S = 5.0


@dataclass
class Op:
    wall: float
    out: object = None          # the call's output; None when it raised
    error: Optional[str] = None
    failed: bool = False


@dataclass
class UnitResult:
    key: str
    wall: float
    ops: list
    data: dict = field(default_factory=dict)


class SolveDeadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise SolveDeadline(f"solve exceeded {SOLVE_DEADLINE_S} s")


@contextlib.contextmanager
def _deadline(seconds: Optional[float]):
    if seconds is None:
        yield
        return
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _timed(fn, deadline: Optional[float] = None) -> Op:
    t0 = time.perf_counter()
    try:
        with _deadline(deadline):
            out = fn()
    except Exception as exc:  # a failed op is counted, not fatal
        return Op(time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}", True)
    return Op(time.perf_counter() - t0, out)


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


class Workload:
    name = ""

    def __init__(self, root: str, seed: int, work_dir: str):
        self.root = root
        self.work_dir = work_dir
        self.units = self.make_units()
        order = np.random.default_rng(seed).permutation(len(self.units))
        self.order = [self.units[i] for i in order]

    def make_units(self) -> list:
        raise NotImplementedError

    def run_unit(self, unit, deadline: Optional[float]) -> UnitResult:
        raise NotImplementedError

    def verify(self, res: UnitResult, ref: dict) -> list:
        raise NotImplementedError

    def record(self, res: UnitResult) -> dict:
        raise NotImplementedError

    def tag(self, unit) -> Optional[str]:
        return None

    def report(self, results: list) -> dict:
        """The workload's own end-to-end figures: name -> (value, unit, count)."""
        return {}


# -- frontier_two_node ---------------------------------------------------


class FrontierTwoNode(Workload):
    name = "frontier_two_node"
    battery_seed = 424242
    grid_points = 9

    def make_units(self):
        return list(enumerate(ins.random_two_node_instances(20, self.battery_seed)))

    def run_unit(self, unit, deadline):
        i, (p0, tgt) = unit
        t0 = time.perf_counter()
        ds = rs.delta_star(p0, tgt)
        ops = []
        for d in np.linspace(0.0, ds, self.grid_points):
            op = _timed(lambda d=float(d): rs.solve_two_node(p0, tgt, d), deadline)
            op.failed = op.failed or op.out.certificate > TOL
            ops.append(op)
        return UnitResult(str(i), time.perf_counter() - t0, ops, {"delta_star": ds})

    def record(self, res):
        return {
            "delta_star": res.data["delta_star"],
            "R1": [op.out.R1 for op in res.ops],
            "gap": [op.out.certificate for op in res.ops],
        }

    def verify(self, res, ref):
        i = int(res.key)
        p0, tgt = self.units[i][1]
        joint = pc.compose(p0, tgt)
        errors = []
        where = f"{self.name} instance {i}"
        if abs(res.data["delta_star"] - ref["delta_star"]) > ENDPOINT_TOL:
            errors.append(f"{where}: delta_star {res.data['delta_star']!r} != {ref['delta_star']!r}")
        vals = []
        for j, op in enumerate(res.ops):
            pt = op.out
            vals.append(None if pt is None else pt.R1)
            if pt is None:
                continue
            allowed = pt.certificate + ref["gap"][j] + VALUE_SLACK
            if abs(pt.R1 - ref["R1"][j]) > allowed:
                errors.append(
                    f"{where} point {j}: R1 {pt.R1!r} differs from reference "
                    f"{ref['R1'][j]!r} by more than {allowed:.3e}"
                )
            if not pc.in_delta_neighborhood(
                pc.compose(p0, pt.argmin_conditional), joint, pt.delta
            ):
                errors.append(f"{where} point {j}: argmin outside the delta ball")
        if vals[0] is not None and abs(vals[0] - pc.mutual_information(joint)) > ENDPOINT_TOL:
            errors.append(f"{where}: R(0) {vals[0]!r} != I(X;Y)")
        if vals[-1] is not None and abs(vals[-1]) > VALUE_SLACK:
            errors.append(f"{where}: R(delta*) {vals[-1]!r} != 0")
        slack = 2.0 * TOL
        for j in range(len(vals) - 1):
            a, b = vals[j], vals[j + 1]
            if a is not None and b is not None and b - a > slack:
                errors.append(f"{where}: curve rises between points {j} and {j + 1}")
        for j in range(len(vals) - 2):
            a, b, c = vals[j : j + 3]
            if None not in (a, b, c) and 2.0 * b - a - c > slack:
                errors.append(f"{where}: curve not convex at point {j + 1}")
        return errors

    def report(self, results):
        walls = [op.wall for r in results for op in r.ops]
        done = sum(op.out is not None for r in results for op in r.ops)
        return {
            "solves_per_s": (done / sum(r.wall for r in results), "1/s", done),
            "solve_s_p50": (_median(walls), "s", len(walls)),
            "solve_s_p90": (float(np.quantile(walls, 0.9)), "s", len(walls)),
        }


# -- frontier_cascade ----------------------------------------------------


def random_cascade_instances(count: int, seed: int):
    """Binary (p0, target) cascade pairs with 2x2x2 joint targets."""
    rng = np.random.default_rng(seed)
    return [
        (
            pc.Pmf(rng.dirichlet(np.ones(2) * 1.5)),
            pc.CondPmf(rng.dirichlet(np.ones(4) * 1.2, size=2).reshape(2, 2, 2)),
        )
        for _ in range(count)
    ]


def _support_weights(lams) -> set:
    """The weights at which two frontiers are compared: each solve's own
    weight, clipped as ``solve_cascade`` clips it, and both pure rates for a
    single-point frontier (``lam`` None)."""
    out = set()
    for lam in lams:
        out |= {0.0, 1.0} if lam is None else {min(max(lam, 1e-6), 1.0 - 1e-6)}
    return out


def _support(points, w: float) -> float:
    """min over the frontier's points of w*R1 + (1-w)*R2."""
    return min(w * r1 + (1.0 - w) * r2 for r1, r2 in points)


class FrontierCascade(Workload):
    name = "frontier_cascade"
    instance_seed = 2027
    fractions = (0.25, 0.5, 0.75)

    def make_units(self):
        spec = cli.load_problem_spec(os.path.join(self.root, "scripts", "specs", "cascade_small.json"))
        units = [("cascade_small", spec.source, spec.target, spec.delta_grid, spec.solver)]
        for i, (p0, tgt) in enumerate(random_cascade_instances(1, self.instance_seed)):
            units.append((f"random{i}", p0, tgt, None, rs.SolverConfig()))
        return units

    def run_unit(self, unit, deadline):
        key, p0, tgt, deltas, config = unit
        t0 = time.perf_counter()
        if deltas is None:
            ds = rs.delta_star(p0, tgt)
            deltas = [f * ds for f in self.fractions]
        ops = []
        for d in deltas:
            op = _timed(lambda d=d: rs.solve_cascade(p0, tgt, d, config))
            if op.out is not None:
                op.failed = not op.out or max(p.certificate for p in op.out) > config.duality_gap_tol
            ops.append(op)
        return UnitResult(key, time.perf_counter() - t0, ops, {"deltas": list(deltas)})

    def record(self, res):
        return {
            "deltas": res.data["deltas"],
            "calls": [
                [{"lam": p.lam, "R1": p.R1, "R2": p.R2, "gap": p.certificate} for p in op.out]
                for op in res.ops
            ],
        }

    def verify(self, res, ref):
        unit = next(u for u in self.units if u[0] == res.key)
        p0, tgt = unit[1], unit[2]
        joint = pc.compose(p0, tgt)
        errors = []
        for k, (op, ref_points) in enumerate(zip(res.ops, ref["calls"])):
            where = f"{self.name} {res.key} delta {res.data['deltas'][k]:.6g}"
            if abs(res.data["deltas"][k] - ref["deltas"][k]) > ENDPOINT_TOL:
                errors.append(f"{where}: delta differs from reference {ref['deltas'][k]!r}")
            if not op.out:
                if op.out is not None:
                    errors.append(f"{where}: empty frontier")
                continue
            got = [(p.R1, p.R2) for p in op.out]
            want = [(r["R1"], r["R2"]) for r in ref_points]
            allowed = (
                max(p.certificate for p in op.out)
                + max(r["gap"] for r in ref_points)
                + VALUE_SLACK
            )
            lams = {p.lam for p in op.out} | {r["lam"] for r in ref_points}
            for w in sorted(_support_weights(lams)):
                a, b = _support(got, w), _support(want, w)
                if abs(a - b) > allowed:
                    errors.append(
                        f"{where} weight {w:.6g}: frontier's weighted minimum {a!r} "
                        f"off the reference {b!r} by more than {allowed:.3e}"
                    )
            for p in op.out:
                if not pc.in_delta_neighborhood(pc.compose(p0, p.argmin_conditional), joint, p.delta):
                    errors.append(f"{where} lam {p.lam}: argmin outside the delta ball")
                for q in op.out:
                    if (
                        q.R1 <= p.R1 + VALUE_SLACK
                        and q.R2 <= p.R2 + VALUE_SLACK
                        and (q.R1 < p.R1 - VALUE_SLACK or q.R2 < p.R2 - VALUE_SLACK)
                    ):
                        errors.append(f"{where} lam {p.lam}: point is dominated")
                        break
        return errors

    def report(self, results):
        walls = [op.wall for r in results for op in r.ops]
        done = sum(op.out is not None for r in results for op in r.ops)
        return {
            "solves_per_s": (done / sum(r.wall for r in results), "1/s", done),
            "solve_s_p50": (_median(walls), "s", len(walls)),
        }


# -- codebook_mc ---------------------------------------------------------

# Criterion 09's rate, R(0.1) + 0.25 for the binary identity target, as the
# solver gives it at the commit that recorded reference.json. Fixed here so
# the simulate inputs, and with them the recorded digests, never move.
IDENTITY_RATE = 0.7810044064845243

_IDENTITY = {
    "network": "two_node",
    "alphabets": {"x": 2, "y": 2},
    "source": [0.5, 0.5],
    "target": [[1.0, 0.0], [0.0, 1.0]],
}
_TERNARY = {
    "network": "two_node",
    "alphabets": {"x": 3, "y": 3},
    "source": [0.5, 0.3, 0.2],
    "target": [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]],
}
_CASCADE = {
    "network": "cascade",
    "alphabets": {"x": 2, "y": 2, "z": 2},
    "source": [0.5, 0.5],
    "target": [[[0.81, 0.09], [0.09, 0.01]], [[0.01, 0.09], [0.09, 0.81]]],
}

# name -> (class, instance, n, rates, samples, mc seed). Sample counts give
# each class (small, large, symbol) about a third of a pass, so that a 2x
# slowdown of any one class moves the pass wall by about a third.
CODEBOOK_CELLS = {
    "small_n16": ("small", _IDENTITY, 16, {"R1": IDENTITY_RATE}, 13600, 101),
    "large_n24": ("large", _IDENTITY, 24, {"R1": IDENTITY_RATE}, 400, 102),
    "large_n28": ("large", _IDENTITY, 28, {"R1": IDENTITY_RATE}, 24, 103),
    "symbol_ternary": ("symbol", _TERNARY, 12, {"R1": 1.0}, 5900, 104),
    "symbol_cascade": ("symbol", _CASCADE, 10, {"R1": 1.0, "R2": 0.6}, 9400, 105),
}
# The large cell run at --jobs 1 and --jobs 2 in the traced run: two full
# Monte-Carlo chunks, so both threads get a chunk.
JOBS_CELL = ("jobs_n24", ("large", _IDENTITY, 24, {"R1": IDENTITY_RATE}, 8192, 106))


def _spec_doc(instance, n, rates, samples, seed) -> dict:
    return dict(
        instance,
        schema_version=1,
        n_grid=[n],
        rates=rates,
        monte_carlo={"samples": samples, "seed": seed},
    )


class CodebookMC(Workload):
    name = "codebook_mc"

    def make_units(self):
        units = []
        for key, (cls, instance, n, rates, samples, seed) in CODEBOOK_CELLS.items():
            units.append((key, cls, self._write_spec(key, instance, n, rates, samples, seed), samples))
        return units

    def _write_spec(self, key, instance, n, rates, samples, seed) -> str:
        path = os.path.join(self.work_dir, f"{key}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(_spec_doc(instance, n, rates, samples, seed), fh)
        return path

    def tag(self, unit):
        return unit[1]

    def simulate(self, key: str, spec: str, jobs: int) -> Op:
        out_dir = os.path.join(self.work_dir, f"out_{key}_j{jobs}")
        op = _timed(lambda: cli.main(["simulate", "--spec", spec, "--out", out_dir, "--jobs", str(jobs)]))
        if op.out is None:
            return op
        rc = op.out
        blobs = {}
        for ext in ("csv", "json"):
            with open(os.path.join(out_dir, f"simulation.{ext}"), "rb") as fh:
                blobs[ext] = fh.read()
        op.out = {"rc": rc, "blobs": blobs}
        op.failed = rc != cli.EXIT_OK
        return op

    def run_unit(self, unit, deadline):
        key, _, spec, samples = unit
        op = self.simulate(key, spec, 1)
        return UnitResult(key, op.wall, [op], {"samples": samples})

    @staticmethod
    def digests(blobs: dict) -> dict:
        return {ext: hashlib.sha256(data).hexdigest() for ext, data in blobs.items()}

    def record(self, res):
        return self.digests(res.ops[0].out["blobs"])

    def verify(self, res, ref):
        out = res.ops[0].out
        if out is None:
            return []
        got = self.digests(out["blobs"])
        return [
            f"{self.name} {res.key}: simulation.{ext} sha256 {got[ext][:16]}... != reference {ref[ext][:16]}..."
            for ext in ("csv", "json")
            if got[ext] != ref[ext]
        ]

    def jobs_spec(self) -> tuple:
        key, (_, instance, n, rates, samples, seed) = JOBS_CELL
        return key, self._write_spec(key, instance, n, rates, samples, seed)

    def jobs_check(self, reference: dict) -> tuple:
        """Times one large cell at --jobs 1 and 2; returns (speedup, errors)."""
        key, spec = self.jobs_spec()
        one = self.simulate(key, spec, 1)
        two = self.simulate(key, spec, 2)
        if one.out is None or two.out is None:
            return 0.0, [f"{self.name} {key}: {one.error or two.error}"]
        errors = self.verify(UnitResult(key, one.wall, [one]), reference[key])
        if one.out["blobs"] != two.out["blobs"]:
            errors.append(f"{self.name} {key}: --jobs 2 output differs from --jobs 1")
        return one.wall / two.wall, errors

    def report(self, results):
        ok = [r for r in results if r.ops[0].out is not None]
        samples = sum(r.data["samples"] for r in ok)
        return {"samples_per_s": (samples / sum(r.wall for r in ok), "1/s", samples)}


# -- oracle_scan ---------------------------------------------------------


class OracleScan(Workload):
    name = "oracle_scan"
    scan_budget = 500_000          # stops inside n = 5 on each pair
    n_grid = (1, 2, 3, 4, 5)
    scan_deltas = (0.0, 0.1, 0.25, 0.5, 1.0)
    grid_deltas = (0.05, 0.1, 0.2)
    grid_step = 1e-3

    def make_units(self):
        targets = ins.battery_targets()
        pairs = [(pc.Pmf([0.5, 0.5]), pc.CondPmf.identity(2))]
        pairs += [(pc.marginal_pmf(targets[j], 0), pc.conditional(targets[j])) for j in (1, 2)]
        units = [(f"scan{i}", "scan", p0, tgt, None) for i, (p0, tgt) in enumerate(pairs)]
        for i, (p0, tgt) in enumerate(ins.random_binary_instances(10, seed=77)):
            units += [(f"grid{i}_{d}", "grid", p0, tgt, d) for d in self.grid_deltas]
        return units

    def run_unit(self, unit, deadline):
        key, kind, p0, tgt, delta = unit
        if kind == "scan":
            op = _timed(
                lambda: orc.theorem_consistency_scan(
                    p0, tgt, self.n_grid, self.scan_deltas, budget=self.scan_budget
                )
            )
            if op.out is not None:
                op.failed = op.out["flag_count"] > 0
        else:
            op = _timed(lambda: orc.grid_min_mi(p0, tgt, delta, self.grid_step))
        return UnitResult(key, op.wall, [op], {"kind": kind})

    @staticmethod
    def _scan_summary(scan: dict) -> dict:
        return {
            "evaluated_codes": scan["evaluated_codes"],
            "partial": scan["partial"],
            "rows": [[r["n"], r["delta"], r["exhaustive_rate"], r["achieved_tv"]] for r in scan["rows"]],
        }

    def record(self, res):
        out = res.ops[0].out
        if res.data["kind"] == "scan":
            return self._scan_summary(out)
        _, _, p0, tgt, delta = next(u for u in self.units if u[0] == res.key)
        pt = rs.solve_two_node(p0, tgt, delta)
        return {"optimum": out.optimum, "solver_R1": pt.R1, "solver_gap": pt.certificate}

    def verify(self, res, ref):
        out = res.ops[0].out
        if out is None:
            return []
        where = f"{self.name} {res.key}"
        if res.data["kind"] == "scan":
            errors = []
            if out["flag_count"]:
                errors.append(f"{where}: {out['flag_count']} flagged row(s)")
            got = self._scan_summary(out)
            for field_name in ("evaluated_codes", "partial"):
                if got[field_name] != ref[field_name]:
                    errors.append(f"{where}: {field_name} {got[field_name]!r} != {ref[field_name]!r}")
            if got["rows"] != ref["rows"]:
                errors.append(f"{where}: exhaustive optima differ from the reference")
            return errors
        bound = out.details["discretization_bound"] + ref["solver_gap"] + VALUE_SLACK
        if abs(out.optimum - ref["solver_R1"]) > bound:
            return [f"{where}: grid optimum {out.optimum!r} not within {bound:.3e} of solver value {ref['solver_R1']!r}"]
        return []

    def report(self, results):
        scans = [r for r in results if r.data["kind"] == "scan" and r.ops[0].out is not None]
        grids = [r for r in results if r.data["kind"] == "grid" and r.ops[0].out is not None]
        codes = sum(r.ops[0].out["evaluated_codes"] for r in scans)
        cells = sum(r.ops[0].out.search_space_size for r in grids)
        return {
            "codes_per_s": (codes / sum(r.wall for r in scans), "1/s", codes),
            "grid_cells_per_s": (cells / sum(r.wall for r in grids), "1/s", cells),
        }


WORKLOADS = {w.name: w for w in (FrontierTwoNode, FrontierCascade, CodebookMC, OracleScan)}
