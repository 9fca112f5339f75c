"""Command-line surface: region solving, code simulation, oracle scans, checks.

Every command is a pure function of the spec file and the seed: outputs
carry no timestamps or wall-clock data, floats are serialized with their
shortest round-trip representation, JSON keys are sorted, and files are
written atomically. Running a command twice produces byte-identical files.

Exit codes: 0 success, 1 failed criterion (check), 2 spec, schema or flag
error, 3 convergence shortfall (a region point's certified gap exceeds
the configured tolerance), 4 partial results (a simulation cell was
skipped by a guard, or an oracle scan ran out of budget).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from typing import Optional

import numpy as np

from coordlab import coordination_code as cc
from coordlab import oracle as oc
from coordlab import prob_core as pc
from coordlab import region_solver as rs

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_SCHEMA = 2
EXIT_GAP = 3
EXIT_PARTIAL = 4

_TOP_LEVEL_KEYS = {
    "schema_version",
    "network",
    "alphabets",
    "source",
    "target",
    "delta_grid",
    "n_grid",
    "rates",
    "solver",
    "monte_carlo",
    "oracle",
}
_SOLVER_KEYS = {
    "duality_gap_tol",
    "max_iterations",
    "scalarization_weights",
}


class SpecError(Exception):
    """Carries all field-level diagnostics found in one validation pass."""

    def __init__(self, messages):
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


@dataclass(frozen=True)
class ProblemSpec:
    network: str
    source: pc.Pmf
    target: pc.CondPmf
    delta_grid: tuple
    n_grid: tuple
    r1_grid: tuple
    r2_grid: tuple
    solver: rs.SolverConfig
    mc_samples: Optional[int]
    mc_seed: Optional[int]
    oracle_budget: Optional[int]

    def instance_json(self) -> dict:
        return {
            "network": self.network,
            "source": [float(v) for v in self.source.mass],
            "target": self.target.rows.tolist(),
        }


def _rate_grid(rates: dict, key: str, errors) -> tuple:
    """Accepts either a scalar `R1` or an explicit `R1_grid` list."""
    scalar, grid = rates.get(key), rates.get(key + "_grid")
    if scalar is not None and grid is not None:
        errors.append(f"rates.{key}: give either {key} or {key}_grid, not both")
        return ()
    if scalar is not None:
        grid = [scalar]
    if grid is None:
        return ()
    if not isinstance(grid, list) or not grid:
        errors.append(f"rates.{key}_grid: expected a non-empty list")
        return ()
    out = []
    for i, v in enumerate(grid):
        ok = isinstance(v, (int, float)) and not isinstance(v, bool)
        if not ok or not 0 <= v <= sys.float_info.max:  # ints past it overflow float
            errors.append(f"rates.{key}_grid[{i}]: rates are finite numbers >= 0")
            return ()
        out.append(float(v))
    return tuple(out)


def _number_grid(doc: dict, key: str, errors, integer=False, lo=0.0, hi=math.inf) -> tuple:
    grid = doc.get(key)
    if grid is None:
        return ()
    if not isinstance(grid, list) or not grid:
        errors.append(f"{key}: expected a non-empty list")
        return ()
    out = []
    for i, v in enumerate(grid):
        ok = isinstance(v, (int, float)) and not isinstance(v, bool)
        if integer:
            ok = isinstance(v, int) and not isinstance(v, bool)
        if not ok or not lo <= v <= hi or v == math.inf:
            kind = "an integer" if integer else "a finite number"
            where = f"in [{lo}, {hi}]" if hi < math.inf else f">= {lo}"
            errors.append(f"{key}[{i}]: expected {kind} {where}")
            return ()
        out.append(int(v) if integer else float(v))
    if any(b < a for a, b in zip(out, out[1:])):
        errors.append(f"{key}: grid must be sorted ascending")
        return ()
    return tuple(out)


def _section(doc: dict, key: str, fields, errors) -> dict:
    """The spec's ``key`` object ({} when absent), with its unknown fields
    reported; one of another type is reported and read as {}."""
    raw = doc.get(key, {})
    if not isinstance(raw, dict):
        errors.append(f"{key}: expected an object")
        return {}
    for name in sorted(set(raw) - set(fields)):
        errors.append(f"{key}.{name}: unknown field")
    return raw


def _int_field(raw: dict, path: str, lo: int, errors) -> Optional[int]:
    """The integer >= lo at the last key of ``path`` in raw, None when absent."""
    key = path.rpartition(".")[2]
    if key not in raw:
        return None
    v = raw[key]
    if not isinstance(v, int) or isinstance(v, bool) or v < lo:
        errors.append(f"{path}: expected an integer >= {lo}")
        return None
    return v


def parse_problem_spec(doc) -> ProblemSpec:
    """Validates a spec document, collecting every field error in one pass."""
    errors = []
    if not isinstance(doc, dict):
        raise SpecError(["spec: top level must be a JSON object"])
    for key in sorted(set(doc) - _TOP_LEVEL_KEYS):
        errors.append(f"{key}: unknown field")
    if doc.get("schema_version") != SCHEMA_VERSION:
        errors.append(f"schema_version: expected {SCHEMA_VERSION}")

    network = doc.get("network")
    if network not in ("two_node", "cascade"):
        errors.append("network: expected 'two_node' or 'cascade'")
        network = "two_node"

    alphabets = doc.get("alphabets")
    if not isinstance(alphabets, dict):
        errors.append("alphabets: expected an object with integer sizes")
        alphabets = {}
    sizes = {}
    needed = ("x", "y", "z") if network == "cascade" else ("x", "y")
    for name in needed:
        v = alphabets.get(name)
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            errors.append(f"alphabets.{name}: expected an integer >= 1")
        else:
            sizes[name] = v
    for name in sorted(set(alphabets) - set(needed)):
        errors.append(f"alphabets.{name}: unknown field")

    source = None
    try:
        raw = doc.get("source")
        if not isinstance(raw, list):
            raise ValueError("expected a list of probabilities")
        if "x" in sizes and len(raw) != sizes["x"]:
            raise ValueError(f"expected {sizes['x']} entries, got {len(raw)}")
        source = pc.Pmf(raw)
    except (ValueError, TypeError, OverflowError) as exc:
        errors.append(f"source: {exc}")

    target = None
    try:
        raw = np.asarray(doc.get("target"), dtype=float)
        want = tuple(sizes[k] for k in needed if k in sizes)
        if len(want) == len(needed) and raw.shape != want:
            raise ValueError(f"expected shape {want}, got {raw.shape}")
        target = pc.CondPmf(raw)
    except (ValueError, TypeError, OverflowError) as exc:
        errors.append(f"target: {exc}")

    # TV never exceeds 1, so a larger radius is a typo, not a clamp
    delta_grid = _number_grid(doc, "delta_grid", errors, lo=0, hi=1)
    n_grid = _number_grid(doc, "n_grid", errors, integer=True, lo=1)

    rates = _section(doc, "rates", ("R1", "R1_grid", "R2", "R2_grid"), errors)
    r1_grid = _rate_grid(rates, "R1", errors)
    r2_grid = _rate_grid(rates, "R2", errors)
    if r2_grid and network != "cascade":
        errors.append("rates.R2: only cascade networks carry a second rate")

    solver = rs.SolverConfig()
    raw = _section(doc, "solver", _SOLVER_KEYS, errors)
    try:
        solver = rs.SolverConfig(**{k: raw[k] for k in _SOLVER_KEYS if k in raw})
    except (ValueError, TypeError) as exc:
        errors.append(f"solver: {exc}")

    raw = _section(doc, "monte_carlo", ("samples", "seed"), errors)
    mc_samples = _int_field(raw, "monte_carlo.samples", 1, errors)
    if mc_samples is not None and mc_samples > cc.MAX_SAMPLES:
        errors.append(f"monte_carlo.samples: at most MAX_SAMPLES = {cc.MAX_SAMPLES}")
    mc_seed = _int_field(raw, "monte_carlo.seed", 0, errors)
    raw = _section(doc, "oracle", ("budget",), errors)
    oracle_budget = _int_field(raw, "oracle.budget", 0, errors)

    if errors:
        raise SpecError(errors)
    return ProblemSpec(
        network=network,
        source=source,
        target=target,
        delta_grid=delta_grid,
        n_grid=n_grid,
        r1_grid=r1_grid,
        r2_grid=r2_grid,
        solver=solver,
        mc_samples=mc_samples,
        mc_seed=mc_seed,
        oracle_budget=oracle_budget,
    )


def load_problem_spec(path: str) -> ProblemSpec:
    try:
        with open(path, "rb") as fh:
            doc = json.loads(fh.read().decode("utf-8"))
    except OSError as exc:
        raise SpecError([f"spec: cannot read {path}: {exc.strerror or exc}"])
    except UnicodeDecodeError as exc:
        raise SpecError([f"spec: not UTF-8 at byte {exc.start}: {exc.reason}"])
    except json.JSONDecodeError as exc:
        raise SpecError(
            [f"spec: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        )
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise SpecError([f"spec: {str(exc).partition(';')[0]}"])
    except RecursionError:
        raise SpecError(["spec: arrays or objects nested too deeply"])
    return parse_problem_spec(doc)


# -- deterministic serialization ----------------------------------------


def _atomic_write(path: str, data: bytes) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n").encode(
        "utf-8"
    )


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_bytes(columns, rows) -> bytes:
    """RFC-4180-style CSV (CRLF, UTF-8) with a generated column comment."""
    buf = io.StringIO(newline="")
    buf.write("# columns: " + ", ".join(columns) + "\r\n")
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell(row.get(c)) for c in columns])
    return buf.getvalue().encode("utf-8")


def _write_pair(out_dir: str, stem: str, doc: dict, columns, rows) -> None:
    _atomic_write(os.path.join(out_dir, stem + ".json"), _json_bytes(doc))
    _atomic_write(os.path.join(out_dir, stem + ".csv"), _csv_bytes(columns, rows))


def _require(spec: ProblemSpec, fields: dict) -> None:
    missing = [name for name, present in fields.items() if not present]
    if missing:
        raise SpecError([f"{name}: required for this command" for name in missing])


# -- commands ------------------------------------------------------------

_FRONTIER_COLUMNS = ("delta", "lambda", "R1", "R2", "gap", "provenance")


def cmd_region(spec: ProblemSpec, out_dir: str) -> int:
    """Solves the rate region over delta_grid; writes frontier.csv/json."""
    _require(spec, {"delta_grid": spec.delta_grid})
    points = []
    for delta in spec.delta_grid:
        if spec.network == "two_node":
            solved = [rs.solve_two_node(spec.source, spec.target, delta, spec.solver)]
        else:
            solved = rs.solve_cascade(spec.source, spec.target, delta, spec.solver)
        points.extend(solved)

    rows = [
        {
            "delta": float(pt.delta),
            "lambda": pt.lam,
            "R1": float(pt.R1),
            "R2": None if pt.R2 is None else float(pt.R2),
            "gap": float(pt.certificate),
            "provenance": "solver",
        }
        for pt in points
    ]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "instance": spec.instance_json(),
        "points": [
            dict(row, argmin_conditional=pt.argmin_conditional.rows.tolist())
            for row, pt in zip(rows, points)
        ],
    }
    _write_pair(out_dir, "frontier", doc, _FRONTIER_COLUMNS, rows)
    worst = max((pt.certificate for pt in points), default=0.0)
    if worst > spec.solver.duality_gap_tol:
        print(
            f"region: worst certified gap {worst:.3e} exceeds tolerance "
            f"{spec.solver.duality_gap_tol:.3e}",
            file=sys.stderr,
        )
        return EXIT_GAP
    return EXIT_OK


_SIM_COLUMNS = (
    "n",
    "R1",
    "R2",
    "sample_count",
    "mean_tv",
    "standard_error",
    "tv_min",
    "tv_q25",
    "tv_median",
    "tv_q75",
    "tv_max",
    "build_seed",
    "mc_seed",
    "skipped",
    "reason",
)


def _cell_grid(spec: ProblemSpec):
    r2s = spec.r2_grid if spec.network == "cascade" else (None,)
    for n in spec.n_grid:
        for r1 in spec.r1_grid:
            for r2 in r2s:
                yield n, r1, r2


def cmd_simulate(
    spec: ProblemSpec, out_dir: str, seed: Optional[int], jobs: int
) -> int:
    """Builds one codebook code per (n, rate) cell and Monte-Carlo scores it."""
    master_seed = seed if seed is not None else spec.mc_seed
    _require(
        spec,
        {
            "n_grid": spec.n_grid,
            "rates.R1": spec.r1_grid,
            "rates.R2": spec.network != "cascade" or spec.r2_grid,
            "monte_carlo.samples": spec.mc_samples,
            "monte_carlo.seed": master_seed is not None,
        },
    )
    joint_target = pc.compose(spec.source, spec.target)
    rows, cells, skipped = [], [], 0
    for index, (n, r1, r2) in enumerate(_cell_grid(spec)):
        # Per-cell streams derive from (seed, cell index) only, so adding a
        # grid value changes one cell, not the whole table.
        build_seed, mc_seed = (
            int(v) for v in np.random.SeedSequence([master_seed, index]).generate_state(2)
        )
        row = {
            "n": n,
            "R1": r1,
            "R2": r2,
            "build_seed": build_seed,
            "mc_seed": mc_seed,
            "skipped": False,
            "reason": None,
        }
        try:
            cc.check_monte_carlo_work(n, spec.mc_samples)
            code = cc.build_codebook_code(
                spec.source, spec.target, n, rate1=r1, rate2=r2, seed=build_seed
            )
            report = cc.expected_tv_monte_carlo(
                code, spec.source, joint_target, spec.mc_samples, mc_seed, jobs=jobs
            )
        except ValueError as exc:
            row.update(skipped=True, reason=str(exc))
            skipped += 1
            rows.append(row)
            cells.append(dict(row, report=None))
            continue
        q = report.quantiles
        rows.append(
            dict(
                row,
                sample_count=report.sample_count,
                mean_tv=report.mean_tv,
                standard_error=report.standard_error,
                tv_min=q[0],
                tv_q25=q[1],
                tv_median=q[2],
                tv_q75=q[3],
                tv_max=q[4],
            )
        )
        cells.append(dict(row, report=report.to_json_dict()))
    doc = {
        "schema_version": SCHEMA_VERSION,
        "instance": spec.instance_json(),
        "seed": master_seed,
        "cells": cells,
    }
    _write_pair(out_dir, "simulation", doc, _SIM_COLUMNS, rows)
    if skipped:
        print(f"simulate: {skipped} cell(s) skipped by guards", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


_SCAN_COLUMNS = (
    "n",
    "delta",
    "simulated_mean_tv",
    "exhaustive_rate",
    "achieved_tv",
    "expected_type_tv",
    "frontier_rate",
    "converse_gap",
    "deficit",
    "flagged",
    "partial_blocklength",
)


def cmd_oracle(spec: ProblemSpec, out_dir: str, seed: Optional[int]) -> int:
    """Runs the exhaustive consistency scan; writes scan.csv/json."""
    _require(spec, {"n_grid": spec.n_grid, "delta_grid": spec.delta_grid})
    if spec.network != "two_node":
        raise SpecError(["network: the oracle scan covers two_node instances only"])
    budget = oc.DEFAULT_CODE_GUARD if spec.oracle_budget is None else spec.oracle_budget
    effective_seed = seed if seed is not None else (spec.mc_seed or 0)
    try:
        scan = oc.theorem_consistency_scan(
            spec.source, spec.target, spec.n_grid, spec.delta_grid,
            budget=budget, config=spec.solver, seed=effective_seed,
        )
    except ValueError as exc:  # within the budget, past ENUM_GUARD or MAX_CODE_TABLE
        raise SpecError([f"n_grid: {exc}"])
    doc = dict(
        scan,
        schema_version=SCHEMA_VERSION,
        instance=spec.instance_json(),
        seed=effective_seed,
    )
    _write_pair(out_dir, "scan", doc, _SCAN_COLUMNS, scan["rows"])
    if scan["partial"]:
        print(
            f"oracle: budget {budget} exhausted after {scan['evaluated_codes']} "
            "codes; table is partial",
            file=sys.stderr,
        )
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_check() -> int:
    """Runs acceptance criteria 01-08 and 10; nonzero exit on any failure."""
    from coordlab import instances

    failures = 0
    for idx, name, criterion in instances.CRITERIA:
        ok, detail = criterion()
        status = "ok" if ok else "FAIL"
        print(f"{status:4s} {idx:02d} {name}: {detail}")
        if not ok:
            failures += 1
    if failures:
        print(f"check: {failures} criterion(s) failed", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


# -- entry point ---------------------------------------------------------


def _output_dir(path: str) -> str:
    """The --out directory, created if absent; refused if it cannot be written."""
    path = path or "."
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise SpecError([f"--out: cannot create directory {path}: {exc.strerror or exc}"])
    if not os.access(path, os.W_OK | os.X_OK):
        raise SpecError([f"--out: cannot write to directory {path}"])
    return path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coordlab",
        description="Rate regions and codes for empirical coordination targets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, seed=False, jobs=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--spec", required=True, help="problem spec JSON file")
        p.add_argument("--out", default=".", help="output directory, created if absent")
        if seed:
            p.add_argument(
                "--seed", type=int, default=None, help="overrides the spec seed (>= 0)"
            )
        if jobs:
            p.add_argument("--jobs", type=int, default=1, help="worker count (default 1)")

    add("region", "solve the rate region over the spec's delta grid")
    add("simulate", "Monte-Carlo codebook codes over the (n, rate) grid", seed=True, jobs=True)
    add("oracle", "exhaustive small-instance consistency scan", seed=True)
    sub.add_parser("check", help="run acceptance criteria 01-08 and 10")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "check":
            return cmd_check()
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise SpecError(["--seed: expected an integer >= 0"])
        spec = load_problem_spec(args.spec)
        if args.command == "simulate" and args.jobs < 1:
            raise SpecError(["jobs: expected an integer >= 1"])
        out = _output_dir(args.out)
        if args.command == "region":
            return cmd_region(spec, out)
        if args.command == "simulate":
            return cmd_simulate(spec, out, args.seed, args.jobs)
        return cmd_oracle(spec, out, args.seed)
    except SpecError as exc:
        for message in exc.messages:
            print(f"spec error: {message}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
