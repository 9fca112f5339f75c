"""Acceptance battery: one pass/fail line per criterion on real stdout.

Each test prints its verdict via sys.__stdout__ so the lines survive
pytest's capture, then asserts. Stated runtime budgets are asserted too.
Criteria 01-08 and 10 are ``instances.CRITERIA``, the list ``coordlab
check`` runs; 09 (Monte Carlo at n = 32) and 11 (CLI bytes in a temp
directory) live here only.
"""

import json
import sys
import time

from coordlab import cli
from coordlab import coordination_code as cc
from coordlab import instances as ins
from coordlab import prob_core as pc
from coordlab import region_solver as rs


def report(idx, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(
        f"[criterion {idx:02d}] {status} {name}: {detail}",
        file=sys.__stdout__,
        flush=True,
    )
    assert ok, f"criterion {idx} ({name}): {detail}"


CRITERIA = {idx: (name, fn) for idx, name, fn in ins.CRITERIA}


def run_criterion(idx):
    name, fn = CRITERIA[idx]
    report(idx, name, *fn())


def test_criterion_01_expected_type_identity():
    run_criterion(1)


def test_criterion_02_tv_axioms():
    run_criterion(2)


def test_criterion_03_solver_endpoints():
    run_criterion(3)


def test_criterion_04_solver_vs_grid_oracle():
    run_criterion(4)


def test_criterion_05_monotone_convex_rate_curve():
    run_criterion(5)


def test_criterion_06_achievability_chain():
    run_criterion(6)


def test_criterion_07_jensen_step():
    run_criterion(7)


def test_criterion_08_block_repetition():
    run_criterion(8)


def test_criterion_09_finite_n_trend():
    p0 = pc.Pmf([0.5, 0.5])
    ident = pc.CondPmf.identity(2)
    joint = pc.compose(p0, ident)
    rate = rs.solve_two_node(p0, ident, 0.1).R1 + 0.25
    t0 = time.perf_counter()
    means = []
    for n in (4, 8, 16, 32):
        code = cc.build_codebook_code(p0, ident, n, rate1=rate, seed=13)
        rep = cc.expected_tv_monte_carlo(code, p0, joint, 10_000, seed=14)
        means.append(rep.mean_tv)
    elapsed = time.perf_counter() - t0
    trend_ok = all(b <= a for a, b in zip(means, means[1:]))
    report(
        9,
        "finite blocklength TV trend at excess rate",
        trend_ok and means[-1] <= 0.15 and elapsed < 300.0,
        f"rate {rate:.4f}, means {[round(m, 4) for m in means]} non-increasing "
        f"{trend_ok}, final {means[-1]:.4f} (<=0.15), {elapsed:.0f}s (<5min)",
    )


def test_criterion_10_converse_scan():
    run_criterion(10)


def test_criterion_11_byte_determinism(tmp_path):
    spec_doc = {
        "schema_version": 1,
        "network": "two_node",
        "alphabets": {"x": 2, "y": 2},
        "source": [0.5, 0.5],
        "target": [[1.0, 0.0], [0.0, 1.0]],
        "delta_grid": [0.0, 0.1, 0.5],
        "n_grid": [1, 2, 3],
        "rates": {"R1_grid": [0.0, 1.0]},
        "monte_carlo": {"samples": 2000, "seed": 7},
        "oracle": {"budget": 2_000_000},
    }
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(spec_doc))
    runs = {
        "region": (["region"], "frontier"),
        "simulate": (["simulate"], "simulation"),
        "oracle": (["oracle"], "scan"),
    }
    mismatches = []
    for label, (argv, stem) in runs.items():
        blobs = []
        for variant, jobs in (("a", "1"), ("b", "3")):
            out = tmp_path / f"{label}_{variant}"
            # only simulate has workers; the other commands run twice alike
            workers = ["--jobs", jobs] if label == "simulate" else []
            code = cli.main(argv + ["--spec", str(spec), "--out", str(out), *workers])
            assert code == 0, f"{label} exited {code}"
            blobs.append(
                tuple((out / f"{stem}.{ext}").read_bytes() for ext in ("csv", "json"))
            )
        if blobs[0] != blobs[1]:
            mismatches.append(label)
    report(
        11,
        "region/simulate/oracle outputs byte-identical across runs and jobs",
        not mismatches,
        f"3 commands x 2 runs, simulate at jobs 1 and 3, mismatches: {mismatches or 'none'}",
    )
