"""Shared instance batteries and acceptance criteria 01-08 and 10.

``CRITERIA`` is the one list that both the ``check`` command and the
acceptance tests run, so the two cannot disagree.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction

import numpy as np

from coordlab import coordination_code as cc
from coordlab import oracle as oc
from coordlab import prob_core as pc
from coordlab import region_solver as rs


def random_two_node_instances(count: int, seed: int, max_size: int = 3):
    """(p0, target) pairs with alphabet sizes in {2, ..., max_size}."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        kx = int(rng.integers(2, max_size + 1))
        ky = int(rng.integers(2, max_size + 1))
        p0 = pc.Pmf(rng.dirichlet(np.ones(kx) * 1.5))
        target = pc.CondPmf(rng.dirichlet(np.ones(ky) * 1.2, size=kx))
        out.append((p0, target))
    return out


def random_binary_instances(count: int, seed: int):
    return random_two_node_instances(count, seed, max_size=2)


def binary_battery_codes():
    """Every two-node code with n=1, binary alphabets, message rates 0 and 1."""
    codes = []
    for dec in itertools.product(range(2), repeat=2):  # two messages
        for enc in itertools.product(range(2), repeat=2):
            codes.append(
                cc.TableCode(
                    n=1,
                    x_size=2,
                    y_size=2,
                    rate1=1.0,
                    encoder=np.array(enc),
                    decoder_mid=np.array(dec).reshape(2, 1),
                )
            )
    for dec in range(2):  # single message
        codes.append(
            cc.TableCode(
                n=1,
                x_size=2,
                y_size=2,
                rate1=0.0,
                encoder=np.zeros(2, dtype=int),
                decoder_mid=np.array([[dec]]),
            )
        )
    return codes


def battery_targets():
    """Joint (X, Y) targets used with the n=1 battery: corners plus noise."""
    rng = np.random.default_rng(2026)
    targets = [
        pc.JointPmf([[0.5, 0.0], [0.0, 0.5]]),
        pc.JointPmf([[0.25, 0.25], [0.25, 0.25]]),
        pc.JointPmf([[0.4, 0.1], [0.2, 0.3]]),
    ]
    for _ in range(5):
        targets.append(pc.JointPmf(rng.dirichlet(np.ones(4)).reshape(2, 2)))
    return targets


def battery_sources():
    rng = np.random.default_rng(2027)
    sources = [pc.Pmf([0.5, 0.5]), pc.Pmf([0.9, 0.1])]
    for _ in range(3):
        sources.append(pc.Pmf(rng.dirichlet([2.0, 2.0])))
    return sources


# -- acceptance criteria: each returns (ok, detail) ----------------------


def expected_type_identity():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        a = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        p = rng.dirichlet(np.ones(a**n)).reshape((a,) * n)
        avg = pc.expected_type(
            [pc.Pmf(m) for m in pc.coordinate_marginals(p)]
        ).mass
        worst = max(worst, float(np.abs(avg - pc.expected_type_bruteforce(p)).max()))
    num = rng.integers(1, 20, size=8)
    frac = np.array(
        [Fraction(int(v), int(num.sum())) for v in num], dtype=object
    ).reshape(2, 2, 2)
    exact_avg = sum(pc.coordinate_marginals(frac)) / 3
    exact_err = max(
        abs(x - y) for x, y in zip(exact_avg, pc.expected_type_bruteforce(frac))
    )
    elapsed = time.perf_counter() - t0
    return (
        worst <= 1e-12 and exact_err == 0 and elapsed < 1.0,
        f"float max err {worst:.2e} (<=1e-12), rational err {exact_err}, "
        f"{elapsed:.2f}s (<1s)",
    )


def tv_axioms():
    rng = np.random.default_rng(1002)
    t0 = time.perf_counter()
    viol = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 6))
        p, q, r = (pc.Pmf(rng.dirichlet(np.ones(k))) for _ in range(3))
        lam = float(rng.random())
        tpq = pc.total_variation(p, q)
        viol = max(viol, abs(tpq - pc.total_variation(q, p)))
        viol = max(viol, -tpq, tpq - 1.0)
        viol = max(viol, pc.total_variation(p, r) - tpq - pc.total_variation(q, r))
        mix = pc.Pmf(lam * p.mass + (1 - lam) * q.mass)
        viol = max(
            viol,
            pc.total_variation(mix, r)
            - lam * pc.total_variation(p, r)
            - (1 - lam) * pc.total_variation(q, r),
        )
    elapsed = time.perf_counter() - t0
    return (
        viol <= 1e-12 and elapsed < 1.0,
        f"1000 triples, worst violation {viol:.2e} (<=1e-12), "
        f"{elapsed:.2f}s (<1s)",
    )


def solver_endpoints():
    t0 = time.perf_counter()
    worst_end = worst_excess = 0.0
    for p0, tgt in random_two_node_instances(20, seed=424242):
        joint = pc.compose(p0, tgt)
        ds = rs.delta_star(p0, tgt)
        at_zero = rs.solve_two_node(p0, tgt, 0.0)
        at_star = rs.solve_two_node(p0, tgt, ds)
        worst_end = max(
            worst_end, abs(at_zero.R1 - pc.mutual_information(joint)), at_star.R1
        )
        for d, pt in ((0.0, at_zero), (ds, at_star)):
            tv = pc.total_variation(pc.compose(p0, pt.argmin_conditional), joint)
            worst_excess = max(worst_excess, tv - d)
    elapsed = time.perf_counter() - t0
    return (
        worst_end <= 1e-6 and worst_excess <= 1e-10 and elapsed < 30.0,
        f"worst endpoint err {worst_end:.2e} (<=1e-6), worst TV excess "
        f"{worst_excess:.2e} (<=1e-10), {elapsed:.1f}s (<30s)",
    )


def solver_vs_grid_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    visited = evaluated = 0
    for p0, tgt in random_binary_instances(10, seed=77):
        for d in (0.05, 0.1, 0.2):
            rep = oc.grid_min_mi(p0, tgt, d, 1e-3)
            pt = rs.solve_two_node(p0, tgt, d)
            worst = max(worst, abs(rep.optimum - pt.R1))
            visited += rep.details["cells_after_row_pruning"]
            evaluated += rep.details["cells_evaluated"]
    elapsed = time.perf_counter() - t0
    return (
        worst <= 1e-3 and elapsed < 120.0,
        f"worst |solver - oracle| {worst:.2e} bits (<=1e-3), "
        f"{elapsed:.1f}s (<2min), grid evaluated {evaluated / visited:.1%} "
        f"of {visited} row-pruned cells",
    )


def monotone_convex_rate_curve():
    cfg = rs.SolverConfig()
    tol = 2.0 * cfg.duality_gap_tol
    worst_mono = worst_conv = 0.0
    for p0, tgt in random_two_node_instances(20, seed=424242):
        ds = rs.delta_star(p0, tgt)
        vals = [
            rs.solve_two_node(p0, tgt, float(d), cfg).R1
            for d in np.linspace(0.0, ds, 9)
        ]
        for a, b in zip(vals, vals[1:]):
            worst_mono = max(worst_mono, b - a)
        for a, b, c in zip(vals, vals[1:], vals[2:]):
            worst_conv = max(worst_conv, 2 * b - a - c)
    return (
        worst_mono <= tol and worst_conv <= tol,
        f"worst monotonicity violation {worst_mono:.2e}, worst convexity "
        f"violation {worst_conv:.2e} (both <= {tol:.0e})",
    )


def _battery_expected_tvs():
    codes = binary_battery_codes()
    sources = battery_sources()
    targets = battery_targets()
    etv = {
        (ci, si, ti): cc.expected_tv_exact(code, src, tgt)
        for (ci, code), (si, src), (ti, tgt) in itertools.product(
            enumerate(codes), enumerate(sources), enumerate(targets)
        )
    }
    return codes, sources, targets, etv


def achievability_chain():
    codes, sources, targets, etv = _battery_expected_tvs()
    violations = 0
    checked = 0
    for ci, si in itertools.product(range(len(codes)), range(len(sources))):
        for qi, pi in itertools.product(range(len(targets)), repeat=2):
            lhs = etv[ci, si, pi]
            rhs = etv[ci, si, qi] + pc.total_variation(targets[qi], targets[pi])
            checked += 1
            if lhs > rhs + 1e-12:
                violations += 1
    return (
        violations == 0,
        f"{checked} code/source/target-pair checks, {violations} violations",
    )


def jensen_step():
    codes, sources, targets, etv = _battery_expected_tvs()
    violations = 0
    checked = 0
    for ci, si in itertools.product(range(len(codes)), range(len(sources))):
        e_type = cc.expected_type_of_code(codes[ci], sources[si])
        for ti in range(len(targets)):
            checked += 1
            if pc.total_variation(e_type, targets[ti]) > etv[ci, si, ti] + 1e-12:
                violations += 1
    return (
        violations == 0,
        f"{checked} code/source/target checks, {violations} violations",
    )


def block_repetition():
    p0 = pc.Pmf([0.5, 0.5])
    base = cc.build_codebook_code(p0, pc.CondPmf.identity(2), 1, rate1=1.0, seed=5)
    target = cc.expected_type_of_code(base, p0)
    t0 = time.perf_counter()
    rates_exact = True
    medians, ses = [], []
    for k in (1, 4, 16, 64):
        rep_code = cc.block_repeat(base, k)
        rates_exact = rates_exact and rep_code.rate1 == base.rate1
        rep = cc.expected_tv_monte_carlo(rep_code, p0, target, 10_000, seed=31)
        medians.append(rep.quantiles[2])
        ses.append(rep.standard_error)
    elapsed = time.perf_counter() - t0
    trend_ok = all(
        b <= a + max(sa, sb)
        for (a, b), (sa, sb) in zip(
            zip(medians, medians[1:]), zip(ses, ses[1:])
        )
    )
    return (
        rates_exact and trend_ok and elapsed < 60.0,
        f"rates exact {rates_exact}, medians {medians} non-increasing within "
        f"one SE {trend_ok}, {elapsed:.1f}s (<1min)",
    )


def converse_scan():
    targets = battery_targets()
    pairs = [(pc.Pmf([0.5, 0.5]), pc.CondPmf.identity(2))]
    for j in (1, 2):
        pairs.append(
            (pc.marginal_pmf(targets[j], 0), pc.conditional(targets[j]))
        )
    t0 = time.perf_counter()
    flags = 0
    evaluated = 0
    partial = False
    for p0, tgt in pairs:
        out = oc.theorem_consistency_scan(
            p0, tgt, n_grid=(1, 2, 3), delta_grid=(0.0, 0.1, 0.25, 0.5, 1.0)
        )
        partial = partial or out["partial"]
        flags += out["flag_count"]
        evaluated += out["evaluated_codes"]
    elapsed = time.perf_counter() - t0
    return (
        flags == 0 and not partial and elapsed < 600.0,
        f"{len(pairs)} scans, {evaluated} codes enumerated, {flags} flags, "
        f"partial {partial}, {elapsed:.1f}s (<10min)",
    )


CRITERIA = [
    (1, "expected type equals averaged marginals", expected_type_identity),
    (2, "TV symmetry, range, triangle, convexity", tv_axioms),
    (3, "solver endpoints on 20 random instances", solver_endpoints),
    (4, "solver vs dense grid on 10 binary instances", solver_vs_grid_oracle),
    (5, "rate curve monotone and convex on 9-point grids", monotone_convex_rate_curve),
    (6, "triangle chain over the single-sample binary battery", achievability_chain),
    (7, "expected TV dominates TV of expected type", jensen_step),
    (8, "block repetition rates and median TV trend", block_repetition),
    (10, "exhaustive codes never undercut the frontier", converse_scan),
]
