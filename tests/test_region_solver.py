import math
import os
import warnings

import numpy as np
import pytest
from scipy.optimize import linprog

from coordlab import cli
from coordlab import prob_core as pc
from coordlab import region_solver as rs
from coordlab.instances import random_two_node_instances

SPEC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "specs")


def h2(t):
    return -t * math.log2(t) - (1 - t) * math.log2(1 - t)


def lp_argmin(prog, c):
    """Reference LMO: argmin of <c, s> over the feasible set as a linear
    program in (s, u) with u >= |s - p| and sum_x w_x sum_y u_xy <= 2 delta."""
    k, m = prog.k, prog.m
    km = k * m
    a_eq = np.zeros((k, 2 * km))
    for x in range(k):
        a_eq[x, x * m : (x + 1) * m] = 1.0
    ident = np.eye(km)
    a_ub = np.vstack(
        [
            np.hstack([ident, -ident]),
            np.hstack([-ident, -ident]),
            np.hstack([np.zeros(km), np.repeat(prog.w, m)])[None, :],
        ]
    )
    pflat = prog.p.ravel()
    res = linprog(
        np.concatenate([c.ravel(), np.zeros(km)]),
        A_ub=a_ub,
        b_ub=np.concatenate([pflat, -pflat, [prog.budget]]),
        A_eq=a_eq,
        b_eq=np.ones(k),
        bounds=[(0, None)] * (2 * km),
        method="highs",
    )
    assert res.success, res.message
    return res.x[:km].reshape(k, m)


def lp_delta_star(p0, target):
    """Reference threshold: min over output pmfs r of the TV between the
    target joint and p0 x r, as a linear program in (r, u) with
    u_xy >= |p_xy - r_y|. Unweighted rows and tight tolerances keep HiGHS
    accurate on entries near zero."""
    support = np.nonzero(p0.mass > 0.0)[0]
    w = p0.mass[support]
    p = target.rows.reshape(target.rows.shape[0], -1)[support]
    k, m = p.shape
    pick = np.tile(np.eye(m), (k, 1))
    ident = np.eye(k * m)
    res = linprog(
        np.concatenate([np.zeros(m), 0.5 * np.repeat(w, m)]),
        A_ub=np.vstack([np.hstack([-pick, -ident]), np.hstack([pick, -ident])]),
        b_ub=np.concatenate([-p.ravel(), p.ravel()]),
        A_eq=np.concatenate([np.ones(m), np.zeros(k * m)])[None, :],
        b_eq=[1.0],
        bounds=[(0, None)] * (m + k * m),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.success, res.message
    return res.fun


def delta_star_instances():
    """The frontier battery plus edge cases: near-zero entries, zero-mass
    source symbols, one support row, tied columns and a cascade target."""
    rng = np.random.default_rng(61)
    out = list(random_two_node_instances(20, seed=424242))
    for i in range(24):
        kx, ky = 2 + i % 3, 2 + (i // 3) % 3
        rows = rng.dirichlet(np.ones(ky), size=kx)
        rows[rng.random(rows.shape) < 0.3] *= 1e-7
        out.append((pc.Pmf(rng.dirichlet(np.ones(kx))), pc.CondPmf(rows / rows.sum(1, keepdims=True))))
    rows = rng.dirichlet(np.ones(3), size=3)
    out.append((pc.Pmf([0.6, 0.0, 0.4]), pc.CondPmf(rows)))
    out.append((pc.Pmf([0.0, 1.0, 0.0]), pc.CondPmf(rows)))
    out.append((pc.Pmf([0.5, 0.5]), pc.CondPmf([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25]])))
    out.append((pc.Pmf([0.2, 0.3, 0.5]), pc.CondPmf([[0.4, 0.4, 0.2], [0.1, 0.1, 0.8], [0.4, 0.4, 0.2]])))
    out.append((pc.Pmf([0.3, 0.7]), pc.CondPmf(rng.dirichlet(np.ones(4), size=2).reshape(2, 2, 2))))
    return out


def battery_programs(fraction):
    """Criterion 03's battery, each at delta = fraction * delta_star."""
    return [
        rs._NeighborhoodProgram(p0, tgt, fraction * rs.delta_star(p0, tgt))
        for p0, tgt in random_two_node_instances(20, seed=424242)
    ]


def assert_feasible(prog, q):
    assert np.abs(q.sum(axis=1) - 1.0).max() <= pc.NORM_TOL
    assert q.min() >= 0.0
    assert prog.l1_cost(q) <= prog.budget + 1e-15  # a rounded sum


class TestSolverConfig:
    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            rs.SolverConfig(duality_gap_tol=0.0)

    def test_weights_out_of_range(self):
        with pytest.raises(ValueError):
            rs.SolverConfig(scalarization_weights=(0.0, 1.5))


class TestTwoNode:
    def test_delta_zero_is_mutual_information(self, uniform_binary, identity_channel):
        pt = rs.solve_two_node(uniform_binary, identity_channel, 0.0)
        assert abs(pt.R1 - 1.0) <= 1e-9
        assert pt.certificate == 0.0

    def test_binary_identity_at_tenth(self, uniform_binary, identity_channel):
        # uniform source through an identity channel relaxed by TV 0.1
        # behaves like a binary symmetric channel with flip 0.1
        pt = rs.solve_two_node(uniform_binary, identity_channel, 0.1)
        assert abs(pt.R1 - (1 - h2(0.1))) <= 1e-6
        bsc = np.array([[0.9, 0.1], [0.1, 0.9]])
        assert np.allclose(pt.argmin_conditional.rows, bsc, atol=1e-4)

    def test_zero_rate_at_saturation(self, uniform_binary, identity_channel):
        ds = rs.delta_star(uniform_binary, identity_channel)
        assert abs(ds - 0.5) <= 1e-12
        pt = rs.solve_two_node(uniform_binary, identity_channel, ds)
        assert pt.R1 == 0.0 and pt.certificate == 0.0

    def test_clamps_large_delta_with_warning(self, uniform_binary, identity_channel):
        with pytest.warns(UserWarning):
            pt = rs.solve_two_node(uniform_binary, identity_channel, 1.3)
        assert pt.delta == 1.0
        assert pt.R1 == 0.0

    def test_argmin_feasible(self):
        for p0, tgt in random_two_node_instances(5, seed=101):
            ds = rs.delta_star(p0, tgt)
            for d in (0.3 * ds, 0.7 * ds):
                pt = rs.solve_two_node(p0, tgt, d)
                tv = pc.total_variation(
                    pc.compose(p0, pt.argmin_conditional), pc.compose(p0, tgt)
                )
                assert tv <= d + 1e-10

    def test_endpoints_random(self):
        for p0, tgt in random_two_node_instances(5, seed=102):
            joint = pc.compose(p0, tgt)
            pt = rs.solve_two_node(p0, tgt, 0.0)
            assert abs(pt.R1 - pc.mutual_information(joint)) <= 1e-6
            pt = rs.solve_two_node(p0, tgt, rs.delta_star(p0, tgt))
            assert pt.R1 <= 1e-6

    def test_monotone_in_delta(self):
        cfg = rs.SolverConfig()
        for p0, tgt in random_two_node_instances(3, seed=103):
            ds = rs.delta_star(p0, tgt)
            vals = [
                rs.solve_two_node(p0, tgt, d, cfg).R1
                for d in np.linspace(0.0, ds, 5)
            ]
            for a, b in zip(vals, vals[1:]):
                assert b <= a + 2 * cfg.duality_gap_tol


class TestDeltaStar:
    def test_identity_half(self, uniform_binary, identity_channel):
        assert abs(rs.delta_star(uniform_binary, identity_channel) - 0.5) <= 1e-12

    def test_independent_target_zero(self, uniform_binary):
        cond = pc.CondPmf([[0.3, 0.7], [0.3, 0.7]])
        assert rs.delta_star(uniform_binary, cond) <= 1e-12

    def test_monotone_under_mixing(self, uniform_binary, identity_channel):
        # mixing the target toward uniform rows can only shrink delta_star
        base = rs.delta_star(uniform_binary, identity_channel)
        mixed = pc.CondPmf(0.5 * np.eye(2) + 0.25)
        assert rs.delta_star(uniform_binary, mixed) <= base + 1e-12

    def test_greedy_matches_linear_program(self):
        for p0, tgt in delta_star_instances():
            value, r = rs._delta_star_full(p0, tgt)
            assert abs(value - lp_delta_star(p0, tgt)) <= 1e-9
            assert r.min() >= 0.0 and abs(r.sum() - 1.0) <= 1e-15
            # the returned value is the TV that r itself attains
            flat = np.tile(r, (p0.alphabet_size, 1))
            free = pc.compose(p0, pc.CondPmf(flat.reshape(tgt.rows.shape)))
            tv = pc.total_variation(pc.compose(p0, tgt), free)
            assert abs(tv - value) <= 1e-15


def zero_entry_targets():
    """(name, source, target): deterministic targets and a Z-channel; each
    has a zero entry in a column of positive output marginal."""
    copy = np.zeros((2, 2, 2))
    copy[0, 0, 0] = copy[1, 1, 1] = 1.0
    return [
        ("binary identity", pc.Pmf([0.5, 0.5]), pc.CondPmf(np.eye(2))),
        ("ternary identity", pc.Pmf([1 / 3, 1 / 3, 1 / 3]), pc.CondPmf(np.eye(3))),
        ("skewed identity", pc.Pmf([0.7, 0.3]), pc.CondPmf(np.eye(2))),
        ("y = f(x)", pc.Pmf([0.3, 0.3, 0.4]), pc.CondPmf([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])),
        ("z-channel", pc.Pmf([0.5, 0.5]), pc.CondPmf([[1.0, 0.0], [0.3, 0.7]])),
        ("copy cascade", pc.Pmf([0.5, 0.5]), pc.CondPmf(copy)),
    ]


def count_gap_checks(monkeypatch):
    """Counts FISTA iterations: one gap check each."""
    calls = {"gap": 0}
    gap_at = rs._NeighborhoodProgram.gap_at

    def spy(self, q, grad):
        calls["gap"] += 1
        return gap_at(self, q, grad)

    monkeypatch.setattr(rs._NeighborhoodProgram, "gap_at", spy)
    return calls


class TestStart:
    @pytest.mark.parametrize("delta", [0.1, 0.25, 1 / 12, 0.203125, 0.3125])
    def test_binary_identity_certifies_at_once(self, monkeypatch, uniform_binary, identity_channel, delta):
        # the consistency scan's FISTA radii; started toward the delta*
        # point [1, 0] each took 57-69 iterations
        calls = count_gap_checks(monkeypatch)
        pt = rs.solve_two_node(uniform_binary, identity_channel, delta)
        assert pt.certificate <= rs.SolverConfig().duality_gap_tol
        assert 1 <= calls["gap"] <= 2
        assert abs(pt.R1 - (1 - h2(delta))) <= 1e-12

    @pytest.mark.parametrize("p0,tgt", [t[1:] for t in zero_entry_targets()], ids=[t[0] for t in zero_entry_targets()])
    def test_start_off_the_zero_face(self, p0, tgt):
        ds, r_star = rs._delta_star_full(p0, tgt)
        for fraction in (0.1, 0.5, 0.9):
            prog = rs._NeighborhoodProgram(p0, tgt, fraction * ds)
            q, closed = rs._start(prog)
            assert not closed
            # the start toward delta* has a zero this start must not keep
            marg = prog.w @ prog.p
            assert (prog.p[:, marg > 0.0] + r_star[marg > 0.0] == 0.0).any()
            assert q[:, marg > 0.0].min() > 0.0
            assert np.abs(q.sum(axis=1) - 1.0).max() <= 1e-15
            assert prog.l1_cost(q) <= prog.budget * (1 + 1e-15)

    def test_full_support_start_toward_delta_star(self):
        # full-support targets keep the start, hence every iterate, bit
        # for bit: criterion 03/05's battery and a 2x2x2 cascade instance
        rng = np.random.default_rng(2027)
        cascade = (
            pc.Pmf(rng.dirichlet(np.ones(2) * 1.5)),
            pc.CondPmf(rng.dirichlet(np.ones(4) * 1.2, size=2).reshape(2, 2, 2)),
        )
        for p0, tgt in list(random_two_node_instances(20, seed=424242)) + [cascade]:
            ds, r_star = rs._delta_star_full(p0, tgt)
            for fraction in (0.1, 0.5, 0.9):
                prog = rs._NeighborhoodProgram(p0, tgt, fraction * ds)
                q, closed = rs._start(prog)
                assert not closed
                want = prog.p + (prog.delta / ds) * (r_star - prog.p)
                assert np.array_equal(q, want)

    def test_identity_spec_within_old_certificates(self, uniform_binary, identity_channel):
        # scripts/specs/two_node_identity.json: (delta, R1, certificate)
        # as solved from the start toward delta*; the points from the
        # marginal start lie within each of those certificates
        old = [
            (0.0, 1.0, 0.0),
            (0.05, 0.7136030428840449, 1.0683939379030338e-08),
            (0.1, 0.5310044064107409, 6.696683872708942e-08),
            (0.2, 0.27807190511263935, 2.1163258312473232e-08),
            (0.3, 0.11870910076934596, 8.727023809163015e-08),
            (0.4, 0.029049405545440506, 9.164240507425481e-08),
            (0.5, 0.0, 0.0),
            (1.0, 0.0, 0.0),
        ]
        for delta, r1, cert in old:
            pt = rs.solve_two_node(uniform_binary, identity_channel, delta)
            assert abs(pt.R1 - r1) <= cert
            assert pt.certificate <= rs.SolverConfig().duality_gap_tol

    @pytest.mark.xfail(strict=True, reason="plateaus at gap 7.4e-3 (3.2e-3 started toward delta*)")
    def test_skewed_ternary_identity_near_delta_star(self):
        p0, tgt = pc.Pmf([0.2, 0.3, 0.5]), pc.CondPmf(np.eye(3))
        ds = rs.delta_star(p0, tgt)
        assert ds == 0.5
        pt = rs.solve_two_node(p0, tgt, 0.9 * ds)
        assert pt.certificate <= rs.SolverConfig().duality_gap_tol


class TestObjective:
    def test_off_the_orthant_is_inf(self, monkeypatch):
        # FISTA's extrapolated points on the skewed ternary identity leave
        # the nonnegative orthant; there I(X; Yhat) is +inf, with no
        # floating-point warning (the step is rejected at once)
        p0, tgt = pc.Pmf([0.2, 0.3, 0.5]), pc.CondPmf(np.eye(3))
        outside = []
        objective = rs._objective

        def spy(q, grad):
            if q.min() < 0.0 and not outside:
                outside.append(q.copy())
            return objective(q, grad)

        monkeypatch.setattr(rs, "_objective", spy)
        rs.solve_two_node(p0, tgt, 0.45)
        assert outside
        v = outside[0]
        prog = rs._NeighborhoodProgram(p0, tgt, 0.45)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert prog.mi(v) == math.inf
            assert objective(v, prog.mi_grad(v)) == math.inf

    @pytest.mark.parametrize("fraction", [0.2, 0.6])
    def test_objective_from_gradient(self, fraction):
        # Euler's identity, on which FISTA's values rest: <q, grad f(q)>
        # is f(q) for I(X; Yhat) and for the cascade's weighted objective
        rng = np.random.default_rng(33)
        for prog in battery_programs(fraction):
            q = rng.dirichlet(np.ones(prog.m), size=prog.k)
            q[rng.random(q.shape) < 0.2] = 0.0
            q /= np.maximum(q.sum(axis=1, keepdims=True), 1e-300)
            assert rs._objective(q, prog.mi_grad(q)) == pytest.approx(prog.mi(q), abs=1e-15)
        p0, tgt = pc.Pmf([0.3, 0.7]), pc.CondPmf([[[0.5, 0.1], [0.2, 0.2]], [[0.1, 0.1], [0.1, 0.7]]])
        prog = rs._NeighborhoodProgram(p0, tgt, 0.1)
        q = rng.dirichlet(np.ones(4), size=2)

        def z_rows(q):
            return q.reshape(2, 2, 2).sum(axis=1)

        grad = 0.3 * prog.mi_grad(q) + 0.7 * np.repeat(prog.mi_grad(z_rows(q))[:, None, :], 2, axis=1).reshape(2, -1)
        want = 0.3 * prog.mi(q) + 0.7 * prog.mi(z_rows(q))
        assert rs._objective(q, grad) == pytest.approx(want, abs=1e-15)


class TestCascade:
    @pytest.fixture
    def cascade_target(self):
        rows = np.array(
            [[[0.81, 0.09], [0.09, 0.01]], [[0.01, 0.09], [0.09, 0.81]]]
        )
        return pc.CondPmf(rows)

    def test_delta_zero_corner(self, uniform_binary, cascade_target):
        pts = rs.solve_cascade(uniform_binary, cascade_target, 0.0)
        assert len(pts) == 1
        joint = pc.compose(uniform_binary, cascade_target)
        i_xyz = pc.mutual_information(joint, groups=((0,), (1, 2)))
        i_xz = pc.mutual_information(
            pc.marginal(joint, (0, 2)), groups=((0,), (1,))
        )
        assert abs(pts[0].R1 - i_xyz) <= 1e-9
        assert abs(pts[0].R2 - i_xz) <= 1e-9

    def test_saturated_delta_is_free(self, uniform_binary, cascade_target):
        ds = rs.delta_star(uniform_binary, cascade_target)
        pts = rs.solve_cascade(uniform_binary, cascade_target, ds)
        assert len(pts) == 1
        assert pts[0].R1 <= 1e-9 and pts[0].R2 <= 1e-9

    def test_frontier_is_undominated(self, uniform_binary, cascade_target):
        cfg = rs.SolverConfig(scalarization_weights=(0.0, 0.25, 0.5, 0.75, 1.0))
        pts = rs.solve_cascade(uniform_binary, cascade_target, 0.12, cfg)
        for a in pts:
            for b in pts:
                if a is b:
                    continue
                dominates = (
                    b.R1 <= a.R1 + 1e-12
                    and b.R2 <= a.R2 + 1e-12
                    and (b.R1 < a.R1 - 1e-12 or b.R2 < a.R2 - 1e-12)
                )
                assert not dominates

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_warm_sweep_matches_cold_solves(self, uniform_binary, cascade_target, shuffle):
        # each weight solved alone starts cold; the sweep's frontier must
        # reach the same weighted minimum within both certificates
        lams = rs.SolverConfig().scalarization_weights
        if shuffle:
            lams = tuple(np.random.default_rng(7).permutation(lams).tolist())
        delta = 0.12
        pts = rs.solve_cascade(
            uniform_binary, cascade_target, delta, rs.SolverConfig(scalarization_weights=lams)
        )
        sweep_gap = max(p.certificate for p in pts)
        for lam in lams:
            (cold,) = rs.solve_cascade(
                uniform_binary, cascade_target, delta, rs.SolverConfig(scalarization_weights=(lam,))
            )
            w = min(max(lam, 1e-6), 1.0 - 1e-6)
            warm = min(w * p.R1 + (1.0 - w) * p.R2 for p in pts)
            want = w * cold.R1 + (1.0 - w) * cold.R2
            assert abs(warm - want) <= sweep_gap + cold.certificate + 1e-12

    def test_lone_zero_weight_certifies(self, uniform_binary, cascade_target):
        # scripts/specs/cascade_small.json at delta = 0.1: a lone lam = 0
        # weight started from the target side plateaued at gap 1.08e-7; the
        # sweep starts it from the lam = 1 argmin instead
        for lams in ((0.0,), (0.25, 0.0)):
            cfg = rs.SolverConfig(scalarization_weights=lams)
            pts = rs.solve_cascade(uniform_binary, cascade_target, 0.1, cfg)
            assert {p.lam for p in pts} <= set(lams)
            assert max(p.certificate for p in pts) <= cfg.duality_gap_tol

    def test_cascade_spec_within_old_certificates(self):
        # scripts/specs/cascade_small.json: per delta, the frontier's
        # (lam, R1, R2, certificate) as solved when each ball-multiplier
        # search started from the last multiplier; the frontier's weighted
        # minimum at every spec weight now lies within those certificates
        old = {
            0.0: [(None, 0.7420858585497175, 0.5310044064107188, 0.0)],
            0.1: [(0.0, 0.35366528911159856, 0.27807190511263763, 1.968487789438811e-09)],
            0.25: [(0.0, 0.08104043928211482, 0.0659319446245096, 6.568355789826619e-09)],
        }
        spec = cli.load_problem_spec(os.path.join(SPEC_DIR, "cascade_small.json"))
        assert tuple(spec.delta_grid) == tuple(old)
        tol = spec.solver.duality_gap_tol
        for delta, points in old.items():
            pts = rs.solve_cascade(spec.source, spec.target, delta, spec.solver)
            assert max(p.certificate for p in pts) <= tol
            cert = max(c for *_, c in points)
            for w in spec.solver.scalarization_weights:
                new = min(w * p.R1 + (1.0 - w) * p.R2 for p in pts)
                want = min(w * r1 + (1.0 - w) * r2 for _, r1, r2, _ in points)
                assert abs(new - want) <= cert + 1e-15

    def test_points_feasible(self, uniform_binary, cascade_target):
        cfg = rs.SolverConfig(scalarization_weights=(0.0, 0.5, 1.0))
        for pt in rs.solve_cascade(uniform_binary, cascade_target, 0.1, cfg):
            tv = pc.total_variation(
                pc.compose(uniform_binary, pt.argmin_conditional),
                pc.compose(uniform_binary, cascade_target),
            )
            assert tv <= 0.1 + 1e-10


class TestParetoFilter:
    def test_drops_dominated(self, identity_channel):
        def mk(r1, r2, lam=None):
            return rs.RegionPoint(
                R1=r1,
                R2=r2,
                delta=0.1,
                argmin_conditional=identity_channel,
                certificate=0.0,
                provenance="solver",
                lam=lam,
            )

        kept = rs.pareto_filter([mk(1.0, 0.2), mk(0.5, 0.5), mk(1.0, 0.6)])
        assert [(p.R1, p.R2) for p in kept] == [(0.5, 0.5), (1.0, 0.2)]
        # rates equal to rounding are one point, the first in weight order
        kept = rs.pareto_filter(
            [mk(0.3, 0.5, 0.25), mk(0.3 + 1e-16, 0.5, 0.5), mk(0.3, 0.5, 0.75)]
        )
        assert [p.lam for p in kept] == [0.25]


def near_target_battery():
    """(program, v, VI scale): points near the set at three scales."""
    rng = np.random.default_rng(31)
    for prog in battery_programs(0.4):
        for scale in np.repeat([0.01, 0.1, 1.0], 7):
            yield prog, prog.p + scale * rng.standard_normal(prog.p.shape), 1.0


def large_step_battery():
    """(program, v, VI scale): FISTA steps with a small Lipschitz estimate
    land far from the set (zeros in q0 make the gradient's log terms
    large); rounding in the projection then scales with the spread of v
    within a row, squared."""
    rng = np.random.default_rng(32)
    for prog in battery_programs(0.4):
        for lip in (1e-6, 1e-3):
            q0 = prog.project(rng.dirichlet(np.ones(prog.m), size=prog.k))
            q0[rng.random(q0.shape) < 0.3] = 0.0
            v = q0 - prog.mi_grad(q0) / lip
            yield prog, v, float((v.max(axis=1) - v.min(axis=1)).max()) ** 2


def variational_gap(prog, v, q):
    """max over feasible s of (v - q).(s - q): <= 0 exactly at the projection."""
    s = lp_argmin(prog, q - v)
    return float(((v - q) * (s - q)).sum())


class TestProjection:
    def test_near_target_points(self):
        # the projection q of v is characterized by (v - q).(s - q) <= 0
        # for every feasible s; the LP finds the s that maximizes it
        worst = -np.inf
        for prog, v, _ in near_target_battery():
            q = prog.project(v)
            assert_feasible(prog, q)
            worst = max(worst, variational_gap(prog, v, q))
        assert worst <= 1e-12

    def test_large_steps(self):
        for prog, v, scale in large_step_battery():
            q = prog.project(v)
            assert_feasible(prog, q)
            pc.CondPmf(q)
            assert variational_gap(prog, v, q) <= 1e-12 * scale

    def test_warm_start_matches_cold(self):
        # the ball multiplier search starts from the last projection's
        # multiplier; where it starts must not move the projection
        rng = np.random.default_rng(33)
        warmed = 0
        for battery in (near_target_battery(), large_step_battery()):
            for prog, v, scale in battery:
                cold = rs._NeighborhoodProgram(prog.p0, prog.target, prog.delta)
                warm = rs._NeighborhoodProgram(prog.p0, prog.target, prog.delta)
                for size in 10.0 ** rng.uniform(-2.0, 4.0, size=3):
                    warm.project(prog.p + size * rng.standard_normal(prog.p.shape))
                warmed += warm._mu > 0.0
                q_cold, q_warm = cold.project(v), warm.project(v)
                spread = float((v.max(axis=1) - v.min(axis=1)).max())
                assert np.abs(q_cold - q_warm).max() <= 1e-15 * max(1.0, spread**2)
                for q in (q_cold, q_warm):
                    assert_feasible(prog, q)
                    assert variational_gap(prog, v, q) <= 1e-12 * scale
        assert warmed >= 400  # of 460 points, most start away from mu = 0

    def test_prox_calls_per_projection(self, monkeypatch):
        # criterion 03/05's battery: 9 radii on [0, delta*] per instance;
        # the bracketed secant search took 6.7 prox calls per projection,
        # Newton steps from the last multiplier 2.9, and steps from the
        # last pattern's root take 1.11
        calls = {"prox": 0, "project": 0}
        prox, project = rs._NeighborhoodProgram._prox_rows, rs._NeighborhoodProgram.project

        def spy_prox(self, v, c):
            calls["prox"] += 1
            return prox(self, v, c)

        def spy_project(self, v):
            calls["project"] += 1
            return project(self, v)

        monkeypatch.setattr(rs._NeighborhoodProgram, "_prox_rows", spy_prox)
        monkeypatch.setattr(rs._NeighborhoodProgram, "project", spy_project)
        for p0, tgt in random_two_node_instances(20, seed=424242):
            for d in np.linspace(0.0, rs.delta_star(p0, tgt), 9):
                rs.solve_two_node(p0, tgt, float(d))
        assert calls["project"] > 1000
        assert calls["prox"] <= 1.5 * calls["project"]


def shifted_d(prog, v):
    """d = v - p after the row shift ``project`` applies."""
    return v - v.max(axis=1, keepdims=True) - prog.p


def assert_matches_cold(prog, v):
    """Projects v with prog, whatever pattern it has stored, and with a
    fresh program; both must be the projection, to rounding."""
    cold = rs._NeighborhoodProgram(prog.p0, prog.target, prog.delta)
    q_warm, q_cold = prog.project(v), cold.project(v)
    spread = float((v.max(axis=1) - v.min(axis=1)).max())
    assert np.abs(q_warm - q_cold).max() <= 1e-15 * max(1.0, spread**2)
    for q in (q_warm, q_cold):
        assert_feasible(prog, q)
        assert variational_gap(prog, v, q) <= 1e-12
    return q_warm


class TestStoredPattern:
    """The search starts at the root of the last projection's pattern;
    these are the starts where that pattern is wrong or degenerate."""

    def test_pattern_from_far_away(self):
        rng = np.random.default_rng(51)
        p0, tgt = pc.Pmf([0.3, 0.7]), pc.CondPmf([[0.6, 0.3, 0.1], [0.2, 0.2, 0.6]])
        for _ in range(10):
            prog = rs._NeighborhoodProgram(p0, tgt, 0.08)
            prog.project(prog.p + 1e3 * rng.standard_normal(prog.p.shape))
            v = prog.p + 0.1 * rng.standard_normal(prog.p.shape)
            start = prog._pattern_root(shifted_d(prog, v), prog._pattern)
            assert_matches_cold(prog, v)
            assert start != prog._mu  # the stored pattern did not hold

    def test_slack_ball(self):
        # the stored pattern's root for v is below 0; the projection is
        # v's simplex projection, strictly inside the ball (mu = 0)
        rng = np.random.default_rng(52)
        p0, tgt = pc.Pmf([0.3, 0.7]), pc.CondPmf([[0.6, 0.3, 0.1], [0.2, 0.2, 0.6]])
        prog = rs._NeighborhoodProgram(p0, tgt, 0.3)
        prog.project(prog.p + 3.0 * rng.standard_normal(prog.p.shape))
        assert prog._mu > 0.0
        v = prog.p + 0.02 * rng.standard_normal(prog.p.shape)
        assert prog._pattern_root(shifted_d(prog, v), prog._pattern) < 0.0
        q = assert_matches_cold(prog, v)
        assert prog.l1_cost(q) < prog.budget

    def test_row_without_free_entries(self):
        # the heavy row sits inside its band at the root, |U| + |D| = 0
        p0, tgt = pc.Pmf([0.9, 0.1]), pc.CondPmf([[0.5, 0.3, 0.2], [0.2, 0.2, 0.6]])
        prog = rs._NeighborhoodProgram(p0, tgt, 0.02)
        q = assert_matches_cold(prog, prog.p + np.array([[0.01, -0.01, 0.0], [0.6, -0.3, -0.3]]))
        s, _ = prog._pattern
        assert np.array_equal(np.abs(s).sum(axis=1), [0.0, 3.0])
        assert np.array_equal(q[0], prog.p[0])
        v = prog.p + np.array([[0.012, -0.008, 0.0], [0.5, -0.2, -0.3]])
        start = prog._pattern_root(shifted_d(prog, v), prog._pattern)
        assert np.isfinite(start)
        assert_matches_cold(prog, v)
        assert prog._mu == start  # the pattern held: one prox evaluation

    @pytest.mark.parametrize(
        "p0",
        [pc.Pmf([1.0]), pc.Pmf([0.6, 0.0, 0.4])],
        ids=["one row", "zero-mass row"],
    )
    def test_small_programs(self, p0):
        rng = np.random.default_rng(53)
        tgt = pc.CondPmf(rng.dirichlet(np.ones(3), size=p0.alphabet_size))
        prog = rs._NeighborhoodProgram(p0, tgt, 0.5 * rs.delta_star(p0, tgt))
        assert prog.k == int((p0.mass > 0.0).sum())
        for scale in np.repeat([1e-2, 1e-1, 1.0], 7):
            assert_matches_cold(prog, prog.p + scale * rng.standard_normal(prog.p.shape))


class TestLinearMin:
    def test_matches_linear_program(self):
        # 4 radii x 20 programs x 13 gradients = 1040 comparisons
        rng = np.random.default_rng(41)
        worst = 0.0
        for fraction in (0.1, 0.4, 0.9, 1.5):
            for prog in battery_programs(fraction):
                for i in range(13):
                    grad = rng.standard_normal(prog.p.shape)
                    if i % 3 == 0:  # ties within and across rows
                        grad = np.round(2.0 * grad) / 2.0
                    s = prog.linear_min(grad)
                    assert_feasible(prog, s)
                    ref = lp_argmin(prog, grad)
                    worst = max(worst, abs(float((grad * (s - ref)).sum())))
        assert worst <= 1e-12
