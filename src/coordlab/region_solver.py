"""Certified minimization of mutual information over TV neighborhoods.

The feasible set (conditionals whose composition with the source stays
within total variation delta of a target) is the intersection of per-row
probability simplices with one weighted-l1 ball, and the objectives are
convex. Accelerated projected gradient (FISTA) minimizes them. Both
sub-problems have exact closed forms: the Euclidean projection is a
per-row soft-threshold whose simplex and ball multipliers are found
between breakpoints of piecewise-linear functions (Condat 2016, "Fast
projection onto the simplex and the l1 ball"), and the linear
minimization behind the Frank-Wolfe duality gap is a fractional knapsack
solved greedily. The gap certifies every returned point. Endpoints
(delta = 0 and delta past the zero-rate threshold) are returned from
closed forms with zero gap.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import linprog
from scipy.special import rel_entr

from coordlab.prob_core import CondPmf, Pmf, compose, in_delta_neighborhood

LN2 = math.log(2.0)
_TINY = 1e-30          # gradient floor; keeps log ratios finite at the boundary
_ROOT_STEPS = 100      # bracket steps of the ball-multiplier search
_GAP_CHECK_EVERY = 25


@dataclass(frozen=True)
class SolverConfig:
    duality_gap_tol: float = 1e-7
    max_iterations: int = 20000
    delta_grid: tuple = ()
    scalarization_weights: tuple = tuple(i / 32 for i in range(33))

    def __post_init__(self):
        if self.duality_gap_tol <= 0:
            raise ValueError("duality_gap_tol must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        grid = tuple(float(d) for d in self.delta_grid)
        if any(not 0.0 <= d <= 1.0 for d in grid):
            raise ValueError(f"delta grid outside [0, 1]: {grid}")
        if any(b < a for a, b in zip(grid, grid[1:])):
            raise ValueError(f"delta grid not ascending: {grid}")
        lams = tuple(float(v) for v in self.scalarization_weights)
        if any(not 0.0 <= v <= 1.0 for v in lams):
            raise ValueError(f"scalarization weights outside [0, 1]: {lams}")
        object.__setattr__(self, "delta_grid", grid)
        object.__setattr__(self, "scalarization_weights", lams)


@dataclass(frozen=True)
class RegionPoint:
    """One boundary point: rates, neighborhood radius, argmin, certificate."""

    R1: float
    delta: float
    argmin_conditional: CondPmf
    certificate: float
    provenance: str
    R2: Optional[float] = None
    lam: Optional[float] = None

    def __post_init__(self):
        for name in ("R1", "R2"):
            v = getattr(self, name)
            if v is None:
                continue
            if v < -1e-9:
                raise ValueError(f"{name} = {v} is negative")
            object.__setattr__(self, name, max(float(v), 0.0))
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta {self.delta} outside [0, 1]")

    def rates(self) -> tuple:
        return (self.R1,) if self.R2 is None else (self.R1, self.R2)


def _sanitize_delta(delta: float) -> float:
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    if delta > 1.0:
        warnings.warn(f"delta {delta} exceeds 1; clamped to 1 (TV never does)")
        return 1.0
    return float(delta)


def _flat_rows(target: CondPmf) -> np.ndarray:
    return target.rows.reshape(target.rows.shape[0], -1)


def _prox_entries(p, d, c, nu):
    """max(p + soft(d - nu, c), 0), elementwise with broadcasting."""
    t = d - nu
    return np.maximum(p + np.sign(t) * np.maximum(np.abs(t) - c, 0.0), 0.0)


class _NeighborhoodProgram:
    """Shared machinery for one (source, target, delta) feasible set.

    Rows of zero source probability never move the composed TV and are
    pinned to the target, so the program works on support rows only.
    """

    def __init__(self, p0: Pmf, target: CondPmf, delta: float):
        self.p0 = p0
        self.target = target
        self.delta = delta
        rows = _flat_rows(target)
        if p0.alphabet_size != rows.shape[0]:
            raise ValueError("source and conditional sizes do not match")
        self.support = np.nonzero(p0.mass > 0.0)[0]
        self.w = p0.mass[self.support]
        self.p = rows[self.support]
        self.k, self.m = self.p.shape
        self.budget = 2.0 * delta  # sum_x w_x ||q_x - p_x||_1 <= 2 delta

    # objective pieces -------------------------------------------------

    def mi(self, q: np.ndarray) -> float:
        joint = self.w[:, None] * q
        marg = joint.sum(axis=0)
        return float(rel_entr(joint, np.outer(self.w, marg)).sum() / LN2)

    def mi_grad(self, q: np.ndarray) -> np.ndarray:
        marg = (self.w[:, None] * q).sum(axis=0)
        ratio = np.maximum(q, _TINY) / np.maximum(marg, _TINY)[None, :]
        return self.w[:, None] * (np.log(ratio) / LN2)

    # geometry ---------------------------------------------------------

    def l1_cost(self, q: np.ndarray) -> float:
        return float((self.w[:, None] * np.abs(q - self.p)).sum())

    def _prox_rows(self, v: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Per row, argmin of 1/2||q_x - v_x||^2 + c_x ||q_x - p_x||_1 over the
        simplex: max(p + soft(v - nu - p, c), 0) with the simplex multiplier
        nu solved exactly between sorted breakpoints."""
        d = v - self.p
        # Each entry is nonincreasing and piecewise linear in nu, with kinks
        # at d - c, d + c and v + c (where it reaches zero); so is the row sum,
        # which is 0 at the last breakpoint.
        cc = c[:, None]
        bp = np.sort(np.concatenate([d - cc, d + cc, v + cc], axis=1), axis=1)
        sums = _prox_entries(
            self.p[:, None, :], d[:, None, :], c[:, None, None], bp[:, :, None]
        ).sum(axis=2)
        j = (sums >= 1.0).sum(axis=1) - 1
        nu = np.empty(self.k)
        # Left of every breakpoint all m entries fall with slope -1.
        left = j < 0
        nu[left] = bp[left, 0] - (1.0 - sums[left, 0]) / self.m
        r, j = np.nonzero(~left)[0], j[~left]
        s0, s1 = sums[r, j], sums[r, j + 1]
        nu[r] = bp[r, j] + (s0 - 1.0) / (s0 - s1) * (bp[r, j + 1] - bp[r, j])
        q = _prox_entries(self.p, d, cc, nu[:, None])
        # A row far from the simplex leaves nu with few low bits; the
        # renormalization keeps its sum within rounding of 1.
        return q / q.sum(axis=1, keepdims=True)

    def project(self, v: np.ndarray) -> np.ndarray:
        """Exact Euclidean projection onto (simplex rows) and (l1 ball).

        With ball multiplier mu every row is ``_prox_rows`` at c = mu w; the
        l1 cost of that point is nonincreasing and piecewise linear in mu,
        so a bracketed secant search, with bisection when the secant stalls,
        hits the budget exactly once both ends share a linear piece.
        """
        v = v - v.max(axis=1, keepdims=True)  # row shifts do not move it
        q = self._prox_rows(v, np.zeros(self.k))
        excess = self.l1_cost(q) - self.budget
        if excess <= 0.0:
            return q
        d = v - self.p
        # Past hi every row's prox is the target row itself.
        lo, f_lo, q_lo = 0.0, excess, q
        hi = float(((d.max(axis=1) - d.min(axis=1)) / (2.0 * self.w)).max())
        f_hi, q_hi = -self.budget, self.p.copy()
        bisect = False
        for _ in range(_ROOT_STEPS):
            width = hi - lo
            mu = 0.5 * (lo + hi) if bisect else lo + width * f_lo / (f_lo - f_hi)
            # Stop once an end meets the budget to the rounding of the cost
            # sum, or the bracket has closed to rounding.
            if min(f_lo, -f_hi) <= 1e-15 or not lo < mu < hi:
                break
            q = self._prox_rows(v, mu * self.w)
            f = self.l1_cost(q) - self.budget
            if f > 0.0:
                lo, f_lo, q_lo = mu, f, q
            else:
                hi, f_hi, q_hi = mu, f, q
            bisect = not bisect and hi - lo > 0.5 * width
        q = q_lo if f_lo < -f_hi else q_hi
        # A rounding excess goes back along the ray to the target, which
        # scales the l1 cost linearly and stays inside the simplex.
        cost = self.l1_cost(q)
        if cost <= self.budget:
            return q
        return self.p + (self.budget / cost) * (q - self.p)

    # Frank-Wolfe gap --------------------------------------------------

    def linear_min(self, grad: np.ndarray) -> np.ndarray:
        """argmin over the feasible set of <grad, s>: a fractional knapsack.

        Moving mass t from column y of row x to the row's cheapest column
        spends 2 w_x t of the l1 budget and lowers the objective by
        (grad_xy - min grad_x) t, so mass moves greedily in decreasing
        gain per unit of budget until the budget is spent.
        """
        unit = np.repeat(2.0 * self.w, self.m)  # budget per unit of mass moved
        gain = (grad - grad.min(axis=1, keepdims=True)).ravel() / unit
        order = np.argsort(-gain, kind="stable")
        price = (unit * self.p.ravel())[order]
        spend = np.clip(self.budget - (np.cumsum(price) - price), 0.0, price)
        spend[gain[order] <= 0.0] = 0.0
        moved = np.zeros(self.k * self.m)
        moved[order] = spend / unit[order]
        moved = np.minimum(moved.reshape(self.k, self.m), self.p)
        s = self.p - moved
        s[np.arange(self.k), grad.argmin(axis=1)] += moved.sum(axis=1)
        return s

    def gap_at(self, q: np.ndarray, grad: np.ndarray) -> float:
        return max(float((grad * (q - self.linear_min(grad))).sum()), 0.0)


def _fista(prog, value, gradient, q0: np.ndarray, config: SolverConfig):
    """Accelerated projected gradient with restart and periodic gap checks.

    ``value``/``gradient`` act on support-restricted row matrices; returns
    (feasible iterate, value, certified gap).
    """
    tol = config.duality_gap_tol
    iterations = config.max_iterations
    q = prog.project(q0)
    v = q.copy()
    t = 1.0
    lip = 1.0
    f_q = value(q)
    best = (f_q + np.inf, None, np.inf)

    it = 0
    stalled = 0
    last_metric = None
    while it < iterations:
        it += 1
        g_v = gradient(v)
        f_v = value(v)
        lip = max(lip / 2.0, 1e-6)
        for _ in range(60):
            cand = prog.project(v - g_v / lip)
            diff = cand - v
            quad = f_v + (g_v * diff).sum() + 0.5 * lip * (diff * diff).sum()
            f_cand = value(cand)
            if f_cand <= quad + 1e-15:
                break
            lip *= 2.0
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        v = cand + ((t - 1.0) / t_next) * (cand - q)
        if f_cand > f_q:  # function restart
            v = cand.copy()
            t_next = 1.0
        q, f_q, t = cand, f_cand, t_next
        if it % _GAP_CHECK_EVERY == 0 or it == iterations:
            gap = prog.gap_at(q, gradient(q))
            if f_q + gap < best[0] + best[2]:
                best = (f_q, q, gap)
            if gap <= tol:
                return q, f_q, gap
            # When the certified value-plus-gap stops improving the iterate
            # has plateaued short of the tolerance; report the best
            # certificate instead of spinning here.
            metric = best[0] + best[2]
            stalled = stalled + 1 if (
                last_metric is not None and last_metric - metric <= 0.5 * tol
            ) else 0
            last_metric = metric
            if stalled >= 6:
                break
    if best[1] is None:
        best = (f_q, q, prog.gap_at(q, gradient(q)))
    return best[1], best[0], best[2]


def delta_star(p0: Pmf, target: CondPmf) -> float:
    """Smallest delta whose neighborhood admits a source-independent point."""
    return _delta_star_full(p0, target)[0]


def _delta_star_full(p0: Pmf, target: CondPmf):
    """(threshold, optimal output pmf r) via an exact linear program:
    minimize TV(compose(p0, target), p0 x r) over output pmfs r."""
    rows = _flat_rows(target)
    support = np.nonzero(p0.mass > 0.0)[0]
    w = p0.mass[support]
    joint = w[:, None] * rows[support]
    k, m = joint.shape
    km = k * m
    # variables: r (m), u (km); minimize 0.5 sum u
    # u_xy >= |joint_xy - w_x r_y|
    wcol = np.repeat(w, m)
    pick = np.tile(np.eye(m), (k, 1))
    a_ub = np.vstack(
        [
            np.hstack([-wcol[:, None] * pick, -np.eye(km)]),
            np.hstack([wcol[:, None] * pick, -np.eye(km)]),
        ]
    )
    b_ub = np.concatenate([-joint.ravel(), joint.ravel()])
    a_eq = np.hstack([np.ones((1, m)), np.zeros((1, km))])
    c = np.concatenate([np.zeros(m), 0.5 * np.ones(km)])
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=[1.0],
        bounds=[(0, None)] * (m + km),
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"zero-rate threshold LP failed: {res.message}")
    r = np.maximum(res.x[:m], 0.0)
    r = r / r.sum()
    return min(max(float(res.fun), 0.0), 1.0), r


def _restore_rows(prog, q: np.ndarray, target: CondPmf) -> CondPmf:
    full = _flat_rows(target).copy()
    full[prog.support] = q
    return CondPmf(full.reshape(target.rows.shape))


def solve_two_node(
    p0: Pmf, target: CondPmf, delta: float, config: SolverConfig = SolverConfig()
) -> RegionPoint:
    """Minimal message rate at neighborhood radius delta: min I(X; Yhat)."""
    delta = _sanitize_delta(delta)
    if target.rows.ndim != 2:
        raise ValueError("two-node target must have a single output axis")
    prog = _NeighborhoodProgram(p0, target, delta)

    if delta == 0.0:
        q = prog.p.copy()
        point_value, gap = prog.mi(q), 0.0
    else:
        ds, r_star = _delta_star_full(p0, target)
        if delta >= ds - 1e-12:
            q = np.tile(r_star, (prog.k, 1))
            point_value, gap = prog.mi(q), 0.0
        else:
            blend = min(1.0, delta / ds) if ds > 0 else 1.0
            starts = [
                prog.p + blend * (np.tile(r_star, (prog.k, 1)) - prog.p),
                prog.p.copy(),
            ]
            q, point_value, gap = None, np.inf, np.inf
            for q0 in starts:
                qs, fs, gs = _fista(prog, prog.mi, prog.mi_grad, q0, config)
                if fs + gs < point_value + gap or q is None:
                    q, point_value, gap = qs, fs, gs
                # The second start is a safety net against a badly stuck
                # first solve, not a tie-breaker for near-certified ones.
                if gap <= 50.0 * config.duality_gap_tol:
                    break
    cond = _restore_rows(prog, q, target)
    if not in_delta_neighborhood(compose(p0, cond), compose(p0, target), delta):
        raise RuntimeError("solver returned an infeasible conditional")
    return RegionPoint(
        R1=point_value,
        delta=delta,
        argmin_conditional=cond,
        certificate=gap,
        provenance="solver",
    )


def _cascade_objectives(prog, y_size: int, z_size: int):
    """Value/gradient factories for I(X; YZ) and I(X; Z) on flattened rows."""

    def mi_z(q):
        qz = q.reshape(prog.k, y_size, z_size).sum(axis=1)
        joint = prog.w[:, None] * qz
        marg = joint.sum(axis=0)
        return float(rel_entr(joint, np.outer(prog.w, marg)).sum() / LN2)

    def mi_z_grad(q):
        qz = q.reshape(prog.k, y_size, z_size).sum(axis=1)
        marg = (prog.w[:, None] * qz).sum(axis=0)
        ratio = np.maximum(qz, _TINY) / np.maximum(marg, _TINY)[None, :]
        gz = prog.w[:, None] * (np.log(ratio) / LN2)
        return np.repeat(gz[:, None, :], y_size, axis=1).reshape(prog.k, -1)

    return mi_z, mi_z_grad


def solve_cascade(
    p0: Pmf, target: CondPmf, delta: float, config: SolverConfig = SolverConfig()
) -> list:
    """Pareto frontier of (R1, R2) at radius delta via scalarization.

    Minimizes lam*I(X;YZ) + (1-lam)*I(X;Z) for each weight; both terms are
    convex, so the sweep traces the convex lower-left boundary.
    """
    delta = _sanitize_delta(delta)
    if target.rows.ndim != 3:
        raise ValueError("cascade target needs two output axes")
    y_size, z_size = target.rows.shape[1], target.rows.shape[2]
    prog = _NeighborhoodProgram(p0, target, delta)
    mi_z, mi_z_grad = _cascade_objectives(prog, y_size, z_size)

    def point_for(q, gap, lam):
        cond = _restore_rows(prog, q, target)
        if not in_delta_neighborhood(compose(p0, cond), compose(p0, target), delta):
            raise RuntimeError("solver returned an infeasible conditional")
        return RegionPoint(
            R1=prog.mi(q),
            R2=mi_z(q),
            delta=delta,
            argmin_conditional=cond,
            certificate=gap,
            provenance="solver",
            lam=lam,
        )

    if delta == 0.0:
        return [point_for(prog.p.copy(), 0.0, None)]
    ds, r_star = _delta_star_full(p0, target)
    if delta >= ds - 1e-12:
        return [point_for(np.tile(r_star, (prog.k, 1)), 0.0, None)]

    blend = min(1.0, delta / ds) if ds > 0 else 1.0
    start_a = prog.p + blend * (np.tile(r_star, (prog.k, 1)) - prog.p)
    points = []
    for lam in config.scalarization_weights:
        # At the endpoint weights one rate drops out of the objective and
        # the minimizer is non-unique in that coordinate; a hair of the
        # other term breaks the tie toward the lower-left frontier corner.
        w = min(max(lam, 1e-6), 1.0 - 1e-6)

        def value(q, w=w):
            return w * prog.mi(q) + (1.0 - w) * mi_z(q)

        def gradient(q, w=w):
            return w * prog.mi_grad(q) + (1.0 - w) * mi_z_grad(q)

        best = None
        for q0 in (start_a, prog.p.copy()):
            qs, fs, gs = _fista(prog, value, gradient, q0, config)
            if best is None or fs + gs < best[1] + best[2]:
                best = (qs, fs, gs)
            if best[2] <= 50.0 * config.duality_gap_tol:
                break
        points.append(point_for(best[0], best[2], lam))
    return pareto_filter(points)


def pareto_filter(points: Sequence[RegionPoint], tol: float = 1e-12) -> list:
    """Drop points whose rate pairs are dominated by another point.

    Points whose rates both agree within ``tol`` are one point; the first
    in input (weight) order is kept.
    """
    kept = []
    for p in points:
        dominated = False
        for q in points:
            if q is p:
                continue
            if (
                q.R1 <= p.R1 + tol
                and q.R2 <= p.R2 + tol
                and (q.R1 < p.R1 - tol or q.R2 < p.R2 - tol)
            ):
                dominated = True
                break
        duplicate = any(
            abs(q.R1 - p.R1) <= tol and abs(q.R2 - p.R2) <= tol for q in kept
        )
        if not (dominated or duplicate):
            kept.append(p)
    kept.sort(key=lambda pt: (pt.R1, pt.R2 if pt.R2 is not None else 0.0))
    return kept


def region_membership(
    p0: Pmf,
    target: CondPmf,
    candidate: RegionPoint,
    config: SolverConfig = SolverConfig(),
):
    """Does the candidate rate tuple lie in the achievable region at its
    delta? Returns (bool, signed margin in bits); positive margin means
    strictly inside."""
    if target.rows.ndim == 2:
        frontier = [solve_two_node(p0, target, candidate.delta, config)]
    else:
        frontier = solve_cascade(p0, target, candidate.delta, config)
    margins = []
    for pt in frontier:
        parts = [candidate.R1 - pt.R1]
        if pt.R2 is not None:
            if candidate.R2 is None:
                raise ValueError("cascade membership needs an R2 in the candidate")
            parts.append(candidate.R2 - pt.R2)
        margins.append(min(parts))
    margin = max(margins)
    return margin >= -config.duality_gap_tol, float(margin)
