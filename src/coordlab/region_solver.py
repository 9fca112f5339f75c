"""Certified minimization of mutual information over TV neighborhoods.

The feasible set (conditionals whose composition with the source stays
within total variation delta of a target) is the intersection of per-row
probability simplices with one weighted-l1 ball, and the objectives are
convex. Two projected-gradient loops minimize them, each taking every
objective value it compares from the gradient at the same point (the
objectives are homogeneous of degree 1: f(q) = <q, grad f(q)>), and both
keep the same bookkeeping (``_Progress``). The cascade sweep runs
nonmonotone spectral projected gradient (SPG; Birgin, Martinez & Raydan
2000), one projection per iteration, about half FISTA's projections on
the cascade batteries. The two-node solve keeps accelerated projected
gradient (FISTA): SPG lands its points closer to the optimum, where
perfbench's two-node reference records zero gaps that sit up to 8.2e-11
above it, so it waits for that reference to be recorded again. FISTA's
backtracking estimate of the Lipschitz constant falls as well as rises:
each step's first trial is the larger of half the last estimate and
_CURVATURE_MARGIN times the curvature the last accepted step measured
(Scheinberg, Goldfarb & Bai 2014), which on criterion 03/05's battery
cuts the projections from 1,613 to 1,031 (halving alone rejected 691
trials, the first one in 557 of 782 iterations). The Euclidean
projection is a per-row soft-threshold: its simplex multiplier is found
between sorted breakpoints (Condat 2016, "Fast projection onto
the simplex and the l1 ball"), its ball multiplier by safeguarded Newton
steps on the piecewise-linear l1 cost. On a fixed active pattern that
cost is affine in the multiplier with a closed-form root; each step goes
to the root of the pattern just met, and the search starts at the root
of the last projection's pattern for the new point, where one prox
evaluation usually meets the budget. On arrays of a few entries numpy's
per-call overhead is a projection's cost (about 85 us on criterion 03/05's
battery, 2-core Xeon), so the kernels make as few calls as give the same
bits. The linear minimization
behind the Frank-Wolfe duality gap is a fractional knapsack
solved greedily. The gap is checked after every iteration and the
first iterate it certifies is returned. Endpoints (delta = 0 and delta
past the zero-rate threshold delta*) are returned from closed forms with
zero gap; delta* itself is a separable piecewise-linear minimization
solved by a greedy fill, once per (source, target). Both loops start
on the segment from the target to the delta* point p0 x r*, at TV
delta; where that start keeps a zero in
a column of positive output marginal (a deterministic target whose r*
is a vertex), I's gradient there is log2 of the floor _TINY and the loop
crawls, so it starts on the segment to p0 x marginal instead, which is
positive on those columns. The cascade sweep projects its start once,
then solves its weights from last to first, from lam = 1 down, each
warm-started from the last argmin, which is feasible already: SPG checks
the gap there before stepping and returns a start that certifies.
Both networks share the endpoints, the start and the feasibility check;
the cascade's I(X;Z) is I(X;Yhat) of the rows summed over y.
"""

from __future__ import annotations

import functools
import math
import numbers
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from coordlab.prob_core import CondPmf, Pmf, compose, in_delta_neighborhood, rel_entr

LN2 = math.log(2.0)
_TINY = 1e-30          # gradient floor; keeps log ratios finite at the boundary
_ROOT_STEPS = 100      # bracket steps of the ball-multiplier search
_STALL_WINDOW = 25     # iterations between samples of the plateau test
_CURVATURE_MARGIN = 1.1  # first trial step above the last measured curvature
_SPG_MEMORY = 10        # values the nonmonotone line search compares against


def _real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, (bool, np.bool_))


@dataclass(frozen=True)
class SolverConfig:
    duality_gap_tol: float = 1e-7
    max_iterations: int = 20000
    scalarization_weights: tuple = tuple(i / 32 for i in range(33))

    def __post_init__(self):
        # bool is an int subclass, but true is no tolerance or count
        tol, its = self.duality_gap_tol, self.max_iterations
        if not _real(tol) or not 0 < tol < math.inf:
            raise ValueError("duality_gap_tol must be a positive finite number")
        if not _real(its) or not isinstance(its, numbers.Integral) or its < 1:
            raise ValueError("max_iterations must be an integer >= 1")
        try:
            lams = tuple(self.scalarization_weights)
        except TypeError:  # not iterable
            lams = ()
        if not lams or not all(_real(v) for v in lams):
            raise ValueError("scalarization_weights must be a non-empty list of numbers")
        # compared before the float conversion, which overflows on huge ints
        if any(not 0.0 <= v <= 1.0 for v in lams):
            raise ValueError(f"scalarization weights outside [0, 1]: {lams}")
        lams = tuple(float(v) for v in lams)
        object.__setattr__(self, "scalarization_weights", lams)


@dataclass(frozen=True)
class RegionPoint:
    """One boundary point: rates, neighborhood radius, argmin, certificate."""

    R1: float
    delta: float
    argmin_conditional: CondPmf
    certificate: float
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


def _sanitize_delta(delta: float) -> float:
    if not delta >= 0:  # NaN fails here too
        raise ValueError(f"delta must be >= 0, got {delta}")
    if delta > 1.0:
        warnings.warn(f"delta {delta} exceeds 1; clamped to 1 (TV never does)")
        return 1.0
    return float(delta)


def _flat_rows(target: CondPmf) -> np.ndarray:
    return target.rows.reshape(target.rows.shape[0], -1)


def _soft(t, c):
    """The soft threshold sign(t) max(|t| - c, 0), to the bit, with broadcasting."""
    return t - np.minimum(np.maximum(t, -c), c)


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
        self._rows, self._w2 = np.arange(self.k), self.w**2
        self._w_col, self._w_twice, self._p3 = self.w[:, None], 2.0 * self.w, self.p[:, None, :]
        self._unit = np.repeat(self._w_twice, self.m)  # budget per unit of mass moved
        self._price = self._unit * self.p.ravel()
        self._band = np.repeat([-1.0, 1.0, 1.0], self.m)  # breakpoints' signs of c
        self._offsets = 3 * self.m * self._rows  # row starts in a flat breakpoint array
        self.budget = 2.0 * delta  # sum_x w_x ||q_x - p_x||_1 <= 2 delta
        self._pattern = None  # active pattern of the last projection

    @functools.cached_property
    def joint(self):
        """The target's joint, composed once per program (a cascade solve
        checks every returned point against it)."""
        return compose(self.p0, self.target)

    # objective pieces -------------------------------------------------

    def mi(self, q: np.ndarray) -> float:
        # joint / (w x output marginal) = q / marginal
        return float((self.w @ rel_entr(q, self.w @ q)).sum() / LN2)

    def mi_grad(self, q: np.ndarray) -> np.ndarray:
        marg = (self._w_col * q).sum(axis=0)
        ratio = np.maximum(q, _TINY) / np.maximum(marg, _TINY)
        return self._w_col * (np.log(ratio) / LN2)

    # geometry ---------------------------------------------------------

    def l1_cost(self, q: np.ndarray) -> float:
        return float((self._w_col * np.abs(q - self.p)).sum())

    def _prox_rows(self, v: np.ndarray, c: np.ndarray):
        """Per row, argmin of 1/2||q_x - v_x||^2 + c_x ||q_x - p_x||_1 over the
        simplex: max(p + soft(v - nu - p, c), 0) with the simplex multiplier
        nu solved exactly between sorted breakpoints. Also returns the active
        pattern (s, zero): s is +1 on U, the entries above the band
        |d - nu| <= c_x, -1 on D, those below it with q > 0, and 0 elsewhere;
        zero marks the entries clipped to q = 0."""
        d = v - self.p
        # Each entry is nonincreasing and piecewise linear in nu, with kinks
        # at d - c, d + c and v + c (where it reaches zero); so is the row sum,
        # which is 0 at the last breakpoint.
        cc = c[:, None]
        bp = np.concatenate([d, d, v], axis=1) + cc * self._band
        bp.sort(axis=1)
        t = d[:, None, :] - bp[:, :, None]
        sums = np.maximum(self._p3 + _soft(t, cc[:, :, None]), 0.0).sum(axis=2)
        j = (sums >= 1.0).sum(axis=1) - 1
        # Left of every breakpoint all m entries fall with slope -1: there
        # the interpolation runs from the first breakpoint at slope -m.
        left = j < 0
        at = self._offsets + j + left
        b0, b1, s0, s1 = bp.take(at), bp.take(at + 1), sums.take(at), sums.take(at + 1)
        nu = b0 + (s0 - 1.0) / np.where(left, self.m, s0 - s1) * np.where(left, 1.0, b1 - b0)
        soft = _soft(d - nu[:, None], cc)
        q = np.maximum(self.p + soft, 0.0)
        # soft > 0 on U, where q > p >= 0, so only D entries are clipped to 0
        zero = q == 0.0
        s = np.sign(soft)
        s[zero] = 0.0
        # A row far from the simplex leaves nu with few low bits; the
        # renormalization keeps its sum within rounding of 1.
        return q / q.sum(axis=1, keepdims=True), (s, zero)

    def _pattern_root(self, d: np.ndarray, pattern) -> float:
        """The mu at which the l1 cost, extended affinely from one active
        pattern of ``_prox_rows``, meets the budget; nan where that cost is
        flat in mu (or there is no pattern).

        On the pattern, with n_x = |U_x| + |D_x| and c_x = mu w_x, the row
        sum fixes nu_x = a_x + c_x (|D_x| - |U_x|) / n_x, where
        a_x = (sum_{U,D} d - sum_Z p) / n_x, and row x costs
        w_x (sum_y s (d - nu_x) - n_x c_x + sum_Z p): affine in mu, with
        slope -w_x^2 4|U_x||D_x| / n_x. A row with n_x = 0 costs a constant.
        """
        if pattern is None:
            return math.nan
        s, zero = pattern
        free = np.abs(s)
        n, sigma = free.sum(axis=1), s.sum(axis=1)  # |U|+|D|, |U|-|D|
        slope = float((self._w2 * (sigma * sigma - n * n) / np.maximum(n, 1.0)).sum())
        if slope == 0.0:
            return math.nan
        p_zero = (self.p * zero).sum(axis=1)
        a = ((free * d).sum(axis=1) - p_zero) / np.maximum(n, 1.0)
        cost = float(self.w @ ((s * d).sum(axis=1) - a * sigma + p_zero))
        return (self.budget - cost) / slope

    def project(self, v: np.ndarray) -> np.ndarray:
        """Exact Euclidean projection onto (simplex rows) and (l1 ball).

        With ball multiplier mu every row is ``_prox_rows`` at c = mu w; its
        l1 cost L(mu) is nonincreasing and piecewise linear, so on a fixed
        active pattern its root is closed-form and a Newton step is exact.
        The search starts at the root of the last projection's pattern for
        this v (mu = 0 where that root is undefined, negative or >= hi),
        which holds in most projections of a solver run, so one prox meets
        the budget; each step goes to the root of the pattern just
        met, bisects a bracket on the root when it leaves it, and probes
        mu = 0 only when one reaches it.
        """
        v = v - v.max(axis=1, keepdims=True)  # row shifts do not move it
        d = v - self.p
        # Past hi every row's prox is the target row; lo = 0 is unprobed.
        # Each end keeps its l1 cost for the rounding check.
        lo, f_lo, q_lo, pat_lo, cost_lo = 0.0, np.inf, None, None, None
        hi = float(((d.max(axis=1) - d.min(axis=1)) / self._w_twice).max())
        f_hi, q_hi, pat_hi, cost_hi = -self.budget, self.p, None, 0.0
        mu = self._pattern_root(d, self._pattern)
        mu = max(mu, 0.0) if mu < hi else 0.0  # nan starts at 0 too
        for _ in range(_ROOT_STEPS):
            q, pattern = self._prox_rows(v, mu * self.w)
            cost = self.l1_cost(q)
            f = cost - self.budget
            if f > 0.0:
                lo, f_lo, q_lo, pat_lo, cost_lo = mu, f, q, pattern, cost
            elif mu == 0.0:
                self._pattern = pattern
                return q
            else:
                hi, f_hi, q_hi, pat_hi, cost_hi = mu, f, q, pattern, cost
            # Stop once an end meets the budget to the rounding of the cost
            # sum, mu is its own pattern's root, or the bracket has closed
            # to rounding.
            if min(f_lo, -f_hi) <= 1e-15:
                break
            root = self._pattern_root(d, pattern)
            if root == mu:
                break
            mu = root if not math.isnan(root) else (hi if f > 0.0 else lo)
            if mu <= 0.0 and f_lo == np.inf:
                mu = 0.0
            elif not lo < mu < hi:
                mu = 0.5 * (lo + hi)
                if not lo < mu < hi:
                    break
        end = (q_lo, pat_lo, cost_lo) if f_lo < -f_hi else (q_hi, pat_hi, cost_hi)
        q, self._pattern, cost = end
        # A rounding excess goes back along the ray to the target, which
        # scales the l1 cost linearly and stays inside the simplex.
        if cost <= self.budget:
            return q.copy() if q is self.p else q
        return self.p + (self.budget / cost) * (q - self.p)

    # Frank-Wolfe gap --------------------------------------------------

    def linear_min(self, grad: np.ndarray) -> np.ndarray:
        """argmin over the feasible set of <grad, s>: a fractional knapsack.

        Moving mass t from column y of row x to the row's cheapest column
        spends 2 w_x t of the l1 budget and lowers the objective by
        (grad_xy - min grad_x) t, so mass moves greedily in decreasing
        gain per unit of budget until the budget is spent.
        """
        gain = (grad - grad.min(axis=1, keepdims=True)).ravel() / self._unit
        order = (-gain).argsort(kind="stable")
        price = self._price[order]
        spend = np.minimum(np.maximum(self.budget - (price.cumsum() - price), 0.0), price)
        spend[gain[order] <= 0.0] = 0.0
        moved = np.zeros(self.k * self.m)
        moved[order] = spend / self._unit[order]
        moved = np.minimum(moved.reshape(self.k, self.m), self.p)
        s = self.p - moved
        s[self._rows, grad.argmin(axis=1)] += moved.sum(axis=1)
        return s

    def gap_at(self, q: np.ndarray, grad: np.ndarray) -> float:
        return max(float((grad * (q - self.linear_min(grad))).sum()), 0.0)


def _objective(q: np.ndarray, grad: np.ndarray) -> float:
    """The objective at q from its gradient there.

    I(X; Yhat) and every weighted sum of such terms is positively
    homogeneous of degree 1 in the rows, so f(q) = <q, grad f(q)> (Euler's
    identity, up to the entries that ``mi_grad`` clamps at _TINY). Off the
    nonnegative orthant f is +inf, as mutual information is undefined
    there; FISTA's extrapolated point can land there. This costs one
    product and sum where evaluating I(X; Yhat) itself (``rel_entr``'s
    masks and regimes) costs some 20 small numpy calls.
    """
    return math.inf if q.min() < 0.0 else float((q * grad).sum())


class _Progress:
    """The bookkeeping both loops do once per iteration: the gap check,
    the best certificate seen and the plateau test.

    ``stop(q, f, grad)`` checks the gap at iterate q (objective f, gradient
    grad there) and says whether the loop is done: q certifies at the
    tolerance, the iterate has plateaued, or the iterations are spent.
    ``result()`` is then (the certified iterate, or else the one with the
    best certified value-plus-gap, and its gap). ``check(q, f, grad)`` is
    the gap check alone, for a start point.
    """

    def __init__(self, prog, config: SolverConfig):
        self.prog, self.tol, self.iterations = prog, config.duality_gap_tol, config.max_iterations
        self.it = 0
        self.best = (np.inf, None, np.inf)
        self.sampled = np.inf
        self.last_metric = None
        self.stalled = 0

    def check(self, q: np.ndarray, f: float, grad: np.ndarray) -> float:
        """The gap at q, keeping q if it certifies or is the best seen. It
        counts no iteration and samples no plateau test, so a loop can check
        its start point without spending one."""
        gap = self.prog.gap_at(q, grad)
        if gap <= self.tol or f + gap < self.best[0] + self.best[2]:
            self.best = (f, q, gap)
        return gap

    def stop(self, q: np.ndarray, f: float, grad: np.ndarray) -> bool:
        self.it += 1
        gap = self.check(q, f, grad)
        if gap <= self.tol:
            return True
        # When the certified value-plus-gap of the iterates sampled every
        # _STALL_WINDOW iterations stops improving, the iterate has
        # plateaued short of the tolerance; report the best certificate
        # instead of spinning here. Sampling over a window, not testing
        # every iterate, keeps slow but steady progress from reading as
        # a plateau.
        if self.it % _STALL_WINDOW == 0 or self.it == self.iterations:
            self.sampled = min(self.sampled, f + gap)
            self.stalled = self.stalled + 1 if (
                self.last_metric is not None
                and self.last_metric - self.sampled <= 0.5 * self.tol
            ) else 0
            self.last_metric = self.sampled
            if self.stalled >= 6:
                return True
        return self.it >= self.iterations

    def result(self):
        return self.best[1], self.best[2]


def _fista(prog, gradient, q0: np.ndarray, config: SolverConfig):
    """Accelerated projected gradient with restart and a gap check after
    every iteration; ``solve_two_node``'s loop.

    ``gradient`` is the objective's, on support-restricted row matrices,
    and every objective value FISTA compares comes from the gradient at the
    same point (``_objective``). Returns (feasible iterate, certified gap):
    the first iterate certified at the tolerance, or else the one with the
    best certificate seen (``_Progress``).

    Each step backtracks on the sufficient-decrease test f(cand) <= f(v) +
    <grad f(v), cand - v> + lip/2 ||cand - v||^2, doubling lip on a
    rejection. The accepted step measures the curvature c = 2 (f(cand) -
    f(v) - <grad f(v), cand - v>) / ||cand - v||^2, the least lip it would
    have passed, and the next step's first trial is max(lip / 2,
    _CURVATURE_MARGIN c, 1e-6). Halving alone had the first trial rejected
    in 557 of 782 iterations of criterion 03/05's battery, 691 wasted
    projections in all. Seeded, that battery takes 1,031 projections in
    668 iterations (144 with a rejection).
    """
    q = prog.project(q0)
    v = q.copy()
    t = 1.0
    lip = 1.0
    f_q = _objective(q, gradient(q))
    progress = _Progress(prog, config)
    curv = 0.0
    while True:
        g_v = gradient(v)
        f_v = _objective(v, g_v)
        lip = max(lip / 2.0, _CURVATURE_MARGIN * curv, 1e-6)
        for _ in range(60):
            cand = prog.project(v - g_v / lip)
            diff = cand - v
            lin = f_v + (g_v * diff).sum()
            sq = (diff * diff).sum()
            quad = lin + 0.5 * lip * sq
            g_cand = gradient(cand)
            f_cand = _objective(cand, g_cand)
            if f_cand <= quad + 1e-15:
                break
            lip *= 2.0
        # The least lip the accepted step would have passed seeds the next
        # trial. A step of length 0 measures no curvature; from a v off the
        # orthant (f_v = inf) it reads -inf, which the max drops.
        curv = 2.0 * (f_cand - lin) / sq if sq > 0.0 else 0.0
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        v = cand + ((t - 1.0) / t_next) * (cand - q)
        if f_cand > f_q:  # function restart
            v = cand.copy()
            t_next = 1.0
        q, f_q, t = cand, f_cand, t_next
        if progress.stop(q, f_q, g_cand):
            return progress.result()


def _spg(prog, gradient, q0: np.ndarray, config: SolverConfig):
    """Nonmonotone spectral projected gradient (Birgin, Martinez & Raydan
    2000); ``solve_cascade``'s loop, with ``_fista``'s arguments, return
    value and bookkeeping (``_Progress``).

    Each iteration projects once: d = P(q - alpha g) - q. A line search on
    q + lam d, which stays feasible with no further projection, accepts
    when f is at most the largest of the last _SPG_MEMORY values plus
    1e-4 lam <g, d>; a rejected lam is replaced by the minimizer of the
    quadratic through f(q), <g, d> and the rejected value, kept in [0.1 lam,
    0.5 lam], for at most 60 trials. The next alpha is the spectral step
    s's / s'y, in [1e-10, 1e10], and 1e10 where s'y <= 0.

    q0 must be feasible: it is not projected, since the sweep passes its
    projected start or the last weight's argmin, and SPG's iterates are
    convex combinations of feasible points. Its gap is checked before the
    first step, at no iteration's cost, and a q0 that certifies is
    returned as it is. On perfbench's random cascade at 1/4, 1/2 and 3/4
    of delta* this takes 256 projections in 253 iterations (352 gap
    checks), where FISTA took 679 in 391 and SPG projecting q0 384 in 285.
    """
    q = q0
    g = gradient(q)
    f = _objective(q, g)
    recent = [f]
    alpha = 1.0
    progress = _Progress(prog, config)
    if progress.check(q, f, g) <= progress.tol:
        return progress.result()
    while True:
        d = prog.project(q - alpha * g) - q
        slope = float((g * d).sum())
        f_ref = max(recent)
        lam = 1.0
        for _ in range(60):
            cand = q + lam * d
            g_cand = gradient(cand)
            f_cand = _objective(cand, g_cand)
            if f_cand <= f_ref + 1e-4 * lam * slope:
                break
            # With <g, d> < 0 a rejected value lies above the tangent, so
            # the quadratic opens upward; a d at rounding level can leave
            # <g, d> >= 0 and no such quadratic, and then lam halves
            excess = f_cand - f - lam * slope
            trial = -0.5 * slope * lam * lam / excess if excess > 0.0 else 0.5 * lam
            lam = min(max(trial, 0.1 * lam), 0.5 * lam)
        s, y = cand - q, g_cand - g
        sy = float((s * y).sum())
        alpha = min(max(float((s * s).sum()) / sy, 1e-10), 1e10) if sy > 0.0 else 1e10
        q, g, f = cand, g_cand, f_cand
        recent = recent[1 - _SPG_MEMORY:] + [f]
        if progress.stop(q, f, g):
            return progress.result()


def delta_star(p0: Pmf, target: CondPmf) -> float:
    """Smallest delta whose neighborhood admits a source-independent point."""
    return _delta_star_full(p0, target)[0]


_DELTA_STAR_MEMO: dict = {}  # (source, target) by value -> (delta*, read-only r*)
_DELTA_STAR_MEMO_SIZE = 64


def _delta_star_full(p0: Pmf, target: CondPmf):
    """``_delta_star_greedy``, solved once per (source, target) value."""
    key = (p0.mass.shape, p0.mass.tobytes(), target.rows.shape, target.rows.tobytes())
    hit = _DELTA_STAR_MEMO.get(key)
    if hit is None:
        if len(_DELTA_STAR_MEMO) >= _DELTA_STAR_MEMO_SIZE:
            _DELTA_STAR_MEMO.clear()
        hit = _delta_star_greedy(p0, target)
        hit[1].setflags(write=False)
        _DELTA_STAR_MEMO[key] = hit
    return hit


def _delta_star_greedy(p0: Pmf, target: CondPmf):
    """(threshold, optimal output pmf r): the minimum over output pmfs r of
    TV(compose(p0, target), p0 x r) = sum_y 1/2 sum_x w_x |p_xy - r_y|.

    Each column's term is convex and piecewise linear in r_y, with kinks
    at the sorted p_xy; past the j-th kink its slope is the weight of the
    first j rows minus 1/2. The terms are separable, so filling segments
    in increasing slope until r holds unit mass is exact.
    """
    support = np.nonzero(p0.mass > 0.0)[0]
    w = p0.mass[support]
    p = _flat_rows(target)[support]
    m = p.shape[1]
    order = np.argsort(p, axis=0, kind="stable")
    kinks = np.take_along_axis(p, order, axis=0)
    length = np.diff(kinks, axis=0, prepend=0.0).ravel()
    below = np.cumsum(np.vstack([np.zeros(m), w[order[:-1]]]), axis=0)
    # Within a column slopes rise with j, and a stable sort keeps tied
    # segments of a column in j order, so every column fills from 0 up.
    fill_order = np.argsort(below.ravel(), kind="stable")
    seg = length[fill_order]
    fill = np.clip(1.0 - (np.cumsum(seg) - seg), 0.0, seg)
    r = np.bincount(fill_order % m, weights=fill, minlength=m)
    r = r / r.sum()
    return 0.5 * float((w[:, None] * np.abs(p - r)).sum()), r


def _start(prog: _NeighborhoodProgram):
    """(rows, closed): the closed-form argmin at delta = 0 and delta >=
    delta*, or else the loops' start, on the way from the target to delta*.

    That way keeps an exact zero where the target and r* both have one
    (the binary identity's r* is [1, 0]). If such a zero sits in a column
    of positive output marginal, I's gradient there is log2 of _TINY, the
    log singularity, and FISTA crawled off that face for 50-100 iterations.
    The start is then taken on the way to p0 x marg instead, at TV delta:
    that end is at TV >= delta* > delta, so the point is feasible, and it
    is positive wherever the marginal is. Full-support targets never take
    this branch.
    """
    if prog.delta == 0.0:
        return prog.p.copy(), True
    ds, r_star = _delta_star_full(prog.p0, prog.target)
    if prog.delta >= ds - 1e-12:
        return np.tile(r_star, (prog.k, 1)), True
    start = prog.p + (prog.delta / ds) * (r_star - prog.p)
    marg = prog.w @ prog.p
    if (start[:, marg > 0.0] == 0.0).any():
        tv_marg = 0.5 * float((prog.w[:, None] * np.abs(prog.p - marg)).sum())
        start = prog.p + (prog.delta / tv_marg) * (marg - prog.p)
    return start, False


def _restore_rows(prog: _NeighborhoodProgram, q: np.ndarray) -> CondPmf:
    """Full conditional from support rows, checked to lie in the neighborhood."""
    full = _flat_rows(prog.target).copy()
    full[prog.support] = q
    cond = CondPmf(full.reshape(prog.target.rows.shape))
    composed = compose(prog.p0, cond)
    if not in_delta_neighborhood(composed, prog.joint, prog.delta):
        raise RuntimeError("solver returned an infeasible conditional")
    return cond


def solve_two_node(
    p0: Pmf, target: CondPmf, delta: float, config: SolverConfig = SolverConfig()
) -> RegionPoint:
    """Minimal message rate at neighborhood radius delta: min I(X; Yhat)."""
    delta = _sanitize_delta(delta)
    if target.rows.ndim != 2:
        raise ValueError("two-node target must have a single output axis")
    prog = _NeighborhoodProgram(p0, target, delta)
    q, closed = _start(prog)
    q, gap = (q, 0.0) if closed else _fista(prog, prog.mi_grad, q, config)
    return RegionPoint(
        R1=prog.mi(q),
        delta=delta,
        argmin_conditional=_restore_rows(prog, q),
        certificate=gap,
    )


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
    y_size = target.rows.shape[1]
    prog = _NeighborhoodProgram(p0, target, delta)

    def mi_z(q):
        return prog.mi(q.reshape(prog.k, y_size, -1).sum(axis=1))

    def mi_z_grad(q):
        g = prog.mi_grad(q.reshape(prog.k, y_size, -1).sum(axis=1))
        return np.repeat(g[:, None, :], y_size, axis=1).reshape(prog.k, -1)

    def point_for(q, gap, lam):
        return RegionPoint(
            R1=prog.mi(q),
            R2=mi_z(q),
            delta=delta,
            argmin_conditional=_restore_rows(prog, q),
            certificate=gap,
            lam=lam,
        )

    q, closed = _start(prog)
    if closed:
        return [point_for(q, 0.0, None)]
    q = prog.project(q)  # once: every later start is an argmin, feasible already
    points = []
    # Each weight starts from the previous weight's argmin, beginning at
    # lam = 1 (a start only, lam None, unless it is the first weight): then
    # the degenerate lam ~ 0 weight starts on the face where its minimizer
    # lies; started from the target side it crawls.
    lams = tuple(reversed(config.scalarization_weights))
    for lam in lams if lams[0] == 1.0 else (None,) + lams:
        # At the endpoint weights one rate drops out of the objective and
        # the minimizer is non-unique in that coordinate; a hair of the
        # other term breaks the tie toward the lower-left frontier corner.
        w = min(max(1.0 if lam is None else lam, 1e-6), 1.0 - 1e-6)

        def gradient(q, w=w):
            return w * prog.mi_grad(q) + (1.0 - w) * mi_z_grad(q)

        q, gap = _spg(prog, gradient, q, config)
        if lam is not None:
            points.append(point_for(q, gap, lam))
    # back in weight order, where the filter keeps the first of duplicates
    return pareto_filter(points[::-1])


def pareto_filter(points: Sequence[RegionPoint]) -> list:
    """Drop points whose rate pairs are dominated by another point.

    Points whose rates both agree within 1e-12 bits are one point; the
    first in input (weight) order is kept.
    """
    tol = 1e-12
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

