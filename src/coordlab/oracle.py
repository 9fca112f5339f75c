"""Brute-force ground truth at desk scale.

Dense-grid minimization of mutual information over the TV neighborhood,
exhaustive search over all deterministic codes at tiny blocklengths, and a
two-sided consistency scan that compares simulated achievability and
exhaustively optimal codes against the certified region boundary.

Everything here is deterministic given its inputs, and deliberately
independent of the solver's machinery: the grid oracle never calls the
projected-gradient path and the code search never calls the codebook
constructor.

Both searches are exact, and their outputs do not depend on how the work
is batched:

- The code search scores codeword sets in blocks of
  ``itertools.combinations`` rows (lexicographic order). Each set's value
  is the same float expression, the 1-D dot of the source-block
  probabilities with the columnwise minimum (``np.vecdot`` over
  C-contiguous rows runs the loop ``probs @ v`` does), and the reported
  set is the lexicographically first minimiser.
- The grid drops, row by row, every candidate whose own TV cost already
  exceeds ``delta + TV_SLACK``. A float sum of nonnegative terms is at
  least each term, so no pruned cell could pass the feasibility test. The
  surviving cells keep their row-major order and their per-cell float
  expressions, so the optimum and the first optimizer are unchanged.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.special import xlogy

from coordlab.prob_core import CondPmf, JointPmf, Pmf, TV_SLACK, compose
from coordlab.coordination_code import (
    TableCode,
    _tv_rows,
    _type_counts,
    build_codebook_code,
    expected_tv_exact,
    message_count,
)
from coordlab.region_solver import SolverConfig, solve_two_node

LN2 = math.log(2.0)
_FREE_PARAM_GUARD = 3
_GRID_CELL_CAP = 20_000_000   # combos or candidate rows beyond this refuse to run
_CHUNK = 1 << 14          # grid cells per batch, cache-sized temporaries
_COMBO_BLOCK = 1 << 12    # codeword sets scored per batch
DEFAULT_CODE_GUARD = 10_000_000


@dataclass(frozen=True)
class OracleReport:
    """Result of one brute-force search."""

    instance: dict
    optimum: float
    optimizer: object
    search_space_size: int
    wall_time: float
    details: dict = field(default_factory=dict)


def _h2(t: float) -> float:
    if t <= 0.0 or t >= 1.0:
        return 0.0
    return float(-t * math.log2(t) - (1.0 - t) * math.log2(1.0 - t))


def _binary_candidates(p_first: float, step: float) -> np.ndarray:
    """First-component values: uniform lattice plus a target-centered one.

    The union keeps an exactly source-independent point available (shared
    lattice values across rows) while the centered lattice hits the target
    row and uses the TV budget in exact step multiples.
    """
    count = int(round(1.0 / step))
    base = np.linspace(0.0, 1.0, count + 1)
    down = math.floor(p_first / step)
    up = math.floor((1.0 - p_first) / step)
    centered = p_first + step * np.arange(-down, up + 1)
    vals = np.unique(np.concatenate([base, centered, [p_first]]))
    return np.clip(vals, 0.0, 1.0)


def _grid_cap_message(count: int) -> str:
    return (
        f"grid of {count} cells exceeds _GRID_CELL_CAP {_GRID_CELL_CAP}; "
        "coarsen grid_step"
    )


def _composition_rows(m: int, step: float, target_row: np.ndarray) -> np.ndarray:
    total = int(round(1.0 / step))
    count = math.comb(total + m - 1, m - 1)
    if count > _GRID_CELL_CAP:
        raise ValueError(_grid_cap_message(count))
    # stars and bars: m - 1 bars among total + m - 1 slots, in
    # lexicographic order; the gaps between bars are the counts
    edges = np.empty((count, m + 1), dtype=np.intp)
    edges[:, 0], edges[:, -1] = -1, total + m - 1
    edges[:, 1:-1] = np.fromiter(
        itertools.combinations(range(total + m - 1), m - 1),
        dtype=(np.intp, m - 1),
        count=count,
    )
    counts = np.diff(edges, axis=1) - 1
    return np.vstack([counts / total, target_row[None, :]])


def grid_min_mi(
    p0: Pmf, target: CondPmf, delta: float, grid_step: float
) -> OracleReport:
    """Dense-grid minimum of I(X; Yhat) over the closed TV neighborhood.

    Each support row ranges over a step lattice that contains the target
    row exactly; rows of zero source mass are pinned to the target. The
    reported discretization bound is a conservative entropy-continuity
    bound, usually far looser than the observed error.
    """
    if grid_step <= 0:
        raise ValueError(f"grid_step must be positive, got {grid_step}")
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta {delta} outside [0, 1]")
    rows = target.rows
    if rows.ndim != 2:
        raise ValueError("grid oracle handles a single output axis")
    k, m = rows.shape
    support = np.nonzero(p0.mass > 0.0)[0]
    if support.shape[0] * (m - 1) > _FREE_PARAM_GUARD:
        raise ValueError(
            f"{support.shape[0]}x({m}-1) free parameters exceed "
            f"_FREE_PARAM_GUARD {_FREE_PARAM_GUARD}"
        )
    start = time.perf_counter()
    w = p0.mass[support]
    cand = []
    for x in range(support.shape[0]):
        p_row = rows[support[x]]
        if m == 2:
            vals = _binary_candidates(float(p_row[0]), grid_step)
            cand.append(np.stack([vals, 1.0 - vals], axis=1))
        else:
            cand.append(_composition_rows(m, grid_step, p_row))
    sizes = [c.shape[0] for c in cand]
    total = int(np.prod(sizes))
    if total > _GRID_CELL_CAP:
        raise ValueError(_grid_cap_message(total))

    tv_cost = [
        0.5 * w[x] * np.abs(cand[x] - rows[support[x]][None, :]).sum(axis=1)
        for x in range(len(cand))
    ]
    # a candidate whose own TV cost is over the radius fails in every cell
    keep = [np.flatnonzero(c <= delta + TV_SLACK) for c in tv_cost]
    cand = [c[kept] for c, kept in zip(cand, keep)]
    tv_cost = [c[kept] for c, kept in zip(tv_cost, keep)]
    plogp = [
        w[x] * (xlogy(cand[x], cand[x]).sum(axis=1) / LN2) for x in range(len(cand))
    ]
    sizes = [c.shape[0] for c in cand]
    visited = math.prod(sizes)
    best_val = np.inf
    best_lin = -1
    for lo in range(0, visited, _CHUNK):
        hi = min(lo + _CHUNK, visited)
        lin = np.arange(lo, hi)
        idx = np.unravel_index(lin, sizes)
        tv = tv_cost[0][idx[0]].copy()
        for x in range(1, len(cand)):
            tv += tv_cost[x][idx[x]]
        feas = tv <= delta + TV_SLACK
        if not feas.any():
            continue
        mix = w[0] * cand[0][idx[0][feas]]
        ent_in = plogp[0][idx[0][feas]].copy()
        for x in range(1, len(cand)):
            mix += w[x] * cand[x][idx[x][feas]]
            ent_in += plogp[x][idx[x][feas]]
        vals = ent_in - xlogy(mix, mix).sum(axis=1) / LN2
        j = int(vals.argmin())
        if vals[j] < best_val:
            best_val = float(vals[j])
            best_lin = int(lin[feas][j])

    full = rows.copy()
    pick = np.unravel_index(best_lin, sizes)
    for x in range(len(cand)):
        full[support[x]] = cand[x][pick[x]]
    # entropy-continuity bound for the grid granularity
    t_round = min(0.25 * grid_step * m, 0.5)
    bound = 2.0 * (t_round * math.log2(max(k * m - 1, 2)) + _h2(t_round))
    return OracleReport(
        instance={
            "p0": p0.mass.tolist(),
            "target": rows.tolist(),
            "delta": float(delta),
            "grid_step": float(grid_step),
        },
        optimum=max(best_val, 0.0),
        optimizer=CondPmf(full),
        search_space_size=total,
        wall_time=time.perf_counter() - start,
        details={"discretization_bound": bound},
    )


def _all_blocks(size: int, n: int) -> np.ndarray:
    return np.indices((size,) * n).reshape(n, size**n).T.copy()


def _guard_message(space: int, guard: int) -> str:
    return (
        f"search space {space} exceeds guard {guard} (the guard argument, "
        f"default DEFAULT_CODE_GUARD {DEFAULT_CODE_GUARD})"
    )


def _best_codeword_set(
    d: np.ndarray, probs: np.ndarray, k: int
) -> tuple[float, Optional[tuple]]:
    """Lexicographically first k-column set minimizing probs @ min(d[:, set]).

    Sets come from ``itertools.combinations`` in blocks of ``_COMBO_BLOCK``
    rows. A block gathers rows of the C-contiguous ``d.T``, reduces them
    with ``np.minimum`` and scores every row with ``np.vecdot``, the same
    1-D dot loop as ``probs @ v``, so each value has the bits of the
    per-set expression. The first minimum inside a block and a strict
    ``<`` across blocks keep the lexicographically first minimiser.
    """
    cols = np.ascontiguousarray(d.T)
    combos = itertools.combinations(range(cols.shape[0]), k)
    best_val, best_set = np.inf, None
    while True:
        block = np.fromiter(
            itertools.islice(combos, _COMBO_BLOCK), dtype=(np.intp, k)
        )
        if block.shape[0] == 0:
            return best_val, best_set
        low = cols[block[:, 0]]
        for j in range(1, k):
            np.minimum(low, cols[block[:, j]], out=low)
        vals = np.vecdot(low, probs)
        i = int(vals.argmin())
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_set = tuple(block[i].tolist())


def exhaustive_best_code(
    p0: Pmf,
    target: JointPmf,
    n: int,
    rate1: float,
    rate2: Optional[float] = None,
    guard: int = DEFAULT_CODE_GUARD,
) -> OracleReport:
    """Exact minimum expected type-TV over all deterministic codes.

    The encoder never needs enumeration: inputs decouple, so for a fixed
    decoder table the optimal encoder picks the per-input closest codeword.
    Adding codewords never hurts, so only maximal codeword sets are tried.
    """
    start = time.perf_counter()
    cascade = target.mass.ndim == 3
    if cascade != (rate2 is not None):
        raise ValueError("rate2 required iff the target has three axes")
    sizes = target.mass.shape
    x_size = sizes[0]
    if p0.alphabet_size != x_size:
        raise ValueError("source and target sizes do not match")
    x_blocks = _all_blocks(x_size, n)
    probs = p0.mass[x_blocks].prod(axis=1)
    m1 = message_count(n, rate1)
    if cascade:
        return _exhaustive_cascade(
            p0, target, n, rate1, rate2, guard, x_blocks, probs, start
        )
    u = sizes[1] ** n
    eff = min(m1, u)
    space = math.comb(u, eff)
    if space > guard:
        raise ValueError(_guard_message(space, guard))
    y_blocks = _all_blocks(sizes[1], n)
    # d[i, y]: TV of the pair type to the target
    jc = x_blocks[:, None, :] * sizes[1] + y_blocks[None, :, :]
    counts = _type_counts(jc.reshape(-1, n), target.mass.size)
    d = _tv_rows(counts, n, target.mass.ravel()).reshape(x_blocks.shape[0], u)
    best_val, best_set = _best_codeword_set(d, probs, eff)
    enc = np.argmin(d[:, best_set], axis=1)
    dec = y_blocks[list(best_set)]
    if m1 > eff:  # pad unused messages so the table honors the nominal rate
        dec = np.vstack([dec, np.repeat(dec[-1][None, :], m1 - eff, axis=0)])
    code = TableCode(
        n=n,
        x_size=x_size,
        y_size=sizes[1],
        rate1=rate1,
        encoder=enc,
        decoder_mid=dec,
    )
    return OracleReport(
        instance={
            "p0": p0.mass.tolist(),
            "target": target.mass.tolist(),
            "n": n,
            "rate1": rate1,
        },
        optimum=best_val,
        optimizer=code,
        search_space_size=space,
        wall_time=time.perf_counter() - start,
        details={"codeword_universe": u, "codebook_size": eff},
    )


def _exhaustive_cascade(p0, target, n, rate1, rate2, guard, x_blocks, probs, start):
    sizes = target.mass.shape
    uy, uz = sizes[1] ** n, sizes[2] ** n
    m1, m2 = message_count(n, rate1), message_count(n, rate2)
    e2 = min(m2, uz)
    e1 = min(m1, uy * e2)
    space = math.comb(uz, e2) * math.comb(uy * e2, e1)
    if space > guard:
        raise ValueError(_guard_message(space, guard))
    y_blocks = _all_blocks(sizes[1], n)
    z_blocks = _all_blocks(sizes[2], n)
    # d3[i, y, z]: TV of the triple type to the target
    nx = x_blocks.shape[0]
    jc = (
        (x_blocks[:, None, None, :] * sizes[1] + y_blocks[None, :, None, :]) * sizes[2]
        + z_blocks[None, None, :, :]
    )
    counts = _type_counts(jc.reshape(-1, n), target.mass.size)
    d3 = _tv_rows(counts, n, target.mass.ravel()).reshape(nx, uy, uz)
    best = (np.inf, None, None)
    for z_combo in itertools.combinations(range(uz), e2):
        dp = d3[:, :, list(z_combo)].reshape(nx, -1)
        val, p_combo = _best_codeword_set(dp, probs, e1)
        if val < best[0]:
            best = (val, z_combo, p_combo)
    val, z_combo, p_combo = best
    pairs = [(y, zi) for y in range(uy) for zi in range(e2)]
    chosen = [pairs[i] for i in p_combo]
    dp = d3[:, :, list(z_combo)].reshape(nx, -1)
    enc = np.argmin(dp[:, p_combo], axis=1)
    dec_y = y_blocks[[y for y, _ in chosen]]
    rec = np.array([zi for _, zi in chosen], dtype=np.int64)
    dec_z = z_blocks[list(z_combo)]
    e1 = len(chosen)
    if m1 > e1:
        dec_y = np.vstack([dec_y, np.repeat(dec_y[-1][None, :], m1 - e1, axis=0)])
        rec = np.concatenate([rec, np.repeat(rec[-1], m1 - e1)])
    if m2 > e2:
        dec_z = np.vstack([dec_z, np.repeat(dec_z[-1][None, :], m2 - e2, axis=0)])
    code = TableCode(
        n=n,
        x_size=sizes[0],
        y_size=sizes[1],
        rate1=rate1,
        encoder=enc,
        decoder_mid=dec_y,
        rate2=rate2,
        z_size=sizes[2],
        recoder=rec,
        decoder_end=dec_z,
    )
    return OracleReport(
        instance={
            "p0": p0.mass.tolist(),
            "target": target.mass.tolist(),
            "n": n,
            "rate1": rate1,
            "rate2": rate2,
        },
        optimum=val,
        optimizer=code,
        search_space_size=space,
        wall_time=time.perf_counter() - start,
        details={"codeword_universes": [uy, uz]},
    )


def theorem_consistency_scan(
    p0: Pmf,
    target: CondPmf,
    n_grid: Sequence[int],
    delta_grid: Sequence[float],
    budget: int = DEFAULT_CODE_GUARD,
    config: SolverConfig = SolverConfig(),
    seed: int = 0,
) -> dict:
    """Two-sided desk-scale check of the region characterization.

    Achievability: codes built from the boundary argmin conditional are
    simulated (exactly, at these sizes) against the original target.
    Converse: for every blocklength and radius, the lowest-rate exhaustive
    code meeting the radius is compared with the boundary rate at the TV it
    actually achieved; the deficit envelope is fitted as c/sqrt(n) and rows
    breaking their fitted slack are flagged.
    """
    if target.rows.ndim != 2:
        raise ValueError("consistency scan handles two-node targets")
    y_size = target.rows.shape[1]
    joint_target = compose(p0, target)
    rows_out = []
    evaluated = 0
    partial = False
    frontier_cache: dict = {}

    def frontier(d: float):
        key = round(float(d), 15)
        if key not in frontier_cache:
            frontier_cache[key] = solve_two_node(p0, target, float(d), config)
        return frontier_cache[key]

    for n in n_grid:
        u = y_size**n
        per_m1 = []
        for m1 in range(1, u + 1):
            cost = math.comb(u, m1)
            if evaluated + cost > budget:
                partial = True
                break
            evaluated += cost
            rate = math.log2(m1) / n
            rep = exhaustive_best_code(p0, joint_target, n, rate, guard=budget)
            per_m1.append((rate, rep.optimum))
        if partial and not per_m1:
            break
        for delta in delta_grid:
            pt = frontier(delta)
            sim_code = build_codebook_code(
                p0, pt.argmin_conditional, n, rate1=pt.R1, seed=seed
            )
            sim_tv = expected_tv_exact(sim_code, p0, joint_target)
            achieving = [(r, tv) for r, tv in per_m1 if tv <= delta + TV_SLACK]
            if achieving:
                ex_rate, ex_tv = min(achieving)
                deficit = max(0.0, frontier(ex_tv).R1 - ex_rate)
            else:
                ex_rate, ex_tv, deficit = None, None, None
            rows_out.append(
                {
                    "n": int(n),
                    "delta": float(delta),
                    "simulated_mean_tv": float(sim_tv),
                    "exhaustive_rate": ex_rate,
                    "frontier_rate": float(pt.R1),
                    "achieved_tv": ex_tv,
                    "deficit": deficit,
                    "partial_blocklength": partial,
                }
            )
        if partial:
            break

    c = 0.0
    for row in rows_out:
        if row["deficit"] is not None:
            c = max(c, row["deficit"] * math.sqrt(row["n"]))
    flags = []
    for row in rows_out:
        slack = c / math.sqrt(row["n"])
        row["slack"] = slack
        row["flagged"] = bool(
            row["deficit"] is not None and row["deficit"] > slack + 1e-12
        )
        if row["flagged"]:
            flags.append(row)
    return {
        "rows": rows_out,
        "slack_coefficient": c,
        "flag_count": len(flags),
        "flags": flags,
        "partial": partial,
        "evaluated_codes": evaluated,
        "budget": int(budget),
    }
