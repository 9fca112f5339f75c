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

- The code search visits codeword sets in colex levels (by largest
  column first), so each set's columnwise minimum is one ``np.minimum`` of
  its prefix's minimum with the new column; the minimum is exact, so the
  order it is taken in changes no bit. Each set's value is the same float
  expression, the 1-D dot of the source-block probabilities with the
  columnwise minimum (``np.vecdot`` over C-contiguous rows runs the loop
  ``probs @ v`` does). Ties are broken lexicographically within and
  across blocks, so the reported set is the lexicographically first
  minimiser. A search whose levels would exceed ``_SEARCH_FLOATS`` floats
  is split on its smallest column, in increasing order, which keeps
  memory bounded.
- The grid drops, row by row, every candidate whose own TV cost already
  exceeds ``delta + TV_SLACK``. A float sum of nonnegative terms is at
  least each term, so no cell holding one could pass the feasibility test.
  The surviving candidates of each row are cut into runs, which makes
  tiles of about ``_TILE_CELLS`` cells (32 x 32 for two support rows), and
  every tile gets a lower bound on its cells' computed values. Float
  addition is monotone, so each cell's computed output mix lies in the
  tile's computed [lo, hi] per output; t ln t is convex, so on that
  interval it lies below its chord (the secant bound of spatial
  branch-and-bound, McCormick 1976). The chord is linear in the mix, a
  sum over rows, so the bound is the sum over rows of each row's least
  input term less its chord terms, less ``_BOUND_SLACK`` for rounding.
  Within the range the chord never exceeds the larger end value, so
  this bound is never looser than one that charges each output at that
  end. A tile whose summed least TV cost is over the radius holds no
  feasible cell. Tiles are evaluated in increasing bound order, each cell
  with the float expression of a cell-by-cell loop, until the next bound
  exceeds the best value. Every cell left out is then strictly above the
  best value, so the lexicographic minimum of (value, row-major index)
  over the evaluated cells is the optimum and first optimizer of the full
  lattice, bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from coordlab.prob_core import CondPmf, JointPmf, Pmf, TV_SLACK, compose, total_variation, xlogx
from coordlab.coordination_code import (
    TableCode,
    _all_blocks,
    _compositions,
    _enumerate_inputs,
    _power_exceeds,
    _tv_rows,
    _type_counts,
    build_codebook_code,
    expected_tv_exact,
    expected_type_of_code,
    message_count,
)
from coordlab.region_solver import SolverConfig, solve_two_node

LN2 = math.log(2.0)
_FREE_PARAM_GUARD = 3
_GRID_CELL_CAP = 20_000_000   # combos or candidate rows beyond this refuse to run
_TILE_CELLS = 1024        # grid cells per tile
_BOUND_SLACK = 1e-9       # covers rounding in a tile bound; values are O(1) bits
_SEARCH_FLOATS = 1 << 17  # floats in one level or one block of the code search
_BOUND_FLOATS = 1 << 17   # floats in one slice of a grid's tile bounds
_TABLE_SLICE = 1 << 16    # block symbols per slice of the code search's TV table
# TV-table entries (8 bytes each) one code search may hold: |X|^n |Y|^n |Z|^n.
# The binary identity at n = 11 with one message needs 2^22.
MAX_CODE_TABLE = 1 << 22
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


def _grid_cap_message(cells) -> str:
    return (
        f"grid of {cells} cells exceeds _GRID_CELL_CAP {_GRID_CELL_CAP}; "
        "coarsen grid_step"
    )


def _composition_rows(m: int, step: float, target_row: np.ndarray) -> np.ndarray:
    total = int(round(1.0 / step))
    count = math.comb(total + m - 1, m - 1)
    if count > _GRID_CELL_CAP:
        raise ValueError(_grid_cap_message(count))
    rows = np.empty((count + 1, m))
    np.divide(_compositions(total, m), total, out=rows[:count])
    rows[count] = target_row
    return rows


def grid_min_mi(
    p0: Pmf, target: CondPmf, delta: float, grid_step: float
) -> OracleReport:
    """Dense-grid minimum of I(X; Yhat) over the closed TV neighborhood.

    Each support row ranges over a step lattice that contains the target
    row exactly; rows of zero source mass are pinned to the target. The
    reported discretization bound is a conservative entropy-continuity
    bound, usually far looser than the observed error.

    The search drops candidates whose own TV cost is over the radius, then
    evaluates only the tiles of the remaining lattice whose lower bound can
    still beat the best cell; the module docstring says why the result is
    that of the full lattice, bit for bit. ``details`` counts the lattice
    cells, the cells left after row pruning, the tiles skipped and the
    cells evaluated.
    """
    if not 0.0 < grid_step <= 1.0:  # NaN fails here too
        raise ValueError(f"grid_step must be in (0, 1], got {grid_step}")
    if 1.0 / grid_step == math.inf:
        raise ValueError(f"grid_step {grid_step} is too fine: 1 / grid_step overflows")
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta {delta} outside [0, 1]")
    rows = target.rows
    if rows.ndim != 2:
        raise ValueError("grid oracle handles a single output axis")
    k, m = rows.shape
    support = np.nonzero(p0.mass > 0.0)[0]
    r = support.shape[0]
    if r * (m - 1) > _FREE_PARAM_GUARD:
        raise ValueError(
            f"{r}x({m}-1) free parameters exceed _FREE_PARAM_GUARD {_FREE_PARAM_GUARD}"
        )
    if m == 2:
        # every binary row holds the uniform lattice's 1 / step + 1 values
        floor_cells = (int(round(1.0 / grid_step)) + 1) ** r
        if floor_cells > _GRID_CELL_CAP:
            raise ValueError(_grid_cap_message(f"at least {floor_cells}"))
    start = time.perf_counter()
    w = p0.mass[support]
    cand = []
    for x in range(r):
        p_row = rows[support[x]]
        if m == 2:
            vals = _binary_candidates(float(p_row[0]), grid_step)
            cand.append(np.stack([vals, 1.0 - vals], axis=1))
        else:
            cand.append(_composition_rows(m, grid_step, p_row))
    total = math.prod(c.shape[0] for c in cand)
    if total > _GRID_CELL_CAP:
        raise ValueError(_grid_cap_message(total))

    threshold = delta + TV_SLACK
    tv_cost = [
        0.5 * w[x] * np.abs(cand[x] - rows[support[x]][None, :]).sum(axis=1)
        for x in range(r)
    ]
    # a candidate whose own TV cost is over the radius fails in every cell
    keep = [np.flatnonzero(c <= threshold) for c in tv_cost]
    cand = [c[kept] for c, kept in zip(cand, keep)]
    tv_cost = [c[kept] for c, kept in zip(tv_cost, keep)]
    sizes = [c.shape[0] for c in cand]
    plogp = [w[x] * (xlogx(cand[x]).sum(axis=1) / LN2) for x in range(r)]
    # one column per candidate: TV cost, weighted sum of p log p, weighted row
    cols = [
        np.vstack([tv_cost[x], plogp[x], (w[x] * cand[x]).T]) for x in range(r)
    ]
    # tiles of about _TILE_CELLS cells: 32 x 32 for two support rows
    side = round(_TILE_CELLS ** (1.0 / r))
    bound = _tile_bounds(cols, side, threshold)
    best_val, best_lin, tiles, cells = _tile_search(cols, side, threshold, bound)

    full = rows.copy()
    pick = np.unravel_index(best_lin, sizes)
    for x in range(r):
        full[support[x]] = cand[x][pick[x]]
    # entropy-continuity bound for the grid granularity
    t_round = min(0.25 * grid_step * m, 0.5)
    disc = 2.0 * (t_round * math.log2(max(k * m - 1, 2)) + _h2(t_round))
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
        details={
            "discretization_bound": disc,
            "lattice_cells": total,
            "cells_after_row_pruning": math.prod(sizes),
            "tiles_skipped": bound.size - tiles,
            "cells_evaluated": cells,
        },
    )


def _along(a: np.ndarray, x: int, r: int) -> np.ndarray:
    """(k, n, ...) arrays reshaped so that n lies on lattice axis x of r."""
    pad = (1,) * x, (1,) * (r - 1 - x)
    return a.reshape(a.shape[:1] + pad[0] + a.shape[1:2] + pad[1] + a.shape[2:])


def _runs(c: np.ndarray, side: int, first: int, last: int) -> np.ndarray:
    """Runs ``first`` to ``last`` of a row's (plogp, weighted row) columns,
    as (1 + m, last - first, side); pad candidates have plogp +inf."""
    block = c[1:, first * side : last * side]
    size = (last - first) * side
    if block.shape[1] < size:
        pad = np.zeros((block.shape[0], size))
        pad[:, : block.shape[1]] = block
        pad[0, block.shape[1] :] = np.inf
        block = pad
    return block.reshape(block.shape[0], last - first, side)


def _tile_bounds(cols, side: int, threshold: float) -> np.ndarray:
    """Lower bound on the computed cell value over each tile of the grid.

    ``cols[x]`` holds support row x's candidates as columns (see
    ``grid_min_mi``). Axis x of the result indexes the runs of ``side`` of
    them. A tile where no cell can pass the TV test gets ``inf``.

    Every cell's computed output mix lies in the tile's computed [lo, hi]
    per output, and t ln t is convex, so there it lies below its chord
    f(lo) + s (t - lo), s = (f(hi) - f(lo)) / (hi - lo) (0 at zero width).
    The mix is a sum over rows, so the least of the cell value's chord
    bound splits into each row's least over its run of plogp - s . w c.
    The row terms are taken in slices of the tile grid's first axis of at
    most ``_BOUND_FLOATS`` floats.
    """
    r = len(cols)
    for x, c in enumerate(cols):
        starts = np.arange(0, c.shape[1], side)
        c_lo = _along(np.minimum.reduceat(c, starts, axis=1), x, r)
        c_hi = _along(np.maximum.reduceat(c, starts, axis=1), x, r)
        # float addition is monotone, so every cell's sums lie in [lo, hi]
        lo, hi = (c_lo, c_hi) if x == 0 else (lo + c_lo, hi + c_hi)
    f_lo, f_hi = xlogx(lo[2:]), xlogx(hi[2:])
    width = hi[2:] - lo[2:]
    slope = np.divide(f_hi - f_lo, width, out=np.zeros_like(width), where=width > 0)
    bound = -(f_lo - slope * lo[2:]).sum(axis=0) / LN2 - _BOUND_SLACK
    slope /= LN2
    step = max(1, _BOUND_FLOATS // (bound[0].size * side * slope.shape[0]))
    for first in range(0, bound.shape[0], step):
        last = min(first + step, bound.shape[0])
        s = slope[:, first:last, ..., None]
        for x, c in enumerate(cols):
            span = (first, last) if x == 0 else (0, bound.shape[x])
            run = _along(_runs(c, side, *span), x, r)
            bound[first:last] += (run[0] - (s * run[1:]).sum(axis=0)).min(axis=-1)
    bound[lo[0] > threshold] = np.inf
    return bound


def _tile_search(cols, side: int, threshold: float, bound: np.ndarray):
    """Lexicographic minimum of (value, row-major index) over feasible cells.

    Tiles are visited in increasing bound order until the next bound is
    over the best value. Returns the value, the row-major index into the
    candidate axes, and the numbers of tiles and cells evaluated.
    """
    r = len(cols)
    sizes = tuple(c.shape[1] for c in cols)
    flat = bound.ravel()
    order = np.argsort(flat, kind="stable")[: np.count_nonzero(flat < np.inf)]
    corners = np.unravel_index(order, bound.shape)
    best_val, best_lin = np.inf, -1
    tiles = cells = 0
    for i, t in enumerate(order):
        if flat[t] > best_val:
            break
        first = [int(c[i]) * side for c in corners]
        for x, f in enumerate(first):
            block = _along(cols[x][:, f : f + side], x, r)
            acc = block if x == 0 else acc + block
        # left-to-right sums over rows, then over outputs: the float
        # expressions of one cell at a time (``sum(axis=1)`` over at most
        # four outputs runs left to right; TestPrunedGridMatchesLoop holds
        # the per-cell reference)
        vals = acc[1] - functools.reduce(np.add, xlogx(acc[2:])) / LN2
        vals[acc[0] > threshold] = np.inf
        # a finite bound means the cell of least TV per row is feasible
        j = int(vals.argmin())
        tiles += 1
        cells += vals.size
        if vals.flat[j] <= best_val:
            local = np.unravel_index(j, vals.shape)
            lin = int(np.ravel_multi_index(np.add(first, local), sizes))
            if vals.flat[j] < best_val or lin < best_lin:
                best_val, best_lin = float(vals.flat[j]), lin
    return best_val, best_lin, tiles, cells


def _code_tv_table(x_blocks, y_blocks, z_blocks, sizes, target_flat) -> np.ndarray:
    """TV to the target of every (y, z, x) block triple's joint type, as
    an (|Y|^n, |Z|^n, |X|^n) array: each codeword pair's row over the source
    blocks, the layout the code search reads.

    Built in slices of at most ``_TABLE_SLICE`` block symbols of the flat
    (y, z, x) index; each position's joint symbol is (x·|Y| + y)·|Z| + z.
    """
    n = x_blocks.shape[1]
    nx, uy, uz = x_blocks.shape[0], y_blocks.shape[0], z_blocks.shape[0]
    table = np.empty(uy * uz * nx)
    step = max(1, _TABLE_SLICE // n)
    for lo in range(0, table.size, step):
        yz, i = np.divmod(np.arange(lo, min(lo + step, table.size)), nx)
        y, z = np.divmod(yz, uz)
        jc = (x_blocks[i] * sizes[1] + y_blocks[y]) * sizes[2] + z_blocks[z]
        counts = _type_counts(jc, target_flat.size)
        table[lo : lo + i.size] = _tv_rows(counts, n, target_flat)
    return table.reshape(uy, uz, nx)


def _best_codeword_set(
    d: np.ndarray, probs: np.ndarray, k: int
) -> tuple[float, Optional[tuple]]:
    """Lexicographically first k-column set minimizing probs @ min(d[:, set]).

    Sets are visited in colex order (by largest column first), so the
    min-vector of each set is one ``np.minimum`` of its prefix's min-vector
    with the new column. Level j holds the min-vectors of the j-column
    prefixes that can still be completed, grouped by largest column, so the
    prefixes below a column are a leading slice of their level. The largest
    column is broadcast against the prefixes of the second largest in
    blocks of at most ``_SEARCH_FLOATS`` floats, and every row is scored
    with ``np.vecdot``, the same 1-D dot loop as ``probs @ v``
    (``np.minimum`` is exact), so each value has the bits of the per-set
    expression. Colex order is not lexicographic, so among the sets equal
    to a block's minimum the lexicographically smallest is taken (by each
    prefix's lexicographic rank, then the largest column) and compared,
    with its value, across blocks. A search whose largest level would
    exceed ``_SEARCH_FLOATS`` floats is split on its smallest column f, in
    increasing f: the sets holding f as smallest column are the sets of
    the columns above f, each min-ed with column f. A strict ``<`` across
    the splits keeps the first minimiser.
    """
    cols = np.ascontiguousarray(d.T)
    if k == 1:
        vals = np.vecdot(cols, probs)
        i = int(vals.argmin())
        return float(vals[i]), (i,)
    return _colex_search(cols, probs, k, np.full(cols.shape[1], np.inf), ())


def _colex_search(cols, probs, k, seed, head):
    """``_best_codeword_set`` for k >= 2 over the rows of ``cols``.

    Every min-vector is also min-ed with ``seed``. The set comes back with
    ``head`` before it and numbered from ``head[-1] + 1`` (or 0), the
    position of ``cols[0]`` in the caller's columns.
    """
    u, nx = cols.shape
    depth = k - 2                       # levels 1..depth hold prefix minima
    cap = max(1, _SEARCH_FLOATS // nx)  # rows in one level or one block
    base = head[-1] + 1 if head else 0
    if math.comb(u - 2, depth) > cap:  # the largest level
        best = (np.inf, None)
        for f in range(u - k + 1):
            sub_seed = np.minimum(seed, cols[f])
            found = _colex_search(
                cols[f + 1 :], probs, k - 1, sub_seed, head + (base + f,)
            )
            if found[0] < best[0]:
                best = found
        return best
    # level j, group e: the j-prefixes with largest column e, rows C(e, j)
    # on; e stops at u - k + j - 1 so that k - j columns still fit above it
    prefixes, sets = seed[None, :], np.empty((1, 0), dtype=np.intp)
    for j in range(1, depth + 1):
        rows = math.comb(u - k + j, j)
        level, level_sets = np.empty((rows, nx)), np.empty((rows, j), dtype=np.intp)
        for e in range(j - 1, u - k + j):
            lo, hi = math.comb(e, j), math.comb(e + 1, j)
            np.minimum(prefixes[: hi - lo], cols[e], out=level[lo:hi])
            level_sets[lo:hi, :-1] = sets[: hi - lo]
            level_sets[lo:hi, -1] = e
        prefixes, sets = level, level_sets
    # every prefix's rank in lexicographic order
    rank = np.empty(len(sets), dtype=np.intp)
    rank[np.lexsort(sets.T[::-1]) if depth else [0]] = np.arange(len(sets))
    group = np.empty_like(prefixes)
    block = np.empty(min(cap, len(prefixes) * (u - k + 1)) * nx)
    best_val, best_set = np.inf, None
    for e2 in range(depth, u - 1):      # the second largest column
        count = math.comb(e2, depth)
        lead = np.minimum(prefixes[:count], cols[e2], out=group[:count])
        width = min(u - 1 - e2, cap)
        for p0 in range(0, count, cap // width):
            g = lead[p0 : p0 + cap // width, None, :]
            for c0 in range(e2 + 1, u, width):
                tail = cols[c0 : c0 + width]
                low = block[: len(g) * len(tail) * nx].reshape(len(g), -1, nx)
                vals = np.vecdot(np.minimum(g, tail, out=low), probs)
                v = vals.min()
                if v > best_val:
                    continue
                # all sets here share e2, so the tied prefix of least rank,
                # then the least last column, is the lexicographic first
                hit = vals == v
                tied = np.flatnonzero(hit.any(axis=1))
                p = tied[rank[p0 + tied].argmin()]
                cand = (*sets[p0 + p].tolist(), e2, c0 + int(hit[p].argmax()))
                if v < best_val or cand < best_set:
                    best_val, best_set = float(v), cand
    return best_val, head + tuple(base + c for c in best_set)


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
    The search is the cascade's: for each z-codeword set, the best set of
    (y-codeword, z-message) pairs. A two-node target is the cascade with one
    z symbol and one z message, and gets its code back as a two-node table.
    A search space over ``guard``, more than ENUM_GUARD source blocks or a
    TV table over ``MAX_CODE_TABLE`` entries is refused by ValueError
    before any codeword block is built.
    """
    start = time.perf_counter()
    cascade = target.mass.ndim == 3
    if cascade != (rate2 is not None):
        raise ValueError("rate2 required iff the target has three axes")
    sizes = target.mass.shape if cascade else target.mass.shape + (1,)
    x_size = sizes[0]
    if p0.alphabet_size != x_size:
        raise ValueError("source and target sizes do not match")
    m1 = message_count(n, rate1)
    m2 = message_count(n, rate2) if cascade else 1
    for a, m in ((sizes[1], m1), (sizes[2], m2)):
        # past guard * m >= max(guard, m) words, the C(|A|^n, m) sets alone
        # are over the guard: refused before the power is built
        if a > 1 and _power_exceeds(a, n, guard * m):
            raise ValueError(f"search space over {a}^{n} exceeds guard {guard}")
    uy, uz = sizes[1] ** n, sizes[2] ** n
    e2 = min(m2, uz)
    e1 = min(m1, uy * e2)
    space = math.comb(uz, e2) * math.comb(uy * e2, e1)
    if space > guard:
        raise ValueError(
            f"search space {space} exceeds guard {guard} (the guard argument, "
            f"default DEFAULT_CODE_GUARD {DEFAULT_CODE_GUARD})"
        )
    x_blocks = _enumerate_inputs(x_size, n)
    nx = x_blocks.shape[0]
    if nx * uy * uz > MAX_CODE_TABLE:
        raise ValueError(
            f"TV table of {nx}*{uy}*{uz} entries exceeds MAX_CODE_TABLE {MAX_CODE_TABLE}"
        )
    probs = p0.mass[x_blocks].prod(axis=1)
    y_blocks = _all_blocks(sizes[1], n)
    z_blocks = _all_blocks(sizes[2], n)
    # tv[y, z, i]: TV of the triple type to the target; a z-codeword set's
    # columns are the (y, z) rows, y-major
    tv = _code_tv_table(x_blocks, y_blocks, z_blocks, sizes, target.mass.ravel())
    best = (np.inf, None, None, None)
    for z_combo in itertools.combinations(range(uz), e2):
        cols = tv[:, list(z_combo)].reshape(-1, nx)
        val, p_combo = _best_codeword_set(cols.T, probs, e1)
        if val < best[0]:
            best = (val, z_combo, p_combo, cols)
    val, z_combo, p_combo, cols = best
    pairs = [(y, zi) for y in range(uy) for zi in range(e2)]
    chosen = [pairs[i] for i in p_combo]
    enc = np.argmin(cols[list(p_combo)], axis=0)
    dec_y = y_blocks[[y for y, _ in chosen]]
    rec = np.array([zi for _, zi in chosen], dtype=np.int64)
    dec_z = z_blocks[list(z_combo)]
    # pad unused messages so the tables honor the nominal rates
    if m1 > e1:
        dec_y = np.vstack([dec_y, np.repeat(dec_y[-1][None, :], m1 - e1, axis=0)])
        rec = np.concatenate([rec, np.repeat(rec[-1], m1 - e1)])
    if m2 > e2:
        dec_z = np.vstack([dec_z, np.repeat(dec_z[-1][None, :], m2 - e2, axis=0)])
    tables = dict(encoder=enc, decoder_mid=dec_y)
    instance = {
        "p0": p0.mass.tolist(),
        "target": target.mass.tolist(),
        "n": n,
        "rate1": rate1,
    }
    if cascade:
        tables.update(rate2=rate2, z_size=sizes[2], recoder=rec, decoder_end=dec_z)
        instance["rate2"] = rate2
    code = TableCode(n=n, x_size=x_size, y_size=sizes[1], rate1=rate1, **tables)
    return OracleReport(
        instance=instance,
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
    Converse, exact at every n: M messages give log2 M >= H(M) >= I(X^n;
    Y^n) >= n I(X_Q; Y_Q), with (X_Q, Y_Q) the code's expected joint type,
    whose TV to the target, tv_E, is at most the expected TV (Jensen,
    criterion 07). So rate >= R(tv_E) >= R1(tv_E) - gap; the lowest-rate
    code meeting each radius is flagged when that deficit is over 1e-12.
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
        # m1 = 1 alone costs |Y|^n codes
        if _power_exceeds(y_size, n, budget - evaluated):
            partial = True
            break
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
            per_m1.append((rate, rep.optimum, rep.optimizer))
        if partial and not per_m1:
            break
        for delta in delta_grid:
            pt = frontier(delta)
            sim_code = build_codebook_code(
                p0, pt.argmin_conditional, n, rate1=pt.R1, seed=seed
            )
            # per_m1 runs in increasing rate
            achieving = [e for e in per_m1 if e[1] <= delta + TV_SLACK]
            ex_rate = ex_tv = tv_e = gap = deficit = None
            if achieving:
                ex_rate, ex_tv, code = achieving[0]
                tv_e = total_variation(expected_type_of_code(code, p0), joint_target)
                pt_e = frontier(tv_e)
                gap = float(pt_e.certificate)
                deficit = float(pt_e.R1) - gap - ex_rate
            rows_out.append(
                {
                    "n": int(n),
                    "delta": float(delta),
                    "simulated_mean_tv": expected_tv_exact(sim_code, p0, joint_target),
                    "exhaustive_rate": ex_rate,
                    "frontier_rate": float(pt.R1),
                    "achieved_tv": ex_tv,
                    "expected_type_tv": tv_e,
                    "converse_gap": gap,
                    "deficit": deficit,
                    "flagged": deficit is not None and deficit > 1e-12,
                    "partial_blocklength": partial,
                }
            )
        if partial:
            break

    flags = [row for row in rows_out if row["flagged"]]
    return {
        "rows": rows_out,
        "flag_count": len(flags),
        "flags": flags,
        "partial": partial,
        "evaluated_codes": evaluated,
        "budget": int(budget),
    }
