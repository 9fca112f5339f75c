import dataclasses
import itertools
import json
import math
import os
import time
import tracemalloc

import numpy as np
import pytest

from coordlab import instances as ins
from coordlab import oracle as orc
from coordlab import prob_core as pc
from coordlab import region_solver as rs
from coordlab.cli import load_problem_spec
from coordlab.coordination_code import (
    _all_blocks,
    _enumerate_inputs,
    _tv_rows,
    _type_counts,
    block_repeat,
    expected_tv_exact,
    expected_tv_monte_carlo,
    message_count,
)


SPEC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "specs")


class TestGridMinMi:
    def test_zero_radius_recovers_target(self, uniform_binary, identity_channel):
        rep = orc.grid_min_mi(uniform_binary, identity_channel, 0.0, 1e-3)
        assert abs(rep.optimum - 1.0) <= 1e-9
        assert np.allclose(rep.optimizer.rows, np.eye(2))

    def test_full_radius_reaches_zero(self, uniform_binary, identity_channel):
        rep = orc.grid_min_mi(uniform_binary, identity_channel, 1.0, 1e-2)
        assert rep.optimum <= 1e-12

    def test_matches_solver_at_tenth(self, uniform_binary, identity_channel):
        rep = orc.grid_min_mi(uniform_binary, identity_channel, 0.1, 1e-3)
        pt = rs.solve_two_node(uniform_binary, identity_channel, 0.1)
        assert abs(rep.optimum - pt.R1) <= 1e-3

    def test_solver_never_above_grid(self, uniform_binary):
        # the grid point set is a subset of the feasible set, so the true
        # minimum (solver side) can only be lower
        rng = np.random.default_rng(5)
        rows = rng.dirichlet((1.0, 1.0), size=2)
        tgt = pc.CondPmf(rows)
        for d in (0.05, 0.2):
            rep = orc.grid_min_mi(uniform_binary, tgt, d, 1e-3)
            pt = rs.solve_two_node(uniform_binary, tgt, d)
            assert pt.R1 <= rep.optimum + 1e-9

    def test_rejects_wide_instances(self):
        p0 = pc.Pmf(np.full(3, 1 / 3))
        tgt = pc.CondPmf(np.full((3, 3), 1 / 3))
        with pytest.raises(
            ValueError, match=r"3x\(3-1\) free parameters exceed _FREE_PARAM_GUARD 3$"
        ):
            orc.grid_min_mi(p0, tgt, 0.1, 1e-2)
        # one composition lattice over the cap (1e4 steps, three outputs)
        ternary = pc.CondPmf(np.full((2, 3), 1 / 3))
        with pytest.raises(
            ValueError,
            match=r"^grid of 50015001 cells exceeds _GRID_CELL_CAP 20000000; "
            "coarsen grid_step$",
        ):
            orc.grid_min_mi(pc.Pmf([1.0, 0.0]), ternary, 0.1, 1e-4)
        # two binary rows whose uniform lattices alone are over the cap,
        # refused before any candidate is built
        with pytest.raises(
            ValueError,
            match=r"^grid of at least 100020001 cells exceeds _GRID_CELL_CAP "
            "20000000; coarsen grid_step$",
        ):
            orc.grid_min_mi(
                pc.Pmf([0.5, 0.5]), pc.CondPmf([[0.3, 0.7], [0.6, 0.4]]), 0.1, 1e-4
            )

    @pytest.mark.parametrize(
        "step, message",
        [
            (math.nan, r"^grid_step must be in \(0, 1\], got nan$"),
            (math.inf, r"^grid_step must be in \(0, 1\], got inf$"),
            (2.0, r"^grid_step must be in \(0, 1\], got 2.0$"),
            (5e-324, r"^grid_step 5e-324 is too fine: 1 / grid_step overflows$"),
            (
                1e-12,
                r"^grid of at least 1000000000002000000000001 cells exceeds "
                r"_GRID_CELL_CAP 20000000; coarsen grid_step$",
            ),
        ],
    )
    def test_rejects_bad_step(self, uniform_binary, identity_channel, step, message):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                orc.grid_min_mi(uniform_binary, identity_channel, 0.1, step)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # refused before any lattice is allocated

    def test_reports_positive_bound(self, uniform_binary, identity_channel):
        rep = orc.grid_min_mi(uniform_binary, identity_channel, 0.1, 1e-2)
        assert rep.details["discretization_bound"] > 0.0
        assert rep.search_space_size > 0


class TestExhaustiveBestCode:
    def test_single_sample_identity_full_rate(self, uniform_binary, identity_joint):
        # with one sample the pair type is a point mass, TV 1/2 from the
        # diagonal target no matter which codeword is chosen
        rep = orc.exhaustive_best_code(uniform_binary, identity_joint, 1, 1.0)
        assert rep.optimum == pytest.approx(0.5)

    def test_single_sample_identity_zero_rate(self, uniform_binary, identity_joint):
        rep = orc.exhaustive_best_code(uniform_binary, identity_joint, 1, 0.0)
        assert rep.optimum == pytest.approx(0.75)
        assert rep.search_space_size == 2

    def test_optimum_non_increasing_in_rate(self, uniform_binary, identity_joint):
        vals = [
            orc.exhaustive_best_code(uniform_binary, identity_joint, 2, r).optimum
            for r in (0.0, 0.5, 1.0)
        ]
        assert vals == sorted(vals, reverse=True)

    def test_optimizer_value_matches(self, uniform_binary, identity_joint):
        rep = orc.exhaustive_best_code(uniform_binary, identity_joint, 3, 2 / 3)
        assert expected_tv_exact(
            rep.optimizer, uniform_binary, identity_joint
        ) == pytest.approx(rep.optimum, abs=1e-12)

    def test_guard_refuses_large_space(self, uniform_binary, identity_joint):
        message = (
            r"^search space {} exceeds guard 10 \(the guard argument, "
            r"default DEFAULT_CODE_GUARD 10000000\)$"
        )
        with pytest.raises(ValueError, match=message.format(math.comb(64, 8))):
            orc.exhaustive_best_code(uniform_binary, identity_joint, 6, 0.5, guard=10)
        mass = np.zeros((2, 2, 2))
        mass[0, 0, 0] = mass[1, 1, 1] = 0.5
        # C(4, 2) z-codeword sets, each with C(4 * 2, 4) (y, z) pair sets
        with pytest.raises(ValueError, match=message.format(6 * 70)):
            orc.exhaustive_best_code(
                uniform_binary, pc.JointPmf(mass), 2, 1.0, rate2=0.5, guard=10
            )
        rep = orc.exhaustive_best_code(
            uniform_binary, pc.JointPmf(mass), 2, 1.0, rate2=0.5, guard=420
        )
        assert rep.search_space_size == 420

    @pytest.mark.parametrize(
        "n, rates, plain",
        [
            (2, (1.5,), (1.0,)),  # 8 messages, 4 y-codewords
            (1, (1.0, 2.0), (1.0, 1.0)),  # 4 z-messages, 2 z-codewords
            (1, (3.0, 1.0), (2.0, 1.0)),  # 8 messages, 4 (y, z) pairs
        ],
        ids=["two-node", "cascade-rate2", "cascade-rate1"],
    )
    def test_message_padding(self, identity_joint, n, rates, plain):
        # more messages than codewords: the search runs on the codewords,
        # and the tables repeat their last entry up to the nominal rates
        two_node = len(rates) == 1
        p0, target = (pc.Pmf([0.5, 0.5]), identity_joint) if two_node else random_cascade()
        rep = orc.exhaustive_best_code(p0, target, n, *rates)
        ref = orc.exhaustive_best_code(p0, target, n, *plain)
        code, base = rep.optimizer, ref.optimizer
        assert rep.optimum.hex() == ref.optimum.hex()
        assert expected_tv_exact(code, p0, target) == pytest.approx(rep.optimum, abs=1e-12)
        assert code.encoder.tolist() == base.encoder.tolist()
        assert code.rate1 == rates[0] and code.decoder_mid.shape == (message_count(n, rates[0]), n)
        fields = ["decoder_mid"]
        if code.is_cascade:
            assert code.rate2 == rates[1]
            assert code.decoder_end.shape == (message_count(n, rates[1]), n)
            fields += ["recoder", "decoder_end"]
        for name in fields:
            got, want = getattr(code, name), getattr(base, name)
            assert got[: len(want)].tolist() == want.tolist()
            assert (got[len(want) :] == want[-1]).all()
        assert any(len(getattr(code, f)) > len(getattr(base, f)) for f in fields)

    def test_rate2_only_for_cascade(self, uniform_binary, identity_joint):
        with pytest.raises(ValueError, match="rate2"):
            orc.exhaustive_best_code(uniform_binary, identity_joint, 1, 1.0, rate2=0.5)

    def test_cascade_tiny(self, uniform_binary):
        mass = np.zeros((2, 2, 2))
        mass[0, 0, 0] = mass[1, 1, 1] = 0.5
        tgt = pc.JointPmf(mass)
        rep = orc.exhaustive_best_code(uniform_binary, tgt, 1, 1.0, rate2=1.0)
        assert rep.optimum == pytest.approx(0.5)
        assert rep.optimizer.rate2 == 1.0


class TestCodeTable:
    """The code search's TV table: built in slices, bounded before it is built."""

    @pytest.mark.parametrize("slice_symbols", [1, 7, 1 << 16])
    def test_slices_keep_the_bits(self, monkeypatch, slice_symbols):
        monkeypatch.setattr(orc, "_TABLE_SLICE", slice_symbols)
        mass = np.random.default_rng(3).dirichlet(np.ones(12))
        n = 3
        x, y, z = _all_blocks(3, n), _all_blocks(2, n), _all_blocks(2, n)
        tv = orc._code_tv_table(x, y, z, (3, 2, 2), mass)
        # every (y, z, x) triple's joint codes at once
        jc = (x[None, None, :, :] * 2 + y[:, None, None, :]) * 2 + z[None, :, None, :]
        want = _tv_rows(_type_counts(jc.reshape(-1, n), 12), n, mass)
        assert tv.shape == (8, 8, 27) and tv.tobytes() == want.tobytes()

    def test_table_memory_is_bounded(self, uniform_binary, identity_joint, traced):
        # one message at n = 10: a table of 2^20 entries (8 MiB), whose
        # joint codes, built whole, once peaked at 200 MiB
        rep, peak = traced(
            lambda: orc.exhaustive_best_code(uniform_binary, identity_joint, 10, 0.0)
        )
        assert rep.search_space_size == 1024
        assert peak <= 3 * 8 * 4**10

    def test_table_past_its_bound_refused(self, uniform_binary, identity_joint, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("table built past its bound")

        monkeypatch.setattr(orc, "_code_tv_table", boom)
        monkeypatch.setattr(orc, "_all_blocks", boom)
        monkeypatch.setattr(orc, "MAX_CODE_TABLE", 4**3 - 1)
        message = r"^TV table of 8\*8\*1 entries exceeds MAX_CODE_TABLE 63$"
        with pytest.raises(ValueError, match=message):
            orc.exhaustive_best_code(uniform_binary, identity_joint, 3, 0.0)


class TestBlockRepeatOfOptimizer:
    def test_repeated_code_holds_its_tv(self, uniform_binary, identity_joint):
        rep = orc.exhaustive_best_code(uniform_binary, identity_joint, 2, 0.5)
        base_tv = rep.optimum
        rep4 = block_repeat(rep.optimizer, 4)
        sim = expected_tv_monte_carlo(
            rep4, uniform_binary, identity_joint, 4000, seed=17
        )
        assert sim.mean_tv <= base_tv + 3 * sim.standard_error


class TestConsistencyScan:
    def test_identity_scan_is_clean(self, uniform_binary, identity_channel):
        out = orc.theorem_consistency_scan(
            uniform_binary,
            identity_channel,
            n_grid=(1, 2),
            delta_grid=(0.0, 0.25, 1.0),
        )
        for key in (
            "rows",
            "flag_count",
            "flags",
            "partial",
            "evaluated_codes",
            "budget",
        ):
            assert key in out
        assert out["flag_count"] == 0
        assert not out["partial"]
        assert len(out["rows"]) == 6
        assert "slack_coefficient" not in out
        for row in out["rows"]:
            assert "slack" not in row
            assert {"expected_type_tv", "converse_gap"} <= set(row)

    def test_saturated_radius_row(self, uniform_binary, identity_channel):
        out = orc.theorem_consistency_scan(
            uniform_binary, identity_channel, n_grid=(1,), delta_grid=(1.0,)
        )
        row = out["rows"][0]
        assert row["frontier_rate"] <= 1e-9
        assert row["exhaustive_rate"] == 0.0
        assert row["deficit"] == 0.0

    def test_unreachable_radius_row(self, uniform_binary, identity_channel):
        # no single-sample code has pair type within TV 0 of the diagonal,
        # so the converse side of that row is vacuous
        out = orc.theorem_consistency_scan(
            uniform_binary, identity_channel, n_grid=(1,), delta_grid=(0.0,)
        )
        row = out["rows"][0]
        assert row["exhaustive_rate"] is None
        assert row["deficit"] is None
        assert not row["flagged"]
        assert abs(row["frontier_rate"] - 1.0) <= 1e-9

    def test_zero_budget_is_partial(self, uniform_binary, identity_channel):
        out = orc.theorem_consistency_scan(
            uniform_binary, identity_channel, n_grid=(1,), delta_grid=(0.5,), budget=0
        )
        assert out["partial"]
        assert out["rows"] == []
        assert out["evaluated_codes"] == 0

    def test_budget_runs_out_inside_a_blocklength(self, uniform_binary, identity_channel):
        # n = 1 and n = 2 cost 3 and 15 codes; at n = 3 the budget admits
        # m1 = 1 (8 codes) and m1 = 2 (28), not m1 = 3 (56)
        out = orc.theorem_consistency_scan(
            uniform_binary,
            identity_channel,
            n_grid=(1, 2, 3, 4),
            delta_grid=(0.25, 1.0),
            budget=64,
        )
        assert out["partial"]
        spent = sum(math.comb(2**n, m1) for n in (1, 2) for m1 in range(1, 2**n + 1))
        assert out["evaluated_codes"] == spent + math.comb(8, 1) + math.comb(8, 2) == 54
        assert [row["n"] for row in out["rows"]] == [1, 1, 2, 2, 3, 3]
        for row in out["rows"]:
            assert row["partial_blocklength"] == (row["n"] == 3)

    def test_scan_is_deterministic(self, uniform_binary, identity_channel):
        kw = dict(n_grid=(1, 2), delta_grid=(0.25, 0.5), seed=3)
        a = orc.theorem_consistency_scan(uniform_binary, identity_channel, **kw)
        b = orc.theorem_consistency_scan(uniform_binary, identity_channel, **kw)
        assert a == b

    def test_raised_frontier_is_flagged(self, monkeypatch):
        # a frontier 1e-6 bits too high breaks the exact converse on the
        # rows where a code meets it with equality
        spec = load_problem_spec(os.path.join(SPEC_DIR, "two_node_identity.json"))
        solve = orc.solve_two_node

        def raised(*args, **kwargs):
            pt = solve(*args, **kwargs)
            return dataclasses.replace(pt, R1=pt.R1 + 1e-6)

        monkeypatch.setattr(orc, "solve_two_node", raised)
        out = orc.theorem_consistency_scan(
            spec.source, spec.target, spec.n_grid, spec.delta_grid, budget=spec.oracle_budget
        )
        assert out["flag_count"] >= 1
        assert out["flags"] == [row for row in out["rows"] if row["flagged"]]
        for row in out["flags"]:
            # codes that meet the unraised bound exactly: R = 0 at rate 0, or
            # the n-bit identity code at R(0) = 1
            assert row["deficit"] == pytest.approx(1e-6, abs=1e-12)

    def test_deficit_is_the_exact_converse(self, uniform_binary, identity_channel):
        out = orc.theorem_consistency_scan(
            uniform_binary, identity_channel, n_grid=(1, 2, 3), delta_grid=(0.3, 0.5, 1.0)
        )
        assert out["flag_count"] == 0
        rows = [row for row in out["rows"] if row["exhaustive_rate"] is not None]
        assert len(rows) == 8
        for row in rows:
            pt = rs.solve_two_node(uniform_binary, identity_channel, row["expected_type_tv"])
            assert row["converse_gap"] == pt.certificate
            assert row["deficit"] == pt.R1 - pt.certificate - row["exhaustive_rate"]
            # Jensen: the expected type is no farther than the expected TV
            assert row["expected_type_tv"] <= row["achieved_tv"] + 1e-12


class TestHostileBlocklengths:
    """A blocklength past a bound is refused before the power is built."""

    def test_scan_is_partial_at_once(self, uniform_binary, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("search started past the budget")

        monkeypatch.setattr(orc, "exhaustive_best_code", boom)
        ternary = pc.CondPmf([[0.8, 0.1, 0.1], [0.1, 0.1, 0.8]])
        start = time.perf_counter()
        out = orc.theorem_consistency_scan(
            uniform_binary, ternary, n_grid=(10**9,), delta_grid=(0.5,), budget=1000
        )
        assert time.perf_counter() - start < 1.0
        assert out["partial"] and out["rows"] == [] and out["evaluated_codes"] == 0

    def test_direct_calls_raise_their_guard(self, uniform_binary, identity_joint):
        message = r"^search space over 2\^1000000000 exceeds guard 10000000$"
        with pytest.raises(ValueError, match=message):
            orc.exhaustive_best_code(uniform_binary, identity_joint, 10**9, 0.0)
        with pytest.raises(ValueError, match=r"^3\^1000000000 sequences exceed ENUM_GUARD 4096$"):
            _enumerate_inputs(3, 10**9)
        # one action symbol makes a one-word universe: the source blocks refuse
        single = pc.JointPmf([[0.5], [0.5]])
        with pytest.raises(ValueError, match=r"^2\^1000000000 sequences exceed ENUM_GUARD"):
            orc.exhaustive_best_code(uniform_binary, single, 10**9, 0.0)


# -- the scan searches only the rates that can change a row ---------------


def search_every_rate(p0, target, n_grid, budget):
    """Reference: the scan's budget walk with every admitted m1 searched.

    Returns the (n, [(rate, optimum, code), ...]) searched per blocklength,
    the codes charged and whether the budget ran out. Asserts that no
    optimum is below its search's floor, with no slack.
    """
    joint = pc.compose(p0, target)
    blocks, evaluated, partial = [], 0, False
    for n in n_grid:
        u = target.rows.shape[1] ** n
        if u > budget - evaluated:
            partial = True
            break
        per_m1 = []
        for m1 in range(1, u + 1):
            cost = math.comb(u, m1)
            if evaluated + cost > budget:
                partial = True
                break
            evaluated += cost
            rate = math.log2(m1) / n
            rep = orc.exhaustive_best_code(p0, joint, n, rate, guard=budget)
            assert rep.details["floor"] <= rep.optimum
            per_m1.append((rate, rep.optimum, rep.optimizer))
        blocks.append((n, per_m1))
        if partial:
            break
    return blocks, evaluated, partial


def reference_rows(blocks, delta_grid, partial):
    """(n, delta, rate, achieved TV, code, partial blocklength) per row:
    the lowest-rate code meeting each radius, as the scan reports it."""
    rows = []
    for i, (n, per_m1) in enumerate(blocks):
        inside = partial and i == len(blocks) - 1
        for d in delta_grid:
            hit = [e for e in per_m1 if e[1] <= d + pc.TV_SLACK]
            rows.append((n, d, *(hit[0] if hit else (None, None, None)), inside))
    return rows


def tie_radius(v):
    """The radius d with d + TV_SLACK == v exactly, or None."""
    d = v - pc.TV_SLACK
    while d + pc.TV_SLACK > v:
        d = np.nextafter(d, -np.inf)
    while d + pc.TV_SLACK < v:
        d = np.nextafter(d, np.inf)
    return float(d) if d + pc.TV_SLACK == v and d >= 0.0 else None


def random_scan_instance(seed):
    """A random 2-3 x 2-3 channel; odd seeds zero one entry of each row."""
    rng = np.random.default_rng(seed)
    kx, ky = (int(k) for k in rng.integers(2, 4, size=2))
    rows = rng.dirichlet(np.ones(ky), size=kx)
    if seed % 2:
        rows[np.arange(kx), rng.integers(0, ky, size=kx)] = 0.0
        rows /= rows.sum(axis=1, keepdims=True)
    return pc.Pmf(rng.dirichlet(np.ones(kx))), pc.CondPmf(rows)


# perfbench's oracle_scan units: the criterion 10 pairs, n up to 5
PERFBENCH_REFERENCE = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "reference.json")
PERFBENCH_SCAN = dict(n_grid=(1, 2, 3, 4, 5), delta_grid=(0.0, 0.1, 0.25, 0.5, 1.0), budget=500_000)


def perfbench_scan_pairs():
    targets = ins.battery_targets()
    pairs = [(pc.Pmf([0.5, 0.5]), pc.CondPmf.identity(2))]
    return pairs + [(pc.marginal_pmf(targets[j], 0), pc.conditional(targets[j])) for j in (1, 2)]


class TestScanSearchesOpenRates:
    """A settled m1 is never the lowest-rate code of a row: the scan gives
    the rows, ``evaluated_codes`` and ``partial`` of searching them all."""

    @staticmethod
    def spy(monkeypatch):
        searched = []
        search = orc.exhaustive_best_code

        def spy(*args, **kwargs):
            searched.append(args[2:4])
            return search(*args, **kwargs)

        monkeypatch.setattr(orc, "exhaustive_best_code", spy)
        return searched

    @pytest.mark.parametrize("budget", [200, 5000, 70_000])
    @pytest.mark.parametrize("seed", range(8))
    def test_same_rows_as_every_rate_searched(self, monkeypatch, seed, budget):
        p0, target = random_scan_instance(seed)
        n_grid = (1, 2, 3, 4) if target.rows.shape[1] == 2 else (1, 2, 3)
        blocks, evaluated, partial = search_every_rate(p0, target, n_grid, budget)
        # radii tied at d + TV_SLACK with each blocklength's m1 = 2 optimum
        # and with the last optimum searched (the floor where the last
        # blocklength completes), one radius equal to an optimum, and 0 and
        # half the least optimum, which no code meets
        optima = [e[1] for _, per_m1 in blocks for e in per_m1]
        second = [per_m1[min(1, len(per_m1) - 1)][1] for _, per_m1 in blocks]
        ties = [tie_radius(v) for v in second + [blocks[-1][1][-1][1]]]
        assert any(d is not None for d in ties)
        radii = {0.0, 0.5 * min(optima), second[-1], 1.0}
        radii = sorted(radii | {d for d in ties if d is not None})

        searched = self.spy(monkeypatch)
        out = orc.theorem_consistency_scan(p0, target, n_grid, radii, budget=budget)
        assert out["evaluated_codes"] == evaluated and out["partial"] == partial
        joint = pc.compose(p0, target)
        ref = reference_rows(blocks, radii, partial)
        assert len(out["rows"]) == len(ref)
        for row, (n, d, rate, tv, code, inside) in zip(out["rows"], ref):
            assert (row["n"], row["delta"], row["partial_blocklength"]) == (n, d, inside)
            assert (row["exhaustive_rate"], row["achieved_tv"]) == (rate, tv)
            if code is not None:
                tv_e = pc.total_variation(orc.expected_type_of_code(code, p0), joint)
                assert row["expected_type_tv"] == tv_e
        assert sum(row["exhaustive_rate"] is None for row in out["rows"]) >= len(blocks)
        assert len(searched) < sum(len(per_m1) for _, per_m1 in blocks)

    def test_perfbench_scans_search_few_rates(self, monkeypatch):
        searched = self.spy(monkeypatch)
        with open(PERFBENCH_REFERENCE) as f:
            recorded = json.load(f)["oracle_scan"]
        for i, (p0, target) in enumerate(perfbench_scan_pairs()):
            out = orc.theorem_consistency_scan(p0, target, **PERFBENCH_SCAN)
            ref = recorded[f"scan{i}"]
            assert out["evaluated_codes"] == ref["evaluated_codes"]
            assert out["partial"] == ref["partial"]
            rows = [[r[k] for k in ("n", "delta", "exhaustive_rate", "achieved_tv")] for r in out["rows"]]
            assert rows == ref["rows"]
        # 105 with every admitted m1 searched
        assert len(searched) <= 40


# -- batched searches against the per-combination and unpruned loops ------


def loop_best_set(d, probs, k):
    """Reference: score every k-column set one at a time, lexicographically."""
    best_val, best_set = np.inf, None
    for combo in itertools.combinations(range(d.shape[1]), k):
        val = float(probs @ d[:, combo].min(axis=1))
        if val < best_val:
            best_val, best_set = val, combo
    return best_val, best_set


def battery_pair():
    joint = ins.battery_targets()[1]
    return pc.marginal_pmf(joint, 0), joint


def ternary_action_pair():
    rng = np.random.default_rng(31)
    p0 = pc.Pmf(rng.dirichlet(np.ones(2)))
    return p0, pc.compose(p0, pc.CondPmf(rng.dirichlet(np.ones(3), size=2)))


TWO_NODE_PAIRS = [
    ("identity", 4, 16),   # uniform identity: heavy exact ties
    ("identity", 5, 4),
    ("battery", 4, 16),    # a criterion-10 scan pair
    ("ternary", 2, 9),     # ternary actions
    ("ternary", 3, 3),
]


def two_node_pair(name):
    return {
        "identity": lambda: (pc.Pmf([0.5, 0.5]), pc.JointPmf(np.eye(2) / 2)),
        "battery": battery_pair,
        "ternary": ternary_action_pair,
    }[name]()


def symmetric_cascade():
    mass = np.zeros((2, 2, 2))
    mass[0, 0, 0] = mass[1, 1, 1] = 0.5
    return pc.Pmf([0.5, 0.5]), pc.JointPmf(mass)


def uniform_cascade():
    # every z-codeword set ties with its mirror image
    return pc.Pmf([0.5, 0.5]), pc.JointPmf(np.full((2, 2, 2), 1 / 8))


def random_cascade():
    joint = pc.JointPmf(np.random.default_rng(8).dirichlet(np.ones(8)).reshape(2, 2, 2))
    return pc.marginal_pmf(joint, 0), joint


def loop_cascade(p0, target, n, rate1, rate2):
    """Reference: nested loops over z-codeword sets, then (y, z) pair sets."""
    sizes = target.mass.shape
    x_blocks, y_blocks, z_blocks = (_all_blocks(size, n) for size in sizes)
    probs = p0.mass[x_blocks].prod(axis=1)
    nx, uy, uz = len(x_blocks), len(y_blocks), len(z_blocks)
    jc = (
        x_blocks[:, None, None, :] * sizes[1] + y_blocks[None, :, None, :]
    ) * sizes[2] + z_blocks[None, None, :, :]
    counts = _type_counts(jc.reshape(-1, n), target.mass.size)
    d3 = _tv_rows(counts, n, target.mass.ravel()).reshape(nx, uy, uz)
    e2 = min(message_count(n, rate2), uz)
    pairs = [(y, zi) for y in range(uy) for zi in range(e2)]
    e1 = min(message_count(n, rate1), len(pairs))
    best = (np.inf, None, None)
    for z_combo in itertools.combinations(range(uz), e2):
        dp = d3[:, :, list(z_combo)].reshape(nx, -1)
        for p_combo in itertools.combinations(range(len(pairs)), e1):
            val = float(probs @ dp[:, p_combo].min(axis=1))
            if val < best[0]:
                best = (val, z_combo, p_combo)
    val, z_combo, p_combo = best
    chosen = [pairs[i] for i in p_combo]
    dp = d3[:, :, list(z_combo)].reshape(nx, -1)
    return val, (
        np.argmin(dp[:, p_combo], axis=1),
        y_blocks[[y for y, _ in chosen]],
        [zi for _, zi in chosen],
        z_blocks[list(z_combo)],
    )


def lattice_columns(nx, u, seed=4):
    # values on a coarse lattice, so many sets tie exactly
    d = np.random.default_rng(seed).integers(0, 4, size=(nx, u)) / 8.0
    return d, np.full(nx, 1 / nx)


def cascade_columns():
    """The (y-codeword, z-message) columns of one z-codeword set."""
    p0, target = random_cascade()
    sizes, n = target.mass.shape, 2
    x_blocks, y_blocks, z_blocks = (_all_blocks(size, n) for size in sizes)
    jc = (
        x_blocks[:, None, None, :] * sizes[1] + y_blocks[None, :, None, :]
    ) * sizes[2] + z_blocks[None, None, :, :]
    counts = _type_counts(jc.reshape(-1, n), target.mass.size)
    d3 = _tv_rows(counts, n, target.mass.ravel()).reshape(4, 4, 4)
    return d3[:, :, [1, 2]].reshape(4, -1), p0.mass[x_blocks].prod(axis=1)


def duplicated_columns():
    d, probs = lattice_columns(8, 5)
    return d[:, [0, 1, 1, 2, 3, 3, 3, 4, 0]], probs


# every k from 1 to u is searched on each
TIE_SHAPES = {
    "lattice": lambda: lattice_columns(16, 12),
    "one-column": lambda: lattice_columns(6, 1),
    "one-row": lambda: lattice_columns(1, 9),
    "duplicated": duplicated_columns,
    "cascade": cascade_columns,
}


class TestBatchedSearchMatchesLoop:
    """Same optimum bits and the same lexicographically first code."""

    @staticmethod
    def search(monkeypatch, args, reference=False, floats=None):
        with monkeypatch.context() as mp:
            if reference:
                mp.setattr(orc, "_best_codeword_set", loop_best_set)
            if floats is not None:
                mp.setattr(orc, "_SEARCH_FLOATS", floats)
            return orc.exhaustive_best_code(*args)

    def check(self, monkeypatch, *args):
        ref = self.search(monkeypatch, args, reference=True)
        # one float per block leaves one broadcast row in each, which puts
        # ties and the minimiser across every block edge
        for floats in (1, None):
            rep = self.search(monkeypatch, args, floats=floats)
            assert rep.optimum.hex() == ref.optimum.hex()
            assert rep.optimizer.encoder.tolist() == ref.optimizer.encoder.tolist()
            assert (
                rep.optimizer.decoder_mid.tolist() == ref.optimizer.decoder_mid.tolist()
            )

    @pytest.mark.parametrize("pair, n, m1_max", TWO_NODE_PAIRS)
    def test_two_node(self, monkeypatch, pair, n, m1_max):
        p0, joint = two_node_pair(pair)
        for m1 in range(1, m1_max + 1):
            self.check(monkeypatch, p0, joint, n, math.log2(m1) / n)

    @pytest.mark.parametrize("pair, n, m1_max", TWO_NODE_PAIRS)
    def test_two_node_is_one_z_symbol_cascade(self, pair, n, m1_max):
        p0, joint = two_node_pair(pair)
        one_z = pc.JointPmf(joint.mass[..., None])
        for m1 in range(1, m1_max + 1):
            rate = math.log2(m1) / n
            rep = orc.exhaustive_best_code(p0, joint, n, rate)
            cas = orc.exhaustive_best_code(p0, one_z, n, rate, rate2=0.0)
            assert rep.optimum.hex() == cas.optimum.hex()
            assert rep.optimizer.encoder.tolist() == cas.optimizer.encoder.tolist()
            assert (
                rep.optimizer.decoder_mid.tolist() == cas.optimizer.decoder_mid.tolist()
            )
            assert not rep.optimizer.is_cascade and rep.optimizer.rate2 is None

    @pytest.mark.parametrize("make", [symmetric_cascade, uniform_cascade, random_cascade])
    @pytest.mark.parametrize(
        "n, r1, r2", [(1, 1.0, 1.0), (1, 1.0, 0.0), (2, 1.0, 0.5), (2, 0.5, 0.5)]
    )
    def test_cascade(self, make, n, r1, r2):
        p0, joint = make()
        rep = orc.exhaustive_best_code(p0, joint, n, r1, rate2=r2)
        val, (enc, dec_y, rec, dec_z) = loop_cascade(p0, joint, n, r1, r2)
        code = rep.optimizer
        assert rep.optimum.hex() == val.hex()
        assert code.encoder.tolist() == enc.tolist()
        assert code.decoder_mid[: len(dec_y)].tolist() == dec_y.tolist()
        assert code.recoder[: len(rec)].tolist() == rec
        assert code.decoder_end[: len(dec_z)].tolist() == dec_z.tolist()
        assert expected_tv_exact(code, p0, joint) == pytest.approx(rep.optimum, abs=1e-12)

    def test_helper_on_random_ties(self, monkeypatch):
        searches = []
        search = orc._colex_search
        monkeypatch.setattr(
            orc, "_colex_search", lambda *a: searches.append(a) or search(*a)
        )
        # 1 float splits every search of k >= 3 down to pairs; 64 splits
        # only the larger ones and leaves several rows in a block
        for floats in (orc._SEARCH_FLOATS, 64, 1):
            monkeypatch.setattr(orc, "_SEARCH_FLOATS", floats)
            for shape, make in TIE_SHAPES.items():
                d, probs = make()
                u = d.shape[1]
                searches.clear()
                for k in range(1, u + 1):
                    val, best = orc._best_codeword_set(d, probs, k)
                    ref_val, ref_set = loop_best_set(d, probs, k)
                    assert val.hex() == ref_val.hex(), (floats, shape, k)
                    assert best == ref_set, (floats, shape, k)
                if floats == 1 and u >= 3:
                    assert len(searches) > u - 1  # the smallest-column split ran

    def test_search_memory_is_bounded(self):
        # 906,192 sets; unsplit, the levels alone would take about 8 MB
        rng = np.random.default_rng(6)
        d, probs = rng.random((32, 32)), rng.dirichlet(np.ones(32))
        tracemalloc.start()
        try:
            orc._best_codeword_set(d, probs, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000


def loop_grid_min_mi(p0, target, delta, grid_step):
    """Reference: every lattice cell in row-major order, without pruning."""
    rows = target.rows
    m = rows.shape[1]
    support = np.nonzero(p0.mass > 0.0)[0]
    w = p0.mass[support]
    cand = []
    for x in support:
        if m == 2:
            vals = orc._binary_candidates(float(rows[x][0]), grid_step)
            cand.append(np.stack([vals, 1.0 - vals], axis=1))
        else:
            cand.append(orc._composition_rows(m, grid_step, rows[x]))
    sizes = [c.shape[0] for c in cand]
    total = int(np.prod(sizes))
    tv_cost = [
        0.5 * w[x] * np.abs(cand[x] - rows[support[x]][None, :]).sum(axis=1)
        for x in range(len(cand))
    ]
    plogp = [
        w[x] * (pc.xlogx(cand[x]).sum(axis=1) / orc.LN2)
        for x in range(len(cand))
    ]
    best_val, best_lin = np.inf, -1
    for lo in range(0, total, 1 << 20):
        lin = np.arange(lo, min(lo + (1 << 20), total))
        idx = np.unravel_index(lin, sizes)
        tv = tv_cost[0][idx[0]].copy()
        for x in range(1, len(cand)):
            tv += tv_cost[x][idx[x]]
        feas = tv <= delta + pc.TV_SLACK
        if not feas.any():
            continue
        mix = w[0] * cand[0][idx[0][feas]]
        ent_in = plogp[0][idx[0][feas]].copy()
        for x in range(1, len(cand)):
            mix += w[x] * cand[x][idx[x][feas]]
            ent_in += plogp[x][idx[x][feas]]
        vals = ent_in - pc.xlogx(mix).sum(axis=1) / orc.LN2
        j = int(vals.argmin())
        if vals[j] < best_val:
            best_val, best_lin = float(vals[j]), int(lin[feas][j])
    full = rows.copy()
    pick = np.unravel_index(best_lin, sizes)
    for x in range(len(cand)):
        full[support[x]] = cand[x][pick[x]]
    return max(best_val, 0.0), full, total


def loop_composition_rows(m, step, target_row):
    """Reference: the composition lattice built one combination at a time."""
    total = int(round(1.0 / step))
    combos = []
    for c in itertools.combinations(range(total + m - 1), m - 1):
        prev = -1
        counts = []
        for b in c:
            counts.append(b - prev - 1)
            prev = b
        counts.append(total + m - 2 - prev)
        combos.append(counts)
    rows = np.asarray(combos, dtype=float) / total
    return np.vstack([rows, target_row[None, :]])


@pytest.mark.parametrize(
    "m, step",
    [(1, 1 / 40), (1, 1.0), (2, 1 / 40), (2, 1e-2), (2, 1.0)]
    + [(3, 1 / 40), (3, 1e-2), (3, 1.0), (4, 1 / 40), (4, 1 / 7), (4, 1.0)],
)
def test_composition_rows_match_loop(m, step):
    row = np.random.default_rng(m).dirichlet(np.ones(m))
    got = orc._composition_rows(m, step, row)
    want = loop_composition_rows(m, step, row)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def criterion_04_grids():
    return [
        (p0, tgt, d, 1e-3)
        for p0, tgt in ins.random_binary_instances(10, seed=77)
        for d in (0.05, 0.1, 0.2)
    ]


def composition_grids(delta):
    # one support row over four outputs: the C(43, 3)-row composition lattice
    rng = np.random.default_rng(12)
    tgt = pc.CondPmf(rng.dirichlet(np.ones(4), size=2))
    return [(pc.Pmf([1.0, 0.0]), tgt, delta, 1 / 40)]


def three_output_grids(delta):
    rng = np.random.default_rng(13)
    tgt = pc.CondPmf(rng.dirichlet(np.ones(3), size=2))
    return [(pc.Pmf([0.0, 1.0]), tgt, delta, 1 / 60)]


def three_binary_row_grids(delta):
    rng = np.random.default_rng(14)
    p0 = pc.Pmf(rng.dirichlet(np.ones(3)))
    return [(p0, pc.CondPmf(rng.dirichlet(np.ones(2), size=3)), delta, 1 / 40)]


def radius_end_grids(delta):
    return [(p0, tgt, delta, 1 / 200) for p0, tgt in ins.random_binary_instances(3, seed=78)]


def zero_mass_row_grids(delta):
    rng = np.random.default_rng(15)
    tgt = pc.CondPmf(rng.dirichlet(np.ones(2), size=3))
    return [(pc.Pmf([0.6, 0.0, 0.4]), tgt, delta, 1 / 200)]


# each family's grid builder and radii
GRID_FAMILIES = {
    "composition_rows": (composition_grids, [0.0, 0.05, 0.3]),
    "three_outputs": (three_output_grids, [0.0, 0.05, 0.3]),
    "three_binary_rows": (three_binary_row_grids, [0.0, 0.02, 0.1, 1.0]),
    "radius_ends": (radius_end_grids, [0.0, 1.0]),
    "zero_mass_row": (zero_mass_row_grids, [0.0, 0.1]),
}
# every TestPrunedGridMatchesLoop grid but the tied-tile one
ALL_GRIDS = criterion_04_grids() + [
    g for build, deltas in GRID_FAMILIES.values() for d in deltas for g in build(d)
]


class TestPrunedGridMatchesLoop:
    """Same optimum bits and the same optimizer rows as the full lattice."""

    def check(self, p0, target, delta, step):
        rep = orc.grid_min_mi(p0, target, delta, step)
        ref_val, ref_rows, total = loop_grid_min_mi(p0, target, delta, step)
        assert rep.optimum.hex() == ref_val.hex()
        assert np.array_equal(rep.optimizer.rows, ref_rows)
        assert rep.search_space_size == total

    def test_criterion_04_instances(self):
        for grid in criterion_04_grids():
            self.check(*grid)

    @pytest.mark.parametrize("delta", GRID_FAMILIES["composition_rows"][1])
    def test_composition_rows(self, delta):
        for grid in composition_grids(delta):
            self.check(*grid)

    @pytest.mark.parametrize("delta", GRID_FAMILIES["three_outputs"][1])
    def test_three_outputs(self, delta):
        for grid in three_output_grids(delta):
            self.check(*grid)

    @pytest.mark.parametrize("delta", GRID_FAMILIES["three_binary_rows"][1])
    def test_three_binary_rows(self, delta):
        for grid in three_binary_row_grids(delta):
            self.check(*grid)

    @pytest.mark.parametrize("delta", GRID_FAMILIES["radius_ends"][1])
    def test_radius_ends(self, delta):
        for grid in radius_end_grids(delta):
            self.check(*grid)

    @pytest.mark.parametrize("delta", GRID_FAMILIES["zero_mass_row"][1])
    def test_zero_mass_row(self, delta):
        for grid in zero_mass_row_grids(delta):
            self.check(*grid)

    def test_tied_tiles_under_tight_bounds(self, monkeypatch):
        # Uniform source, identity target, delta = 1: every diagonal cell is
        # exactly 0, in several tiles. Each tile's bound is set to its least
        # cell value, and all but tile (0, 0), which holds the first
        # optimizer, are pulled 1e-12 lower. Tile (0, 0) is then visited
        # after a tie is found, and a bound equal to the best value must
        # not stop the search.
        def tight(cols, side, threshold):
            least = tile_least(cols, side, threshold)
            bound = least - 1e-12
            bound[0, 0] = least[0, 0]
            return bound

        monkeypatch.setattr(orc, "_tile_bounds", tight)
        self.check(pc.Pmf([0.5, 0.5]), pc.CondPmf(np.eye(2)), 1.0, 1 / 128)


def tile_least(cols, side, threshold):
    """Least feasible cell value per tile of a grid of 1 to 3 rows, every
    cell scored."""
    r = len(cols)
    # each row's columns on its own lattice axis
    axes = [c.reshape(c.shape[:1] + (1,) * x + c.shape[1:] + (1,) * (r - 1 - x))
            for x, c in enumerate(cols)]
    tiles = [range(0, c.shape[1], side) for c in cols]
    least = np.empty(tuple(len(t) for t in tiles))
    for corner in itertools.product(*tiles):
        acc = 0.0
        for x, a in enumerate(axes):
            index = [slice(None)] * (r + 1)
            index[x + 1] = slice(corner[x], corner[x] + side)
            acc = acc + a[tuple(index)]
        vals = acc[1] - pc.xlogx(acc[2:]).sum(axis=0) / orc.LN2
        vals[acc[0] > threshold] = np.inf
        least[tuple(c // side for c in corner)] = vals.min()
    return least


def peak_bound(cols, side, threshold):
    """The endpoint bound the chord replaced: each output's t ln t charged
    at the larger end of the tile's range."""
    r = len(cols)
    lo = hi = 0.0
    for x, c in enumerate(cols):
        starts = np.arange(0, c.shape[1], side)
        shape = c.shape[:1] + (1,) * x + (len(starts),) + (1,) * (r - 1 - x)
        lo = lo + np.minimum.reduceat(c, starts, axis=1).reshape(shape)
        hi = hi + np.maximum.reduceat(c, starts, axis=1).reshape(shape)
    peak = np.maximum(pc.xlogx(lo[2:]), pc.xlogx(hi[2:])).sum(axis=0)
    bound = lo[1] - peak / orc.LN2 - orc._BOUND_SLACK
    bound[lo[0] > threshold] = np.inf
    return bound


def spy_tile_bounds(monkeypatch):
    """Records (cols, side, threshold, bound) of every ``_tile_bounds`` call."""
    seen = []
    real = orc._tile_bounds

    def spy(cols, side, threshold):
        seen.append((cols, side, threshold, real(cols, side, threshold)))
        return seen[-1][-1]

    monkeypatch.setattr(orc, "_tile_bounds", spy)
    return seen


def test_tile_bounds_below_cells(monkeypatch):
    """On every grid above, no cell of a tile is below its bound, and no
    bound is looser than the endpoint bound."""
    seen = spy_tile_bounds(monkeypatch)
    for grid in ALL_GRIDS:
        orc.grid_min_mi(*grid)
    assert len(seen) == len(ALL_GRIDS) == 48
    assert {len(cols) for cols, *_ in seen} == {1, 2, 3}
    for cols, side, threshold, bound in seen:
        least = tile_least(cols, side, threshold)
        # an infinite bound exactly when the tile holds no feasible cell
        assert np.array_equal(np.isinf(bound), np.isinf(least))
        assert (bound <= least).all()
        finite = np.isfinite(bound)
        assert (bound[finite] >= peak_bound(cols, side, threshold)[finite] - 1e-12).all()


def row_cols(w, cand, target_row):
    """One support row's columns, as ``grid_min_mi`` builds them."""
    cand = np.asarray(cand, dtype=float)
    tv = 0.5 * w * np.abs(cand - np.asarray(target_row)[None, :]).sum(axis=1)
    plogp = w * (pc.xlogx(cand).sum(axis=1) / orc.LN2)
    return np.vstack([tv, plogp, (w * cand).T])


class TestTileBoundEdges:
    def test_zero_width(self):
        # every run holds one distinct candidate: hi == lo on each output,
        # the slope is 0 and the bound is the cell's value less the slack
        cols = [
            row_cols(0.4, [[0.3, 0.7]] * 3, [0.3, 0.7]),
            row_cols(0.6, [[0.6, 0.4]] * 2, [0.5, 0.5]),
        ]
        bound = orc._tile_bounds(cols, 4, 1.0)
        least = tile_least(cols, 4, 1.0)
        assert bound.shape == (1, 1) and np.isfinite(least).all()
        assert bound[0, 0] == pytest.approx(least[0, 0] - orc._BOUND_SLACK, abs=1e-15)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_range_touches_zero(self, r):
        # every row's first run holds t = 0 on output 0, so the tile's
        # range starts at 0, where the slope of t ln t is -inf
        rows = [[0.0, 1.0], [0.25, 0.75], [0.5, 0.5], [0.75, 0.25], [1.0, 0.0]]
        w = np.full(r, 1 / r)
        cols = [row_cols(w[x], rows, [0.5, 0.5]) for x in range(r)]
        bound = orc._tile_bounds(cols, 2, 1.0)
        least = tile_least(cols, 2, 1.0)
        assert np.isfinite(bound).all()
        assert (bound <= least).all()
        assert (bound >= peak_bound(cols, 2, 1.0) - 1e-12).all()


def test_criterion_04_cells_scored():
    """The chord bounds score at most 1.5 M of the criterion-04 grids'
    cells (1,159,008 here; the endpoint bounds scored 5,771,040)."""
    cells = sum(orc.grid_min_mi(*grid).details["cells_evaluated"] for grid in criterion_04_grids())
    assert cells <= 1_500_000


def test_single_row_grid_memory(traced):
    # One support row: I(X;Y) is 0 in every cell, so no tile is pruned and
    # every tile's chord terms are taken. The peak stays that of the
    # endpoint bounds (24,055,840 bytes); the chord terms taken whole
    # peaked at 32.6 MB.
    rng = np.random.default_rng(12)
    tgt = pc.CondPmf(rng.dirichlet(np.ones(4), size=2))
    rep, peak = traced(lambda: orc.grid_min_mi(pc.Pmf([1.0, 0.0]), tgt, 1.0, 1 / 100))
    assert rep.details["cells_evaluated"] == rep.search_space_size == 176_852
    assert peak <= 24_100_000
