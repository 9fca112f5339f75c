import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coordlab import coordination_code as cc
from coordlab import instances as ins
from coordlab import prob_core as pc


def copy_code():
    """n=1 binary code that reproduces its input: x -> message x -> y=x."""
    return cc.TableCode(
        n=1,
        x_size=2,
        y_size=2,
        rate1=1.0,
        encoder=np.array([0, 1]),
        decoder_mid=np.array([[0], [1]]),
    )


class TestMessageCount:
    def test_rate_zero(self):
        assert cc.message_count(4, 0.0) == 1

    def test_integer_power(self):
        assert cc.message_count(4, 0.5) == 4

    def test_ceiling(self):
        assert cc.message_count(3, 0.5) == 3  # ceil(2^1.5) = ceil(2.83)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 12), st.floats(0, 2), st.floats(0, 2))
    def test_monotone_in_rate(self, n, r_a, r_b):
        lo, hi = sorted([r_a, r_b])
        assert cc.message_count(n, lo) <= cc.message_count(n, hi)


class TestTableCode:
    def test_encoder_range_checked(self):
        with pytest.raises(ValueError):
            cc.TableCode(
                n=1,
                x_size=2,
                y_size=2,
                rate1=0.0,
                encoder=np.array([0, 1]),  # message 1 does not exist at rate 0
                decoder_mid=np.array([[0]]),
            )

    def test_decoder_length_checked(self):
        with pytest.raises(ValueError):
            cc.TableCode(
                n=2,
                x_size=2,
                y_size=2,
                rate1=0.0,
                encoder=np.zeros(4, dtype=int),
                decoder_mid=np.array([[0]]),  # rows must have length n
            )

    def test_apply_copy_code(self):
        y = cc.apply_code(copy_code(), (1,))
        assert tuple(y[0]) == (1,)

    def test_constant_decoder(self):
        code = cc.TableCode(
            n=2,
            x_size=2,
            y_size=2,
            rate1=0.0,
            encoder=np.zeros(4, dtype=int),
            decoder_mid=np.array([[1, 1]]),
        )
        for x in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            assert tuple(cc.apply_code(code, x)[0]) == (1, 1)

    def test_determinism(self):
        code = copy_code()
        assert cc.apply_code(code, (0,)) == cc.apply_code(code, (0,))


class TestInducedDistribution:
    def test_point_mass_source(self):
        dist = cc.induced_distribution(copy_code(), pc.Pmf([1, 0]))
        assert dist == {((0,), (0,)): 1.0}

    def test_copy_code_diagonal(self, uniform_binary):
        dist = cc.induced_distribution(copy_code(), uniform_binary)
        assert dist[((0,), (0,))] == 0.5
        assert dist[((1,), (1,))] == 0.5

    def test_total_mass(self):
        rng = np.random.default_rng(0)
        p0 = pc.Pmf(rng.dirichlet([1, 1]))
        code = cc.build_codebook_code(p0, pc.CondPmf.identity(2), 4, 0.6, seed=1)
        dist = cc.induced_distribution(code, p0)
        assert abs(sum(dist.values()) - 1.0) <= 1e-12

    def test_source_marginal_exact(self):
        p0 = pc.Pmf([0.25, 0.75])
        code = cc.build_codebook_code(p0, pc.CondPmf.identity(2), 3, 0.8, seed=2)
        dist = cc.induced_distribution(code, p0)
        for x in [(0, 0, 0), (1, 0, 1)]:
            mass = sum(v for (xs, _ys), v in dist.items() if xs == x)
            want = float(np.prod([p0.mass[s] for s in x]))
            assert abs(mass - want) <= 1e-12

    def test_enumeration_guard(self):
        p0 = pc.Pmf([0.5, 0.5])
        code = cc.build_codebook_code(p0, pc.CondPmf.identity(2), 13, 0.4, seed=0)
        with pytest.raises(ValueError):
            cc.induced_distribution(code, p0)  # 2^13 > 4096


class TestExpectedTv:
    def test_copy_code_half(self, uniform_binary, identity_joint):
        assert cc.expected_tv_exact(copy_code(), uniform_binary, identity_joint) == 0.5

    def test_perfect_match_is_zero(self):
        # constant source through a constant decoder reproduces its own type
        code = cc.TableCode(
            n=1,
            x_size=2,
            y_size=2,
            rate1=0.0,
            encoder=np.zeros(2, dtype=int),
            decoder_mid=np.array([[1]]),
        )
        target = pc.JointPmf([[0.0, 1.0], [0.0, 0.0]])
        assert cc.expected_tv_exact(code, pc.Pmf([1, 0]), target) == 0.0

    def test_range(self):
        rng = np.random.default_rng(1)
        p0 = pc.Pmf(rng.dirichlet([1, 1]))
        target = pc.compose(p0, pc.CondPmf(rng.dirichlet([1, 1], size=2)))
        code = cc.build_codebook_code(p0, pc.CondPmf.identity(2), 5, 0.5, seed=3)
        val = cc.expected_tv_exact(code, p0, target)
        assert 0.0 <= val <= 1.0

    def test_expectation_bound(self):
        # E[TV] <= Pr(TV > t) + t, with the law of the TV enumerated exactly
        p0 = pc.Pmf([0.3, 0.7])
        target = ins.battery_targets()[0]
        for code in ins.binary_battery_codes()[:6]:
            exact = cc.expected_tv_exact(code, p0, target)
            dist = cc.induced_distribution(code, p0)
            for t in (0.0, 0.25, 0.5):
                exceed = sum(
                    prob
                    for (x, y), prob in dist.items()
                    if pc.total_variation(pc.joint_type([x, y], (2, 2)), target) > t
                )
                assert exact <= exceed + t + 1e-12

    def test_enumeration_guard_named(self):
        p0 = pc.Pmf([0.5, 0.5])
        code = cc.build_codebook_code(p0, pc.CondPmf.identity(2), 13, 0.5, seed=3)
        target = pc.compose(p0, pc.CondPmf.identity(2))
        with pytest.raises(ValueError, match=r"^2\^13 sequences exceed ENUM_GUARD 4096$"):
            cc.expected_tv_exact(code, p0, target)


class TestMonteCarlo:
    def test_agrees_with_exact(self, uniform_binary):
        target = pc.compose(uniform_binary, pc.CondPmf.identity(2))
        code = cc.build_codebook_code(
            uniform_binary, pc.CondPmf.identity(2), 8, 0.8, seed=5
        )
        exact = cc.expected_tv_exact(code, uniform_binary, target)
        rep = cc.expected_tv_monte_carlo(code, uniform_binary, target, 4000, seed=9)
        assert abs(rep.mean_tv - exact) <= 3 * max(rep.standard_error, 1e-4)

    def test_zero_variance(self):
        target = pc.JointPmf([[0.0, 1.0], [0.0, 0.0]])
        code = cc.TableCode(
            n=1,
            x_size=2,
            y_size=2,
            rate1=0.0,
            encoder=np.zeros(2, dtype=int),
            decoder_mid=np.array([[1]]),
        )
        rep = cc.expected_tv_monte_carlo(code, pc.Pmf([1, 0]), target, 500, seed=0)
        assert rep.standard_error == 0.0
        assert rep.mean_tv == 0.0

    def test_seed_reproducibility(self, uniform_binary, identity_joint):
        code = cc.build_codebook_code(
            uniform_binary, pc.CondPmf.identity(2), 6, 0.7, seed=4
        )
        a = cc.expected_tv_monte_carlo(code, uniform_binary, identity_joint, 2000, 7)
        b = cc.expected_tv_monte_carlo(code, uniform_binary, identity_joint, 2000, 7)
        assert a == b

    def test_worker_count_does_not_change_result(self, uniform_binary, identity_joint):
        code = cc.build_codebook_code(
            uniform_binary, pc.CondPmf.identity(2), 6, 0.7, seed=4
        )
        a = cc.expected_tv_monte_carlo(
            code, uniform_binary, identity_joint, 9000, 7, jobs=1
        )
        b = cc.expected_tv_monte_carlo(
            code, uniform_binary, identity_joint, 9000, 7, jobs=4
        )
        assert a == b

    def test_quantiles_monotone(self, uniform_binary, identity_joint):
        code = cc.build_codebook_code(
            uniform_binary, pc.CondPmf.identity(2), 6, 0.5, seed=4
        )
        rep = cc.expected_tv_monte_carlo(code, uniform_binary, identity_joint, 999, 3)
        q = rep.quantiles
        assert all(b >= a for a, b in zip(q, q[1:]))
        assert rep.sample_count == 999


class TestCodebookConstruction:
    def test_rate_zero_constant_encoder(self, uniform_binary):
        code = cc.build_codebook_code(
            uniform_binary, pc.CondPmf.identity(2), 4, 0.0, seed=6
        )
        assert code.m1 == 1
        msgs = code.encode(np.array([[0, 0, 0, 0], [1, 1, 0, 1]]))
        assert msgs.tolist() == [0, 0]

    def test_table_cap(self, uniform_binary):
        with pytest.raises(ValueError, match=r"2\^60 exceeds table_cap"):
            cc.build_codebook_code(
                uniform_binary, pc.CondPmf.identity(2), 60, 1.0, seed=0
            )
        with pytest.raises(ValueError, match=r"2\^45 exceeds table_cap"):
            cc.build_codebook_code(uniform_binary, CASCADE_Q, 64, 0.1, 45 / 64, seed=0)

    def test_packed_matches_materialized_table(self, uniform_binary):
        """The bit-packed fast path and a plain table lookup must agree
        input-for-input, including tie-breaks; the table is filled by the
        brute-force encoder. The uniform identity target has empty cells and
        many tied inputs."""
        code = cc.build_codebook_code(
            uniform_binary, pc.CondPmf.identity(2), 10, 0.8, seed=12
        )
        inputs = cc._enumerate_inputs(2, 10)
        table = cc.TableCode(
            n=code.n,
            x_size=code.x_size,
            y_size=code.y_size,
            rate1=code.rate1,
            encoder=brute_force_encode(code, inputs),
            decoder_mid=code.codeword_rows(np.arange(code.m1)),
        )
        assert np.array_equal(code.encode(inputs), table.encode(inputs))
        target = pc.compose(uniform_binary, pc.CondPmf.identity(2))
        a = cc.expected_tv_exact(code, uniform_binary, target)
        b = cc.expected_tv_exact(table, uniform_binary, target)
        assert abs(a - b) <= 1e-12

    def test_lowest_index_tie_break(self, uniform_binary):
        # duplicated codewords force exact ties on every input
        base = cc.build_codebook_code(
            uniform_binary, pc.CondPmf.identity(2), 5, 1.0, seed=8
        )
        target = pc.compose(uniform_binary, pc.CondPmf.identity(2))
        dup = cc.CodebookCode(
            n=5,
            x_size=2,
            y_size=2,
            rate1=base.rate1,
            target=target,
            packed_y=np.repeat(base.packed_y[:8], 4),
        )
        inputs = cc._enumerate_inputs(2, 5)
        msgs = dup.encode(inputs)
        rows = dup.codeword_rows(np.arange(dup.m1))
        for x, m in zip(inputs, msgs):
            tvs = np.array(
                [
                    pc.total_variation(pc.joint_type([x, row], (2, 2)), target)
                    for row in rows
                ]
            )
            best = tvs.min()
            assert tvs[m] <= best + 1e-12
            assert m == int(np.nonzero(tvs <= best + 1e-15)[0][0])

    def test_cascade_build_shapes(self, uniform_binary):
        target = pc.CondPmf(
            np.array([[[0.7, 0.1], [0.1, 0.1]], [[0.1, 0.1], [0.1, 0.7]]])
        )
        code = cc.build_codebook_code(uniform_binary, target, 4, 0.8, 0.6, seed=9)
        y, z = cc.apply_code(code, (0, 1, 1, 0))
        assert len(y) == 4 and len(z) == 4
        assert code.rate2 == 0.6

    @pytest.mark.parametrize("y_size, z_size", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_recoder_matches_loop(self, y_size, z_size):
        # the uniform target makes every z-codeword of a composition tie
        rng = np.random.default_rng(10 * y_size + z_size)
        shape = (2, y_size, z_size)
        uniform = np.full(shape, 1 / (y_size * z_size))
        random = rng.dirichlet(np.ones(y_size * z_size), size=2).reshape(shape)
        for rows in (uniform, random):
            for n, r1, r2 in ((5, 0.8, 0.6), (6, 1.0, 0.0), (7, 0.9, 0.7)):
                code = cc.build_codebook_code(
                    pc.Pmf([0.6, 0.4]), pc.CondPmf(rows), n, r1, r2, seed=n
                )
                assert code.recoder.tolist() == loop_recoder(code).tolist()


def loop_recoder(code):
    """Reference: per y-message, the first z-message of least TV between the
    (y, z) codeword pair type and the (Y, Z) marginal of the target."""
    yz_target = code.target.mass.sum(axis=0).ravel()
    recoder = np.empty(code.m1, dtype=np.int64)
    for i in range(code.m1):
        jc = code.symbols_y[i][None, :] * code.z_size + code.symbols_z
        counts = cc._type_counts(jc, code.y_size * code.z_size)
        recoder[i] = int(cc._tv_rows(counts, code.n, yz_target).argmin())
    return recoder


def brute_force_encode(code, x_batch):
    """First minimum of the joint-type TV over every codeword.

    Independent of the encoders' tables and searches: all codeword rows are
    unpacked and scored one by one, with the float expression each encoder
    promises (the c1 form for packed codes, ``_tv_rows`` for symbol rows),
    so float-equal ties fall the same way.
    """
    x_batch = np.asarray(x_batch)
    rows = code.codeword_rows(np.arange(code.m1))
    n, sizes = code.n, code.action_sizes
    if code.packed_y is not None:
        t = code.target.mass
        out = []
        for x in x_batch:
            acc = 0.0
            for a in range(code.x_size):
                on = x == a
                c1 = (rows[:, on] == 1).sum(axis=1).astype(np.float64)
                acc = acc + (
                    np.abs(c1 - n * t[a, 1]) + np.abs((on.sum() - c1) - n * t[a, 0])
                )
            out.append(int((acc * (0.5 / n)).argmin()))
        return np.array(out)
    if code.is_cascade:
        rows = rows * sizes[2] + code.symbols_z[code.recoder]
    k = int(np.prod(sizes[1:]))
    out = []
    for x in x_batch:
        counts = cc._type_counts(x[None, :] * k + rows, int(np.prod(sizes)))
        out.append(int(cc._tv_rows(counts, n, code.target.mass.ravel()).argmin()))
    return np.array(out)


def source_draws(p0, n, count, seed):
    rng = np.random.default_rng(seed)
    return rng.choice(p0.alphabet_size, size=(count, n), p=p0.mass)


def spy_packed_kernels(monkeypatch):
    """Records the packed kernels' work: returns (a function giving every
    walk result so far, concatenated, with -1 for samples left to the scan;
    the sample count of each scan call)."""
    walks, scanned = [], []
    walk, scan = cc.CodebookCode._walk_batch, cc.CodebookCode._scan_batch

    def spy_walk(self, x_rows, comp, budget):
        walks.append(walk(self, x_rows, comp, budget))
        return walks[-1]

    def spy_scan(self, masks, comps):
        scanned.append(comps.shape[1])
        return scan(self, masks, comps)

    monkeypatch.setattr(cc.CodebookCode, "_walk_batch", spy_walk)
    monkeypatch.setattr(cc.CodebookCode, "_scan_batch", spy_scan)
    return (lambda: np.concatenate(walks or [np.empty(0, dtype=np.int64)])), scanned


TERNARY_P0 = pc.Pmf([0.5, 0.3, 0.2])
TERNARY_Q = pc.CondPmf([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
CASCADE_Q = pc.CondPmf(np.array([[[0.7, 0.1], [0.1, 0.1]], [[0.1, 0.1], [0.1, 0.7]]]))


class TestEncoderPaths:
    """Every encoder path against the brute-force reference."""

    def test_packed_broadcast(self, monkeypatch):
        # a small codebook: the walk's budget is one scan of its 256 words,
        # so a few of the 1024 inputs leave the walk for the scan
        rng = np.random.default_rng(21)
        p0 = pc.Pmf([0.3, 0.7])
        code = cc.build_codebook_code(p0, pc.CondPmf(rng.dirichlet([1, 1], 2)), 10, 0.8, seed=3)
        assert code.packed_y is not None and code.m1 == 256
        walked, scanned = spy_packed_kernels(monkeypatch)
        inputs = cc._enumerate_inputs(2, 10)
        assert np.array_equal(code.encode(inputs), brute_force_encode(code, inputs))
        assert (walked() >= 0).sum() > 900 and 0 < sum(scanned) < 100

    @pytest.mark.parametrize("p0", [pc.Pmf([0.5, 0.5]), pc.Pmf([0.4, 0.35, 0.25])])
    def test_candidate_walk(self, p0, monkeypatch):
        # y = [x != 0]; one word in ~40 is a codeword, so walks pass TV
        # levels with no codeword before they find one
        q = pc.CondPmf([[1.0, 0.0]] + [[0.0, 1.0]] * (p0.alphabet_size - 1))
        code = cc.build_codebook_code(p0, q, 22, 0.76, seed=4)
        assert code._word_index().dense is None  # binary search of sorted keys
        walked, scanned = spy_packed_kernels(monkeypatch)
        levels = []
        lookup = cc._WordIndex.lookup

        def spy_lookup(self, queries):
            levels.append(lookup(self, queries))
            return levels[-1]

        monkeypatch.setattr(cc._WordIndex, "lookup", spy_lookup)
        x = source_draws(p0, 22, 40, seed=5)
        assert np.array_equal(code.encode(x), brute_force_encode(code, x))
        assert walked().size == 40 and (walked() >= 0).all() and not scanned
        assert any((level < 0).all(axis=1).any() for level in levels)

    def test_block_scan_fallback(self, monkeypatch):
        p0 = pc.Pmf([0.5, 0.5])
        code = cc.build_codebook_code(p0, pc.CondPmf.identity(2), 18, 0.95, seed=6)
        monkeypatch.setattr(cc, "_CANDIDATE_CAP", 0)
        monkeypatch.setattr(cc, "_PACKED_SCAN_BLOCK", 5000)  # many blocks
        x = source_draws(p0, 18, 30, seed=7)
        assert np.array_equal(code.encode(x), brute_force_encode(code, x))

    def test_ternary_source_binary_actions(self):
        q = pc.CondPmf([[0.9, 0.1], [0.3, 0.7], [0.5, 0.5]])
        code = cc.build_codebook_code(TERNARY_P0, q, 7, 0.9, seed=8)
        assert code.packed_y is not None and code.x_size == 3
        inputs = cc._enumerate_inputs(3, 7)
        assert np.array_equal(code.encode(inputs), brute_force_encode(code, inputs))

    def test_ternary_symbol_rows(self):
        code = cc.build_codebook_code(TERNARY_P0, TERNARY_Q, 7, 1.0, seed=9)
        assert code.symbols_y is not None
        inputs = cc._enumerate_inputs(3, 7)
        want = brute_force_encode(code, inputs)
        assert np.array_equal(code.encode(inputs), want)
        assert np.array_equal(code._encode_symbols_rowwise(inputs), want)

    def test_cascade_symbol_rows(self):
        p0 = pc.Pmf([0.5, 0.5])
        code = cc.build_codebook_code(p0, CASCADE_Q, 9, 0.9, 0.6, seed=10)
        inputs = cc._enumerate_inputs(2, 9)
        assert np.array_equal(code.encode(inputs), brute_force_encode(code, inputs))

    def test_symbol_table_cap_fallback(self, monkeypatch):
        # (2,2,2) needs 3^6 = 729 entries, (6,0,0) needs 49: a cap between
        # them sends some compositions through the per-codeword loop
        monkeypatch.setattr(cc, "_SYMBOL_TABLE_CAP", 300)
        code = cc.build_codebook_code(TERNARY_P0, TERNARY_Q, 6, 1.0, seed=11)
        inputs = cc._enumerate_inputs(3, 6)
        assert np.array_equal(code.encode(inputs), brute_force_encode(code, inputs))
        assert any(t is None for t in code._tables.values())
        assert any(t is not None for t in code._tables.values())

    def test_duplicated_codewords(self, monkeypatch):
        p0 = pc.Pmf([0.5, 0.5])
        base = cc.build_codebook_code(p0, pc.CondPmf.identity(2), 18, 0.95, seed=12)
        words = np.repeat(base.packed_y[: base.m1 // 4 + 1], 4)[: base.m1]
        dup = cc.CodebookCode(
            n=18, x_size=2, y_size=2, rate1=base.rate1, target=base.target, packed_y=words
        )
        x = source_draws(p0, 18, 30, seed=13)
        assert np.array_equal(dup.encode(x), brute_force_encode(dup, x))
        # copies of one row fall in different codeword blocks
        monkeypatch.setattr(cc, "_SYMBOL_BLOCK", 5)
        sym = cc.build_codebook_code(TERNARY_P0, TERNARY_Q, 5, 1.0, seed=14)
        rows = np.tile(sym.symbols_y[:8], (4, 1))
        dup = cc.CodebookCode(
            n=5, x_size=3, y_size=3, rate1=sym.rate1, target=sym.target, symbols_y=rows
        )
        inputs = cc._enumerate_inputs(3, 5)
        assert np.array_equal(dup.encode(inputs), brute_force_encode(dup, inputs))

    @pytest.mark.parametrize("n, rate", [(9, 0.9), (18, 0.95)])
    def test_symmetric_target_float_equal_ties(self, n, rate):
        # every composition of the flat target meets many count vectors at
        # float-equal TV, so only the lowest-index rule picks the message
        p0 = pc.Pmf([0.5, 0.5])
        flat = pc.CondPmf([[0.5, 0.5], [0.5, 0.5]])
        code = cc.build_codebook_code(p0, flat, n, rate, seed=15)
        x = source_draws(p0, n, 40, seed=16)
        assert np.array_equal(code.encode(x), brute_force_encode(code, x))

    def test_packed_words_above_n_rejected(self):
        p0 = pc.Pmf([0.5, 0.5])
        base = cc.build_codebook_code(p0, pc.CondPmf.identity(2), 4, 0.5, seed=0)
        with pytest.raises(ValueError, match="bit at or above"):
            cc.CodebookCode(
                n=4, x_size=2, y_size=2, rate1=0.5, target=base.target,
                packed_y=base.packed_y | np.uint64(1 << 4),
            )


class TestPackedBatch:
    """The batched walk and scan on whole chunks, against brute force."""

    def test_chunk_mixes_many_compositions(self, monkeypatch):
        q = pc.CondPmf([[0.9, 0.1], [0.3, 0.7], [0.5, 0.5]])
        code = cc.build_codebook_code(TERNARY_P0, q, 21, 0.8, seed=30)
        x = source_draws(TERNARY_P0, 21, 300, seed=31)
        comps = {tuple(np.bincount(row, minlength=3)) for row in x}
        assert len(comps) > 40
        walked, scanned = spy_packed_kernels(monkeypatch)
        assert np.array_equal(code.encode(x), brute_force_encode(code, x))
        assert walked().size + sum(scanned) >= 300

    def test_samples_leave_the_walk_mid_batch(self, monkeypatch):
        # a budget of 200 candidates resolves some samples of a composition
        # and sends the rest to the scan; 128 cells split every level into
        # many sample slices and still admit every table (at most 10 x 10)
        p0 = pc.Pmf([0.5, 0.5])
        code = cc.build_codebook_code(p0, pc.CondPmf.identity(2), 18, 0.95, seed=6)
        x = source_draws(p0, 18, 200, seed=7)
        monkeypatch.setattr(cc, "_CANDIDATE_CAP", 200)
        monkeypatch.setattr(cc, "_WALK_CELLS", 128)
        walked, scanned = spy_packed_kernels(monkeypatch)
        assert np.array_equal(code.encode(x), brute_force_encode(code, x))
        assert 0 < sum(scanned) < 200 and sum(scanned) == (walked() < 0).sum()

    @pytest.mark.parametrize(
        "n, rate, cap, kernel",
        [(12, 0.5, 200_000, "scan"), (18, 0.95, 200_000, "walk"), (18, 0.95, 300, "scan")],
    )
    def test_flat_target_ties_in_one_chunk(self, n, rate, cap, kernel, monkeypatch):
        # every count vector of a composition ties with its mirror image, in
        # the walk's levels and in the scan's blocks alike. The floor level
        # holds more words than a 64-word codebook or a 300-candidate budget,
        # so those samples all take the scan
        p0 = pc.Pmf([0.5, 0.5])
        code = cc.build_codebook_code(p0, pc.CondPmf([[0.5, 0.5], [0.5, 0.5]]), n, rate, seed=32)
        monkeypatch.setattr(cc, "_CANDIDATE_CAP", cap)
        monkeypatch.setattr(cc, "_PACKED_SCAN_BLOCK", 1000)
        walked, scanned = spy_packed_kernels(monkeypatch)
        x = source_draws(p0, n, 150, seed=33)
        assert np.array_equal(code.encode(x), brute_force_encode(code, x))
        if kernel == "walk":
            assert (walked() >= 0).sum() > 100
        else:
            assert sum(scanned) == 150

    @pytest.mark.parametrize("cap", [0, 200_000])
    def test_duplicated_words_across_scan_blocks(self, cap, monkeypatch):
        # four copies of each word, a quarter of the codebook apart, so
        # every copy sits in another 5000-word scan block
        p0 = pc.Pmf([0.5, 0.5])
        base = cc.build_codebook_code(p0, pc.CondPmf.identity(2), 18, 0.95, seed=34)
        words = np.tile(base.packed_y[: base.m1 // 4 + 1], 4)[: base.m1]
        dup = cc.CodebookCode(
            n=18, x_size=2, y_size=2, rate1=base.rate1, target=base.target, packed_y=words
        )
        monkeypatch.setattr(cc, "_CANDIDATE_CAP", cap)
        monkeypatch.setattr(cc, "_PACKED_SCAN_BLOCK", 5000)
        x = source_draws(p0, 18, 40, seed=35)
        got = dup.encode(x)
        assert np.array_equal(got, brute_force_encode(dup, x))
        assert got.max() <= base.m1 // 4

    def test_chunk_memory_is_bounded(self, traced):
        # a chunk of 4096 samples of a 439,075-word code, after a first
        # chunk has filled the composition caches; unbatched, one level of
        # a composition's samples took 62 MB
        p0 = pc.Pmf([0.5, 0.5])
        code = cc.build_codebook_code(p0, pc.CondPmf.identity(2), 24, 0.781, seed=36)
        code.encode(source_draws(p0, 24, cc.MC_CHUNK, seed=37))
        x = source_draws(p0, 24, cc.MC_CHUNK, seed=38)
        assert traced(lambda: code.encode(x))[1] < 10_000_000


class TestWorkBounds:
    """Hostile sizes are refused before anything is drawn."""

    @pytest.mark.parametrize(
        "n, samples, bound",
        [
            (16, 10**18, "MAX_SAMPLES"),
            (10**9, 2000, "MAX_SAMPLE_SYMBOLS"),
            (10**9, 1, "MAX_HELD_SYMBOLS"),
        ],
    )
    def test_monte_carlo_refused(self, n, samples, bound, refuse_work, traced):
        def run():
            with pytest.raises(ValueError, match=bound):
                cc.check_monte_carlo_work(n, samples)

        assert traced(run)[1] < 1 << 20

    def test_estimate_checks_bounds_first(self, monkeypatch, traced):
        # 10^18 samples once built a list of 2.4e14 chunk sizes
        p0 = pc.Pmf([0.5, 0.5])
        code = cc.build_codebook_code(p0, pc.CondPmf.identity(2), 16, 0.5, seed=1)
        target = pc.compose(p0, pc.CondPmf.identity(2))
        monkeypatch.setattr(cc, "_chunk_tvs", None)  # any chunk run fails

        def run():
            with pytest.raises(ValueError, match="MAX_SAMPLES"):
                cc.expected_tv_monte_carlo(code, p0, target, 10**18, 0, jobs=2)

        assert traced(run)[1] < 1 << 20

    @pytest.mark.parametrize(
        "q, n, rates, table_cap, bound",
        [
            # R1 = 0 passes message_count at any n; the one codeword's
            # 10^9 symbols would be 8 GB of uniforms
            (pc.CondPmf.identity(2), 10**9, (0.0, None), cc.DEFAULT_TABLE_CAP, "MAX_HELD_SYMBOLS"),
            (CASCADE_Q, 10**8, (0.0, 0.0), cc.DEFAULT_TABLE_CAP, "MAX_HELD_SYMBOLS"),
            (pc.CondPmf.identity(2), 64, (27.5 / 64, None), 1 << 40, "MAX_BUILD_SYMBOLS"),
        ],
    )
    def test_build_refused(self, q, n, rates, table_cap, bound, refuse_work, traced):
        def run():
            with pytest.raises(ValueError, match=bound):
                cc.build_codebook_code(
                    pc.Pmf([0.5, 0.5]), q, n, rates[0], rates[1], table_cap=table_cap
                )

        assert traced(run)[1] < 1 << 20

    def test_worker_count_capped(self, monkeypatch, pool_workers):
        monkeypatch.setattr(cc, "MC_CHUNK", 4)
        p0 = pc.Pmf([0.5, 0.5])
        code = cc.build_codebook_code(p0, pc.CondPmf.identity(2), 6, 0.5, seed=1)
        target = pc.compose(p0, pc.CondPmf.identity(2))
        for samples, jobs in [(400, 10**6), (10, 10**6), (400, 3), (400, 1)]:
            cc.expected_tv_monte_carlo(code, p0, target, samples, 2, jobs=jobs)
        assert pool_workers == [cc.MAX_JOBS, 3, 3]


class TestWordIndex:
    # dense table; keyed sort with keys using all 64 bits; n + 18 > 64, so
    # argsort
    @pytest.mark.parametrize("n", [20, 46, 48])
    def test_first_index_matches_scan(self, n):
        rng = np.random.default_rng(n)
        m = (1 << 17) + 5
        words = rng.integers(0, 1 << n, size=m, dtype=np.uint64)
        words[rng.integers(0, m, 4000)] = words[rng.integers(0, m, 4000)]
        words[:3] = [0, 1, 1]
        index = cc._WordIndex(words, n)
        assert (index.dense is not None, index.order is not None) == (n <= 20, n >= 48)
        for trial in range(60):
            present = words[rng.integers(0, m, trial % 4)]
            absent = rng.integers(0, 1 << n, size=5, dtype=np.uint64)
            absent[0] = (1 << n) - 1
            queries = np.concatenate([present, absent, words[:trial % 2]])
            rng.shuffle(queries)
            got = index.lookup(queries[None, :])[0]
            for q, g in zip(queries, got):
                hits = np.flatnonzero(words == q)
                assert g == (int(hits[0]) if hits.size else -1)
            hits = np.flatnonzero(np.isin(words, queries))
            want = int(hits[0]) if hits.size else -1
            assert (int(got[got >= 0].min()) if (got >= 0).any() else -1) == want

    def test_long_runs_of_equal_top_bits(self):
        # 2^16 words below 2^30 at n = 46 share 16 values of their top 20
        # bits: runs of about 4096 keys, a 13-step search in each
        rng = np.random.default_rng(7)
        words = rng.integers(0, 1 << 30, size=1 << 16, dtype=np.uint64)
        words[rng.integers(0, 1 << 16, 2000)] = words[rng.integers(0, 1 << 16, 2000)]
        index = cc._WordIndex(words, 46)
        assert index.depth >= 12
        queries = np.concatenate([words[rng.integers(0, 1 << 16, 500)], words[:5] + np.uint64(1),
                                  rng.integers(0, 1 << 46, 500, dtype=np.uint64)])
        _, first = np.unique(words, return_index=True)
        lowest = dict(zip(words[first].tolist(), first.tolist()))
        want = [lowest.get(q, -1) for q in queries.tolist()]
        assert index.lookup(queries).tolist() == want


class TestParallelCaches:
    """Worker threads fill the per-composition caches; reports must not
    depend on the worker count. Each run gets a fresh code, so the caches
    start empty under every worker count. Four workers, more than the
    cores, switch threads every 10 us to make races on the caches likely."""

    @pytest.mark.parametrize(
        "p0, q, n, rate",
        [
            (pc.Pmf([0.5, 0.5]), pc.CondPmf.identity(2), 18, 0.95),
            (TERNARY_P0, TERNARY_Q, 8, 1.0),
        ],
    )
    def test_jobs_do_not_change_report(self, p0, q, n, rate, monkeypatch):
        monkeypatch.setattr(cc, "MC_CHUNK", 256)  # 1100 samples, 5 chunks
        target = pc.compose(p0, q)
        reports = []
        interval = sys.getswitchinterval()
        try:
            for jobs in (1, 2, 4):
                sys.setswitchinterval(1e-5 if jobs == 4 else interval)
                code = cc.build_codebook_code(p0, q, n, rate, seed=17)
                reports.append(
                    cc.expected_tv_monte_carlo(code, p0, target, 1100, 18, jobs=jobs)
                )
        finally:
            sys.setswitchinterval(interval)
        assert code._walks or code.symbols_y is not None
        assert reports[0] == reports[1] == reports[2]


class TestBlockRepeat:
    def test_rates_preserved_exactly(self):
        code = copy_code()
        for k in (1, 4, 16):
            rep = cc.block_repeat(code, k)
            assert rep.rate1 == code.rate1
            assert rep.n == k * code.n

    def test_per_block_factorization(self, uniform_binary):
        base = cc.build_codebook_code(
            uniform_binary, pc.CondPmf.identity(2), 3, 0.7, seed=13
        )
        rep = cc.block_repeat(base, 4)
        rng = np.random.default_rng(0)
        x = rng.integers(0, 2, size=(5, 12))
        rows = rep.decoded_rows(x)[0]
        for s in range(5):
            for b in range(4):
                block = x[s, 3 * b : 3 * b + 3][None, :]
                assert np.array_equal(
                    rows[s, 3 * b : 3 * b + 3], base.decoded_rows(block)[0][0]
                )

    def test_type_is_mean_of_block_types(self, uniform_binary):
        base = cc.build_codebook_code(
            uniform_binary, pc.CondPmf.identity(2), 3, 0.7, seed=13
        )
        rep = cc.block_repeat(base, 8)
        rng = np.random.default_rng(1)
        x = rng.integers(0, 2, size=24)
        y = rep.decoded_rows(x[None, :])[0][0]
        whole = pc.joint_type([x, y], (2, 2)).mass
        parts = [
            pc.joint_type([x[3 * b : 3 * b + 3], y[3 * b : 3 * b + 3]], (2, 2)).mass
            for b in range(8)
        ]
        assert np.allclose(whole, np.mean(parts, axis=0), atol=1e-15)

    def test_expected_type_matches_base(self, uniform_binary):
        base = cc.build_codebook_code(
            uniform_binary, pc.CondPmf.identity(2), 2, 1.0, seed=3
        )
        rep = cc.block_repeat(base, 3)
        a = cc.expected_type_of_code(base, uniform_binary)
        b = cc.expected_type_of_code(rep, uniform_binary)
        assert np.allclose(a.mass, b.mass, atol=1e-12)

    def test_rejects_nonpositive_k(self, uniform_binary):
        base = cc.build_codebook_code(
            uniform_binary, pc.CondPmf.identity(2), 4, 1.0, seed=3
        )
        with pytest.raises(ValueError):
            cc.block_repeat(base, 0)

    def test_large_k_keeps_factored_messages(self, uniform_binary):
        # message indices stay per-block, so the product message set never
        # needs a single machine integer
        base = cc.build_codebook_code(
            uniform_binary, pc.CondPmf.identity(2), 1, 1.0, seed=3
        )
        rep = cc.block_repeat(base, 64)
        assert rep.n == 64 and rep.rate1 == 1.0
        msgs = rep.encode(np.zeros(64, dtype=np.int64))
        assert msgs.shape == (1, 64)


class TestSimReport:
    def test_round_trip(self):
        rep = cc.SimReport(100, 0.25, 0.01, (0.0, 0.1, 0.2, 0.4, 1.0), 7)
        assert cc.SimReport.from_json_dict(rep.to_json_dict()) == rep

    def test_validation(self):
        with pytest.raises(ValueError):
            cc.SimReport(10, 1.5, 0.0, (0, 0, 0, 0, 0), 0)
        with pytest.raises(ValueError):
            cc.SimReport(10, 0.5, 0.0, (0.5, 0.2, 0.6, 0.7, 1.0), 0)
