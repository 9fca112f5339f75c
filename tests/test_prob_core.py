import math
import os
import subprocess
import sys
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import rel_entr, xlogy

from coordlab import prob_core as pc


def pmf_values(k):
    return (
        st.lists(st.floats(1e-3, 1.0), min_size=k, max_size=k)
        .map(lambda v: [x / sum(v) for x in v])
    )


class TestJointType:
    def test_counts_by_hand(self):
        rec = pc.joint_type([(0, 1, 0)], (2,))
        assert np.allclose(rec.mass, [2 / 3, 1 / 3])

    def test_constant_sequence(self):
        rec = pc.joint_type([(0, 0, 0)], (2,))
        assert rec.counts.tolist() == [3, 0]

    def test_pair_counting(self):
        rec = pc.joint_type([(0, 1), (1, 0)], (2, 2))
        assert rec.counts.tolist() == [[0, 1], [1, 0]]
        assert rec.mass[0, 1] == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pc.joint_type([(0, 1), (0,)], (2, 2))

    def test_symbol_out_of_range(self):
        with pytest.raises(ValueError):
            pc.joint_type([(0, 2)], (2,))

    def test_entries_are_multiples_of_inv_n(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            seq = rng.integers(0, 3, size=n)
            rec = pc.joint_type([seq], (3,))
            scaled = rec.mass * n
            assert np.allclose(scaled, np.round(scaled), atol=1e-12)

    def test_concatenation_is_weighted_average(self):
        a, b = (0, 1, 1), (0, 0, 1, 1, 1)
        ta = pc.joint_type([a], (2,)).mass
        tb = pc.joint_type([b], (2,)).mass
        tc = pc.joint_type([a + b], (2,)).mass
        assert np.allclose(tc, (3 * ta + 5 * tb) / 8, atol=1e-15)


class TestTotalVariation:
    def test_identical(self):
        p = pc.Pmf([0.3, 0.7])
        assert pc.total_variation(p, p) == 0.0

    def test_disjoint_support(self):
        assert pc.total_variation(pc.Pmf([1, 0]), pc.Pmf([0, 1])) == 1.0

    def test_half(self):
        assert pc.total_variation(pc.Pmf([0.5, 0.5]), pc.Pmf([1, 0])) == 0.5

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            pc.total_variation(pc.Pmf([1.0]), pc.Pmf([0.5, 0.5]))

    @settings(max_examples=60, deadline=None)
    @given(pmf_values(4), pmf_values(4), pmf_values(4), st.floats(0, 1))
    def test_axioms(self, a, b, c, lam):
        p, q, r = pc.Pmf(a), pc.Pmf(b), pc.Pmf(c)
        tv = pc.total_variation
        assert abs(tv(p, q) - tv(q, p)) <= 1e-12
        assert -1e-12 <= tv(p, q) <= 1 + 1e-12
        assert tv(p, r) <= tv(p, q) + tv(q, r) + 1e-12
        mix = pc.Pmf(lam * p.mass + (1 - lam) * q.mass)
        assert tv(mix, r) <= lam * tv(p, r) + (1 - lam) * tv(q, r) + 1e-12


class TestNeighborhood:
    def test_self_membership(self):
        p = pc.Pmf([0.2, 0.8])
        assert pc.in_delta_neighborhood(p, p, 0.0)

    def test_outside(self):
        assert not pc.in_delta_neighborhood(pc.Pmf([1, 0]), pc.Pmf([0, 1]), 0.5)

    def test_boundary_is_included(self):
        assert pc.in_delta_neighborhood(pc.Pmf([0.5, 0.5]), pc.Pmf([1, 0]), 0.5)

    def test_negative_delta(self):
        p = pc.Pmf([0.5, 0.5])
        with pytest.raises(ValueError):
            pc.in_delta_neighborhood(p, p, -0.1)

    def test_nan_delta(self):
        p = pc.Pmf([0.5, 0.5])
        with pytest.raises(ValueError, match="delta must be >= 0, got nan"):
            pc.in_delta_neighborhood(p, p, math.nan)


class TestComposeAndMarginals:
    def test_degenerate_source(self):
        cond = pc.CondPmf([[0.4, 0.6], [0.9, 0.1]])
        joint = pc.compose(pc.Pmf([1, 0]), cond)
        assert joint.mass[1].sum() == 0.0
        assert np.allclose(joint.mass[0], [0.4, 0.6])

    def test_identity_channel(self, uniform_binary, identity_channel):
        joint = pc.compose(uniform_binary, identity_channel)
        assert np.allclose(joint.mass, np.diag([0.5, 0.5]))

    def test_uniform_rows_give_independence(self, uniform_binary):
        cond = pc.CondPmf([[0.5, 0.5], [0.5, 0.5]])
        joint = pc.compose(uniform_binary, cond)
        assert np.allclose(joint.mass, 0.25)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            pc.compose(pc.Pmf([1.0]), pc.CondPmf([[0.5, 0.5], [0.5, 0.5]]))

    def test_source_marginal_preserved(self):
        rng = np.random.default_rng(3)
        p0 = pc.Pmf(rng.dirichlet([1, 1, 1]))
        cond = pc.CondPmf(rng.dirichlet([1, 1], size=3))
        joint = pc.compose(p0, cond)
        assert np.allclose(pc.marginal_pmf(joint, 0).mass, p0.mass, atol=1e-15)

    def test_marginal_of_product(self):
        p = pc.Pmf([0.3, 0.7])
        q = pc.Pmf([0.1, 0.9])
        joint = pc.JointPmf(np.outer(p.mass, q.mass))
        assert np.allclose(pc.marginal_pmf(joint, 1).mass, q.mass)

    def test_conditional_of_diagonal(self, identity_joint):
        cond = pc.conditional(identity_joint, 0)
        assert np.allclose(cond.rows, np.eye(2))

    def test_reconstruction_round_trip(self):
        rng = np.random.default_rng(11)
        joint = pc.JointPmf(rng.dirichlet(np.ones(6)).reshape(2, 3))
        cond = pc.conditional(joint, 0)
        back = pc.compose(pc.marginal_pmf(joint, 0), cond)
        assert np.allclose(back.mass, joint.mass, atol=1e-12)

    def test_zero_row_flagged_uniform(self):
        joint = pc.JointPmf([[0.5, 0.5], [0.0, 0.0]])
        cond = pc.conditional(joint, 0)
        assert np.allclose(cond.rows[1], [0.5, 0.5])


class TestMutualInformation:
    def test_product_is_zero(self):
        joint = pc.JointPmf(np.outer([0.3, 0.7], [0.6, 0.4]))
        assert abs(pc.mutual_information(joint)) <= 1e-12

    def test_uniform_identity_is_one_bit(self, identity_joint):
        assert abs(pc.mutual_information(identity_joint) - 1.0) <= 1e-12

    def test_binary_symmetric_value(self):
        eps = 0.11
        joint = pc.JointPmf(0.5 * np.array([[1 - eps, eps], [eps, 1 - eps]]))
        h2 = -eps * math.log2(eps) - (1 - eps) * math.log2(1 - eps)
        assert abs(pc.mutual_information(joint) - (1 - h2)) <= 1e-12

    def test_group_ordering(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            joint = pc.JointPmf(rng.dirichlet(np.ones(8)).reshape(2, 2, 2))
            i_xyz = pc.mutual_information(joint, groups=((0,), (1, 2)))
            i_xz = pc.mutual_information(
                pc.marginal(joint, (0, 2)), groups=((0,), (1,))
            )
            assert i_xyz >= i_xz - 1e-12

    def test_degenerate_partition(self, identity_joint):
        with pytest.raises(ValueError):
            pc.mutual_information(identity_joint, groups=((0, 1), ()))
        with pytest.raises(ValueError):
            pc.mutual_information(identity_joint, groups=((0,), (0, 1)))


def hard_pairs(seed=3, n=20_000):
    """(x, y) arrays mixing zeros (both signs), subnormals, ratios in
    (1/2, 2), ratios past the float range, negatives, infinities and nan."""
    rng = np.random.default_rng(seed)
    y = rng.random(n) * 10.0 ** rng.integers(-320, 300, n)
    near = rng.uniform(0.5, 2.0, n)
    with np.errstate(over="ignore"):
        far = 10.0 ** rng.uniform(-400.0, 400.0, n)
        x = y * np.where(rng.random(n) < 0.5, near, far)
    x[::17] = 0.0
    y[::23] = 0.0
    y[::37] = -0.0
    x[::29] *= -1.0
    y[::31] *= -1.0
    x[::59] = 5e-324
    y[::61] = 2.5e-320
    x[::41] = np.nan
    y[::43] = np.nan
    x[::47] = np.inf
    y[::53] = np.inf
    return x, y


def assert_same_values(got, want, ulps):
    """Same nan/+inf/-inf/zero pattern, finite values within ``ulps``."""
    for where in (np.isnan, np.isposinf, np.isneginf, lambda a: a == 0.0):
        assert np.array_equal(where(got), where(want))
    finite = np.isfinite(want) & (want != 0.0)
    off = np.abs(got[finite] - want[finite]) / np.spacing(np.abs(want[finite]))
    assert off.max() <= ulps


class TestXlogHelpers:
    """``rel_entr`` and ``xlogx`` against scipy.special, the reference for
    the values and the zero/inf/nan conventions."""

    def test_rel_entr_matches_scipy(self):
        x, y = hard_pairs()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pc.rel_entr(x, y)
        assert_same_values(got, rel_entr(x, y), 4)

    def test_rel_entr_near_one(self):
        # x / y within 1e-9 of 1, where ln(x / y) alone loses most digits:
        # against the exact value, rounded once
        rng = np.random.default_rng(4)
        y = rng.random(2_000)
        x = y * (1.0 + rng.uniform(-1e-9, 1e-9, y.size))
        with localcontext() as ctx:
            ctx.prec = 60
            exact = np.array([float(Decimal(a) * (Decimal(a) / Decimal(b)).ln()) for a, b in zip(x, y)])
        assert_same_values(pc.rel_entr(x, y), exact, 4)

    def test_xlogx_matches_scipy(self):
        x, _ = hard_pairs()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pc.xlogx(x)
        assert_same_values(got, xlogy(x, x), 4)

    def test_rel_entr_domain(self):
        x = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0, -1.0, -1.0, 0.0])
        y = np.array([0.0, 2.0, -1.0, 0.0, -0.0, -2.0, 2.0, -2.0, np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pc.rel_entr(x, y)
        inf = np.inf
        assert got.tolist() == [0.0, 0.0, inf, inf, inf, inf, inf, inf, 0.0]

    def test_broadcast_and_scalars(self):
        q = np.array([[0.5, 0.5, 0.0], [0.2, 0.0, 0.8]])
        r = np.array([0.35, 0.25, 0.4])
        assert np.array_equal(pc.rel_entr(q, r), rel_entr(q, r))
        assert float(pc.rel_entr(0.0, 0.0)) == 0.0
        assert float(pc.rel_entr(2.0, 0.0)) == math.inf
        assert float(pc.xlogx(0.0)) == 0.0


def test_cli_import_loads_no_scipy():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, coordlab.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


class TestExpectedType:
    def test_iid_case(self):
        p = pc.Pmf([0.2, 0.8])
        assert np.allclose(pc.expected_type([p, p, p]).mass, p.mass)

    def test_average_of_point_masses(self):
        out = pc.expected_type([pc.Pmf([1, 0]), pc.Pmf([0, 1])])
        assert np.allclose(out.mass, [0.5, 0.5])

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            pc.expected_type([pc.Pmf([1.0]), pc.Pmf([0.5, 0.5])])

    def test_bruteforce_identity_exact(self):
        # exact-rational path: equality, not approximation
        rng = np.random.default_rng(17)
        for _ in range(5):
            weights = rng.integers(1, 12, size=9)
            total = int(weights.sum())
            flat = np.array(
                [Fraction(int(w), total) for w in weights], dtype=object
            ).reshape(3, 3)
            brute = pc.expected_type_bruteforce(flat)
            avg = sum(pc.coordinate_marginals(flat)) / 2
            assert all(brute[i] == avg[i] for i in range(3))

    def test_bruteforce_guard_named(self):
        # refused by the guard before any sequence is enumerated
        with pytest.raises(
            ValueError, match=r"^2\^17 sequences exceed _BRUTE_FORCE_GUARD 100000$"
        ):
            pc.expected_type_bruteforce(np.full((2,) * 17, 2.0**-17))


class TestTypeRecord:
    def test_count_sum_enforced(self):
        with pytest.raises(ValueError):
            pc.TypeRecord(blocklength=3, counts=np.array([1, 1]))

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            pc.TypeRecord(blocklength=2, counts=np.array([3, -1]))
