"""Exact probability algebra on small finite alphabets.

Dense pmfs and conditionals, empirical types of aligned symbol sequences,
total variation, closed-ball neighborhood tests, mutual information in bits
(and the elementwise x log helpers behind it and the grid oracle), and the
averaged-marginal identity for expected types.

Everything is plain numpy on small dense tensors. All container types are
immutable after construction and all operations are pure functions, so they
are safe to share across worker threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

NORM_TOL = 1e-12   # pmf mass must sum to 1 within this
TV_SLACK = 1e-12   # closed-ball slack for neighborhood membership
LN2 = float(np.log(2.0))
# |ln(x / y)| past which x / y leaves the normal floating-point range
_LOG_RATIO_FAR = -float(np.log(np.finfo(float).tiny))

_BRUTE_FORCE_GUARD = 100_000  # max sequence count for exact type enumeration


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def xlogx(t) -> np.ndarray:
    """Elementwise t ln t, with 0 at t = 0 and nan below 0 (as
    ``scipy.special.xlogy(t, t)``); raises no floating-point warning.

    Works in place on its one output array, so a large argument costs one
    array of floats and one of bools on top of itself.
    """
    t = np.asarray(t, dtype=float)
    out = np.log(t, out=np.empty(t.shape))
    np.multiply(t, out, out=out)
    np.copyto(out, 0.0, where=t == 0.0)
    return out


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def rel_entr(x, y) -> np.ndarray:
    """Elementwise x ln(x / y), the terms of a relative entropy in nats,
    with the values of ``scipy.special.rel_entr``.

    - 0 where x = 0 <= y; +inf where x < 0, or where y <= 0 < x; nan
      where either is nan.
    - For x, y > 0 the logarithm of the ratio is log1p((x - y) / y) while
      x / y lies in (1/2, 2), where x - y is exact; ln x - ln y once x / y
      leaves the normal range; and ln(x / y) between. Finite values agree
      with scipy's to a few ulp.

    Raises no floating-point warning.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    log_ratio = np.log(x / y)
    size = np.abs(log_ratio)
    log_ratio = np.where(size < LN2, np.log1p((x - y) / y), log_ratio)
    log_ratio = np.where(size < _LOG_RATIO_FAR, log_ratio, np.log(x) - np.log(y))
    # right where x, y > 0 and where either is nan (nan there too), and
    # +inf at y = 0 < x; the rest is nan or has the wrong sign
    out = np.asarray(x * log_ratio)
    out[(x == 0.0) & (y >= 0.0)] = 0.0
    out[np.minimum(x, y) < 0.0] = np.inf
    return out


def _frozen_mass(values, what: str) -> np.ndarray:
    """Validate and freeze a nonnegative array summing to 1."""
    arr = np.array(values, dtype=float)
    if arr.size == 0:
        raise ValueError(f"{what}: empty mass array")
    if arr.min() < -NORM_TOL:
        raise ValueError(f"{what}: negative entry {arr.min():.3g}")
    total = arr.sum()
    if not abs(total - 1.0) <= NORM_TOL:  # NaN fails here too
        raise ValueError(f"{what}: mass sums to {float(total)!r}, expected 1")
    np.clip(arr, 0.0, None, out=arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Pmf:
    """Probability mass function on {0, ..., k-1}."""

    mass: np.ndarray

    def __post_init__(self):
        arr = _frozen_mass(self.mass, "Pmf")
        if arr.ndim != 1:
            raise ValueError(f"Pmf: mass must be 1-D, got shape {arr.shape}")
        object.__setattr__(self, "mass", arr)

    @property
    def alphabet_size(self) -> int:
        return self.mass.shape[0]

    def __eq__(self, other):
        return isinstance(other, Pmf) and np.array_equal(self.mass, other.mass)


@dataclass(frozen=True, eq=False)
class JointPmf:
    """Joint pmf as a dense tensor over up to three finite alphabets."""

    mass: np.ndarray

    def __post_init__(self):
        arr = _frozen_mass(self.mass, "JointPmf")
        if not 1 <= arr.ndim <= 3:
            raise ValueError(f"JointPmf: expected 1-3 axes, got {arr.ndim}")
        object.__setattr__(self, "mass", arr)

    @property
    def shape(self) -> tuple:
        return self.mass.shape

    def __eq__(self, other):
        return isinstance(other, JointPmf) and np.array_equal(self.mass, other.mass)


@dataclass(frozen=True, eq=False)
class CondPmf:
    """One output pmf per input symbol: rows[x] is a pmf over the outputs."""

    rows: np.ndarray

    def __post_init__(self):
        arr = np.array(self.rows, dtype=float)
        if not 2 <= arr.ndim <= 3:
            raise ValueError(f"CondPmf: rows must have 2 or 3 axes, got {arr.ndim}")
        flat = arr.reshape(arr.shape[0], -1)
        if flat.min() < -NORM_TOL:
            raise ValueError(f"CondPmf: negative entry {flat.min():.3g}")
        sums = flat.sum(axis=1)
        bad = np.nonzero(~(np.abs(sums - 1.0) <= NORM_TOL))[0]  # NaN rows too
        if bad.size:
            raise ValueError(
                f"CondPmf: row {bad[0]} sums to {float(sums[bad[0]])!r}, expected 1"
            )
        np.clip(arr, 0.0, None, out=arr)
        arr.setflags(write=False)
        object.__setattr__(self, "rows", arr)

    @property
    def input_size(self) -> int:
        return self.rows.shape[0]

    @classmethod
    def identity(cls, k: int) -> "CondPmf":
        return cls(np.eye(k))

    def __eq__(self, other):
        return isinstance(other, CondPmf) and np.array_equal(self.rows, other.rows)


@dataclass(frozen=True, eq=False)
class TypeRecord:
    """Empirical joint type: integer symbol counts for a block of length n."""

    blocklength: int
    counts: np.ndarray

    def __post_init__(self):
        arr = np.array(self.counts)
        if not np.issubdtype(arr.dtype, np.integer):
            rounded = np.rint(arr)
            if not np.array_equal(rounded, arr):
                raise ValueError("TypeRecord: counts must be integers")
            arr = rounded.astype(np.int64)
        else:
            arr = arr.astype(np.int64)
        if self.blocklength < 1:
            raise ValueError(f"TypeRecord: blocklength {self.blocklength} < 1")
        if arr.min() < 0:
            raise ValueError("TypeRecord: negative count")
        if arr.sum() != self.blocklength:
            raise ValueError(
                f"TypeRecord: counts sum to {arr.sum()}, expected {self.blocklength}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "counts", arr)

    @property
    def mass(self) -> np.ndarray:
        return self.counts / self.blocklength

    def __eq__(self, other):
        return (
            isinstance(other, TypeRecord)
            and self.blocklength == other.blocklength
            and np.array_equal(self.counts, other.counts)
        )


def _mass_of(p) -> np.ndarray:
    if isinstance(p, (Pmf, JointPmf)):
        return p.mass
    if isinstance(p, TypeRecord):
        return p.mass
    return np.asarray(p, dtype=float)


def joint_type(sequences, alphabet_sizes) -> TypeRecord:
    """Empirical joint type of aligned symbol sequences.

    counts[a, b, ...] is the number of positions i where the tuple of
    symbols (x_i, y_i, ...) equals (a, b, ...).
    """
    seqs = [np.asarray(s, dtype=np.int64) for s in sequences]
    sizes = tuple(int(k) for k in alphabet_sizes)
    if len(seqs) != len(sizes):
        raise ValueError(
            f"joint_type: {len(seqs)} sequences but {len(sizes)} alphabet sizes"
        )
    if not seqs:
        raise ValueError("joint_type: no sequences given")
    n = seqs[0].shape[0]
    if n < 1:
        raise ValueError("joint_type: empty sequences")
    for i, s in enumerate(seqs):
        if s.ndim != 1 or s.shape[0] != n:
            raise ValueError(f"joint_type: sequence {i} length {s.shape} != {n}")
        if s.min() < 0 or s.max() >= sizes[i]:
            raise ValueError(
                f"joint_type: sequence {i} has symbol outside [0, {sizes[i]})"
            )
    flat = np.ravel_multi_index(seqs, sizes)
    counts = np.bincount(flat, minlength=int(np.prod(sizes))).reshape(sizes)
    return TypeRecord(n, counts)


def total_variation(p, q) -> float:
    """Half the l1 distance between two pmfs of identical shape."""
    pm, qm = _mass_of(p), _mass_of(q)
    if pm.shape != qm.shape:
        raise ValueError(f"total_variation: shape mismatch {pm.shape} vs {qm.shape}")
    return 0.5 * float(np.abs(pm - qm).sum())


def in_delta_neighborhood(p, q, delta: float) -> bool:
    """Closed-ball test: TV(p, q) <= delta, with 1e-12 boundary slack."""
    if not delta >= 0:  # NaN fails here too
        raise ValueError(f"in_delta_neighborhood: delta must be >= 0, got {delta}")
    return total_variation(p, q) <= delta + TV_SLACK


def compose(p0: Pmf, cond: CondPmf) -> JointPmf:
    """Product joint: mass[x, ...] = p0(x) * cond.rows[x]."""
    if p0.alphabet_size != cond.input_size:
        raise ValueError(
            f"compose: source size {p0.alphabet_size} != conditional input "
            f"size {cond.input_size}"
        )
    idx = (slice(None),) + (None,) * (cond.rows.ndim - 1)
    return JointPmf(p0.mass[idx] * cond.rows)


def marginal(joint: JointPmf, axes) -> JointPmf:
    """Marginal over the given axes, kept in the order given."""
    axes = tuple(int(a) for a in axes)
    nd = joint.mass.ndim
    if not axes:
        raise ValueError("marginal: empty axis set")
    if len(set(axes)) != len(axes) or any(a < 0 or a >= nd for a in axes):
        raise ValueError(f"marginal: bad axes {axes} for {nd}-axis joint")
    drop = tuple(a for a in range(nd) if a not in axes)
    out = joint.mass.sum(axis=drop) if drop else joint.mass
    kept_sorted = tuple(a for a in range(nd) if a in axes)
    order = tuple(kept_sorted.index(a) for a in axes)
    return JointPmf(np.transpose(out, order))


def marginal_pmf(joint: JointPmf, axis: int) -> Pmf:
    """Single-axis marginal as a Pmf."""
    return Pmf(marginal(joint, (axis,)).mass)


def conditional(joint: JointPmf, given_axis: int = 0) -> CondPmf:
    """Conditional of the remaining axes given one axis.

    Rows whose conditioning symbol has zero marginal mass are set to
    uniform; composed back with any source they never contribute mass.
    """
    nd = joint.mass.ndim
    if nd < 2:
        raise ValueError("conditional: need at least 2 axes")
    if not 0 <= given_axis < nd:
        raise ValueError(f"conditional: bad axis {given_axis}")
    moved = np.moveaxis(joint.mass, given_axis, 0)
    flat = moved.reshape(moved.shape[0], -1)
    sums = flat.sum(axis=1)
    zero_rows = np.nonzero(sums <= 0.0)[0]
    rows = np.empty_like(flat)
    np.divide(flat, np.where(sums > 0.0, sums, 1.0)[:, None], out=rows)
    if zero_rows.size:
        rows[zero_rows] = 1.0 / flat.shape[1]
    return CondPmf(rows.reshape(moved.shape))


def mutual_information(joint, groups=None) -> float:
    """Mutual information in bits between two groups of axes.

    For a 2-axis joint the groups default to ((0,), (1,)); for a 3-axis
    joint to ((0,), (1, 2)). 0 * log(0/q) is treated as 0.
    """
    mass = _mass_of(joint)
    nd = mass.ndim
    if groups is None:
        groups = ((0,), tuple(range(1, nd)))
    ga, gb = (tuple(int(a) for a in g) for g in groups)
    if not ga or not gb or sorted(ga + gb) != list(range(nd)):
        raise ValueError(f"mutual_information: groups {groups} do not partition axes")
    perm = ga + gb
    moved = np.transpose(mass, perm)
    na = int(np.prod([mass.shape[a] for a in ga]))
    mat = moved.reshape(na, -1)
    pa = mat.sum(axis=1)
    pb = mat.sum(axis=0)
    val = rel_entr(mat, np.outer(pa, pb)).sum() / LN2
    return max(float(val), 0.0)


def expected_type(per_coordinate_marginals: Sequence[Pmf]) -> Pmf:
    """Arithmetic mean of per-coordinate marginals.

    This equals the expected empirical type of a random sequence whose
    coordinates have the given marginals; for i.i.d. coordinates it is the
    common marginal.
    """
    pmfs = list(per_coordinate_marginals)
    if not pmfs:
        raise ValueError("expected_type: empty marginal list")
    k = pmfs[0].alphabet_size
    if any(p.alphabet_size != k for p in pmfs):
        raise ValueError("expected_type: alphabet size mismatch")
    return Pmf(np.mean([p.mass for p in pmfs], axis=0))


def coordinate_marginals(p_seq: np.ndarray) -> list:
    """Per-coordinate marginals of a joint distribution over n coordinates.

    ``p_seq`` has one axis per coordinate, all of the same alphabet size.
    Works on float arrays and on object arrays of ``Fraction`` (exact).
    """
    p = np.asarray(p_seq)
    n = p.ndim
    out = []
    for k in range(n):
        drop = tuple(a for a in range(n) if a != k)
        out.append(p.sum(axis=drop) if drop else p.copy())
    return out


def expected_type_bruteforce(p_seq: np.ndarray):
    """Expected empirical type by exhaustive enumeration of all sequences.

    E{type}(a) = sum over sequences of p(seq) * (occurrences of a) / n.
    Exact when ``p_seq`` is an object array of ``Fraction``. Intended for
    tiny instances; guarded at 1e5 sequences.
    """
    p = np.asarray(p_seq)
    n = p.ndim
    a = p.shape[0]
    if any(s != a for s in p.shape):
        raise ValueError(f"expected_type_bruteforce: mixed alphabets {p.shape}")
    if a**n > _BRUTE_FORCE_GUARD:
        raise ValueError(f"{a}^{n} sequences exceed _BRUTE_FORCE_GUARD {_BRUTE_FORCE_GUARD}")
    exact = p.dtype == object
    zero = Fraction(0) if exact else 0.0
    out = [zero] * a
    for seq in itertools.product(range(a), repeat=n):
        pr = p[seq]
        for sym in set(seq):
            c = seq.count(sym)
            out[sym] = out[sym] + pr * (Fraction(c, n) if exact else c / n)
    if exact:
        return np.array(out, dtype=object)
    return np.array(out, dtype=float)
