"""Coordination codes on finite alphabets and their induced statistics.

A two-node code maps a source block x^n through a rate-limited message to an
action block y^n; a cascade code forwards a recoded message to a third node
producing z^n. This module provides explicit table codes, random-codebook
codes with a minimum-TV joint-type encoder, the block-repetition operator,
exact evaluation of the expected type distortion at enumeration scale, and a
chunked deterministic Monte-Carlo estimator for everything larger.

Large binary codebooks are stored as uint64 bitmasks and the encoder scan
runs on popcounts with an early exit at the exact per-composition TV floor,
which keeps minimum-TV encoding tractable for tens of millions of codewords.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from coordlab.prob_core import JointPmf, Pmf, CondPmf, compose, total_variation

MC_CHUNK = 4096            # samples per Monte-Carlo chunk (one RNG substream each)
ENUM_GUARD = 4096          # max |X|^n for exact enumeration paths
DEFAULT_TABLE_CAP = 1 << 26  # max message-set size for constructed codes
_PACKED_SCAN_BLOCK = 1 << 18   # codewords per block in the early-exit scan
_BROADCAST_MAX = 1 << 22       # max samples*codewords elements per broadcast batch
_CANDIDATE_CAP = 200_000       # max enumerated action words per encoded sample
_MAX_LOG2_COUNT = 1024.0       # 2.0 ** 1024 overflows a float


def message_count(n: int, rate: float) -> int:
    """Size of the message set at blocklength n: ceil(2^(n*rate)).

    A hair of slack guards against float representation pushing an intended
    integer power just above itself. Counts past the float range are
    rejected from the exponent, before the power can overflow.
    """
    if rate < 0:
        raise ValueError(f"message_count: negative rate {rate}")
    if n * rate >= _MAX_LOG2_COUNT:
        raise ValueError(
            f"message_count: 2^{n * rate:g} messages exceed the float range"
        )
    return max(1, int(math.ceil(2.0 ** (n * rate) - 1e-9)))


def _as_batch(x, n: int, x_size: int) -> np.ndarray:
    arr = np.asarray(x, dtype=np.int64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != n:
        raise ValueError(f"expected sequences of length {n}, got shape {arr.shape}")
    if arr.size and (arr.min() < 0 or arr.max() >= x_size):
        raise ValueError(f"symbol outside [0, {x_size})")
    return arr


def _enumerate_inputs(x_size: int, n: int) -> np.ndarray:
    """All |X|^n source sequences as an (|X|^n, n) array, lexicographic."""
    total = x_size**n
    if total > ENUM_GUARD:
        raise ValueError(f"enumeration guard exceeded: {x_size}^{n} > {ENUM_GUARD}")
    return np.indices((x_size,) * n).reshape(n, total).T.copy()


def _type_counts(joint_codes: np.ndarray, num_cells: int) -> np.ndarray:
    """Per-row symbol-tuple counts: (S, n) cell codes -> (S, num_cells)."""
    s, n = joint_codes.shape
    offs = (np.arange(s, dtype=np.int64) * num_cells)[:, None]
    flat = (joint_codes + offs).ravel()
    return np.bincount(flat, minlength=s * num_cells).reshape(s, num_cells)


def _tv_rows(counts: np.ndarray, n: int, target_flat: np.ndarray) -> np.ndarray:
    return 0.5 * np.abs(counts / n - target_flat[None, :]).sum(axis=1)


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack (S, n<=64) {0,1} rows into uint64 masks, bit t = position t."""
    s, n = bits.shape
    packed8 = np.packbits(bits.astype(np.uint8), axis=1, bitorder="little")
    if packed8.shape[1] < 8:
        pad = np.zeros((s, 8 - packed8.shape[1]), dtype=np.uint8)
        packed8 = np.concatenate([packed8, pad], axis=1)
    return packed8.view(np.uint64).ravel()


def _unpack_bits(words: np.ndarray, n: int) -> np.ndarray:
    shifts = np.arange(n, dtype=np.uint64)
    return ((words[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.int64)


def _subset_or(bits: np.ndarray, c: int) -> np.ndarray:
    """OR of every size-c subset of disjoint single-bit words, one per row."""
    k = bits.shape[0]
    if c == 0:
        return np.zeros(1, dtype=np.uint64)
    if c > k - c:
        # enumerate the complement instead; disjoint bits make OR a sum
        return bits.sum(dtype=np.uint64) - _subset_or(bits, k - c)
    if c == 1:
        return bits.copy()
    if c == 2:
        iu = np.triu_indices(k, k=1)
        return (bits[iu[0]] + bits[iu[1]]).astype(np.uint64)
    idx = np.array(list(itertools.combinations(range(k), c)), dtype=np.int64)
    return bits[idx].sum(axis=1, dtype=np.uint64)


@dataclass(frozen=True, eq=False)
class TableCode:
    """Coordination code with fully explicit lookup tables.

    encoder[i] is the message for the i-th source sequence in lexicographic
    order; decoder_mid[m] is the y^n block for message m. Cascade codes add
    a recoder (message1 -> message2) and decoder_end (message2 -> z^n).
    """

    n: int
    x_size: int
    y_size: int
    rate1: float
    encoder: np.ndarray
    decoder_mid: np.ndarray
    rate2: Optional[float] = None
    z_size: Optional[int] = None
    recoder: Optional[np.ndarray] = None
    decoder_end: Optional[np.ndarray] = None

    def __post_init__(self):
        enc = np.asarray(self.encoder, dtype=np.int64)
        dec = np.asarray(self.decoder_mid, dtype=np.int64)
        m1 = message_count(self.n, self.rate1)
        if enc.shape != (self.x_size**self.n,):
            raise ValueError(
                f"encoder must cover all {self.x_size}^{self.n} inputs, "
                f"got shape {enc.shape}"
            )
        if dec.shape != (m1, self.n):
            raise ValueError(
                f"decoder must hold {m1} blocks of length {self.n}, got {dec.shape}"
            )
        if enc.size and (enc.min() < 0 or enc.max() >= m1):
            raise ValueError(f"encoder message outside [0, {m1})")
        if dec.size and (dec.min() < 0 or dec.max() >= self.y_size):
            raise ValueError(f"decoder symbol outside [0, {self.y_size})")
        cascade_bits = (self.rate2, self.z_size, self.recoder, self.decoder_end)
        if any(b is None for b in cascade_bits) != all(b is None for b in cascade_bits):
            raise ValueError("cascade fields must be given together or not at all")
        if self.recoder is not None:
            rec = np.asarray(self.recoder, dtype=np.int64)
            dz = np.asarray(self.decoder_end, dtype=np.int64)
            m2 = message_count(self.n, self.rate2)
            if rec.shape != (m1,):
                raise ValueError(f"recoder must have {m1} entries, got {rec.shape}")
            if dz.shape != (m2, self.n):
                raise ValueError(
                    f"end decoder must hold {m2} blocks of length {self.n}, "
                    f"got {dz.shape}"
                )
            if rec.size and (rec.min() < 0 or rec.max() >= m2):
                raise ValueError(f"recoder message outside [0, {m2})")
            if dz.size and (dz.min() < 0 or dz.max() >= self.z_size):
                raise ValueError(f"end decoder symbol outside [0, {self.z_size})")
            rec.setflags(write=False)
            dz.setflags(write=False)
            object.__setattr__(self, "recoder", rec)
            object.__setattr__(self, "decoder_end", dz)
        enc.setflags(write=False)
        dec.setflags(write=False)
        object.__setattr__(self, "encoder", enc)
        object.__setattr__(self, "decoder_mid", dec)

    @property
    def is_cascade(self) -> bool:
        return self.recoder is not None

    @property
    def action_sizes(self) -> tuple:
        if self.is_cascade:
            return (self.x_size, self.y_size, self.z_size)
        return (self.x_size, self.y_size)

    def encode(self, x_batch: np.ndarray) -> np.ndarray:
        x = _as_batch(x_batch, self.n, self.x_size)
        flat = np.ravel_multi_index(tuple(x.T), (self.x_size,) * self.n)
        return self.encoder[flat]

    def decoded_rows(self, x_batch: np.ndarray):
        """Vectorized action blocks for a batch of source blocks."""
        m1 = self.encode(x_batch)
        y = self.decoder_mid[m1]
        if not self.is_cascade:
            return (y,)
        z = self.decoder_end[self.recoder[m1]]
        return (y, z)


@dataclass(frozen=True, eq=False)
class CodebookCode:
    """Random-codebook code whose encoder is computed on demand.

    The encoder returns the message whose decoded action block has the joint
    type (with the observed source block) closest in TV to ``target``; ties
    go to the lowest message index. ``target`` is the composed build target
    over (X, Y) or (X, Y, Z). Binary-action codebooks with n <= 64 are kept
    bit-packed; everything else stores symbol rows.
    """

    n: int
    x_size: int
    y_size: int
    rate1: float
    target: JointPmf
    packed_y: Optional[np.ndarray] = None
    symbols_y: Optional[np.ndarray] = None
    rate2: Optional[float] = None
    z_size: Optional[int] = None
    symbols_z: Optional[np.ndarray] = None
    recoder: Optional[np.ndarray] = None

    def __post_init__(self):
        m1 = message_count(self.n, self.rate1)
        if (self.packed_y is None) == (self.symbols_y is None):
            raise ValueError("exactly one of packed_y / symbols_y required")
        if self.packed_y is not None:
            if self.y_size != 2 or self.n > 64:
                raise ValueError("packed storage needs binary actions and n <= 64")
            if self.packed_y.shape != (m1,):
                raise ValueError(f"packed codebook must have {m1} words")
        else:
            if self.symbols_y.shape != (m1, self.n):
                raise ValueError(f"codebook must be ({m1}, {self.n})")
        expected_shape = (self.x_size, self.y_size)
        if self.recoder is not None:
            m2 = message_count(self.n, self.rate2)
            if self.symbols_z is None or self.symbols_z.shape != (m2, self.n):
                raise ValueError(f"z codebook must be ({m2}, {self.n})")
            if self.recoder.shape != (m1,):
                raise ValueError(f"recoder must have {m1} entries")
            expected_shape = (self.x_size, self.y_size, self.z_size)
        if self.target.shape != expected_shape:
            raise ValueError(
                f"target shape {self.target.shape}, expected {expected_shape}"
            )
        for name in ("packed_y", "symbols_y", "symbols_z", "recoder"):
            arr = getattr(self, name)
            if arr is not None:
                arr.setflags(write=False)
        # per-composition exact TV floors for the early-exit scan, the
        # TV-sorted count-combo tables for candidate search, and the lazily
        # built sorted view of the packed codebook
        object.__setattr__(self, "_floor_cache", {})
        object.__setattr__(self, "_combo_cache", {})
        object.__setattr__(self, "_sorted_cache", None)

    @property
    def is_cascade(self) -> bool:
        return self.recoder is not None

    @property
    def action_sizes(self) -> tuple:
        if self.is_cascade:
            return (self.x_size, self.y_size, self.z_size)
        return (self.x_size, self.y_size)

    @property
    def m1(self) -> int:
        return message_count(self.n, self.rate1)

    # -- packed kernel ----------------------------------------------------

    def _nj_split(self, target: JointPmf):
        """n * target mass split by action bit, per source symbol."""
        tm = target.mass
        return self.n * tm[:, 0], self.n * tm[:, 1]

    def _tv_from_c1(self, c1_cols, comp, nj0, nj1) -> np.ndarray:
        """TV of the (X,Y) type to the target, from counts of y=1 per x.

        Identical accumulation order everywhere so that floor comparisons
        hold with exact float equality.
        """
        acc = None
        for a in range(self.x_size):
            term = np.abs(c1_cols[a] - nj1[a]) + np.abs(
                (comp[a] - c1_cols[a]) - nj0[a]
            )
            acc = term if acc is None else acc + term
        return acc * (0.5 / self.n)

    def _floor_for(self, comp: tuple) -> float:
        """Exact minimum TV attainable by ANY action block at this source
        composition; the scan can stop at the first codeword reaching it."""
        cached = self._floor_cache.get(comp)
        if cached is not None:
            return cached
        nj0, nj1 = self._nj_split(self.target)
        grids = np.meshgrid(
            *[np.arange(c + 1, dtype=np.float64) for c in comp], indexing="ij"
        )
        cols = [g.ravel() for g in grids]
        floor = float(self._tv_from_c1(cols, comp, nj0, nj1).min())
        self._floor_cache[comp] = floor
        return floor

    def _combo_table(self, comp: tuple):
        """All count combos at this composition sorted ascending by TV.

        Returns (combos (K, A) int array, tv (K,) floats). TV floats come
        from the same accumulation as the scan kernel, so level equality is
        exact.
        """
        hit = self._combo_cache.get(comp)
        if hit is not None:
            return hit
        nj0, nj1 = self._nj_split(self.target)
        grids = np.meshgrid(
            *[np.arange(c + 1, dtype=np.float64) for c in comp], indexing="ij"
        )
        cols = [g.ravel() for g in grids]
        tv = self._tv_from_c1(cols, comp, nj0, nj1)
        order = np.argsort(tv, kind="stable")
        combos = np.stack(cols, axis=1)[order].astype(np.int64)
        hit = (combos, tv[order])
        self._combo_cache[comp] = hit
        return hit

    def _sorted_codebook(self):
        cached = self._sorted_cache
        if cached is None:
            order = np.argsort(self.packed_y, kind="stable")
            cached = (self.packed_y[order], order)
            object.__setattr__(self, "_sorted_cache", cached)
        return cached

    def _nn_search(self, x_row: np.ndarray):
        """Exact min-TV codeword by candidate enumeration.

        Walks count combos in increasing TV; the candidate action words of a
        combo are all placements of the per-symbol one-counts, looked up in
        the sorted codebook. The first nonempty TV level yields the optimum,
        with the lowest original index among all attaining codewords. Falls
        back (returns None) when a level would enumerate too many words,
        which happens for diffuse targets where the scan kernel is the
        better tool anyway.
        """
        part_bits = [
            (np.uint64(1) << np.nonzero(x_row == a)[0].astype(np.uint64))
            for a in range(self.x_size)
        ]
        comp = tuple(int(b.shape[0]) for b in part_bits)
        if int(np.prod([c + 1 for c in comp])) > _CANDIDATE_CAP:
            return None
        combos, tvs = self._combo_table(comp)
        words_sorted, idx_sorted = self._sorted_codebook()
        m1 = words_sorted.shape[0]
        budget = _CANDIDATE_CAP
        i = 0
        while i < combos.shape[0]:
            level = tvs[i]
            best_idx = -1
            best_combo = None
            while i < combos.shape[0] and tvs[i] == level:
                counts = combos[i]
                size = 1
                for a in range(self.x_size):
                    size *= math.comb(comp[a], int(counts[a]))
                budget -= size
                if budget < 0:
                    return None
                words = _subset_or(part_bits[0], int(counts[0]))
                for a in range(1, self.x_size):
                    nxt = _subset_or(part_bits[a], int(counts[a]))
                    words = (words[:, None] | nxt[None, :]).ravel()
                pos = np.searchsorted(words_sorted, words)
                inb = pos < m1
                if inb.any():
                    hitmask = np.zeros(words.shape[0], dtype=bool)
                    hitmask[inb] = words_sorted[pos[inb]] == words[inb]
                    if hitmask.any():
                        cand = int(idx_sorted[pos[hitmask]].min())
                        if best_idx < 0 or cand < best_idx:
                            best_idx = cand
                            best_combo = counts
                i += 1
            if best_idx >= 0:
                return best_idx, best_combo.astype(np.float64)
        return None

    def _encode_packed(self, x_batch: np.ndarray):
        """Min-TV encoding of binary-action batches.

        Returns (message indices, per-sample count columns c1[a] for the
        chosen codeword) so callers can score against other targets without
        touching the codebook again.
        """
        cb = self.packed_y
        m1 = cb.shape[0]
        s = x_batch.shape[0]
        nj0, nj1 = self._nj_split(self.target)
        masks = np.stack(
            [_pack_bits((x_batch == a).astype(np.uint8)) for a in range(self.x_size)]
        )  # (A, S)
        comps = np.stack(
            [(x_batch == a).sum(axis=1) for a in range(self.x_size)]
        )  # (A, S)
        out_idx = np.empty(s, dtype=np.int64)
        out_c1 = np.empty((self.x_size, s), dtype=np.float64)

        if m1 <= 1 << 16:
            # broadcast all codewords against sample sub-batches
            step = max(1, _BROADCAST_MAX // m1)
            for lo in range(0, s, step):
                hi = min(lo + step, s)
                cols = [
                    np.bitwise_count(cb[None, :] & masks[a, lo:hi, None]).astype(
                        np.float64
                    )
                    for a in range(self.x_size)
                ]  # each (b, m1)
                tv = self._tv_from_c1(
                    cols, comps[:, lo:hi, None], nj0[:, None, None], nj1[:, None, None]
                )
                best = tv.argmin(axis=1)  # first minimum per sample
                out_idx[lo:hi] = best
                rows = np.arange(hi - lo)
                for a in range(self.x_size):
                    out_c1[a, lo:hi] = cols[a][rows, best]
            return out_idx, out_c1

        for i in range(s):
            found = self._nn_search(x_batch[i])
            if found is not None:
                out_idx[i] = found[0]
                out_c1[:, i] = found[1]
                continue
            comp = tuple(int(c) for c in comps[:, i])
            floor = self._floor_for(comp)
            best_tv = np.inf
            best_j = -1
            best_c1 = None
            for lo in range(0, m1, _PACKED_SCAN_BLOCK):
                hi = min(lo + _PACKED_SCAN_BLOCK, m1)
                cols = [
                    np.bitwise_count(cb[lo:hi] & masks[a, i]).astype(np.float64)
                    for a in range(self.x_size)
                ]
                tv = self._tv_from_c1(cols, comps[:, i], nj0, nj1)
                j = int(tv.argmin())
                if tv[j] < best_tv:
                    best_tv = float(tv[j])
                    best_j = lo + j
                    best_c1 = [float(c[j]) for c in cols]
                if best_tv == floor:
                    break
            out_idx[i] = best_j
            out_c1[:, i] = best_c1
        return out_idx, out_c1

    # -- generic kernel ---------------------------------------------------

    def _encode_symbols(self, x_batch: np.ndarray) -> np.ndarray:
        cb_y = self.symbols_y
        m1 = cb_y.shape[0]
        sizes = self.action_sizes
        cells = int(np.prod(sizes))
        target_flat = self.target.mass.ravel()
        if self.is_cascade:
            cb_last = self.symbols_z[self.recoder]  # aligned to message1
        out = np.empty(x_batch.shape[0], dtype=np.int64)
        for i, x in enumerate(x_batch):
            jc = x[None, :] * sizes[1] + cb_y
            if self.is_cascade:
                jc = jc * sizes[2] + cb_last
            counts = _type_counts(jc, cells)
            tv = _tv_rows(counts, self.n, target_flat)
            out[i] = int(tv.argmin())
        return out

    def encode(self, x_batch: np.ndarray) -> np.ndarray:
        x = _as_batch(x_batch, self.n, self.x_size)
        if self.packed_y is not None:
            return self._encode_packed(x)[0]
        return self._encode_symbols(x)

    def codeword_rows(self, messages: np.ndarray) -> np.ndarray:
        if self.packed_y is not None:
            return _unpack_bits(self.packed_y[messages], self.n)
        return self.symbols_y[messages]

    def decoded_rows(self, x_batch: np.ndarray):
        m1 = self.encode(x_batch)
        y = self.codeword_rows(m1)
        if not self.is_cascade:
            return (y,)
        return (y, self.symbols_z[self.recoder[m1]])


@dataclass(frozen=True, eq=False)
class BlockRepeatCode:
    """k independent uses of a base code, presented as one length-k*n code.

    Message sets are the k-fold products of the base sets, kept factored as
    per-block indices, so the per-symbol rates are exactly those of the base
    code. The joint type of the output is the arithmetic mean of the k
    per-block types.
    """

    base: object
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"block repetition needs k >= 1, got {self.k}")

    @property
    def n(self) -> int:
        return self.base.n * self.k

    @property
    def x_size(self) -> int:
        return self.base.x_size

    @property
    def rate1(self) -> float:
        return self.base.rate1

    @property
    def rate2(self):
        return getattr(self.base, "rate2", None)

    @property
    def is_cascade(self) -> bool:
        return self.base.is_cascade

    @property
    def action_sizes(self) -> tuple:
        return self.base.action_sizes

    def encode(self, x_batch: np.ndarray) -> np.ndarray:
        """Per-block message indices, shape (S, k)."""
        x = _as_batch(x_batch, self.n, self.x_size)
        s = x.shape[0]
        blocks = x.reshape(s * self.k, self.base.n)
        return self.base.encode(blocks).reshape(s, self.k)

    def decoded_rows(self, x_batch: np.ndarray):
        x = _as_batch(x_batch, self.n, self.x_size)
        s = x.shape[0]
        blocks = x.reshape(s * self.k, self.base.n)
        return tuple(
            rows.reshape(s, self.n) for rows in self.base.decoded_rows(blocks)
        )


@dataclass(frozen=True)
class SimReport:
    """Summary of a Monte-Carlo run of the per-sample type distortion."""

    sample_count: int
    mean_tv: float
    standard_error: float
    quantiles: tuple  # TV at probabilities (0, .25, .5, .75, 1)
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.mean_tv <= 1.0:
            raise ValueError(f"mean TV {self.mean_tv} outside [0, 1]")
        if self.standard_error < 0.0:
            raise ValueError("negative standard error")
        q = tuple(float(v) for v in self.quantiles)
        if any(b < a for a, b in zip(q, q[1:])):
            raise ValueError(f"quantiles not monotone: {q}")
        object.__setattr__(self, "quantiles", q)

    def to_json_dict(self) -> dict:
        return {
            "sample_count": self.sample_count,
            "mean_tv": self.mean_tv,
            "standard_error": self.standard_error,
            "quantiles": list(self.quantiles),
            "seed": self.seed,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SimReport":
        return cls(
            sample_count=int(d["sample_count"]),
            mean_tv=float(d["mean_tv"]),
            standard_error=float(d["standard_error"]),
            quantiles=tuple(float(v) for v in d["quantiles"]),
            seed=int(d["seed"]),
        )


# -- evaluation ----------------------------------------------------------


def apply_code(code, x_seq):
    """Run one source block through a code; returns (y^n,) or (y^n, z^n)."""
    x = _as_batch(x_seq, code.n, code.x_size)
    if x.shape[0] != 1:
        raise ValueError("apply_code takes a single sequence; use decoded_rows")
    return tuple(rows[0].copy() for rows in code.decoded_rows(x))


def _check_target(code, target: JointPmf):
    if target.shape != code.action_sizes:
        raise ValueError(
            f"target shape {target.shape} does not match code alphabets "
            f"{code.action_sizes}"
        )


def _source_probs(p0: Pmf, inputs: np.ndarray) -> np.ndarray:
    return p0.mass[inputs].prod(axis=1)


def _joint_codes(code, x: np.ndarray, rows) -> np.ndarray:
    sizes = code.action_sizes
    jc = x * sizes[1] + rows[0]
    if len(rows) == 2:
        jc = jc * sizes[2] + rows[1]
    return jc


def induced_distribution(code, p0: Pmf) -> dict:
    """Exact pushforward of the i.i.d. source through the code.

    Maps (x^n, y^n[, z^n]) tuples-of-tuples to probabilities; total mass 1.
    """
    if p0.alphabet_size != code.x_size:
        raise ValueError("source alphabet does not match the code")
    inputs = _enumerate_inputs(code.x_size, code.n)
    probs = _source_probs(p0, inputs)
    rows = code.decoded_rows(inputs)
    out = {}
    for i in range(inputs.shape[0]):
        if probs[i] == 0.0:
            continue
        key = (tuple(int(v) for v in inputs[i]),) + tuple(
            tuple(int(v) for v in r[i]) for r in rows
        )
        out[key] = out.get(key, 0.0) + float(probs[i])
    return out


def expected_tv_exact(code, p0: Pmf, target: JointPmf) -> float:
    """E{TV(joint type of actions, target)} by full source enumeration."""
    _check_target(code, target)
    if p0.alphabet_size != code.x_size:
        raise ValueError("source alphabet does not match the code")
    inputs = _enumerate_inputs(code.x_size, code.n)
    probs = _source_probs(p0, inputs)
    rows = code.decoded_rows(inputs)
    jc = _joint_codes(code, inputs, rows)
    counts = _type_counts(jc, int(np.prod(code.action_sizes)))
    tvs = _tv_rows(counts, code.n, target.mass.ravel())
    return float(probs @ tvs)


def expected_type_of_code(code, p0: Pmf) -> JointPmf:
    """Exact expectation of the joint action type under the source."""
    if p0.alphabet_size != code.x_size:
        raise ValueError("source alphabet does not match the code")
    inputs = _enumerate_inputs(code.x_size, code.n)
    probs = _source_probs(p0, inputs)
    rows = code.decoded_rows(inputs)
    jc = _joint_codes(code, inputs, rows)
    counts = _type_counts(jc, int(np.prod(code.action_sizes)))
    mean = (probs @ counts) / code.n
    return JointPmf(mean.reshape(code.action_sizes))


def _chunk_tvs(code, p0: Pmf, target: JointPmf, size: int, child) -> np.ndarray:
    """Per-sample TVs for one Monte-Carlo chunk with its own substream."""
    rng = np.random.default_rng(child)
    cdf = np.cumsum(p0.mass)
    x = np.searchsorted(cdf[:-1], rng.random((size, code.n)), side="right")
    if (
        isinstance(code, CodebookCode)
        and code.packed_y is not None
        and not code.is_cascade
    ):
        _, c1 = code._encode_packed(x)
        comps = np.stack([(x == a).sum(axis=1) for a in range(code.x_size)])
        nj0, nj1 = code._nj_split(target)
        return code._tv_from_c1(c1, comps, nj0[:, None], nj1[:, None])
    rows = code.decoded_rows(x)
    jc = _joint_codes(code, x, rows)
    counts = _type_counts(jc, int(np.prod(code.action_sizes)))
    return _tv_rows(counts, code.n, target.mass.ravel())


def expected_tv_monte_carlo(
    code,
    p0: Pmf,
    target: JointPmf,
    samples: int,
    seed: int,
    jobs: Optional[int] = None,
) -> SimReport:
    """Sample mean of TV(joint action type, target) over i.i.d. source draws.

    Sampling is chunked with one spawned substream per chunk, so the report
    depends only on (code, p0, target, samples, seed), not on the worker
    count.
    """
    _check_target(code, target)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if p0.alphabet_size != code.x_size:
        raise ValueError("source alphabet does not match the code")
    sizes = [MC_CHUNK] * (samples // MC_CHUNK)
    if samples % MC_CHUNK:
        sizes.append(samples % MC_CHUNK)
    children = np.random.SeedSequence(seed).spawn(len(sizes))

    def run(i: int) -> np.ndarray:
        return _chunk_tvs(code, p0, target, sizes[i], children[i])

    if jobs is not None and jobs > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(run, range(len(sizes))))
    else:
        parts = [run(i) for i in range(len(sizes))]
    tvs = np.concatenate(parts)
    se = float(tvs.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return SimReport(
        sample_count=samples,
        mean_tv=min(max(float(tvs.mean()), 0.0), 1.0),
        standard_error=se,
        quantiles=tuple(np.quantile(tvs, [0.0, 0.25, 0.5, 0.75, 1.0])),
        seed=seed,
    )


# -- construction --------------------------------------------------------


def _draw_symbols(rng, mass: np.ndarray, count: int, n: int) -> np.ndarray:
    """i.i.d. symbol blocks via inverse CDF; (count, n) int64."""
    cdf = np.cumsum(mass)
    return np.searchsorted(cdf[:-1], rng.random((count, n)), side="right")


def build_codebook_code(
    p0: Pmf,
    q_target: CondPmf,
    n: int,
    rate1: float,
    rate2: Optional[float] = None,
    seed: int = 0,
    table_cap: int = DEFAULT_TABLE_CAP,
) -> CodebookCode:
    """Random-codebook code for the composed target compose(p0, q_target).

    Codewords are drawn i.i.d. from the output marginals of the composed
    target; the encoder (computed on demand) picks the message minimizing
    the TV between the realized joint type and the composed target. Cascade
    codes recode greedily: the z-message for y-message i minimizes the TV of
    the (y^n(i), z^n(j)) type to the (Y, Z) marginal of the target.
    """
    joint = compose(p0, q_target)
    cascade = joint.mass.ndim == 3
    if (rate2 is not None) != cascade:
        raise ValueError("rate2 required iff the target has two output axes")
    m1 = message_count(n, rate1)
    if m1 > table_cap:
        raise ValueError(f"message set {m1} exceeds table cap {table_cap}")
    x_size = p0.alphabet_size
    y_size = joint.mass.shape[1]
    ss = np.random.SeedSequence(seed)
    child_y, child_z = ss.spawn(2)
    y_marg = joint.mass.reshape(x_size, y_size, -1).sum(axis=(0, 2))

    packed = None
    symbols = None
    if y_size == 2 and n <= 64 and not cascade:
        rng = np.random.default_rng(child_y)
        words = np.empty(m1, dtype=np.uint64)
        step = 1 << 18
        for lo in range(0, m1, step):
            hi = min(lo + step, m1)
            bits = _draw_symbols(rng, y_marg, hi - lo, n).astype(np.uint8)
            words[lo:hi] = _pack_bits(bits)
        packed = words
    else:
        symbols = _draw_symbols(np.random.default_rng(child_y), y_marg, m1, n)

    if not cascade:
        return CodebookCode(
            n=n,
            x_size=x_size,
            y_size=y_size,
            rate1=rate1,
            target=joint,
            packed_y=packed,
            symbols_y=symbols,
        )

    z_size = joint.mass.shape[2]
    m2 = message_count(n, rate2)
    if m2 > table_cap:
        raise ValueError(f"message set {m2} exceeds table cap {table_cap}")
    z_marg = joint.mass.sum(axis=(0, 1))
    symbols_z = _draw_symbols(np.random.default_rng(child_z), z_marg, m2, n)
    yz_target = joint.mass.sum(axis=0).ravel()
    recoder = np.empty(m1, dtype=np.int64)
    for i in range(m1):
        jc = symbols[i][None, :] * z_size + symbols_z
        counts = _type_counts(jc, y_size * z_size)
        recoder[i] = int(_tv_rows(counts, n, yz_target).argmin())
    return CodebookCode(
        n=n,
        x_size=x_size,
        y_size=y_size,
        rate1=rate1,
        target=joint,
        symbols_y=symbols,
        rate2=rate2,
        z_size=z_size,
        symbols_z=symbols_z,
        recoder=recoder,
    )


def block_repeat(code, k: int) -> BlockRepeatCode:
    """Concatenate k independent uses of a code; rates are unchanged."""
    return BlockRepeatCode(base=code, k=k)


# -- serialization -------------------------------------------------------


def code_to_json_dict(code) -> dict:
    """Explicit-table JSON form; enumeration-guard-sized codes only."""
    if isinstance(code, BlockRepeatCode):
        raise ValueError("serialize the base code and the repetition count")
    if isinstance(code, CodebookCode):
        code = materialize_table_code(code)
    doc = {
        "n": code.n,
        "R1": code.rate1,
        "R2": code.rate2,
        "alphabets": {"x": code.x_size, "y": code.y_size, "z": code.z_size},
        "encoder": code.encoder.tolist(),
        "recoder": None if code.recoder is None else code.recoder.tolist(),
        "decoders": [code.decoder_mid.tolist()]
        + ([] if code.decoder_end is None else [code.decoder_end.tolist()]),
    }
    return doc


def code_from_json_dict(doc: dict) -> TableCode:
    alpha = doc["alphabets"]
    kwargs = {}
    if doc.get("recoder") is not None:
        kwargs = {
            "rate2": float(doc["R2"]),
            "z_size": int(alpha["z"]),
            "recoder": np.asarray(doc["recoder"], dtype=np.int64),
            "decoder_end": np.asarray(doc["decoders"][1], dtype=np.int64),
        }
    return TableCode(
        n=int(doc["n"]),
        x_size=int(alpha["x"]),
        y_size=int(alpha["y"]),
        rate1=float(doc["R1"]),
        encoder=np.asarray(doc["encoder"], dtype=np.int64),
        decoder_mid=np.asarray(doc["decoders"][0], dtype=np.int64),
        **kwargs,
    )


def materialize_table_code(code: CodebookCode) -> TableCode:
    """Evaluate a codebook code's encoder on every input to get tables."""
    if code.m1 > 1 << 16:
        raise ValueError(f"codebook with {code.m1} messages is too large to tabulate")
    inputs = _enumerate_inputs(code.x_size, code.n)
    msgs = code.encode(inputs)
    kwargs = {}
    if code.is_cascade:
        kwargs = {
            "rate2": code.rate2,
            "z_size": code.z_size,
            "recoder": code.recoder.copy(),
            "decoder_end": code.symbols_z.copy(),
        }
    all_msgs = np.arange(message_count(code.n, code.rate1))
    return TableCode(
        n=code.n,
        x_size=code.x_size,
        y_size=code.y_size,
        rate1=code.rate1,
        encoder=msgs,
        decoder_mid=code.codeword_rows(all_msgs),
        **kwargs,
    )
