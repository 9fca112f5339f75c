"""Coordination codes on finite alphabets and their induced statistics.

A two-node code maps a source block x^n through a rate-limited message to an
action block y^n; a cascade code forwards a recoded message to a third node
producing z^n. This module provides explicit table codes, random-codebook
codes with a minimum-TV joint-type encoder, the block-repetition operator,
exact evaluation of the expected type distortion at enumeration scale, and a
chunked deterministic Monte-Carlo estimator for everything larger.

The minimum-TV encoder only ever compares joint types, and at a fixed
source composition a joint type is a small integer count vector. So each
code tabulates, once per composition it meets, the TV of every reachable
count vector, computed with the same float expression the encoder promises;
scoring a codeword is then an integer index and one lookup, and the chosen
message (minimum TV, lowest index on float-equal ties) is exactly what a
per-codeword float TV would give.

``CodebookCode.encode`` is the one entry for both codebook layouts: it
counts each sample's source composition once, groups the samples by it
and hands the groups to two kernels.

- Two-node binary codebooks (n <= 64) are uint64 bitmasks, and each
  group of a packed code walks its table in increasing TV: a level's
  candidates for every live sample are built at once and looked up in one
  call to the word index, and a sample stops at its first level with a
  hit.
- Every other sample, of either layout, takes one block scan. Both layouts
  count each action symbol but the first per source symbol, so a packed
  word's ones are its counted one-hot row, and a codeword's table index is
  a sum of per-sample place values over its counted symbols: a block of
  codewords, as one-hot rows, is scored by one float32 matmul; a sample
  leaves the scan at the first block that reaches its table's floor.
  Compositions whose table would be too large take the per-codeword loop.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from coordlab.prob_core import JointPmf, Pmf, CondPmf, compose, total_variation

MC_CHUNK = 4096            # samples per Monte-Carlo chunk (one RNG substream each)
ENUM_GUARD = 4096          # max |X|^n for exact enumeration paths
DEFAULT_TABLE_CAP = 1 << 26  # max message-set size for constructed codes
# Work bounds, checked before any symbol is drawn. Criterion 09 draws 2^30
# codeword symbols and 320,000 source symbols; the benchmark's largest cell
# 8192 * 24.
MAX_SAMPLES = 1 << 24          # Monte-Carlo samples per estimate (their TVs are kept)
MAX_SAMPLE_SYMBOLS = 1 << 32   # n * samples: source symbols one estimate draws
MAX_BUILD_SYMBOLS = 1 << 33    # n * (m1 [+ m2]): codeword symbols one build draws
MAX_HELD_SYMBOLS = 1 << 24     # symbols one array holds: a Monte-Carlo chunk, a symbol-row codebook
MAX_JOBS = 32                  # Monte-Carlo worker threads
_INDEX_BLOCK = 1 << 16         # codewords per block of the word-index build
_WALK_CELLS = 1 << 16          # samples*candidates (or *codewords) per packed batch
# Candidates a sample may enumerate before it takes the scan. Past it, the
# early-exit scan was cheaper on the identity target at n = 24, 28 and 32
# and on a ternary source at n = 24 (2-core Xeon, 400-1000 samples).
_CANDIDATE_CAP = 1 << 13
_INDEX_BITS = 20               # word-index tables have 2^20 entries (4 MB): dense up to n = 20
# Max entries of one TV table. The scan's float32 matmul sums integers
# below it, exact while it is at most 2^24.
_TV_TABLE_CAP = 1 << 20
_SCAN_BLOCK = 1024             # codewords per block of the min-TV scan
# Multiply-adds per scan matmul. OpenBLAS runs a product of up to
# 4 * 65536 on the calling thread; threaded small products stall whenever a
# helper thread is descheduled, which on a shared host made them 10-100x slower.
_MATMUL_MAX = 1 << 18
_MAX_LOG2_COUNT = 1024.0       # 2.0 ** 1024 overflows a float


def message_count(n: int, rate: float) -> int:
    """Size of the message set at blocklength n: ceil(2^(n*rate)).

    A hair of slack guards against float representation pushing an intended
    integer power just above itself. Counts past the float range are
    rejected from the exponent, before the power can overflow.
    """
    if not rate >= 0:  # NaN fails here too
        raise ValueError(f"message_count: rate must be >= 0, got {rate}")
    if n * rate >= _MAX_LOG2_COUNT:
        raise ValueError(
            f"message_count: 2^{n * rate:g} messages exceed the float range"
        )
    return max(1, int(math.ceil(2.0 ** (n * rate) - 1e-9)))


def _check_symbols(what: str, count: int, bound: int, name: str) -> None:
    if count > bound:
        raise ValueError(f"{what} {count} exceed {name} 2^{bound.bit_length() - 1}")


def check_monte_carlo_work(n: int, samples: int) -> None:
    """Refuses a Monte-Carlo estimate past the work bounds, by ValueError
    naming the bound, before anything is drawn."""
    _check_symbols("samples", samples, MAX_SAMPLES, "MAX_SAMPLES")
    _check_symbols("source symbols", n * samples, MAX_SAMPLE_SYMBOLS, "MAX_SAMPLE_SYMBOLS")
    held = n * min(samples, MC_CHUNK)
    _check_symbols("chunk symbols", held, MAX_HELD_SYMBOLS, "MAX_HELD_SYMBOLS")


def _as_batch(x, n: int, x_size: int) -> np.ndarray:
    """x as an (S, n) block batch: int64, or bool as a binary source is drawn."""
    arr = np.asarray(x)
    if arr.dtype != bool:
        arr = arr.astype(np.int64, copy=False)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != n:
        raise ValueError(f"expected sequences of length {n}, got shape {arr.shape}")
    if arr.size and (arr.min() < 0 or arr.max() >= x_size):
        raise ValueError(f"symbol outside [0, {x_size})")
    return arr


def _power_exceeds(base: int, n: int, bound: int) -> bool:
    """base^n > bound; for base >= 2, 2^n > bound once n >= bound.bit_length()."""
    return base > 1 and n >= bound.bit_length() or base**n > bound


def _all_blocks(size: int, n: int) -> np.ndarray:
    """All size^n blocks as a (size^n, n) array, lexicographic."""
    return np.indices((size,) * n).reshape(n, size**n).T.copy()


def _enumerate_inputs(x_size: int, n: int) -> np.ndarray:
    """All |X|^n source sequences, refused past ENUM_GUARD."""
    if _power_exceeds(x_size, n, ENUM_GUARD):
        raise ValueError(f"{x_size}^{n} sequences exceed ENUM_GUARD {ENUM_GUARD}")
    return _all_blocks(x_size, n)


def _compositions(total: int, parts: int) -> np.ndarray:
    """Every way to write total as parts counts >= 0, lexicographic, as a
    (comb(total + parts - 1, parts - 1), parts) array.

    Built one part at a time: a prefix with ``left`` still to place has
    left + 1 children, whose next part runs 0..left.
    """
    left, cols = np.array([total]), []
    for _ in range(parts - 1):
        kids = left + 1
        starts = np.repeat(np.cumsum(kids) - kids, kids)
        part = np.arange(starts.size) - starts
        cols = [np.repeat(c, kids) for c in cols] + [part]
        left = np.repeat(left, kids) - part
    return np.array(cols + [left]).T


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
    padded = np.zeros((s, 64), dtype=bool)
    padded[:, :n] = bits
    return np.packbits(padded.ravel(), bitorder="little").view(np.uint64)


def _unpack_bits(words: np.ndarray, n: int) -> np.ndarray:
    shifts = np.arange(n, dtype=np.uint64)
    return ((words[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.int64)


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
        cascade_bits = (self.rate2, self.z_size, self.recoder, self.decoder_end)
        if any(b is None for b in cascade_bits) != all(b is None for b in cascade_bits):
            raise ValueError("cascade fields must be given together or not at all")
        m1 = message_count(self.n, self.rate1)
        # (field, shape, bound on its entries)
        fields = [
            ("encoder", (self.x_size**self.n,), m1),
            ("decoder_mid", (m1, self.n), self.y_size),
        ]
        if self.recoder is not None:
            m2 = message_count(self.n, self.rate2)
            fields += [("recoder", (m1,), m2), ("decoder_end", (m2, self.n), self.z_size)]
        for name, shape, bound in fields:
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            if arr.size and (arr.min() < 0 or arr.max() >= bound):
                raise ValueError(f"{name} entry outside [0, {bound})")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

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


class _WordIndex:
    """Each word's lowest message index in a packed codebook, for exact
    lookups.

    With at most 2^_INDEX_BITS possible words it is a dense table over all
    of them. Otherwise it is the codebook sorted by (word, message index):
    keys are word << shift | index when both fit in 64 bits, so one
    in-place sort orders the words and breaks ties by index, with no index
    array; otherwise the keys are the words in stable order, with their
    indices beside them. A table of where each value of the words' top
    _INDEX_BITS bits starts in the keys narrows a query to one run, and a
    binary search within the run finds the first key at or above
    word << shift: it holds the word's lowest index.
    """

    def __init__(self, words: np.ndarray, n: int):
        m = words.shape[0]
        self.dense = self.order = None
        if n <= _INDEX_BITS:
            uniq, first = np.unique(words, return_index=True)  # first occurrences
            self.dense = np.full(1 << n, -1, dtype=np.int32 if m < 1 << 31 else np.int64)
            self.dense[uniq] = first
            return
        shift = max(1, (m - 1).bit_length())
        if n + shift <= 64:
            keys = np.left_shift(words, np.uint64(shift))
            for lo in range(0, m, _INDEX_BLOCK):
                hi = min(lo + _INDEX_BLOCK, m)
                keys[lo:hi] |= np.arange(lo, hi, dtype=np.uint64)
            keys.sort()
        else:
            shift = 0
            self.order = np.argsort(words, kind="stable")
            keys = words[self.order]
        self.keys = keys
        self.shift = np.uint64(shift)
        self.drop = np.uint64(n - _INDEX_BITS)
        # run lengths, then their running sum; int32 while lo + hi of the
        # binary search cannot overflow. Sorted keys put each block's top
        # bits in one contiguous range.
        starts = np.zeros((1 << _INDEX_BITS) + 1, dtype=np.int32 if m < 1 << 30 else np.int64)
        for lo in range(0, m, _INDEX_BLOCK):
            top = (keys[lo : lo + _INDEX_BLOCK] >> (self.shift + self.drop)).astype(np.intp)
            starts[top[0] + 1 : top[-1] + 2] += np.bincount(top - top[0]).astype(starts.dtype)
        self.depth = int(starts.max()).bit_length()  # halvings of the longest run
        self.starts = np.cumsum(starts, out=starts)

    def lookup(self, queries: np.ndarray) -> np.ndarray:
        """The lowest message index of each query word, -1 where no codeword
        is that word.

        A search that leaves its run lands on a key of other top bits, or
        on the last key, which is below word << shift; neither holds the
        word, so no run-end check is needed.
        """
        if self.dense is not None:
            return self.dense[queries]
        top = (queries >> self.drop).astype(np.intp)
        lo, hi = self.starts[top], self.starts[top + 1]
        last = self.keys.shape[0] - 1
        target = queries << self.shift
        for _ in range(self.depth):
            mid = (lo + hi) >> 1
            right = (lo < hi) & (self.keys[np.minimum(mid, last)] < target)
            lo = np.where(right, mid + 1, lo)
            hi = np.where(right, hi, mid)
        found = self.keys[np.minimum(lo, last)]
        hit = (found >> self.shift) == queries
        if self.order is None:
            index = found & np.uint64((1 << int(self.shift)) - 1)
        else:
            index = self.order[np.minimum(lo, last)]
        return np.where(hit, index.astype(np.int64), -1)


@dataclass(frozen=True, eq=False)
class CodebookCode:
    """Random-codebook code whose encoder is computed on demand.

    The encoder returns the message whose decoded action block has the joint
    type (with the observed source block) closest in TV to ``target``; ties
    go to the lowest message index. ``target`` is the composed build target
    over (X, Y) or (X, Y, Z). ``build_codebook_code`` keeps two-node
    codebooks with binary actions and n <= 64 bit-packed; every other
    code, cascades included, stores symbol rows.
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
            # the word index and the scan read only the bits below n
            if self.packed_y.size and int(self.packed_y.max()) >> self.n:
                raise ValueError(f"packed codeword with a bit at or above n = {self.n}")
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
        # Per-composition TV tables and their TV-sorted walks, each source
        # symbol count's compositions into the action symbols (the tables'
        # parts), subset index arrays for the candidate walk, and the lazily
        # built word index of the packed codebook. Monte-Carlo worker threads
        # fill them; each entry is a pure function of its key, so a lost race
        # only repeats work. The word index is large, so it is built under a
        # lock.
        object.__setattr__(self, "_tables", {})
        object.__setattr__(self, "_walks", {})
        object.__setattr__(self, "_parts", {})
        object.__setattr__(self, "_subsets", {})
        object.__setattr__(self, "_index_cache", None)
        object.__setattr__(self, "_index_lock", threading.Lock())

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

    # -- per-composition TV tables ----------------------------------------

    def _tv_from_c1(self, c1_cols, comp, target: JointPmf) -> np.ndarray:
        """TV of the (X,Y) type to target, from counts of y=1 per x.

        Identical accumulation order everywhere so that table entries and
        level comparisons hold with exact float equality.
        """
        nj = self.n * target.mass
        acc = None
        for a in range(self.x_size):
            term = np.abs(c1_cols[a] - nj[a, 1]) + np.abs(
                (comp[a] - c1_cols[a]) - nj[a, 0]
            )
            acc = term if acc is None else acc + term
        return acc * (0.5 / self.n)

    @property
    def _row_symbols(self) -> int:
        """Action symbols per codeword position: |Y|, or |Y||Z| for cascades."""
        return self.y_size * (self.z_size if self.is_cascade else 1)

    def _radix(self, comp: tuple) -> list:
        """Digit ranges of the table index at source composition comp: the
        count of each action symbol but the first, per source symbol (the
        first is what the composition leaves over; for a packed code, the
        codeword's ones)."""
        return [c + 1 for c in comp for _ in range(self._row_symbols - 1)]

    def _table(self, comp: tuple) -> Optional[np.ndarray]:
        """TV to the target of every count vector the encoder can meet at
        source composition comp, flat in the mixed radix of ``_radix`` (last
        digit fastest).

        Entries come from the encoders' own float expressions
        (``_tv_from_c1`` for packed codes, ``_tv_rows`` for symbol rows), so
        scoring a codeword by lookup keeps every float and every tie
        exactly. Unreachable entries are inf. None when the table would
        exceed ``_TV_TABLE_CAP`` entries.
        """
        if comp in self._tables:
            return self._tables[comp]
        radix = self._radix(comp)
        table = None
        if math.prod(radix) <= _TV_TABLE_CAP:
            # the count vectors: a composition of each comp[a] into the
            # action symbols, per source symbol
            parts = []
            for c in comp:
                if c not in self._parts:
                    self._parts[c] = _compositions(c, self._row_symbols)
                parts.append(self._parts[c])
            pick = np.indices([p.shape[0] for p in parts]).reshape(len(parts), -1)
            counts = np.concatenate([p[i] for p, i in zip(parts, pick)], axis=1)
            if self.packed_y is not None:
                c1 = counts[:, 1::2].T.astype(np.float64)
                tv = self._tv_from_c1(c1, comp, self.target)
            else:
                tv = _tv_rows(counts, self.n, self.target.mass.ravel())
            table = np.full(math.prod(radix), np.inf)
            table[counts @ self._strides(comp).ravel()] = tv
        self._tables[comp] = table
        return table

    def _strides(self, comp: tuple) -> np.ndarray:
        """Place value of each count in the table index, (A, K) over
        (source symbol, action symbol), 0 for the first action symbol."""
        radix = self._radix(comp)
        place = [math.prod(radix[i + 1 :]) for i in range(len(radix))]
        k = self._row_symbols
        out = np.zeros((self.x_size, k), dtype=np.int64)
        out[:, 1:] = np.array(place, dtype=np.int64).reshape(self.x_size, k - 1)
        return out

    # -- packed walk ------------------------------------------------------

    def _walk(self, comp: tuple):
        """The packed table in increasing TV order, up to the walk budget.

        Returns (count combos, start of each run of equal TV and one past
        the end, action words enumerated before each combo). Equal TVs keep
        index order, and the first entry is the exact floor over all action
        blocks. Levels ending past min(``_CANDIDATE_CAP``, m1) words are cut.
        """
        hit = self._walks.get(comp)
        if hit is None:
            table = self._table(comp)
            order = np.argsort(table, kind="stable")
            combos = np.stack(np.unravel_index(order, self._radix(comp)), axis=1)
            tv = table[order]
            ends = np.concatenate([[0], np.flatnonzero(tv[1:] != tv[:-1]) + 1, [tv.size]])
            words = np.ones(tv.size)
            for a, k in enumerate(comp):
                words *= np.array([math.comb(k, c) for c in range(k + 1)], dtype=float)[combos[:, a]]
            spent = np.concatenate([[0.0], np.cumsum(words)])
            # every combo has a word, so spent rises and the kept levels are a prefix
            ends = ends[spent[ends] <= min(_CANDIDATE_CAP, self.m1)]
            hit = (combos[: ends[-1]].tolist(), ends.tolist(), spent[: ends[-1] + 1].tolist())
            self._walks[comp] = hit
        return hit

    def _combinations(self, k: int, c: int) -> np.ndarray:
        """Every size-c subset of range(k) as a (comb(k, c), c) index array,
        by Pascal's rule: the subsets without k - 1, then those with it."""
        hit = self._subsets.get((k, c))
        if hit is None:
            if c == 0 or c == k:
                hit = np.arange(c, dtype=np.intp)[None, :]
            else:
                with_last = self._combinations(k - 1, c - 1)
                tail = np.full((with_last.shape[0], 1), k - 1, dtype=np.intp)
                hit = np.concatenate(
                    [self._combinations(k - 1, c), np.hstack([with_last, tail])]
                )
            self._subsets[(k, c)] = hit
        return hit

    def _subset_or(self, bits: np.ndarray, c: int) -> np.ndarray:
        """OR of every size-c subset of each row's disjoint single-bit words:
        (R, k) -> (R, comb(k, c))."""
        k = bits.shape[1]
        if c > k - c:
            # enumerate the complement instead; disjoint bits make OR a sum
            total = bits.sum(axis=1, dtype=np.uint64, keepdims=True)
            return total - self._subset_or(bits, k - c)
        combos = self._combinations(k, c)
        out = bits[:, combos[:, 0]] if c else np.zeros((bits.shape[0], 1), dtype=np.uint64)
        for j in range(1, c):
            out |= bits[:, combos[:, j]]
        return out

    def _word_index(self) -> "_WordIndex":
        """The packed codebook's word index, built once."""
        with self._index_lock:
            if self._index_cache is None:
                object.__setattr__(self, "_index_cache", _WordIndex(self.packed_y, self.n))
        return self._index_cache

    def _walk_batch(self, x_rows: np.ndarray, comp: tuple) -> np.ndarray:
        """Min-TV codewords of samples that share source composition comp.

        Walks the composition's table in increasing TV. The candidate action
        words of a count combo are all placements of the per-symbol ones;
        each level's candidates for every live sample are built at once and
        looked up in the word index. A sample stops at the first level with
        a hit and takes the lowest message index among that level's hits.
        Samples still live after the last level of the cut walk (``_walk``)
        come back as -1, for the scan.
        """
        g = x_rows.shape[0]
        m1 = self.packed_y.shape[0]
        combos, bounds, spent = self._walk(comp)
        index = self._word_index()
        # each source symbol's positions as single-bit words, a row a sample
        parts = [
            np.left_shift(np.uint64(1), np.nonzero(x_rows == a)[1].astype(np.uint64)).reshape(g, k)
            for a, k in enumerate(comp)
        ]
        out = np.full(g, -1, dtype=np.int64)
        live = np.arange(g)
        for lo, hi in zip(bounds, bounds[1:]):
            if live.size == 0:
                break
            step = max(1, _WALK_CELLS // int(spent[hi] - spent[lo]))
            missed = []
            for s0 in range(0, live.size, step):
                rows = live[s0 : s0 + step]
                subsets = {}  # (symbol, ones) -> words, shared by the combos
                level = []
                for counts in combos[lo:hi]:
                    words = None
                    for a, c in enumerate(counts):
                        nxt = subsets.get((a, c))
                        if nxt is None:
                            nxt = subsets[a, c] = self._subset_or(parts[a][rows], c)
                        words = nxt if words is None else (
                            words[:, :, None] | nxt[:, None, :]
                        ).reshape(rows.size, -1)
                    level.append(words)
                first = index.lookup(np.concatenate(level, axis=1))
                best = np.where(first >= 0, first, m1).min(axis=1)
                hit = best < m1
                out[rows[hit]] = best[hit]
                missed.append(rows[~hit])
            live = np.concatenate(missed)
        return out

    # -- block scan -------------------------------------------------------

    def _action_rows(self, lo: int, hi: int) -> np.ndarray:
        """Codeword rows lo..hi as one action symbol per position: y, or
        y·|Z| + z of the recoded z-codeword for cascades."""
        rows = self.codeword_rows(slice(lo, hi))
        if self.is_cascade:
            rows = rows * self.z_size + self.symbols_z[self.recoder[lo:hi]]
        return rows

    def _block_rows(self, lo: int, hi: int) -> np.ndarray:
        """Codewords lo..hi as float32 one-hot rows of their counted action
        symbols (all but the first), (hi - lo, (K - 1) * n); a packed
        word's row is its bits."""
        symbols = np.arange(1, self._row_symbols)[None, :, None]
        onehot = self._action_rows(lo, hi)[:, None, :] == symbols
        return onehot.astype(np.float32).reshape(hi - lo, -1)

    def _scan(self, x_batch: np.ndarray, keys: list, group: np.ndarray) -> np.ndarray:
        """Min-TV codewords of a batch by a block scan through the codebook;
        sample i has source composition keys[group[i]].

        A codeword's table index is Σ_t place[x_t, u_t] over its counted
        symbols u (``_block_rows``); over a block of codewords and a batch
        of samples that is one matmul of the per-sample place lanes with
        the codewords' rows, exact in float32 because every partial sum is
        an integer below ``_TV_TABLE_CAP``. Each sample keeps the first
        minimum within a block and a strictly lower one across blocks, and
        leaves at the first block that reaches its table's floor. Samples
        whose table is over the cap take the per-codeword reference loop.
        """
        x = x_batch.astype(np.intp, copy=False)
        used, inv = np.unique(group, return_inverse=True)
        keys = [keys[g] for g in used.tolist()]
        tables = [self._table(key) for key in keys]
        fit = [i for i, t in enumerate(tables) if t is not None]
        slot = np.full(len(keys), -1)
        slot[fit] = np.arange(len(fit))
        slot = slot[inv]  # sample -> its table among the fitting ones
        out = np.zeros(x.shape[0], dtype=np.int64)
        over = np.flatnonzero(slot < 0)
        if over.size:
            out[over] = self._encode_rowwise(x[over], [keys[i] for i in inv[over]])
        keep = np.flatnonzero(slot >= 0)
        if keep.size == 0:
            return out
        x, slot = x[keep], slot[keep]
        fitted = [tables[i] for i in fit]
        base = np.cumsum([0] + [t.size for t in fitted[:-1]])[slot]
        flat = np.concatenate(fitted)
        floor = np.array([t.min() for t in fitted])[slot]
        # (S, n, K) -> (S, (K - 1) * n): the first action symbol is not counted
        lanes = np.stack([self._strides(keys[i]) for i in fit])[slot[:, None], x]
        lanes = lanes[:, :, 1:].transpose(0, 2, 1).reshape(keep.size, -1)
        lanes = lanes.astype(np.float32)
        best_tv = np.full(keep.size, np.inf)
        best_j = np.zeros(keep.size, dtype=np.int64)
        m1 = self.m1
        step = max(1, _MATMUL_MAX // (_SCAN_BLOCK * max(1, lanes.shape[1])))
        # the per-sample arrays hold the live samples only, so that each
        # matmul takes a slice of them
        for lo in range(0, m1, _SCAN_BLOCK):
            rows = self._block_rows(lo, min(lo + _SCAN_BLOCK, m1)).T
            for b0 in range(0, keep.size, step):
                b = slice(b0, b0 + step)
                tv = flat[(lanes[b] @ rows).astype(np.int64) + base[b, None]]
                j = tv.argmin(axis=1)  # first minimum per sample
                v = tv[np.arange(j.size), j]
                better = v < best_tv[b]
                best_tv[b][better] = v[better]
                best_j[b][better] = lo + j[better]
            done = best_tv <= floor
            if done.any():
                out[keep[done]] = best_j[done]
                live = ~done
                keep, lanes, base, floor, best_tv, best_j = (
                    a[live] for a in (keep, lanes, base, floor, best_tv, best_j)
                )
                if keep.size == 0:
                    return out
        out[keep] = best_j
        return out

    def _encode_rowwise(self, x_batch: np.ndarray, comps: list) -> np.ndarray:
        """Reference encoder: the TV of every codeword, per sample, in the
        layout's own float expression (``_tv_from_c1`` for packed codes,
        which reads each sample's source composition comps[i], ``_tv_rows``
        of the type counts for symbol rows)."""
        out = np.empty(x_batch.shape[0], dtype=np.int64)
        if self.packed_y is not None:
            for i, (x, comp) in enumerate(zip(x_batch, comps)):
                masks = _pack_bits(np.stack([x == a for a in range(self.x_size)]))
                c1 = [np.bitwise_count(self.packed_y & m).astype(np.float64) for m in masks]
                out[i] = int(self._tv_from_c1(c1, comp, self.target).argmin())
            return out
        cells = int(np.prod(self.action_sizes))
        target_flat = self.target.mass.ravel()
        rows = self._action_rows(0, self.symbols_y.shape[0])
        for i, x in enumerate(x_batch):
            counts = _type_counts(x[None, :] * self._row_symbols + rows, cells)
            out[i] = int(_tv_rows(counts, self.n, target_flat).argmin())
        return out

    def encode(self, x_batch: np.ndarray) -> np.ndarray:
        """Min-TV message of each source block, lowest index on ties. The
        samples are grouped by source composition; a packed code's groups
        walk their tables, and the samples the walk skips or leaves take
        the block scan."""
        x = _as_batch(x_batch, self.n, self.x_size)
        s = x.shape[0]
        if s == 0:
            return np.empty(0, dtype=np.int64)
        comps = np.stack([(x == a).sum(axis=1) for a in range(self.x_size)], axis=1)
        uniq, group = np.unique(comps, axis=0, return_inverse=True)
        keys, group = [tuple(c) for c in uniq.tolist()], group.ravel()
        out = np.full(s, -1, dtype=np.int64)
        # when one scan call holds every sample against every word, the
        # walk's per-level calls cost more than all of its candidates save
        if self.packed_y is not None and s * self.m1 > _WALK_CELLS:
            for g, comp in enumerate(keys):
                if math.prod(c + 1 for c in comp) <= min(_WALK_CELLS, _TV_TABLE_CAP):
                    rows = np.flatnonzero(group == g)
                    out[rows] = self._walk_batch(x[rows], comp)
        rest = np.flatnonzero(out < 0)
        if rest.size == s:  # no copy of the batch
            return self._scan(x, keys, group)
        if rest.size:
            out[rest] = self._scan(x[rest], keys, group[rest])
        return out

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


# -- evaluation ----------------------------------------------------------


def _require_target_shape(code, target: JointPmf):
    if target.shape != code.action_sizes:
        raise ValueError(
            f"target shape {target.shape} does not match code alphabets "
            f"{code.action_sizes}"
        )


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
    probs = p0.mass[inputs].prod(axis=1)
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


def _enumerated_types(code, p0: Pmf):
    """Every source block's probability and joint action type counts."""
    if p0.alphabet_size != code.x_size:
        raise ValueError("source alphabet does not match the code")
    inputs = _enumerate_inputs(code.x_size, code.n)
    jc = _joint_codes(code, inputs, code.decoded_rows(inputs))
    return p0.mass[inputs].prod(axis=1), _type_counts(jc, int(np.prod(code.action_sizes)))


def expected_tv_exact(code, p0: Pmf, target: JointPmf) -> float:
    """E{TV(joint type of actions, target)} by full source enumeration."""
    _require_target_shape(code, target)
    probs, counts = _enumerated_types(code, p0)
    return float(probs @ _tv_rows(counts, code.n, target.mass.ravel()))


def expected_type_of_code(code, p0: Pmf) -> JointPmf:
    """Exact expectation of the joint action type under the source."""
    probs, counts = _enumerated_types(code, p0)
    return JointPmf(((probs @ counts) / code.n).reshape(code.action_sizes))


def _chunk_tvs(code, p0: Pmf, target: JointPmf, size: int, child) -> np.ndarray:
    """Per-sample TVs for one Monte-Carlo chunk with its own substream."""
    x = _draw_symbols(np.random.default_rng(child), p0.mass, size, code.n)
    if (
        isinstance(code, CodebookCode)
        and code.packed_y is not None
        and not code.is_cascade
    ):
        chosen = code.packed_y[code.encode(x)]
        masks = np.stack([_pack_bits(x == a) for a in range(code.x_size)])
        c1 = np.bitwise_count(chosen & masks).astype(np.float64)
        return code._tv_from_c1(c1, np.bitwise_count(masks), target)
    x = x.astype(np.int64, copy=False)
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
    _require_target_shape(code, target)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if p0.alphabet_size != code.x_size:
        raise ValueError("source alphabet does not match the code")
    check_monte_carlo_work(code.n, samples)
    sizes = [MC_CHUNK] * (samples // MC_CHUNK)
    if samples % MC_CHUNK:
        sizes.append(samples % MC_CHUNK)
    children = np.random.SeedSequence(seed).spawn(len(sizes))

    def run(i: int) -> np.ndarray:
        return _chunk_tvs(code, p0, target, sizes[i], children[i])

    workers = min(jobs or 1, len(sizes), MAX_JOBS)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
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
    """i.i.d. symbol blocks via inverse CDF, (count, n).

    Binary alphabets come back as bool, u >= cdf[0], which is what the
    inverse-CDF search returns there; larger ones as int64.
    """
    cdf = np.cumsum(mass)
    u = rng.random((count, n))
    if cdf.shape[0] == 2:
        return u >= cdf[0]
    return np.searchsorted(cdf[:-1], u, side="right")


def _capped_count(n: int, rate: float) -> int:
    """message_count, refused past DEFAULT_TABLE_CAP; the reason gives the
    count as a power of two, which stays short."""
    count = message_count(n, rate)
    if count > DEFAULT_TABLE_CAP:
        raise ValueError(f"message set 2^{n * rate:g} exceeds table_cap {DEFAULT_TABLE_CAP}")
    return count


def build_codebook_code(
    p0: Pmf,
    q_target: CondPmf,
    n: int,
    rate1: float,
    rate2: Optional[float] = None,
    seed: int = 0,
) -> CodebookCode:
    """Random-codebook code for the composed target compose(p0, q_target).

    Codewords are drawn i.i.d. from the output marginals of the composed
    target; the encoder (computed on demand) picks the message minimizing
    the TV between the realized joint type and the composed target. Cascade
    codes recode greedily: the z-message for y-message i minimizes the TV of
    the (y^n(i), z^n(j)) type to the (Y, Z) marginal of the target, lowest
    index on ties: the symbol-row min-TV encoder of the code from Y over the
    z-codebook, run on the y-codewords.
    """
    joint = compose(p0, q_target)
    cascade = joint.mass.ndim == 3
    if (rate2 is not None) != cascade:
        raise ValueError("rate2 required iff the target has two output axes")
    m1 = _capped_count(n, rate1)
    m2 = _capped_count(n, rate2) if cascade else 0
    x_size = p0.alphabet_size
    y_size = joint.mass.shape[1]
    packed = y_size == 2 and n <= 64 and not cascade
    _check_symbols("codeword symbols", n * (m1 + m2), MAX_BUILD_SYMBOLS, "MAX_BUILD_SYMBOLS")
    # packed codebooks are drawn in blocks; symbol rows are held whole
    held = n * max(0 if packed else m1, m2)
    _check_symbols("codebook symbols", held, MAX_HELD_SYMBOLS, "MAX_HELD_SYMBOLS")
    ss = np.random.SeedSequence(seed)
    child_y, child_z = ss.spawn(2)
    y_marg = joint.mass.reshape(x_size, y_size, -1).sum(axis=(0, 2))

    words = symbols = None
    if packed:
        rng = np.random.default_rng(child_y)
        words = np.empty(m1, dtype=np.uint64)
        step = 1 << 15
        for lo in range(0, m1, step):
            hi = min(lo + step, m1)
            words[lo:hi] = _pack_bits(_draw_symbols(rng, y_marg, hi - lo, n))
    else:
        symbols = _draw_symbols(np.random.default_rng(child_y), y_marg, m1, n)
        symbols = symbols.astype(np.int64, copy=False)

    if not cascade:
        return CodebookCode(
            n=n,
            x_size=x_size,
            y_size=y_size,
            rate1=rate1,
            target=joint,
            packed_y=words,
            symbols_y=symbols,
        )

    z_size = joint.mass.shape[2]
    z_marg = joint.mass.sum(axis=(0, 1))
    symbols_z = _draw_symbols(np.random.default_rng(child_z), z_marg, m2, n)
    symbols_z = symbols_z.astype(np.int64, copy=False)
    recode = CodebookCode(
        n=n,
        x_size=y_size,
        y_size=z_size,
        rate1=rate2,
        target=JointPmf(joint.mass.sum(axis=0)),
        symbols_y=symbols_z,
    )
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
        recoder=recode.encode(symbols),
    )


def block_repeat(code, k: int) -> BlockRepeatCode:
    """Concatenate k independent uses of a code; rates are unchanged."""
    return BlockRepeatCode(base=code, k=k)

