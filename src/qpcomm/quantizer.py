"""Dual-codebook vector quantization.

Codebooks are learned with batch k-means whose centroid step is an
exponential-moving-average pull toward the current batch means.  With
zero-initialized EMA accumulators the first update lands exactly on the
batch means and every later update is a convex interpolation between the
previous entry and the new batch mean, so the training error is
non-increasing between refresh events.  Entries whose (bias-corrected) EMA
usage falls below ``dead_limit`` at a refresh point are re-seeded from a
reservoir sample of the data.

Nearest-entry assignment, for ``assign``, ``quantize`` and every training
pass, is one exact kernel (``_Search``) over the rows' nonzeros: rows sorted
by how far into the most-used columns they reach, a float32 product per block
of rows over only that block's columns, a per-row band of candidates proven
to contain ``nearest``'s index, and a rerank of the rows with more than one
candidate in ``nearest``'s own direct form, from those rows' nonzeros.
Indices therefore equal row-by-row ``nearest``, ties to the lowest index, in
the caller's row order.  ``assign`` takes the nonzeros as the sparse sender
places them; ``quantize`` and training find them in dense rows.  Training
keeps one CSR copy of the samples, built from those nonzeros, and their
squared norms, so each k-means++ pick, each centroid update and each pass's
error costs O(nnz) instead of O(N·D).  Distances from the expanded form
``‖x‖² + ‖c‖² − 2·x·c`` are recomputed directly where they cancel to near zero,
and the stop rule falls back to direct errors when a decision is within
rounding.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .geometry import MAX_POINTS, as_ints
from .pcio import FormatError

KIND_OCC = "occ"
KIND_INT = "int"
_KIND_CODES = {KIND_OCC: 0, KIND_INT: 1}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}

QPCB_MAGIC = b"QPCB"
QPCB_VERSION = 1
FILL_TAG = b"FILL"


@dataclass
class QuantizerConfig:
    """Training settings.  ``k``, ``dim``, ``refresh_period``,
    ``reservoir_size``, ``max_iters`` and ``seed`` are integers (an integral
    float is converted), and ``k * dim`` is at most ``MAX_POINTS`` (2**26),
    so a codebook and each training pass's (K, D) arrays stay bounded; the
    reference preset's K·D is 2**21.  ``seed`` is >= 0, as
    ``np.random.default_rng`` needs, and ``dead_limit`` and ``tol`` are
    finite and >= 0."""

    k: int
    dim: int
    dead_limit: int = 256
    ema_decay: float = 0.99
    refresh_period: int = 10
    reservoir_size: int = 4096
    seed: int = 0
    max_iters: int = 100
    tol: float = 1e-5

    def __post_init__(self):
        (self.k, self.dim, self.refresh_period, self.reservoir_size, self.max_iters,
         self.seed) = as_ints(
            (self.k, self.dim, self.refresh_period, self.reservoir_size, self.max_iters,
             self.seed), "k, dim, refresh_period, reservoir_size, max_iters and seed")
        if self.dim < 1:
            raise ValueError("vector dimension must be >= 1")
        # so K also fits the u32 of QPCB files and frames
        if not 1 <= self.k <= MAX_POINTS // self.dim:
            raise ValueError(f"codebook size must lie in [1, 2**26 / dim], got K={self.k} "
                             f"at D={self.dim}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        for name in ("dead_limit", "tol"):
            if not 0 <= getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and >= 0")
        if not 0.0 < self.ema_decay < 1.0:
            raise ValueError("ema_decay must lie in (0, 1)")
        if self.refresh_period < 1 or self.reservoir_size < 1 or self.max_iters < 1:
            raise ValueError("refresh_period, reservoir_size, max_iters must be >= 1")


@dataclass
class TrainingTrace:
    """Per-pass mean quantization error and the iterations where a dead-code
    refresh fired.  Error is non-increasing on the segments between
    refreshes."""

    errors: list = field(default_factory=list)
    refresh_iters: list = field(default_factory=list)


@dataclass(eq=False)
class Codebook:
    entries: np.ndarray  # (K, D) float64
    usage: np.ndarray  # (K,) int64, assignment counts of the last pass
    kind: str = KIND_OCC
    trace: TrainingTrace | None = None

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=np.float64)
        if self.entries.ndim != 2:
            raise ValueError("entries must be a (K, D) array")
        if 0 in self.entries.shape:  # QPCB files hold K >= 1 and D >= 1
            raise ValueError(f"codebook needs K >= 1 and D >= 1, got {self.entries.shape}")
        _squared_norms(self.entries, "codebook entries")
        k = self.entries.shape[0]
        self.usage = np.asarray(self.usage, dtype=np.int64).reshape(k)
        if (self.usage < 0).any():  # QPCB stores usage as u64
            raise ValueError("usage counts must be >= 0")
        if self.kind not in _KIND_CODES:
            raise ValueError(f"kind must be one of {sorted(_KIND_CODES)}")

    @classmethod
    def from_entries(cls, entries, kind: str = KIND_OCC) -> "Codebook":
        entries = np.asarray(entries, dtype=np.float64)
        return cls(entries, np.zeros(entries.shape[0], np.int64), kind)

    @property
    def k(self) -> int:
        return self.entries.shape[0]

    @property
    def dim(self) -> int:
        return self.entries.shape[1]


def nearest(codebook: Codebook, z: np.ndarray) -> int:
    """Index of the codebook entry with minimum squared Euclidean distance to
    ``z``; ties break to the lowest index."""
    z = np.asarray(z, dtype=np.float64).reshape(-1)
    if z.shape[0] != codebook.dim:
        raise ValueError(f"vector dim {z.shape[0]} != codebook dim {codebook.dim}")
    d = ((codebook.entries - z) ** 2).sum(axis=1)
    return int(np.argmin(d))


_BLOCK = 1 << 22  # float32 scores per coarse block; 4x the float64 values per rerank batch
# rows and entries whose squared norms are at most this have finite direct-form
# distances: ‖v − e‖² <= 2‖v‖² + 2‖e‖² <= max / 2
_SQ_NORM_LIMIT = float(np.finfo(np.float64).max) / 8


def _gamma(n: int, u: float) -> float:
    """Higham's γ_n = n·u / (1 − n·u) for unit roundoff u."""
    return n * u / (1.0 - n * u)


def _squared_norms(rows: np.ndarray, what: str) -> np.ndarray:
    """Squared norm of each row of ``rows`` (n, D); raises ``ValueError``
    unless every one is finite and at most ``_SQ_NORM_LIMIT``."""
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.einsum("ij,ij->i", rows, rows)
    if not (sq <= _SQ_NORM_LIMIT).all():
        raise ValueError(f"{what} must be finite with squared norms <= {_SQ_NORM_LIMIT:.4g}")
    return sq


def _nonzeros(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The flat positions of the nonzeros of ``rows``, ascending (row-major),
    and their values; ``-0.0`` is no nonzero."""
    nz = np.flatnonzero(rows != 0)  # a bool mask takes numpy's fast path: ~3x on floats
    return nz, rows.reshape(-1)[nz]


class _Search:
    """Exact nearest-entry search for the fixed rows of an (n, D) array of
    ``shape``, given by its nonzeros: ``nz``, their flat positions ascending,
    and ``vals``.  ``search(entries)`` gives each row ``nearest``'s index, the
    lowest index minimizing ``((entries − v)**2).sum(axis=1)``.  ``k`` (at
    least the number of entries searched) sizes the row blocks.

    Values are scaled by the power of two ``c`` that puts the largest |value|
    of the rows (or ``bound``, if larger) in [0.5, 1); training entries are
    means and copies of the rows, so they stay within it up to rounding.
    With ``x = c·v`` and ``y = c·e``, ``c²‖v − e‖² = ‖x‖² + 2·S`` for the
    score ``S = ½‖y‖² − x·y``.  Equal entries have equal distances, so only
    the first of each is searched.

    *Rows.*  The nonzeros (``nz_rows``, ``nz_cols``, ``nz_vals``) are also
    training's CSR copy (``csr()``).  The used columns ``J`` are ranked by
    how many rows use them, most used first, ties to the lower column, and a
    row's width is the rank of its last used column.  The coarse rows
    ``[1, x_J]`` (columns in rank order) are stored stably sorted by width
    and cut into blocks of at most ``_BLOCK // k`` rows, also wherever the
    width more than doubles.  A block's rows use only its first ``m = 1 +``
    (largest width) coarse columns; the rest add exactly nothing.  The blocks and their constants
    are fixed here, once for every search.

    *Coarse pass.*  Per block, a float32 product of the rows' ``[1, x]`` and
    ``[½‖y‖², −y]`` over those ``m`` columns scores every entry.  Input
    rounding plus Higham's dot-product bound (*Accuracy and Stability of
    Numerical Algorithms*, §3.1, any summation order, so it holds for each
    block with its own ``m``) give, with ``u = 2⁻²⁴`` and
    ``Σ|x_i·y_i| <= ‖x‖·‖y‖``,

        |Ŝ − S| <= β = γ_{m+3}·(½‖y‖² + ‖x‖·‖y‖) + (4m + 8)·2⁻¹²⁶·max(1, ‖y‖),

    the last term for float32 underflow, flushed or gradual.  ``‖x‖`` is
    summed over a row's nonzeros alone: the zeros add exactly nothing, and
    its rounding, like the einsum's it replaces, is one of the second-order
    terms the band's doubling covers.  A NaN score leaves its row no entry
    within the band, so a row with none raises ``FloatingPointError``.

    *Band.*  ``nearest``'s float64 sum is within
    ``δ = γ_{D+2}·‖v − e‖² + 2D·2⁻¹⁰⁷⁴`` of the exact distance (``u = 2⁻⁵³``).
    So if entry ``k`` has the least direct form, ``Ŝ_k <= Ŝ_j + 2β + c²δ``
    for every ``j``, with β and δ maximized over the entries through
    ``½‖y‖² <= H``, ``‖y‖ <= Y``, ``‖x‖ <= X`` and
    ``c²‖v − e‖² <= (X + Y)·(‖x‖ + Y)``.  The band ``W = 2·(2β + c²δ)``
    doubles that for second-order terms and for evaluating W, so the entries
    with ``Ŝ <= min Ŝ + W`` include ``nearest``'s index.

    *Rerank.*  A row with one entry in its band takes it.  Other rows take
    the least ``((e − v)**2).sum(axis=1)`` over their band, ties to the
    lowest index, evaluated in batches of ``_BLOCK // (4·D)`` pairs, each
    pair's entry minus its row's nonzeros.  Indices go back to the caller's
    row order.
    """

    def __init__(self, shape, nz: np.ndarray, vals: np.ndarray, k: int, bound: float = 0.0):
        self.shape = n, dim = shape
        self.nz_rows, self.nz_cols = np.divmod(nz, dim)
        self.nz_vals = vals
        self.indptr = np.zeros(n + 1, dtype=np.int64)  # row r's nonzeros: indptr[r]:indptr[r + 1]
        np.cumsum(np.bincount(self.nz_rows, minlength=n), out=self.indptr[1:])
        uses = np.bincount(self.nz_cols, minlength=dim)
        self.cols = np.argsort(-uses, kind="stable")[: np.count_nonzero(uses)]
        rank = np.empty(dim, dtype=np.int64)
        rank[self.cols] = np.arange(1, self.cols.size + 1)  # each column's coarse column
        nz_rank = rank[self.nz_cols]
        width = np.zeros(n, dtype=np.int64)
        np.maximum.at(width, self.nz_rows, nz_rank)
        order = np.argsort(width, kind="stable")  # coarse row -> caller row

        vals = self.nz_vals
        top = max(float(vals.max(initial=0.0)), -float(vals.min(initial=0.0)), bound)
        self.exp = -math.frexp(top)[1] if top > 0.0 else 0
        x = vals * math.ldexp(1.0, self.exp)
        self.coarse = np.zeros((n, self.cols.size + 1), dtype=np.float32)
        self.coarse[:, 0] = 1.0
        self.coarse[np.argsort(order)[self.nz_rows], nz_rank] = x
        # from the scaled rows: ‖v‖² may underflow where ‖x‖² does not
        norms = np.sqrt(np.bincount(self.nz_rows, x * x, minlength=n))  # ‖x‖
        self.top_norm = float(norms.max(initial=0.0))  # X

        # per block: sorted rows, their caller rows, m, γ_{m+3}, (4m + 8)·2⁻¹²⁶, ‖x‖
        width, norms = width[order], norms[order]
        step = max(1, _BLOCK // k)
        self.blocks = []
        start = 0
        while start < n:
            doubled = int(np.searchsorted(width, 2 * width[start], side="right"))
            stop = min(start + step, doubled)
            m = int(width[stop - 1]) + 1
            self.blocks.append((
                slice(start, stop), order[start:stop], m,
                _gamma(m + 3, 2.0**-24), (4 * m + 8) * 2.0**-126, norms[start:stop],
            ))
            start = stop

    def __call__(self, entries: np.ndarray) -> np.ndarray:
        dim = entries.shape[1]
        # the first of each run of equal rows, in a stable sort of their bytes
        as_bytes = np.ascontiguousarray(entries).view(np.dtype((np.void, 8 * dim))).ravel()
        perm = as_bytes.argsort(kind="stable")
        ordered = as_bytes[perm]
        first = np.sort(perm[np.concatenate(([True], ordered[1:] != ordered[:-1]))])
        if first.size < entries.shape[0]:
            entries = entries[first]
        k_all = entries.shape[0]
        y = entries * math.ldexp(1.0, self.exp)
        half_sq = 0.5 * np.einsum("ij,ij->i", y, y)
        coarse_e = np.empty((k_all, self.coarse.shape[1]), dtype=np.float32)
        coarse_e[:, 0] = half_sq
        np.negative(np.take(y, self.cols, axis=1), out=coarse_e[:, 1:])

        h = float(half_sq.max())
        top = math.sqrt(2.0 * h)  # Y
        g64 = _gamma(dim + 2, 2.0**-53)
        reach = self.top_norm + top
        # c²·2D·2⁻¹⁰⁷⁴ is capped where it already exceeds every score gap (|S| <= 1.5·D)
        tiny64 = math.ldexp(2 * dim, min(2 * self.exp - 1074, 64))

        # one product gives, per row, the candidate count and the sum of their
        # indices: the index itself where the count is 1 (exact: float32 holds
        # integers to 2**24)
        tally_dtype = np.float32 if k_all <= 1 << 24 else np.float64
        tally = np.stack([np.ones(k_all), np.arange(k_all)]).astype(tally_dtype)
        idx = np.empty(self.coarse.shape[0], dtype=np.int64)
        for rows, caller_rows, m, g32, tiny32, norms in self.blocks:
            # W = A + B·‖x‖, rounded up to float32
            band = 4 * g32 * h + 2 * g64 * reach * top + 4 * (tiny32 * max(1.0, top) + tiny64)
            band = band + (4 * g32 * top + 2 * g64 * reach) * norms
            band = np.nextafter(band.astype(np.float32), np.float32(np.inf))
            # both operands are finite, yet the BLAS kernel can raise a spurious
            # invalid flag; the zero-candidate check below catches a real NaN
            with np.errstate(invalid="ignore"):
                scores = coarse_e[:, :m] @ self.coarse[rows, :m].T  # (K, rows)
            # one ulp up from the rounded sum, so never below the exact min Ŝ + W
            limit = np.nextafter(scores.min(axis=0) + band, np.float32(np.inf))
            candidates = scores <= limit
            count, best = tally @ candidates.astype(tally.dtype)
            if not count.all():  # a NaN score leaves its row no candidate
                raise FloatingPointError("non-finite score in the nearest-entry search")
            best = best.astype(np.int64)
            near = np.flatnonzero(count > 1)
            if near.size:
                # row-major over (near row, entry): indices ascend within a row
                r, k = np.divmod(np.flatnonzero(candidates[:, near].T), k_all)
                best[near] = self._rerank(caller_rows[near[r]], k, entries)
            idx[caller_rows] = best
        return first[idx]

    def csr(self) -> sp.csr_array:
        """The rows as a CSR array, from their nonzeros."""
        return sp.csr_array((self.nz_vals, self.nz_cols, self.indptr), shape=self.shape)

    def _subtract(self, out: np.ndarray, rows: np.ndarray) -> None:
        """``out -= `` the rows ``rows`` (at least one), in place, at their
        nonzeros only: ``x − 0.0`` is ``x`` exactly, so ``out`` ends as the
        dense difference, bit for bit."""
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        ends = np.cumsum(counts)
        # each row's nonzeros, row after row: position t of the run for row r
        # is nonzero starts[r] + (t - (ends[r] - counts[r]))
        at = np.arange(ends[-1]) + np.repeat(starts - ends + counts, counts)
        out[np.repeat(np.arange(rows.size), counts), self.nz_cols[at]] -= self.nz_vals[at]

    def _rerank(self, rows: np.ndarray, k: np.ndarray, entries: np.ndarray) -> np.ndarray:
        """For candidate pairs ``(rows, k)``, grouped by row and ascending in
        index within a row, each row's lowest index of least direct-form
        distance."""
        d = np.empty(rows.size)
        step = max(1, _BLOCK // (4 * entries.shape[1]))
        for start in range(0, rows.size, step):
            sl = slice(start, start + step)
            diff = entries[k[sl]]
            self._subtract(diff, rows[sl])
            d[sl] = np.square(diff, out=diff).sum(axis=1)
        starts = np.diff(rows, prepend=-1) != 0
        row = np.cumsum(starts) - 1  # each pair's row number
        hit = np.flatnonzero(d == np.minimum.reduceat(d, np.flatnonzero(starts))[row])
        return k[hit[np.diff(row[hit], prepend=-1) != 0]]


def _direct_error(samples, entries, idx) -> float:
    """Mean squared distance of each sample to its entry, 256 samples at a
    time; each row's sum is the one-shot expression's, bit for bit."""
    err = np.empty(samples.shape[0])
    for start in range(0, samples.shape[0], 256):
        sl = slice(start, start + 256)
        d = samples[sl] - entries[idx[sl]]
        err[sl] = np.square(d, out=d).sum(axis=1)
    return float(err.mean())


def assign(codebook: Codebook, shape, nz: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """``nearest``'s index for each row of an (n, D) float64 array of
    ``shape``, given by its nonzeros: ``nz``, their flat positions, ascending,
    and ``vals``.  The caller vouches that every row's squared norm is at most
    ``_SQ_NORM_LIMIT`` (``quantize`` checks it).  Raises ``ValueError`` unless
    D is the codebook's."""
    n, dim = shape
    if dim != codebook.dim:
        raise ValueError(f"vector dim {dim} != codebook dim {codebook.dim}")
    if n == 0:
        return np.empty(0, dtype=np.int64)
    entries = codebook.entries
    bound = max(float(entries.max()), -float(entries.min()))
    return _Search(shape, nz, vals, entries.shape[0], bound)(entries)


def quantize(codebook: Codebook, vectors: np.ndarray) -> tuple[np.ndarray, float]:
    """Element-wise nearest-entry assignment for an (h, w, D) vector grid (or
    a flat (n, D) batch): ``assign`` on its nonzeros.

    Returns ``(indices, commitment_error)`` where the commitment error is the
    mean over cells of the squared distance to the assigned entry.  Indices
    equal ``nearest`` cell by cell.  Raises ``ValueError`` for a vector whose
    squared norm is not finite or could overflow a distance.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    lead_shape = vectors.shape[:-1]
    if vectors.shape[-1] != codebook.dim:
        raise ValueError(f"vector dim {vectors.shape[-1]} != codebook dim {codebook.dim}")
    flat = vectors.reshape(-1, codebook.dim)
    if flat.shape[0] == 0:
        return np.empty(lead_shape, dtype=np.int64), 0.0
    _squared_norms(flat, "vectors")
    idx = assign(codebook, flat.shape, *_nonzeros(flat))
    return idx.reshape(lead_shape), _direct_error(flat, codebook.entries, idx)


def _exact_small(d, scale, samples, centers):
    """Clamp expanded-form squared distances ``d`` at 0 in place and recompute
    directly the rows below ``1e-9 * scale``, where cancellation may have left
    no correct digit; ``centers(rows)`` gives those rows' centres."""
    np.maximum(d, 0.0, out=d)
    rows = np.flatnonzero(d < 1e-9 * scale)
    d[rows] = ((samples[rows] - centers(rows)) ** 2).sum(axis=1)
    return d


def _kmeanspp_init(samples, sparse, sq_norms, k: int, rng: np.random.Generator) -> np.ndarray:
    n = samples.shape[0]
    entries = np.empty((k, samples.shape[1]), dtype=np.float64)

    def dist_to(pick):
        c = samples[pick]
        scale = sq_norms + sq_norms[pick]
        return _exact_small(scale - 2.0 * (sparse @ c), scale, samples, lambda rows: c)

    pick = int(rng.integers(n))
    entries[0] = samples[pick]
    min_d = dist_to(pick)
    for j in range(1, k):
        total = float(min_d.sum())
        if total > 0.0:
            pick = int(rng.choice(n, p=min_d / total))
        else:
            # every sample already coincides with a chosen entry
            pick = int(rng.integers(n))
        entries[j] = samples[pick]
        np.minimum(min_d, dist_to(pick), out=min_d)
    return entries


def train_codebook(samples, cfg: QuantizerConfig, kind: str = KIND_OCC) -> Codebook:
    """Fit a codebook to ``samples`` ((N, D) array-like, N >= 1).

    Deterministic given (samples, cfg): k-means++ init, then at most
    ``cfg.max_iters`` assign/update passes, stopping early once the relative
    error improvement drops below ``cfg.tol`` and no entry is dead.  Dead
    entries (bias-corrected EMA usage below ``dead_limit``) are re-seeded
    from the reservoir every ``refresh_period`` iterations and at the would-be
    stopping point; with too little data per entry (N << K * dead_limit) some
    entries may still be below the limit at the iteration cap.  Raises
    ``ValueError`` for a sample whose squared norm is not finite or could
    overflow a distance.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[0] == 0:
        raise ValueError("need a non-empty (N, D) sample array")
    if samples.shape[1] != cfg.dim:
        raise ValueError(f"sample dim {samples.shape[1]} != cfg.dim {cfg.dim}")
    n = samples.shape[0]
    rng = np.random.default_rng(cfg.seed)

    if n <= cfg.reservoir_size:
        reservoir = samples
    else:
        reservoir = samples[rng.choice(n, size=cfg.reservoir_size, replace=False)]

    sq_norms = _squared_norms(samples, "samples")
    search = _Search(samples.shape, *_nonzeros(samples), cfg.k)
    sparse = search.csr()
    nnz_rows = search.nz_rows
    entries = _kmeanspp_init(samples, sparse, sq_norms, cfg.k, rng)
    ema_counts = np.zeros(cfg.k)
    ema_sums = np.zeros_like(entries)
    age = np.zeros(cfg.k, dtype=np.int64)  # passes since (re)initialization
    trace = TrainingTrace()
    decay = cfg.ema_decay
    prev = None  # (err, slack, entries, idx) of the previous pass

    for it in range(1, cfg.max_iters + 1):
        idx = search(entries)
        scale = sq_norms + (entries**2).sum(axis=1)[idx]
        # x·c of ‖x‖² + ‖c‖² − 2·x·c, summed over the CSR copy (entries is C-ordered)
        cell = idx[nnz_rows] * cfg.dim + sparse.indices  # flat (entry, column) of each nonzero
        picked = np.take(entries, cell)
        cross = np.bincount(nnz_rows, sparse.data * picked, minlength=n)
        dist = _exact_small(scale - 2.0 * cross, scale, samples, lambda rows: entries[idx[rows]])
        err = float(dist.mean())
        # |err - direct error| <= slack: ~4D ulps of the scale per row, plus the means
        slack = 8 * (cfg.dim + 64) * np.finfo(np.float64).eps * float(scale.mean())
        converged = False
        if prev is not None:
            p_err, p_slack, p_entries, p_idx = prev
            margin = p_err - err - cfg.tol * max(p_err, 1e-300)
            if abs(margin) <= (2.0 + cfg.tol) * max(slack, p_slack):
                # too close to call: decide on the direct errors the stop rule is defined on
                p_err = trace.errors[-1] = _direct_error(samples, p_entries, p_idx)
                err = _direct_error(samples, entries, idx)
            converged = (p_err - err) <= cfg.tol * max(p_err, 1e-300)
        trace.errors.append(err)
        prev = (err, slack, entries.copy(), idx)

        counts = np.bincount(idx, minlength=cfg.k).astype(np.float64)
        sums = np.bincount(cell, sparse.data, minlength=cfg.k * cfg.dim).reshape(cfg.k, cfg.dim)
        age += 1
        ema_counts = decay * ema_counts + (1.0 - decay) * counts
        ema_sums = decay * ema_sums + (1.0 - decay) * sums
        served = counts > 0
        entries[served] = ema_sums[served] / ema_counts[served, None]

        usage_est = ema_counts / (1.0 - decay**age)
        dead = usage_est < cfg.dead_limit
        # freshly re-seeded entries get a full period to attract points
        # before they can be declared dead again
        mature_dead = dead & (age >= min(cfg.refresh_period, cfg.max_iters))
        if converged and not dead.any():
            break
        if mature_dead.any() and (converged or it % cfg.refresh_period == 0):
            n_dead = int(mature_dead.sum())
            entries[mature_dead] = reservoir[rng.integers(len(reservoir), size=n_dead)]
            ema_counts[mature_dead] = 0.0
            ema_sums[mature_dead] = 0.0
            age[mature_dead] = 0
            trace.refresh_iters.append(it)
            prev = None  # refresh may bump the error; restart the stop test

    # final pass so usage reflects the returned entries; its error is direct
    idx = search(entries)
    trace.errors.append(_direct_error(samples, entries, idx))
    usage = np.bincount(idx, minlength=cfg.k).astype(np.int64)
    return Codebook(entries, usage, kind, trace)


def train_dual(
    occ_samples, int_samples, cfg_occ: QuantizerConfig, cfg_int: QuantizerConfig
) -> tuple[Codebook, Codebook]:
    """Train the occupancy and intensity codebooks independently."""
    cb_occ = train_codebook(occ_samples, cfg_occ, kind=KIND_OCC)
    cb_int = train_codebook(int_samples, cfg_int, kind=KIND_INT)
    return cb_occ, cb_int


def write_codebook(path, codebook: Codebook, fill: np.ndarray | None = None) -> None:
    """Write the QPCB layout: magic, version, kind byte, K and D (u32 LE),
    K*D float32 entries, K u64 usage counters, then an optional trailing
    ``FILL`` block carrying one float32 D-vector."""
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(QPCB_MAGIC)
        fh.write(struct.pack("<B", QPCB_VERSION))
        fh.write(struct.pack("<B", _KIND_CODES[codebook.kind]))
        fh.write(struct.pack("<II", codebook.k, codebook.dim))
        fh.write(codebook.entries.astype("<f4").tobytes())
        fh.write(codebook.usage.astype("<u8").tobytes())
        if fill is not None:
            fill = np.asarray(fill, dtype=np.float64).reshape(-1)
            if fill.shape[0] != codebook.dim:
                raise ValueError("fill vector dimension must match the codebook")
            fh.write(FILL_TAG)
            fh.write(fill.astype("<f4").tobytes())


def read_codebook(path) -> tuple[Codebook, np.ndarray | None]:
    """Read a QPCB file; returns (codebook, fill vector or None)."""
    path = Path(path)
    data = path.read_bytes()
    if len(data) < 14 or data[:4] != QPCB_MAGIC:
        raise FormatError(f"{path}: not a QPCB file")
    if data[4] != QPCB_VERSION:
        raise FormatError(f"{path}: unsupported QPCB version {data[4]}")
    kind_code = data[5]
    if kind_code not in _KIND_NAMES:
        raise FormatError(f"{path}: unknown codebook kind {kind_code}")
    k, dim = struct.unpack_from("<II", data, 6)
    if k == 0 or dim == 0:
        raise FormatError(f"{path}: empty codebook (K={k}, D={dim})")
    off = 14
    need = k * dim * 4 + k * 8
    if len(data) < off + need:
        raise FormatError(f"{path}: truncated QPCB body")
    entries = np.frombuffer(data, dtype="<f4", count=k * dim, offset=off).reshape(k, dim)
    off += k * dim * 4
    usage = np.frombuffer(data, dtype="<u8", count=k, offset=off)
    if usage.max() > np.iinfo(np.int64).max:
        raise FormatError(f"{path}: usage counter >= 2**63")
    off += k * 8
    fill = None
    if len(data) > off:
        if data[off : off + 4] != FILL_TAG or len(data) < off + 4 + dim * 4:
            raise FormatError(f"{path}: malformed trailing block")
        fill = np.frombuffer(data, dtype="<f4", count=dim, offset=off + 4).astype(np.float64)
        off += 4 + dim * 4
        if len(data) != off:
            raise FormatError(f"{path}: trailing bytes after FILL block")
    return Codebook(entries.astype(np.float64), usage, _KIND_NAMES[kind_code]), fill
