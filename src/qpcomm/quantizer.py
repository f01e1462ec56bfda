"""Dual-codebook vector quantization.

Codebooks are learned with batch k-means whose centroid step is an
exponential-moving-average pull toward the current batch means.  With
zero-initialized EMA accumulators the first update lands exactly on the
batch means and every later update is a convex interpolation between the
previous entry and the new batch mean, so the training error is
non-increasing between refresh events.  Entries whose (bias-corrected) EMA
usage falls below ``dead_limit`` at a refresh point are re-seeded from a
reservoir sample of the data.

Training keeps one CSR copy of the samples and their squared norms, so each
k-means++ pick and each centroid update costs O(nnz) instead of O(N·D); the
nearest-entry search stays a dense O(N·K·D) GEMM per pass.  Distances from the
expanded form ``‖x‖² + ‖c‖² − 2·x·c`` are recomputed directly where they cancel
to near zero, so training is bit-identical to the dense ``(x − c)²`` form.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

KIND_OCC = "occ"
KIND_INT = "int"
_KIND_CODES = {KIND_OCC: 0, KIND_INT: 1}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}

QPCB_MAGIC = b"QPCB"
QPCB_VERSION = 1
FILL_TAG = b"FILL"


@dataclass
class QuantizerConfig:
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
        if self.k < 1:
            raise ValueError("codebook size must be >= 1")
        if self.dim < 1:
            raise ValueError("vector dimension must be >= 1")
        if self.dead_limit < 0:
            raise ValueError("dead_limit must be non-negative")
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
        if not np.isfinite(self.entries).all():
            raise ValueError("codebook entries must be finite")
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

    @property
    def codebook_id(self) -> int:
        """Content hash (CRC-32 of the float32 entry bytes); stable across a
        save/load cycle because QPCB stores entries as float32."""
        return zlib.crc32(self.entries.astype("<f4").tobytes())


def nearest(codebook: Codebook, z: np.ndarray) -> int:
    """Index of the codebook entry with minimum squared Euclidean distance to
    ``z``; ties break to the lowest index."""
    z = np.asarray(z, dtype=np.float64).reshape(-1)
    if z.shape[0] != codebook.dim:
        raise ValueError(f"vector dim {z.shape[0]} != codebook dim {codebook.dim}")
    d = ((codebook.entries - z) ** 2).sum(axis=1)
    return int(np.argmin(d))


def _assign(vectors: np.ndarray, entries: np.ndarray, chunk: int = 8192):
    """Nearest-entry index per row of ``vectors`` (n, D), lowest-index ties,
    and that entry's ``‖e‖² − 2·v·e`` (the squared distance minus ``‖v‖²``)."""
    n = vectors.shape[0]
    idx = np.empty(n, dtype=np.int64)
    dmin = np.empty(n)
    ent_sq = (entries**2).sum(axis=1)
    for start in range(0, n, chunk):
        block = vectors[start : start + chunk]
        d = ent_sq - 2.0 * (block @ entries.T)  # ||v||^2 constant per row
        idx[start : start + chunk] = np.argmin(d, axis=1)
        dmin[start : start + chunk] = d[np.arange(d.shape[0]), idx[start : start + chunk]]
    return idx, dmin


def _direct_error(samples, entries, idx) -> float:
    return float(((samples - entries[idx]) ** 2).sum(axis=1).mean())


def quantize(codebook: Codebook, vectors: np.ndarray) -> tuple[np.ndarray, float]:
    """Element-wise nearest-entry assignment for an (h, w, D) vector grid (or
    a flat (n, D) batch).

    Returns ``(indices, commitment_error)`` where the commitment error is the
    mean over cells of the squared distance to the assigned entry.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    lead_shape = vectors.shape[:-1]
    if vectors.shape[-1] != codebook.dim:
        raise ValueError(f"vector dim {vectors.shape[-1]} != codebook dim {codebook.dim}")
    flat = vectors.reshape(-1, codebook.dim)
    if flat.shape[0] == 0:
        return np.empty(lead_shape, dtype=np.int64), 0.0
    idx, _ = _assign(flat, codebook.entries)
    return idx.reshape(lead_shape), _direct_error(flat, codebook.entries, idx)


def _exact_small(d, scale, samples, centers):
    """Clamp expanded-form squared distances ``d`` at 0 in place and recompute
    directly the rows below ``1e-9 * scale``, where cancellation may have left
    no correct digit; ``centers(rows)`` gives those rows' centres."""
    np.maximum(d, 0.0, out=d)
    rows = np.flatnonzero(d < 1e-9 * scale)
    if rows.size:
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
    entries may still be below the limit at the iteration cap.
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

    sparse = sp.csr_array(samples)
    sq_norms = np.einsum("ij,ij->i", samples, samples)
    entries = _kmeanspp_init(samples, sparse, sq_norms, cfg.k, rng)
    ema_counts = np.zeros(cfg.k)
    ema_sums = np.zeros_like(entries)
    age = np.zeros(cfg.k, dtype=np.int64)  # passes since (re)initialization
    trace = TrainingTrace()
    decay = cfg.ema_decay
    prev = None  # (err, slack, entries, idx) of the previous pass

    for it in range(1, cfg.max_iters + 1):
        idx, dmin = _assign(samples, entries)
        scale = sq_norms + (entries**2).sum(axis=1)[idx]
        dist = _exact_small(sq_norms + dmin, scale, samples, lambda rows: entries[idx[rows]])
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
        # one-hot (K, N) @ (N, D) sums each cluster's rows in ascending sample
        # order starting from 0: the same additions as a per-row scatter-add
        one_hot = sp.csr_array((np.ones(n), (idx, np.arange(n))), shape=(cfg.k, n))
        sums = (one_hot @ sparse).toarray()
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
    idx, _ = _assign(samples, entries)
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
    from .pcio import FormatError

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
