"""Loss-tolerance mechanics: latent-cell masking, loss expansion to voxels,
and fill policies for lost cells.

A latent cell is the unit of transmission loss; a cell with any missing
portion counts as fully lost, so expanding a mask to voxel space marks the
entire p_h x p_w x L block of every lost cell.  Lost cells are substituted
before reconstruction: with nothing (``empty``), with a constant vector
fitted to training data (``learned_constant``, the least-squares constant),
or by copying the nearest surviving cell (``neighbor_copy``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter

from .codec import IndexMap
from .geometry import PatchSpec, VoxelGridSpec
from .quantizer import Codebook

POLICY_EMPTY = "empty"
POLICY_LEARNED = "learned_constant"
POLICY_NEIGHBOR = "neighbor_copy"
POLICIES = (POLICY_EMPTY, POLICY_LEARNED, POLICY_NEIGHBOR)


@dataclass
class LossMask:
    """(h, w) boolean grid, True where the latent cell was lost in transit."""

    lost: np.ndarray

    def __post_init__(self):
        lost = np.asarray(self.lost)
        if lost.ndim != 2:
            raise ValueError("loss mask must be 2-D")
        self.lost = lost.astype(bool)

    @classmethod
    def none(cls, h: int, w: int) -> "LossMask":
        return cls(np.zeros((h, w), dtype=bool))

    @classmethod
    def all_lost(cls, h: int, w: int) -> "LossMask":
        return cls(np.ones((h, w), dtype=bool))

    @property
    def h(self) -> int:
        return self.lost.shape[0]

    @property
    def w(self) -> int:
        return self.lost.shape[1]

    @property
    def n_lost(self) -> int:
        return int(self.lost.sum())

    @property
    def cell_loss_rate(self) -> float:
        return self.n_lost / self.lost.size


def _exact_floor(x: float) -> int:
    # floor of a real product computed in floats; snap values that are within
    # 1e-9 of an integer so 0.3 * 100 -> 30, not 29
    near = round(x)
    return near if abs(x - near) < 1e-9 else math.floor(x)


def mask_random(h: int, w: int, ratio: float, seed: int) -> LossMask:
    """Mask exactly ``floor(ratio * h * w)`` cells, chosen uniformly without
    replacement; same seed, same set."""
    if not 0.0 <= ratio <= 1.0:
        raise ValueError("ratio must lie in [0, 1]")
    n = h * w
    m = _exact_floor(ratio * n)
    lost = np.zeros(n, dtype=bool)
    if m:
        rng = np.random.default_rng(seed)
        lost[rng.choice(n, size=m, replace=False)] = True
    return LossMask(lost.reshape(h, w))


def expand_to_grid(mask: LossMask, patch: PatchSpec, spec: VoxelGridSpec) -> np.ndarray:
    """Voxel-level (H, W, L) boolean grid: every voxel covered by a lost
    latent cell is marked lost."""
    if (mask.h, mask.w) != patch.latent_shape(spec):
        raise ValueError("mask dims inconsistent with patch/grid")
    cols = np.repeat(np.repeat(mask.lost, patch.p_h, axis=0), patch.p_w, axis=1)
    return np.broadcast_to(cols[:, :, None], spec.dims).copy()


def fit_fill_vector(training_vectors) -> np.ndarray:
    """Element-wise mean of the training vectors -- the constant that
    minimizes the mean squared substitution error."""
    vecs = np.asarray(training_vectors, dtype=np.float64)
    vecs = vecs.reshape(-1, vecs.shape[-1]) if vecs.ndim > 1 else vecs.reshape(1, -1)
    if vecs.shape[0] == 0:
        raise ValueError("need at least one training vector")
    return vecs.mean(axis=0)


@dataclass
class FillPolicy:
    kind: str = POLICY_LEARNED
    fill_occ: np.ndarray | None = None
    fill_int: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in POLICIES:
            raise ValueError(f"kind must be one of {POLICIES}")
        for name in ("fill_occ", "fill_int"):
            vec = getattr(self, name)
            if vec is not None:
                vec = np.asarray(vec, dtype=np.float64).reshape(-1)
                if not np.isfinite(vec).all():
                    raise ValueError(f"{name} must be finite")
                setattr(self, name, vec)
        if self.kind == POLICY_LEARNED and (self.fill_occ is None or self.fill_int is None):
            raise ValueError("learned_constant fill requires both fill vectors")

    @classmethod
    def empty(cls) -> "FillPolicy":
        return cls(POLICY_EMPTY)

    @classmethod
    def learned_constant(cls, fill_occ, fill_int) -> "FillPolicy":
        return cls(POLICY_LEARNED, fill_occ, fill_int)

    @classmethod
    def neighbor_copy(cls, fill_occ=None, fill_int=None) -> "FillPolicy":
        # the constants are the fallback when every cell is lost
        return cls(POLICY_NEIGHBOR, fill_occ, fill_int)


def _nearest_present(lost: np.ndarray, chunk: int = 1024) -> np.ndarray:
    """For each lost cell, the flat index of the nearest present cell by
    Manhattan latent distance; equidistant ties go to the lowest flat index.
    """
    h, w = lost.shape
    lost_flat = np.flatnonzero(lost.ravel())
    present_flat = np.flatnonzero(~lost.ravel())
    li, lj = np.divmod(lost_flat, w)
    pi, pj = np.divmod(present_flat, w)
    out = np.empty(lost_flat.shape[0], dtype=np.int64)
    for start in range(0, lost_flat.shape[0], chunk):
        sl = slice(start, start + chunk)
        d = np.abs(li[sl, None] - pi[None, :]) + np.abs(lj[sl, None] - pj[None, :])
        out[sl] = present_flat[np.argmin(d, axis=1)]
    return out


def fill(
    im: IndexMap,
    mask: LossMask,
    policy: FillPolicy,
    cb_occ: Codebook,
    cb_int: Codebook,
) -> tuple[np.ndarray, np.ndarray]:
    """Substitute lost cells and return the (h, w, D) occupancy and intensity
    vector grids ready for reconstruction.

    Present cells always carry their code vectors.  ``neighbor_copy`` falls
    back to the learned constants when every cell is lost, and raises if no
    constant is available when one is needed.
    """
    if (mask.h, mask.w) != (im.h, im.w):
        raise ValueError("mask dims do not match the index map")
    # fancy indexing returns new arrays: the codebooks are never written
    occ_vec = cb_occ.entries[im.occ_indices]
    int_vec = cb_int.entries[im.int_indices]
    lost = mask.lost
    if not lost.any():
        return occ_vec, int_vec

    kind = policy.kind
    if kind == POLICY_NEIGHBOR and lost.all():
        kind = POLICY_LEARNED
    if kind == POLICY_EMPTY:
        occ_vec[lost] = 0.0
        int_vec[lost] = 0.0
    elif kind == POLICY_LEARNED:
        if policy.fill_occ is None or policy.fill_int is None:
            raise ValueError("neighbor_copy needs fill vectors when every cell is lost")
        if policy.fill_occ.shape[0] != cb_occ.dim or policy.fill_int.shape[0] != cb_int.dim:
            raise ValueError("fill vector dimension mismatch")
        occ_vec[lost] = policy.fill_occ
        int_vec[lost] = policy.fill_int
    else:  # neighbor_copy with at least one present cell
        src = _nearest_present(lost)
        # views of the contiguous vector grids, so the copies land in them
        flat_occ = occ_vec.reshape(-1, cb_occ.dim)
        flat_int = int_vec.reshape(-1, cb_int.dim)
        dst = np.flatnonzero(lost.ravel())
        flat_occ[dst] = flat_occ[src]
        flat_int[dst] = flat_int[src]
    return occ_vec, int_vec


def nearest_rank_threshold(values: np.ndarray, p: float) -> float:
    """Nearest-rank percentile: the value at 1-based rank max(1, ceil(p*N))
    of the sorted data."""
    flat = np.sort(np.asarray(values, dtype=np.float64).ravel())
    rank = max(1, math.ceil(p * flat.size))
    return float(flat[rank - 1])


def confidence_filter(g: np.ndarray, percentile: float, smooth_sigma: float) -> np.ndarray:
    """Suppress low-confidence regions of a 2-D map in [0, 1].

    Entries at or below the nearest-rank ``percentile`` threshold are zeroed
    (strict ``>`` survives, so a constant map zeroes out entirely); survivors
    are multiplied by the Gaussian-smoothed input map (kernel truncated at
    radius ceil(3*sigma), reflected boundaries).  With ``smooth_sigma`` 0 the
    smoothing factor is the identity and survivors pass through unchanged.
    """
    if not 0.0 <= percentile < 1.0:
        raise ValueError("percentile must lie in [0, 1)")
    if smooth_sigma < 0:
        raise ValueError("smooth_sigma must be >= 0")
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != 2:
        raise ValueError("confidence map must be 2-D")
    tau = nearest_rank_threshold(g, percentile)
    keep = g > tau
    out = np.where(keep, g, 0.0)
    if smooth_sigma > 0:
        smoothed = gaussian_filter(
            g, smooth_sigma, mode="reflect", radius=math.ceil(3 * smooth_sigma)
        )
        out = out * smoothed
    return out
