"""Encode/decode path: point cloud -> index map -> reconstructed point cloud.

Encoding finds the cloud's occupied voxels (``occupied_voxels``), places
them in the patch vectors (``patch_positions``), and replaces each vector by
its nearest codebook index, separately for the occupancy and intensity
streams.  The nearest-entry search (``quantizer.assign``) reads only the
vectors' nonzeros, so no dense grid or patch-vector array is built between
the cloud and the index map.  The receiver (``metrics.reconstruct``) keeps
each stream as row ids into its codebook's entries plus one fill row
(``CellRows``) and thresholds them into ``Voxels`` (``threshold_voxels``),
the same sparse type as the sender's truth; ``occupancy_bce_rows`` reads
the same rows.  Decoding (``decode_voxels``)
emits points sampled from an isotropic Gaussian around each voxel centroid;
all points of a voxel carry that voxel's single intensity value, and the
intensity channel itself is never sampled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import (
    MAX_POINTS,
    CellRows,
    OccupancyGrid,
    PatchSpec,
    PointCloud,
    VoxelGridSpec,
    Voxels,
    _to_patch_vectors,
    as_ints,
    assemble_grid,
    occupied_voxels,
    patch_positions,
)
from .quantizer import KIND_OCC, Codebook, assign, quantize

BCE_EPS = 1e-7  # probability clamp, avoids log(0)
_CLIP_ATTEMPTS = 16


@dataclass
class IndexMap:
    """The transmitted representation: two (h, w) integer grids of codebook
    indices plus the grid/patch configuration they describe."""

    occ_indices: np.ndarray
    int_indices: np.ndarray
    k_occ: int
    k_int: int
    spec: VoxelGridSpec
    patch: PatchSpec

    def __post_init__(self):
        self.occ_indices = np.asarray(self.occ_indices, dtype=np.int64)
        self.int_indices = np.asarray(self.int_indices, dtype=np.int64)
        lat = self.patch.latent_shape(self.spec)
        for name, arr, k in (
            ("occ", self.occ_indices, self.k_occ),
            ("int", self.int_indices, self.k_int),
        ):
            if arr.shape != lat:
                raise ValueError(f"{name}_indices shape {arr.shape} != latent {lat}")
            if arr.size and (arr.min() < 0 or arr.max() >= k):
                raise ValueError(f"{name}_indices out of range [0, {k})")

    @property
    def h(self) -> int:
        return self.occ_indices.shape[0]

    @property
    def w(self) -> int:
        return self.occ_indices.shape[1]

    @property
    def n_cells(self) -> int:
        return self.occ_indices.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, IndexMap):
            return NotImplemented
        return (
            np.array_equal(self.occ_indices, other.occ_indices)
            and np.array_equal(self.int_indices, other.int_indices)
            and (self.k_occ, self.k_int) == (other.k_occ, other.k_int)
            and self.spec == other.spec
            and self.patch == other.patch
        )


@dataclass(frozen=True)
class DecodeConfig:
    """``sigma`` is the Gaussian sampling std in meters (None means dx/4);
    with ``clip_to_voxel`` samples are kept inside the voxel box by rejection
    (fallback to the centroid after 16 attempts).  ``points_per_voxel`` is an
    integer in [1, ``MAX_POINTS``] (an integral float is converted)."""

    sigma: float | None = None
    points_per_voxel: int = 1
    clip_to_voxel: bool = True

    def __post_init__(self):
        if self.sigma is not None and not 0 <= self.sigma < np.inf:
            raise ValueError("sigma must be finite and >= 0")
        (ppv,) = as_ints((self.points_per_voxel,), "points_per_voxel")
        object.__setattr__(self, "points_per_voxel", ppv)
        if not 1 <= self.points_per_voxel <= MAX_POINTS:
            raise ValueError(f"points_per_voxel must lie in [1, {MAX_POINTS}]")

    def resolved_sigma(self, spec: VoxelGridSpec) -> float:
        return spec.cell[0] / 4.0 if self.sigma is None else float(self.sigma)


def encode(
    cloud: PointCloud,
    spec: VoxelGridSpec,
    patch: PatchSpec,
    cb_occ: Codebook,
    cb_int: Codebook,
) -> IndexMap:
    """:func:`encode_voxels` of the cloud's ``occupied_voxels``.  Deterministic."""
    return encode_voxels(occupied_voxels(cloud, spec), patch, cb_occ, cb_int)


def encode_voxels(voxels: Voxels, patch: PatchSpec, cb_occ: Codebook, cb_int: Codebook) -> IndexMap:
    """Quantize both streams of a cloud's occupied voxels from their places in
    the patch vectors: each voxel is a 1 of the occupancy stream, and its mean
    intensity, unless exactly 0, a nonzero of the intensity stream.  The
    indices are those ``quantize`` gives the ``patchify`` of ``voxelize``'s
    grids.  Deterministic."""
    spec = voxels.spec
    positions, order = patch_positions(voxels.ids, patch, spec)
    means = voxels.means[order]
    kept = means != 0
    h, w = patch.latent_shape(spec)
    shape = (h * w, patch.vector_dim(spec))
    # every value lies in [0, 1], so each row's squared norm is at most
    # D <= MAX_POINTS = 2**26, far below quantizer._SQ_NORM_LIMIT (~2.2e307):
    # no distance can overflow, and assign skips quantize's norm check
    occ_idx = assign(cb_occ, shape, positions, np.ones(positions.size)).reshape(h, w)
    int_idx = assign(cb_int, shape, positions[kept], means[kept]).reshape(h, w)
    return IndexMap(occ_idx, int_idx, cb_occ.k, cb_int.k, spec, patch)


def decode_voxels(voxels: Voxels, cfg: DecodeConfig, seed: int = 0) -> PointCloud:
    """Reconstruct a cloud from the receiver's ``Voxels``.

    Each voxel emits ``points_per_voxel`` Gaussian samples around its
    centroid (exactly the centroid when sigma is 0), all carrying the
    voxel's intensity value.  Draws come from ``seed``, >= 0 at every sigma.
    More than ``MAX_POINTS`` points raise before any is allocated.
    """
    rng = np.random.default_rng(seed)
    spec = voxels.spec
    ppv = cfg.points_per_voxel
    if voxels.ids.size * ppv > MAX_POINTS:
        raise ValueError(f"{voxels.ids.size} voxels x {ppv} points exceed {MAX_POINTS} points")
    idx = np.column_stack(np.unravel_index(voxels.ids, spec.dims))
    centers = np.repeat(spec.centroids(idx), ppv, axis=0)
    sigma = cfg.resolved_sigma(spec)
    if sigma == 0.0:
        pos = centers
    else:
        cell = np.asarray(spec.cell)
        lo = np.repeat(np.asarray(spec.origin) + idx * cell, ppv, axis=0)
        hi = lo + cell
        pos = centers + sigma * rng.standard_normal(centers.shape)
        if cfg.clip_to_voxel:
            # the rows still outside their voxel, ascending; only they are redrawn and re-tested
            out = np.flatnonzero(~np.all((pos >= lo) & (pos < hi), axis=1))
            for _ in range(_CLIP_ATTEMPTS):
                if not out.size:
                    break
                redrawn = centers[out] + sigma * rng.standard_normal((out.size, 3))
                pos[out] = redrawn
                out = out[~np.all((redrawn >= lo[out]) & (redrawn < hi[out]), axis=1)]
            pos[out] = centers[out]
    points = np.column_stack([pos, np.repeat(voxels.means, ppv)])
    return PointCloud(points)


def occupancy_bce(truth: OccupancyGrid, predicted_probs: np.ndarray) -> float:
    """Mean binary cross-entropy over all voxels; predictions are clamped to
    [1e-7, 1 - 1e-7] before the logs.  :func:`occupancy_bce_rows` of the
    (H, W, L) tensor as one table row per column of voxels, so the terms sum
    in C order whatever the tensor's memory layout."""
    probs = np.asarray(predicted_probs, dtype=np.float64)
    if probs.shape != truth.data.shape:
        raise ValueError(f"shape mismatch {probs.shape} vs {truth.data.shape}")
    gh, gw, gl = probs.shape
    columns = CellRows(np.arange(gh * gw).reshape(gh, gw), probs.reshape(gh * gw, gl))
    return _bce(np.flatnonzero(truth.data), columns, PatchSpec(1, 1), truth.spec)


def occupancy_bce_rows(truth: Voxels, occ: CellRows, patch: PatchSpec) -> float:
    """:func:`occupancy_bce` of the truth's occupied voxels against the
    occupancy vectors of ``occ``, read from its table rows, bit for bit."""
    return _bce(truth.ids, occ, patch, truth.spec)


def _bce(truth_ids: np.ndarray, occ: CellRows, patch: PatchSpec, spec: VoxelGridSpec) -> float:
    # y is 0 or 1, so y·log p + (1 − y)·log(1 − p) is exactly log p or
    # log(1 − p): both logs of the clamped table once, then every voxel's term
    # is gathered from its cell's row into one C-ordered (H, W, L) array
    log_p = np.clip(occ.table, BCE_EPS, 1.0 - BCE_EPS)
    log_q = 1.0 - log_p
    np.log(log_q, out=log_q)
    np.log(log_p, out=log_p)
    gh, gw, gl = spec.dims
    i, j = np.arange(gh)[:, None], np.arange(gw)
    # voxel column (i, j) is one run of L entries: run ``runs[i, j]`` of the
    # tables cut into runs, (row·p_h + i % p_h)·p_w + j % p_w
    rows = occ.ids[i // patch.p_h, j // patch.p_w]
    runs = (rows * patch.p_h + i % patch.p_h) * patch.p_w + j % patch.p_w
    term = np.take(log_q.reshape(-1, gl), runs, axis=0)
    column, l = np.divmod(truth_ids, gl)
    term.reshape(-1)[truth_ids] = log_p.reshape(-1)[runs.reshape(-1)[column] * gl + l]
    return float(-term.mean())


def intensity_mse(truth: Voxels, predicted: Voxels) -> float:
    """Mean squared intensity error over the truly occupied voxels only, the
    ``truth`` voxels, in their flat order; a truth voxel ``predicted`` lacks
    reads 0."""
    if truth.spec.dims != predicted.spec.dims:
        raise ValueError("grid shapes differ")
    if truth.ids.size == 0:
        raise ValueError("no occupied voxels to average over")
    values = np.zeros(truth.ids.size)
    if predicted.ids.size:
        at = np.minimum(np.searchsorted(predicted.ids, truth.ids), predicted.ids.size - 1)
        hit = predicted.ids[at] == truth.ids
        values[hit] = predicted.means[at[hit]]
    diff = values - truth.means
    return float((diff**2).mean())


class VqLossTerms(NamedTuple):
    reconstruction_term: float
    codebook_term: float
    commitment_term: float


def vq_loss(grid, codebook: Codebook, patch: PatchSpec) -> VqLossTerms:
    """Quantization loss terms for one stream (an Occupancy- or IntensityGrid
    against its codebook).

    With the deterministic patch encoder the codebook and commitment terms
    coincide: both are the mean squared distance between the patch vectors
    and their assigned entries.  The reconstruction term is the mean squared
    error between the input tensor and its decoded reconstruction (occupancy
    thresholded at 0.5, intensity clamped to [0, 1]).
    """
    spec = grid.spec
    vectors = _to_patch_vectors(np.asarray(grid.data, dtype=np.float64), patch, spec)
    idx, commitment = quantize(codebook, vectors)
    recon_vec = codebook.entries[idx]
    raw = assemble_grid(recon_vec, patch, spec)
    if codebook.kind == KIND_OCC:
        recon = (raw >= 0.5).astype(np.float64)
    else:
        recon = np.clip(raw, 0.0, 1.0)
    reconstruction = float(((grid.data.astype(np.float64) - recon) ** 2).mean())
    return VqLossTerms(reconstruction, commitment, commitment)
