"""Encode/decode path: point cloud -> index map -> reconstructed point cloud.

Encoding voxelizes the cloud, flattens it into patch vectors, and replaces
each vector by its nearest codebook index, separately for the occupancy and
intensity streams.  Decoding looks the vectors back up, rebuilds the grids
(occupancy thresholded at 0.5), and emits points sampled from an isotropic
Gaussian around each occupied voxel centroid; all points of a voxel carry
that voxel's single intensity value, and the intensity channel itself is
never sampled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import (
    IntensityGrid,
    OccupancyGrid,
    PatchSpec,
    PointCloud,
    VoxelGridSpec,
    _to_patch_vectors,
    assemble_grid,
    patchify,
    unpatchify,
    voxelize,
)
from .quantizer import KIND_OCC, Codebook, quantize

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
    codebook_ids: tuple[int, int] | None = None

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


@dataclass
class DecodeConfig:
    """``sigma`` is the Gaussian sampling std in meters (None means dx/4);
    with ``clip_to_voxel`` samples are kept inside the voxel box by rejection
    (fallback to the centroid after 16 attempts)."""

    sigma: float | None = None
    points_per_voxel: int = 1
    clip_to_voxel: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.sigma is not None and not 0 <= self.sigma < np.inf:
            raise ValueError("sigma must be finite and >= 0")
        if self.points_per_voxel < 1:
            raise ValueError("points_per_voxel must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    def resolved_sigma(self, spec: VoxelGridSpec) -> float:
        return spec.cell[0] / 4.0 if self.sigma is None else float(self.sigma)


def encode(
    cloud: PointCloud,
    spec: VoxelGridSpec,
    patch: PatchSpec,
    cb_occ: Codebook,
    cb_int: Codebook,
) -> IndexMap:
    """Voxelize, patchify, and quantize both streams.  Deterministic."""
    dim = patch.vector_dim(spec)
    if cb_occ.dim != dim or cb_int.dim != dim:
        raise ValueError(
            f"codebook dims ({cb_occ.dim}, {cb_int.dim}) != patch vector dim {dim}"
        )
    occ, inten, _ = voxelize(cloud, spec)
    occ_vec, int_vec = patchify(occ, inten, patch)
    occ_idx, _ = quantize(cb_occ, occ_vec)
    int_idx, _ = quantize(cb_int, int_vec)
    return IndexMap(
        occ_idx,
        int_idx,
        cb_occ.k,
        cb_int.k,
        spec,
        patch,
        codebook_ids=(cb_occ.codebook_id, cb_int.codebook_id),
    )


def lookup_vectors(
    im: IndexMap, cb_occ: Codebook, cb_int: Codebook
) -> tuple[np.ndarray, np.ndarray]:
    """Replace indices by their code vectors; returns two (h, w, D) arrays."""
    if cb_occ.k != im.k_occ or cb_int.k != im.k_int:
        raise ValueError("codebook sizes do not match the index map")
    if im.codebook_ids is not None:
        ids = (cb_occ.codebook_id, cb_int.codebook_id)
        if ids != tuple(im.codebook_ids):
            raise ValueError("codebook content does not match the index map ids")
    return cb_occ.entries[im.occ_indices], cb_int.entries[im.int_indices]


def decode_vectors(
    occ_vectors: np.ndarray,
    int_vectors: np.ndarray,
    spec: VoxelGridSpec,
    patch: PatchSpec,
    cfg: DecodeConfig,
) -> PointCloud:
    """Reconstruct a cloud from latent vector grids (the post-fill path).

    Occupancy is thresholded at 0.5; each occupied voxel emits
    ``points_per_voxel`` Gaussian samples around its centroid (exactly the
    centroid when sigma is 0), all carrying the voxel's intensity value.
    """
    occ, inten = unpatchify(occ_vectors, int_vectors, patch, spec)
    idx = np.argwhere(occ.data > 0)
    if idx.shape[0] == 0:
        return PointCloud.empty()
    values = inten.data[tuple(idx.T)]
    ppv = cfg.points_per_voxel
    centers = np.repeat(spec.centroids(idx), ppv, axis=0)
    sigma = cfg.resolved_sigma(spec)
    if sigma == 0.0:
        pos = centers
    else:
        rng = np.random.default_rng(cfg.seed)
        cell = np.asarray(spec.cell)
        lo = np.repeat(np.asarray(spec.origin) + idx * cell, ppv, axis=0)
        hi = lo + cell
        pos = centers + sigma * rng.standard_normal(centers.shape)
        if cfg.clip_to_voxel:
            out = ~np.all((pos >= lo) & (pos < hi), axis=1)
            for _ in range(_CLIP_ATTEMPTS):
                if not out.any():
                    break
                pos[out] = centers[out] + sigma * rng.standard_normal((int(out.sum()), 3))
                out = ~np.all((pos >= lo) & (pos < hi), axis=1)
            pos[out] = centers[out]
    points = np.column_stack([pos, np.repeat(values, ppv)])
    return PointCloud(points)


def decode(im: IndexMap, cb_occ: Codebook, cb_int: Codebook, cfg: DecodeConfig) -> PointCloud:
    occ_vec, int_vec = lookup_vectors(im, cb_occ, cb_int)
    return decode_vectors(occ_vec, int_vec, im.spec, im.patch, cfg)


def occupancy_bce(truth: OccupancyGrid, predicted_probs: np.ndarray) -> float:
    """Mean binary cross-entropy over all voxels; predictions are clamped to
    [1e-7, 1 - 1e-7] before the logs."""
    probs = np.asarray(predicted_probs, dtype=np.float64)
    if probs.shape != truth.data.shape:
        raise ValueError(f"shape mismatch {probs.shape} vs {truth.data.shape}")
    p = np.clip(probs, BCE_EPS, 1.0 - BCE_EPS)
    y = truth.data.astype(np.float64)
    return float(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)).mean())


def intensity_mse(truth: IntensityGrid, predicted: IntensityGrid, occ: OccupancyGrid) -> float:
    """Mean squared intensity error over the truly occupied voxels only."""
    if truth.data.shape != predicted.data.shape or truth.data.shape != occ.data.shape:
        raise ValueError("grid shapes differ")
    mask = occ.data > 0
    n_occ = int(mask.sum())
    if n_occ == 0:
        raise ValueError("no occupied voxels to average over")
    diff = predicted.data[mask] - truth.data[mask]
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
