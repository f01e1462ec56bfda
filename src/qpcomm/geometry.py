"""Point-cloud and voxel-grid domain types, voxelization, and patch flattening.

A scene enters as an (N, 4) array of (x, y, z, intensity) samples, becomes a
pair of dense tensors (binary occupancy + per-voxel mean intensity), and is
then cut into an h x w grid of flattened patch vectors -- the unit that gets
vector-quantized and transmitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


@dataclass
class PointCloud:
    """A LiDAR-style scan: ``points`` is an (N, 4) float array, columns
    (x, y, z, intensity).  Coordinates must be finite, intensity in [0, 1];
    the cloud may be empty."""

    points: np.ndarray
    frame_id: str = ""

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.size == 0:
            pts = pts.reshape(0, 4)
        if pts.ndim != 2 or pts.shape[1] != 4:
            raise ValueError(f"points must be (N, 4), got {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("point cloud contains non-finite values")
        inten = pts[:, 3]
        if pts.shape[0] and (inten.min() < 0.0 or inten.max() > 1.0):
            raise ValueError("intensity values must lie in [0, 1]")
        self.points = pts

    @classmethod
    def empty(cls, frame_id: str = "") -> "PointCloud":
        return cls(np.empty((0, 4)), frame_id)

    @property
    def xyz(self) -> np.ndarray:
        return self.points[:, :3]

    @property
    def intensity(self) -> np.ndarray:
        return self.points[:, 3]

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class VoxelGridSpec:
    """Regular 3D grid.  Voxel (i, j, k) covers the half-open box
    ``[origin + (i*dx, j*dy, k*dz), origin + ((i+1)*dx, (j+1)*dy, (k+1)*dz))``.
    """

    origin: tuple[float, float, float]
    cell: tuple[float, float, float]
    dims: tuple[int, int, int]

    def __post_init__(self):
        object.__setattr__(self, "origin", tuple(float(v) for v in self.origin))
        object.__setattr__(self, "cell", tuple(float(v) for v in self.cell))
        object.__setattr__(self, "dims", tuple(int(v) for v in self.dims))
        if len(self.origin) != 3 or len(self.cell) != 3 or len(self.dims) != 3:
            raise ValueError("origin, cell and dims must have three components")
        if not all(np.isfinite(self.origin)):
            raise ValueError("grid origin must be finite")
        if not all(0 < c < np.inf for c in self.cell):  # NaN fails too
            raise ValueError("cell sizes must be positive and finite")
        if any(d <= 0 for d in self.dims):
            raise ValueError("grid dims must be strictly positive")

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.dims

    @property
    def n_voxels(self) -> int:
        h, w, l = self.dims
        return h * w * l

    @property
    def upper(self) -> np.ndarray:
        return np.asarray(self.origin) + np.asarray(self.dims) * np.asarray(self.cell)

    @property
    def voxel_diagonal(self) -> float:
        return float(np.linalg.norm(self.cell))

    def voxel_indices(self, xyz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map positions to integer voxel indices.

        Returns ``(idx, inside)`` where ``idx`` is (N, 3) int64 (valid only
        where ``inside`` is True) and ``inside`` marks points within the grid
        extent.
        """
        xyz = np.asarray(xyz, dtype=np.float64).reshape(-1, 3)
        rel = (xyz - np.asarray(self.origin)) / np.asarray(self.cell)
        idx = np.floor(rel).astype(np.int64)
        inside = np.all((idx >= 0) & (idx < np.asarray(self.dims)), axis=1)
        return idx, inside

    def centroids(self, idx: np.ndarray) -> np.ndarray:
        """Centers of the voxels at integer indices ``idx`` (N, 3)."""
        idx = np.asarray(idx, dtype=np.float64).reshape(-1, 3)
        return np.asarray(self.origin) + (idx + 0.5) * np.asarray(self.cell)


@dataclass
class OccupancyGrid:
    spec: VoxelGridSpec
    data: np.ndarray  # (H, W, L) uint8 in {0, 1}

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.shape != self.spec.dims:
            raise ValueError(f"occupancy shape {data.shape} != grid dims {self.spec.dims}")
        if not np.isin(data, (0, 1)).all():
            raise ValueError("occupancy entries must be 0 or 1")
        self.data = data.astype(np.uint8)

    @property
    def n_occupied(self) -> int:
        return int(self.data.sum())


@dataclass
class IntensityGrid:
    spec: VoxelGridSpec
    data: np.ndarray  # (H, W, L) float64 in [0, 1]

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.shape != self.spec.dims:
            raise ValueError(f"intensity shape {data.shape} != grid dims {self.spec.dims}")
        if data.size and (data.min() < 0.0 or data.max() > 1.0):
            raise ValueError("intensity entries must lie in [0, 1]")
        self.data = data


@dataclass(frozen=True)
class PatchSpec:
    """Patch tiling of the (H, W) footprint.  The full depth L is folded into
    each patch vector, so a latent cell covers a p_h x p_w column block and
    its vector has dimension D = p_h * p_w * L."""

    p_h: int
    p_w: int

    def __post_init__(self):
        if self.p_h < 1 or self.p_w < 1:
            raise ValueError("patch sizes must be positive")

    def latent_shape(self, spec: VoxelGridSpec) -> tuple[int, int]:
        gh, gw, _ = spec.dims
        if gh % self.p_h or gw % self.p_w:
            raise ValueError(
                f"patch {self.p_h}x{self.p_w} does not divide grid {gh}x{gw}"
            )
        return gh // self.p_h, gw // self.p_w

    def vector_dim(self, spec: VoxelGridSpec) -> int:
        return self.p_h * self.p_w * spec.dims[2]


class VoxelizeResult(NamedTuple):
    occupancy: OccupancyGrid
    intensity: IntensityGrid
    dropped: int  # points outside the grid extent (silently discarded)


def voxelize(cloud: PointCloud, spec: VoxelGridSpec) -> VoxelizeResult:
    """Discretize a cloud onto the grid.

    A voxel is occupied iff at least one in-range point falls in it; its
    intensity is the arithmetic mean of the intensities of those points.
    Unoccupied voxels have intensity exactly 0.  Out-of-range points are
    dropped and counted in the result.
    """
    n_vox = spec.n_voxels
    occ = np.zeros(n_vox, dtype=np.int64)
    inten_sum = np.zeros(n_vox, dtype=np.float64)
    dropped = 0
    if len(cloud):
        idx, inside = spec.voxel_indices(cloud.xyz)
        dropped = int((~inside).sum())
        if inside.any():
            flat = np.ravel_multi_index(tuple(idx[inside].T), spec.dims)
            occ = np.bincount(flat, minlength=n_vox)
            inten_sum = np.bincount(flat, weights=cloud.intensity[inside], minlength=n_vox)
    occupied = occ > 0
    inten = np.zeros(n_vox, dtype=np.float64)
    inten[occupied] = inten_sum[occupied] / occ[occupied]
    # mean of values in [0,1] can exceed the bounds by rounding only
    np.clip(inten, 0.0, 1.0, out=inten)
    return VoxelizeResult(
        OccupancyGrid(spec, occupied.reshape(spec.dims).astype(np.uint8)),
        IntensityGrid(spec, inten.reshape(spec.dims)),
        dropped,
    )


def _to_patch_vectors(data: np.ndarray, patch: PatchSpec, spec: VoxelGridSpec) -> np.ndarray:
    h, w = patch.latent_shape(spec)
    gl = spec.dims[2]
    blocks = data.reshape(h, patch.p_h, w, patch.p_w, gl)
    return blocks.transpose(0, 2, 1, 3, 4).reshape(h, w, patch.p_h * patch.p_w * gl)


def assemble_grid(vectors: np.ndarray, patch: PatchSpec, spec: VoxelGridSpec) -> np.ndarray:
    """Inverse of the patch flattening, without any thresholding or masking.

    Returns the raw real-valued (H, W, L) tensor; useful when the patch
    vectors carry probabilities or fill values rather than exact grid data.
    """
    h, w = patch.latent_shape(spec)
    gl = spec.dims[2]
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.shape != (h, w, patch.p_h * patch.p_w * gl):
        raise ValueError(
            f"vector grid shape {vectors.shape} inconsistent with "
            f"latent {h}x{w}, D={patch.p_h * patch.p_w * gl}"
        )
    blocks = vectors.reshape(h, w, patch.p_h, patch.p_w, gl)
    return blocks.transpose(0, 2, 1, 3, 4).reshape(spec.dims)


def patchify(
    occ: OccupancyGrid, inten: IntensityGrid, patch: PatchSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Cut both grids into (h, w, D) patch-vector arrays.

    Latent cell (i, j) holds the row-major flattening of the p_h x p_w x L
    sub-block starting at (i*p_h, j*p_w, 0).
    """
    if occ.spec != inten.spec:
        raise ValueError("occupancy and intensity grids use different specs")
    occ_vec = _to_patch_vectors(occ.data.astype(np.float64), patch, occ.spec)
    int_vec = _to_patch_vectors(inten.data, patch, inten.spec)
    return occ_vec, int_vec


def training_vectors(
    clouds, spec: VoxelGridSpec, patch: PatchSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked (N, D) occupancy and intensity patch vectors of ``clouds``,
    the samples codebooks and fill constants are fitted to."""
    dim = patch.vector_dim(spec)
    occ_vecs, int_vecs = [], []
    for cloud in clouds:
        occ, inten, _ = voxelize(cloud, spec)
        ov, iv = patchify(occ, inten, patch)
        occ_vecs.append(ov.reshape(-1, dim))
        int_vecs.append(iv.reshape(-1, dim))
    return np.vstack(occ_vecs), np.vstack(int_vecs)


def unpatchify(
    occ_vectors: np.ndarray,
    int_vectors: np.ndarray,
    patch: PatchSpec,
    spec: VoxelGridSpec,
) -> tuple[OccupancyGrid, IntensityGrid]:
    """Rebuild grids from patch vectors.

    Real-valued occupancy entries are thresholded at 0.5 (>= 0.5 means
    occupied); intensity is clamped to [0, 1] and zeroed wherever the
    thresholded occupancy is 0.  Exact inverse of :func:`patchify` for binary
    occupancy and properly masked intensity.
    """
    occ_raw = assemble_grid(occ_vectors, patch, spec)
    int_raw = assemble_grid(int_vectors, patch, spec)
    occ_data = (occ_raw >= 0.5).astype(np.uint8)
    int_data = np.clip(int_raw, 0.0, 1.0) * occ_data
    return OccupancyGrid(spec, occ_data), IntensityGrid(spec, int_data)
