"""Point-cloud and voxel-grid domain types, voxelization, and patch flattening.

A scene enters as an (N, 4) array of (x, y, z, intensity) samples and
becomes its occupied voxels (``occupied_voxels``): their flat ids and mean
intensities.  ``patch_positions`` places those voxels in an h x w grid of
flattened patch vectors -- the unit that gets vector-quantized and
transmitted -- so the sender never builds a dense grid.  The receiver holds
each stream as ``CellRows``, row ids into a small table of vectors, and
its reconstruction is a ``Voxels`` too (``threshold_voxels``).  ``voxelize``
(the dense occupancy + intensity tensors), ``patchify`` (their (h, w, D)
patch vectors), ``assemble_grid`` (its inverse) and ``training_vectors``
are the dense views.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

MAX_POINTS = 2**26  # the most points a generated scene or a decoded cloud may hold


def as_ints(values, what: str) -> tuple:
    """``values`` as Python ints; raises ``ValueError`` naming ``what``
    unless each is integral, an integer type or a float equal to an integer."""
    if not all(isinstance(v, numbers.Integral) or float(v).is_integer() for v in values):
        raise ValueError(f"{what} must be {'an integer' if len(values) == 1 else 'integers'}")
    return tuple(int(v) for v in values)


@dataclass
class PointCloud:
    """A LiDAR-style scan: ``points`` is an (N, 4) float array, columns
    (x, y, z, intensity).  Coordinates must be finite, intensity in [0, 1];
    the cloud may be empty."""

    points: np.ndarray

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
    def empty(cls) -> "PointCloud":
        return cls(np.empty((0, 4)))

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
    ``dims`` are integers and the grid holds at most ``MAX_POINTS`` voxels,
    the most points a decoded cloud may hold.
    """

    origin: tuple[float, float, float]
    cell: tuple[float, float, float]
    dims: tuple[int, int, int]

    def __post_init__(self):
        object.__setattr__(self, "origin", tuple(float(v) for v in self.origin))
        object.__setattr__(self, "cell", tuple(float(v) for v in self.cell))
        object.__setattr__(self, "dims", as_ints(self.dims, "grid dims"))
        if len(self.origin) != 3 or len(self.cell) != 3 or len(self.dims) != 3:
            raise ValueError("origin, cell and dims must have three components")
        if not all(np.isfinite(self.origin)):
            raise ValueError("grid origin must be finite")
        if not all(0 < c < np.inf for c in self.cell):  # NaN fails too
            raise ValueError("cell sizes must be positive and finite")
        if any(d <= 0 for d in self.dims):
            raise ValueError("grid dims must be strictly positive")
        if self.n_voxels > MAX_POINTS:
            raise ValueError(f"grid holds more than {MAX_POINTS} voxels")
        # Python floats, so an overflow is inf rather than a numpy warning
        if not all(abs(o) + d * c < np.inf for o, c, d in zip(self.origin, self.cell, self.dims)):
            raise ValueError("grid extent must be finite")

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
        # clipped first: a float outside int64's range has no defined cast
        idx = np.floor(np.clip(rel, -1, self.dims, out=rel)).astype(np.int64)
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
        if data.dtype.kind in "biu":  # by range: a uint8 cast would wrap 256 to 0
            binary = data.min() >= 0 and data.max() <= 1
        else:
            binary = ((data == 0) | (data == 1)).all()
        if not binary:
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
    its vector has dimension D = p_h * p_w * L.  Both sizes are integers
    (an integral float is converted)."""

    p_h: int
    p_w: int

    def __post_init__(self):
        p_h, p_w = as_ints((self.p_h, self.p_w), "patch sizes")
        object.__setattr__(self, "p_h", p_h)
        object.__setattr__(self, "p_w", p_w)
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


class Voxels(NamedTuple):
    """The occupied voxels of a cloud on ``spec``: ``ids``, their flat
    (row-major) ids, ascending; ``means``, each one's mean intensity; and
    ``dropped``, the points outside the grid extent.  The sparse form of
    ``voxelize``'s grids.  A receiver's reconstruction (``threshold_voxels``)
    is one too, with each voxel's decoded intensity and ``dropped`` 0."""

    spec: VoxelGridSpec
    ids: np.ndarray
    means: np.ndarray
    dropped: int

    def _scatter(self, values, dtype) -> np.ndarray:
        data = np.zeros(self.spec.n_voxels, dtype=dtype)
        data[self.ids] = values
        return data.reshape(self.spec.dims)

    def occupancy(self) -> OccupancyGrid:
        return OccupancyGrid(self.spec, self._scatter(1, np.uint8))

    def intensity(self) -> IntensityGrid:
        return IntensityGrid(self.spec, self._scatter(self.means, np.float64))


class CellRows(NamedTuple):
    """An (h, w) grid of patch vectors as rows of a table: cell (i, j)'s
    vector is ``table[ids[i, j]]``.  The receiver's form of each stream: a
    cell carries a codebook entry, a fill constant or zeros, so its table is
    the codebook's (K, D) entries plus one row."""

    ids: np.ndarray
    table: np.ndarray

    def vectors(self) -> np.ndarray:
        """The (h, w, D) vector grid, a new array."""
        return self.table[self.ids]


def occupied_voxels(cloud: PointCloud, spec: VoxelGridSpec) -> Voxels:
    """The voxels at least one in-range point of ``cloud`` falls in, each
    with the arithmetic mean of those points' intensities (clamped to
    [0, 1], which only rounding can leave).  Out-of-range points are
    dropped and counted."""
    idx, inside = spec.voxel_indices(cloud.xyz)
    flat = np.ravel_multi_index(tuple(idx[inside].T), spec.dims)
    ids, inverse, counts = np.unique(flat, return_inverse=True, return_counts=True)
    # bincount adds each voxel's intensities in point order, so every sum is
    # the one a bincount over the whole grid gives, bit for bit
    means = np.bincount(inverse, weights=cloud.intensity[inside], minlength=ids.size) / counts
    np.clip(means, 0.0, 1.0, out=means)
    return Voxels(spec, ids, means, int((~inside).sum()))


class VoxelizeResult(NamedTuple):
    occupancy: OccupancyGrid
    intensity: IntensityGrid
    dropped: int  # points outside the grid extent (silently discarded)


def voxelize(cloud: PointCloud, spec: VoxelGridSpec) -> VoxelizeResult:
    """Discretize a cloud onto the grid: ``occupied_voxels`` as dense grids.

    A voxel is occupied iff at least one in-range point falls in it; its
    intensity is the arithmetic mean of the intensities of those points.
    Unoccupied voxels have intensity exactly 0.  Out-of-range points are
    dropped and counted in the result.
    """
    voxels = occupied_voxels(cloud, spec)
    return VoxelizeResult(voxels.occupancy(), voxels.intensity(), voxels.dropped)


def patch_positions(
    ids: np.ndarray, patch: PatchSpec, spec: VoxelGridSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Where the voxels of flat ids ``ids`` sit in the (h·w, D) rows of patch
    vectors that ``patchify`` cuts, flattened: ``(positions, order)``, with
    ``positions`` ascending (``np.flatnonzero``'s order) and voxel
    ``ids[order[n]]`` at ``positions[n]``.  Voxel (i, j, l) is in cell
    (i // p_h, j // p_w), at offset ((i % p_h)·p_w + j % p_w)·L + l of its
    vector.  Raises ``ValueError`` unless the patch tiles the grid."""
    _, w = patch.latent_shape(spec)
    _, gw, gl = spec.dims
    ij, l = np.divmod(ids, gl)
    i, j = np.divmod(ij, gw)
    ci, ri = np.divmod(i, patch.p_h)
    cj, rj = np.divmod(j, patch.p_w)
    positions = (((ci * w + cj) * patch.p_h + ri) * patch.p_w + rj) * gl + l
    order = np.argsort(positions)  # no two voxels share a position
    return positions[order], order


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
    the samples codebooks and fill constants are fitted to: each cloud's
    ``occupied_voxels`` scattered straight into its rows."""
    n_cells = math.prod(patch.latent_shape(spec))
    placed = []
    for cloud in clouds:
        voxels = occupied_voxels(cloud, spec)
        positions, order = patch_positions(voxels.ids, patch, spec)
        placed.append((positions, voxels.means[order]))
    shape = (len(placed) * n_cells, patch.vector_dim(spec))
    occ, inten = np.zeros(shape), np.zeros(shape)
    for c, (positions, means) in enumerate(placed):
        at = c * n_cells * shape[1] + positions
        occ.reshape(-1)[at] = 1.0
        inten.reshape(-1)[at] = means
    return occ, inten


def threshold_voxels(
    occ: CellRows, inten: CellRows, patch: PatchSpec, spec: VoxelGridSpec
) -> Voxels:
    """The ``Voxels`` a receiver reconstructs from the occupancy and intensity
    ``CellRows``, read without expanding either; neither is modified.

    A voxel is occupied where its entry of the occupancy vectors is at least
    0.5, and its value is its entry of the intensity vectors, clamped to
    [0, 1].  In one image row, a cell's voxels are a run of ``p_w·L`` flat
    ids from its base id, at the occupied offsets of one ``p_h``-slice of its
    table row; the runs, row by row and cell by cell, give the ids ascending.
    Of ``patchify``'s vectors as rows it is the grids' ``occupied_voxels``.
    Raises ``ValueError`` unless both row grids are the patch's latent shape
    and both tables are D wide.
    """
    latent, dim = patch.latent_shape(spec), patch.vector_dim(spec)
    if any(r.ids.shape != latent or r.table.shape[1:] != (dim,) for r in (occ, inten)):
        raise ValueError(f"row grids {occ.ids.shape}, {inten.ids.shape} and tables "
                         f"{occ.table.shape}, {inten.table.shape} are not the grid's "
                         f"latent {latent} and D = {dim}")
    gh, gw, gl = spec.dims
    run = patch.p_w * gl  # a cell's voxels in one image row
    # each (table row, p_h-slice)'s occupied offsets, one list after another
    slices, offsets = np.divmod(np.flatnonzero(occ.table >= 0.5), run)
    counts = np.bincount(slices, minlength=occ.table.shape[0] * patch.p_h)
    starts = np.cumsum(counts) - counts
    # one run per (image row, cell column), in flat-id order
    i = np.arange(gh)
    cell_row, in_cell = i // patch.p_h, (i % patch.p_h)[:, None]
    occ_slice = (occ.ids[cell_row] * patch.p_h + in_cell).ravel()
    int_slice = (inten.ids[cell_row] * patch.p_h + in_cell).ravel()
    n = counts[occ_slice]
    base = (i[:, None] * gw + np.arange(0, gw, patch.p_w)).ravel() * gl
    local = offsets[np.repeat(starts[occ_slice] - (np.cumsum(n) - n), n) + np.arange(n.sum())]
    means = inten.table.reshape(-1)[np.repeat(int_slice * run, n) + local]
    np.clip(means, 0.0, 1.0, out=means)
    return Voxels(spec, np.repeat(base, n) + local, means, 0)
