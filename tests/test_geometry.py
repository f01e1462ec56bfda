import numpy as np
import pytest
from helpers import vector_rows

from qpcomm.geometry import (
    MAX_POINTS,
    CellRows,
    IntensityGrid,
    OccupancyGrid,
    PatchSpec,
    PointCloud,
    VoxelGridSpec,
    assemble_grid,
    patchify,
    threshold_voxels,
    voxelize,
)


def small_spec(dims=(4, 4, 2), cell=(0.5, 0.5, 0.25), origin=(0.0, 0.0, 0.0)):
    return VoxelGridSpec(origin, cell, dims)


def random_grids(spec, rng):
    occ = (rng.random(spec.dims) < 0.4).astype(np.uint8)
    inten = rng.random(spec.dims) * occ
    return OccupancyGrid(spec, occ), IntensityGrid(spec, inten)


class TestTypes:
    def test_pointcloud_rejects_nan(self):
        with pytest.raises(ValueError):
            PointCloud(np.array([[0.0, np.nan, 0.0, 0.5]]))

    def test_pointcloud_rejects_bad_intensity(self):
        with pytest.raises(ValueError):
            PointCloud(np.array([[0.0, 0.0, 0.0, 1.5]]))

    def test_pointcloud_may_be_empty(self):
        assert len(PointCloud.empty()) == 0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            VoxelGridSpec((0, 0, 0), (0.1, 0.0, 0.1), (4, 4, 4))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                VoxelGridSpec((0, 0, 0), (0.1, bad, 0.1), (4, 4, 4))
        with pytest.raises(ValueError):
            VoxelGridSpec((0, 0, 0), (0.1, 0.1, 0.1), (4, 0, 4))

    def test_spec_extent_must_be_finite(self):
        # the far corner overflows although every field is finite
        with pytest.raises(ValueError, match="grid extent must be finite"):
            VoxelGridSpec((0, 0, 0), (1e308, 0.1, 0.1), (4, 4, 4))
        with pytest.raises(ValueError, match="grid extent must be finite"):
            VoxelGridSpec((-1.7e308, 0, 0), (1e307, 0.1, 0.1), (2, 4, 4))
        VoxelGridSpec((0, 0, 0), (1e307, 0.1, 0.1), (4, 4, 4))

    @pytest.mark.parametrize("dims", [(2.7, 3, 4), (4, np.inf, 4), (4, 4, np.nan)],
                             ids=["fraction", "inf", "nan"])
    def test_spec_dims_must_be_integers(self, dims):
        with pytest.raises(ValueError, match="grid dims must be integers"):
            VoxelGridSpec((0, 0, 0), (0.1, 0.1, 0.1), dims)

    def test_spec_integral_dims_of_any_type_accepted(self):
        spec = VoxelGridSpec((0, 0, 0), (0.1, 0.1, 0.1), (2.0, np.int64(3), np.uint32(4)))
        assert spec.dims == (2, 3, 4) and all(type(d) is int for d in spec.dims)

    def test_spec_holds_at_most_max_points_voxels(self):
        # the reference preset, 11,796,480 voxels, fits; nothing is allocated either way
        VoxelGridSpec((0, 0, 0), (0.15625, 0.15625, 0.15), (640, 1152, 16))
        VoxelGridSpec((0, 0, 0), (0.1, 0.1, 0.1), (MAX_POINTS, 1, 1))
        for dims in ((MAX_POINTS + 1, 1, 1), (2**20, 2**20, 1), (10**6, 10**6, 8)):
            with pytest.raises(ValueError, match=f"more than {MAX_POINTS} voxels"):
                VoxelGridSpec((0, 0, 0), (0.1, 0.1, 0.1), dims)

    def test_occupancy_entries_binary(self):
        spec = small_spec()
        with pytest.raises(ValueError):
            OccupancyGrid(spec, np.full(spec.dims, 2))

    @pytest.mark.parametrize(
        "values,accepted",
        [
            (np.array([True, False]), True),
            (np.array([1, 0], dtype=np.uint8), True),
            (np.array([1, 0], dtype=np.int64), True),
            (np.array([1.0, 0.0]), True),
            (np.array([1.0, -0.0]), True),
            (np.array([1, 2]), False),
            (np.array([0, -1]), False),
            (np.array([0.5, 1.0]), False),
            (np.array([np.nan, 1.0]), False),
            (np.array([256, 0]), False),  # 0 once cast to uint8
            (np.array([0, 257], dtype=np.uint16), False),
        ],
    )
    def test_occupancy_validation_table(self, values, accepted):
        # the rule np.isin(data, (0, 1)) stated; Tier-1 turns warnings into errors
        spec = small_spec(dims=(2, 1, 1))
        data = values.reshape(spec.dims)
        if accepted:
            grid = OccupancyGrid(spec, data)
            assert grid.data.dtype == np.uint8
            np.testing.assert_array_equal(grid.data, data)
        else:
            with pytest.raises(ValueError, match="0 or 1"):
                OccupancyGrid(spec, data)

    def test_intensity_range(self):
        spec = small_spec()
        with pytest.raises(ValueError):
            IntensityGrid(spec, np.full(spec.dims, 1.01))

    @pytest.mark.parametrize("sizes, expected", [((2.0, 2), (2, 2)), ((np.int32(1), 4.0), (1, 4)),
                                                 ((2.5, 2), None), ((2, np.nan), None)])
    def test_patch_sizes_are_integers(self, sizes, expected):
        # an integral value becomes an int; a fraction would fail later, inside patchify
        if expected is None:
            with pytest.raises(ValueError, match="patch sizes must be integers"):
                PatchSpec(*sizes)
        else:
            patch = PatchSpec(*sizes)
            assert (patch.p_h, patch.p_w) == expected
            assert type(patch.p_h) is int and type(patch.p_w) is int

    def test_patch_divisibility(self):
        spec = small_spec(dims=(4, 4, 2))
        with pytest.raises(ValueError):
            PatchSpec(3, 2).latent_shape(spec)
        assert PatchSpec(2, 2).latent_shape(spec) == (2, 2)
        assert PatchSpec(2, 2).vector_dim(spec) == 8


class TestVoxelize:
    def test_empty_cloud(self):
        spec = small_spec()
        occ, inten, dropped = voxelize(PointCloud.empty(), spec)
        assert occ.data.sum() == 0
        assert inten.data.sum() == 0
        assert dropped == 0

    def test_single_point_at_centroid(self):
        spec = small_spec()
        center = spec.centroids(np.array([[1, 2, 1]]))[0]
        cloud = PointCloud(np.array([[*center, 0.5]]))
        occ, inten, dropped = voxelize(cloud, spec)
        assert dropped == 0
        assert occ.data[1, 2, 1] == 1
        assert occ.n_occupied == 1
        assert inten.data[1, 2, 1] == 0.5

    def test_mean_aggregation(self):
        # mean oracle over the raw point list
        spec = small_spec()
        center = spec.centroids(np.array([[0, 0, 0]]))[0]
        pts = np.array([[*center, 0.2], [*(center + 0.01), 0.6]])
        expected = np.mean(pts[:, 3])
        _, inten, _ = voxelize(PointCloud(pts), spec)
        assert inten.data[0, 0, 0] == pytest.approx(expected, abs=1e-12)

    def test_out_of_range_dropped_and_counted(self):
        spec = small_spec()
        pts = np.array(
            [
                [0.1, 0.1, 0.1, 0.3],
                [-1.0, 0.1, 0.1, 0.3],
                [0.1, 99.0, 0.1, 0.3],
            ]
        )
        occ, _, dropped = voxelize(PointCloud(pts), spec)
        assert dropped == 2
        assert occ.n_occupied == 1
        # every point outside: all dropped, both grids zero
        occ, inten, dropped = voxelize(PointCloud(pts[1:]), spec)
        assert dropped == 2
        assert not occ.data.any() and not inten.data.any()

    def test_points_beyond_int64_range_dropped(self):
        # 1e30 / dx is no int64; a warning would fail the test
        pts = np.array([[1e30, 0.1, 0.1, 0.3], [0.1, -1e30, 0.1, 0.3], [0.1, 0.1, 0.1, 0.3]])
        occ, _, dropped = voxelize(PointCloud(pts), small_spec())
        assert dropped == 2
        assert occ.n_occupied == 1

    def test_upper_boundary_excluded(self):
        spec = small_spec()
        edge = spec.upper
        _, _, dropped = voxelize(PointCloud(np.array([[*edge, 0.0]])), spec)
        assert dropped == 1

    def test_permutation_invariance(self):
        spec = small_spec()
        rng = np.random.default_rng(0)
        pts = np.column_stack([rng.uniform(0, 2, (300, 3)) * [1, 1, 0.25], rng.random(300)])
        occ_a, int_a, _ = voxelize(PointCloud(pts), spec)
        perm = rng.permutation(300)
        occ_b, int_b, _ = voxelize(PointCloud(pts[perm]), spec)
        assert np.array_equal(occ_a.data, occ_b.data)
        np.testing.assert_allclose(int_a.data, int_b.data, atol=1e-12)

    def test_occupied_count_bounded_by_points(self):
        spec = small_spec()
        rng = np.random.default_rng(1)
        pts = np.column_stack([rng.uniform(-1, 3, (200, 3)), rng.random(200)])
        occ, _, dropped = voxelize(PointCloud(pts), spec)
        assert occ.n_occupied <= 200 - dropped

    def test_points_map_back_into_their_voxel(self):
        # brute force: each retained point lies inside the box of the voxel
        # that voxelize assigned it to
        spec = small_spec()
        rng = np.random.default_rng(2)
        pts = np.column_stack([rng.uniform(0, 2, (100, 3)) * [1, 1, 0.25], rng.random(100)])
        cloud = PointCloud(pts)
        idx, inside = spec.voxel_indices(cloud.xyz)
        occ, _, _ = voxelize(cloud, spec)
        origin = np.asarray(spec.origin)
        cell = np.asarray(spec.cell)
        for p, i, ok in zip(cloud.xyz, idx, inside):
            if not ok:
                continue
            lo = origin + i * cell
            assert np.all(p >= lo) and np.all(p < lo + cell)
            assert occ.data[tuple(i)] == 1


class TestPatchify:
    def test_all_zero(self):
        spec = small_spec()
        occ = OccupancyGrid(spec, np.zeros(spec.dims))
        inten = IntensityGrid(spec, np.zeros(spec.dims))
        ov, iv = patchify(occ, inten, PatchSpec(2, 2))
        assert not ov.any() and not iv.any()

    def test_identity_patching(self):
        spec = small_spec()
        rng = np.random.default_rng(3)
        occ, inten = random_grids(spec, rng)
        ov, iv = patchify(occ, inten, PatchSpec(1, 1))
        for i in range(spec.dims[0]):
            for j in range(spec.dims[1]):
                np.testing.assert_array_equal(ov[i, j], occ.data[i, j, :])
                np.testing.assert_array_equal(iv[i, j], inten.data[i, j, :])

    def test_hand_flattening(self):
        # 2x2x1 grid, single 2x2 patch, row-major flatten of [[1,0],[0,1]]
        spec = VoxelGridSpec((0, 0, 0), (1, 1, 1), (2, 2, 1))
        occ = OccupancyGrid(spec, np.array([[1, 0], [0, 1]]).reshape(2, 2, 1))
        inten = IntensityGrid(spec, np.zeros((2, 2, 1)))
        ov, _ = patchify(occ, inten, PatchSpec(2, 2))
        np.testing.assert_array_equal(ov[0, 0], [1, 0, 0, 1])

    def test_spec_mismatch_errors(self):
        occ = OccupancyGrid(small_spec(), np.zeros((4, 4, 2)))
        inten = IntensityGrid(small_spec(origin=(1, 1, 1)), np.zeros((4, 4, 2)))
        with pytest.raises(ValueError):
            patchify(occ, inten, PatchSpec(2, 2))


class TestUnpatchify:
    """The inverse of ``patchify``: ``threshold_voxels`` of the occupancy and
    intensity vectors as ``CellRows``, one table row per cell."""

    def test_roundtrip_identity(self):
        spec = small_spec(dims=(6, 4, 3), cell=(0.2, 0.2, 0.2))
        patch = PatchSpec(3, 2)
        rng = np.random.default_rng(4)
        for _ in range(20):
            occ, inten = random_grids(spec, rng)
            ov, iv = patchify(occ, inten, patch)
            voxels = threshold_voxels(vector_rows(ov), vector_rows(iv), patch, spec)
            ids = np.flatnonzero(occ.data)
            np.testing.assert_array_equal(voxels.ids, ids)
            assert voxels.means.tobytes() == inten.data.reshape(-1)[ids].tobytes()
            assert voxels.spec == spec and voxels.dropped == 0
            np.testing.assert_array_equal(voxels.occupancy().data, occ.data)
            np.testing.assert_array_equal(voxels.intensity().data, inten.data)

    def test_threshold_boundary(self):
        spec = VoxelGridSpec((0, 0, 0), (1, 1, 1), (1, 1, 1))
        patch = PatchSpec(1, 1)
        voxels = threshold_voxels(vector_rows(np.full((1, 1, 1), 0.5)),
                                  vector_rows(np.zeros((1, 1, 1))), patch, spec)
        np.testing.assert_array_equal(voxels.ids, [0])
        voxels = threshold_voxels(vector_rows(np.full((1, 1, 1), np.nextafter(0.5, 0))),
                                  vector_rows(np.full((1, 1, 1), 0.9)), patch, spec)
        assert voxels.ids.size == voxels.means.size == 0  # unoccupied despite the intensity

    def test_intensity_clamped(self):
        spec = VoxelGridSpec((0, 0, 0), (1, 1, 1), (1, 1, 3))
        voxels = threshold_voxels(vector_rows(np.ones((1, 1, 3))),
                                  vector_rows(np.array([[[1.7, -0.4, 0.3]]])), PatchSpec(1, 1), spec)
        np.testing.assert_array_equal(voxels.means, [1.0, 0.0, 0.3])

    @pytest.mark.parametrize("patch", [PatchSpec(1, 1), PatchSpec(2, 2)])
    def test_threshold_grids_keeps_inputs(self, patch):
        # vector_rows' tables are views of the vectors
        spec = small_spec()
        rng = np.random.default_rng(5)
        h, w = patch.latent_shape(spec)
        ov = rng.uniform(-0.5, 1.5, (h, w, patch.vector_dim(spec)))
        iv = rng.uniform(-0.5, 1.5, ov.shape)
        ov_copy, iv_copy = ov.copy(), iv.copy()
        occ_raw, int_raw = assemble_grid(ov, patch, spec), assemble_grid(iv, patch, spec)
        voxels = threshold_voxels(vector_rows(ov), vector_rows(iv), patch, spec)
        np.testing.assert_array_equal(voxels.occupancy().data, occ_raw >= 0.5)
        np.testing.assert_array_equal(
            voxels.intensity().data, np.where(occ_raw >= 0.5, np.clip(int_raw, 0, 1), 0)
        )
        np.testing.assert_array_equal(ov, ov_copy)
        np.testing.assert_array_equal(iv, iv_copy)

    @pytest.mark.parametrize("dims, patch", [((6, 4, 3), PatchSpec(3, 2)),
                                             ((2, 2, 3), PatchSpec(2, 1)),
                                             ((4, 6, 2), PatchSpec(1, 3))])
    def test_rows_read_as_their_vectors(self, dims, patch):
        # cells share rows of a small table, including one never read; the
        # voxels are those of the expanded vectors, thresholded densely
        spec = small_spec(dims=dims)
        rng = np.random.default_rng(6)
        h, w = patch.latent_shape(spec)
        dim = patch.vector_dim(spec)
        occ = CellRows(rng.integers(3, size=(h, w)), rng.uniform(-0.5, 1.5, (4, dim)))
        inten = CellRows(rng.integers(4, size=(h, w)), rng.uniform(-0.5, 1.5, (4, dim)))
        voxels = threshold_voxels(occ, inten, patch, spec)
        occ_raw = assemble_grid(occ.vectors(), patch, spec)
        int_raw = assemble_grid(inten.vectors(), patch, spec)
        ids = np.flatnonzero(occ_raw >= 0.5)
        np.testing.assert_array_equal(voxels.ids, ids)
        assert voxels.means.tobytes() == np.clip(int_raw.reshape(-1)[ids], 0, 1).tobytes()

    def test_shape_mismatch_errors(self):
        spec = small_spec()
        with pytest.raises(ValueError, match="inconsistent"):
            assemble_grid(np.zeros((2, 2, 7)), PatchSpec(2, 2), spec)
        patch = PatchSpec(2, 2)
        for occ_vec, int_vec in [(np.zeros((2, 2, 8)), np.zeros((2, 2, 7))),
                                 (np.zeros((2, 2, 7)), np.zeros((2, 2, 8))),
                                 (np.zeros((2, 1, 8)), np.zeros((2, 2, 8))),
                                 (np.zeros((2, 2, 8)), np.zeros((4, 2, 4)))]:
            with pytest.raises(ValueError, match="not the grid's"):
                threshold_voxels(vector_rows(occ_vec), vector_rows(int_vec), patch, spec)
