import numpy as np
import pytest

from qpcomm.geometry import (
    IntensityGrid,
    OccupancyGrid,
    PatchSpec,
    PointCloud,
    VoxelGridSpec,
    patchify,
    unpatchify,
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

    def test_occupancy_entries_binary(self):
        spec = small_spec()
        with pytest.raises(ValueError):
            OccupancyGrid(spec, np.full(spec.dims, 2))

    def test_intensity_range(self):
        spec = small_spec()
        with pytest.raises(ValueError):
            IntensityGrid(spec, np.full(spec.dims, 1.01))

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
    def test_roundtrip_identity(self):
        spec = small_spec(dims=(6, 4, 3), cell=(0.2, 0.2, 0.2))
        patch = PatchSpec(3, 2)
        rng = np.random.default_rng(4)
        for _ in range(20):
            occ, inten = random_grids(spec, rng)
            ov, iv = patchify(occ, inten, patch)
            occ2, int2 = unpatchify(ov, iv, patch, spec)
            assert np.array_equal(occ.data, occ2.data)
            np.testing.assert_array_equal(inten.data, int2.data)

    def test_threshold_boundary(self):
        spec = VoxelGridSpec((0, 0, 0), (1, 1, 1), (1, 1, 1))
        patch = PatchSpec(1, 1)
        occ, _ = unpatchify(np.full((1, 1, 1), 0.5), np.zeros((1, 1, 1)), patch, spec)
        assert occ.data[0, 0, 0] == 1
        occ, inten = unpatchify(np.full((1, 1, 1), 0.49), np.full((1, 1, 1), 0.9), patch, spec)
        assert occ.data[0, 0, 0] == 0
        assert inten.data[0, 0, 0] == 0.0  # masked despite the intensity vector

    def test_intensity_clamped(self):
        spec = VoxelGridSpec((0, 0, 0), (1, 1, 1), (1, 1, 2))
        patch = PatchSpec(1, 1)
        _, inten = unpatchify(
            np.ones((1, 1, 2)), np.array([[[1.7, -0.4]]]), patch, spec
        )
        np.testing.assert_array_equal(inten.data[0, 0], [1.0, 0.0])

    def test_shape_mismatch_errors(self):
        spec = small_spec()
        with pytest.raises(ValueError):
            unpatchify(np.zeros((2, 2, 7)), np.zeros((2, 2, 7)), PatchSpec(2, 2), spec)
