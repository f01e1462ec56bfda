import math

import numpy as np
import pytest
from helpers import desk_spec, representable_scene, trained_codebooks_for

from qpcomm.codec import (
    DecodeConfig,
    IndexMap,
    decode,
    encode,
    intensity_mse,
    occupancy_bce,
    vq_loss,
)
from qpcomm.geometry import (
    IntensityGrid,
    OccupancyGrid,
    PatchSpec,
    PointCloud,
    voxelize,
)
from qpcomm.quantizer import Codebook, quantize


@pytest.fixture(scope="module")
def lossless_setup():
    spec = desk_spec()
    patch = PatchSpec(2, 2)
    cloud, occ_vec, int_vec = representable_scene(spec, patch, n_patterns=6, seed=1)
    cb_occ, cb_int = trained_codebooks_for(occ_vec, int_vec, k=8, seed=2)
    return spec, patch, cloud, occ_vec, int_vec, cb_occ, cb_int


class TestEncode:
    def test_empty_cloud_maps_to_zero_entry(self):
        spec = desk_spec()
        patch = PatchSpec(2, 2)
        dim = patch.vector_dim(spec)
        rng = np.random.default_rng(0)
        entries = rng.random((5, dim)) + 0.1
        entries[3] = 0.0  # the all-zeros code
        cb = Codebook.from_entries(entries, kind="occ")
        cb_int = Codebook.from_entries(entries, kind="int")
        # oracle: exhaustive nearest-to-zero scan
        expected = int(np.argmin((entries**2).sum(axis=1)))
        assert expected == 3
        im = encode(PointCloud.empty(), spec, patch, cb, cb_int)
        assert (im.occ_indices == expected).all()
        assert (im.int_indices == expected).all()

    def test_deterministic(self, lossless_setup):
        spec, patch, cloud, _, _, cb_occ, cb_int = lossless_setup
        im1 = encode(cloud, spec, patch, cb_occ, cb_int)
        im2 = encode(cloud, spec, patch, cb_occ, cb_int)
        assert im1 == im2

    def test_representable_scene_zero_commitment(self, lossless_setup):
        spec, patch, cloud, occ_vec, int_vec, cb_occ, cb_int = lossless_setup
        _, commit_occ = quantize(cb_occ, occ_vec)
        _, commit_int = quantize(cb_int, int_vec)
        assert commit_occ == pytest.approx(0.0, abs=1e-20)
        assert commit_int == pytest.approx(0.0, abs=1e-20)

    def test_dim_mismatch(self, lossless_setup):
        spec, patch, cloud, *_ = lossless_setup
        bad = Codebook.from_entries(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            encode(cloud, spec, patch, bad, bad)

    def test_index_map_validation(self):
        spec = desk_spec()
        patch = PatchSpec(2, 2)
        h, w = patch.latent_shape(spec)
        with pytest.raises(ValueError):
            IndexMap(np.full((h, w), 9), np.zeros((h, w)), 4, 4, spec, patch)
        with pytest.raises(ValueError):
            IndexMap(np.zeros((h + 1, w)), np.zeros((h, w)), 4, 4, spec, patch)


class TestDecode:
    def test_sigma_zero_hits_centroids(self, lossless_setup):
        spec, patch, cloud, *_rest, cb_occ, cb_int = lossless_setup
        im = encode(cloud, spec, patch, cb_occ, cb_int)
        out = decode(im, cb_occ, cb_int, DecodeConfig(sigma=0.0, seed=9))
        occ, _, _ = voxelize(cloud, spec)
        idx = np.argwhere(occ.data > 0)
        np.testing.assert_allclose(np.sort(out.xyz, axis=0), np.sort(spec.centroids(idx), axis=0))

    def test_point_count_matches_occupancy(self, lossless_setup):
        spec, patch, cloud, *_rest, cb_occ, cb_int = lossless_setup
        im = encode(cloud, spec, patch, cb_occ, cb_int)
        out = decode(im, cb_occ, cb_int, DecodeConfig(points_per_voxel=1, seed=1))
        occ_rec, _, _ = voxelize(out, spec)  # counting oracle via re-voxelization
        recon_vec = cb_occ.entries[im.occ_indices]
        expected = int((recon_vec >= 0.5).sum())
        assert len(out) == expected
        assert occ_rec.n_occupied == expected

    def test_points_share_voxel_intensity(self, lossless_setup):
        spec, patch, cloud, *_rest, cb_occ, cb_int = lossless_setup
        im = encode(cloud, spec, patch, cb_occ, cb_int)
        out = decode(im, cb_occ, cb_int, DecodeConfig(points_per_voxel=4, seed=2))
        idx, inside = spec.voxel_indices(out.xyz)
        assert inside.all()
        flat = np.ravel_multi_index(tuple(idx.T), spec.dims)
        for voxel in np.unique(flat):
            values = out.intensity[flat == voxel]
            assert np.unique(values).size == 1

    def test_clip_keeps_points_in_voxel(self, lossless_setup):
        spec, patch, cloud, *_rest, cb_occ, cb_int = lossless_setup
        im = encode(cloud, spec, patch, cb_occ, cb_int)
        big_sigma = DecodeConfig(sigma=5.0, points_per_voxel=3, seed=3)
        out = decode(im, cb_occ, cb_int, big_sigma)
        # every sampled point re-voxelizes into an occupied voxel of the
        # reconstruction, i.e. it stayed inside its source voxel box
        from qpcomm.geometry import assemble_grid

        occ_grid = assemble_grid(cb_occ.entries[im.occ_indices], patch, spec) >= 0.5
        idx, inside = spec.voxel_indices(out.xyz)
        assert inside.all()
        assert occ_grid[tuple(idx.T)].all()

    def test_deterministic_given_seed(self, lossless_setup):
        spec, patch, cloud, *_rest, cb_occ, cb_int = lossless_setup
        im = encode(cloud, spec, patch, cb_occ, cb_int)
        cfg = DecodeConfig(points_per_voxel=2, seed=77)
        a = decode(im, cb_occ, cb_int, cfg)
        b = decode(im, cb_occ, cb_int, cfg)
        np.testing.assert_array_equal(a.points, b.points)

    def test_wrong_codebook_rejected(self, lossless_setup):
        spec, patch, cloud, *_rest, cb_occ, cb_int = lossless_setup
        im = encode(cloud, spec, patch, cb_occ, cb_int)
        other = Codebook.from_entries(cb_occ.entries + 1e-3, kind="occ")
        with pytest.raises(ValueError):
            decode(im, other, cb_int, DecodeConfig())


    @pytest.mark.parametrize(
        "kwargs", [{"sigma": -1.0}, {"sigma": math.nan}, {"sigma": math.inf},
                   {"points_per_voxel": 0}, {"seed": -1}]
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            DecodeConfig(**kwargs)


class TestLosses:
    def test_bce_perfect(self):
        spec = desk_spec((2, 2, 2))
        occ = OccupancyGrid(spec, (np.arange(8).reshape(2, 2, 2) % 2))
        assert occupancy_bce(occ, occ.data.astype(float)) <= 1e-6

    def test_bce_hand_value(self):
        spec = desk_spec((1, 1, 1))
        occ = OccupancyGrid(spec, np.ones((1, 1, 1)))
        assert occupancy_bce(occ, np.full((1, 1, 1), 0.5)) == pytest.approx(
            math.log(2), rel=1e-12
        )

    def test_bce_matches_scalar_loop(self):
        rng = np.random.default_rng(5)
        spec = desk_spec((4, 4, 2))
        y = (rng.random(spec.dims) < 0.5).astype(np.uint8)
        p = rng.random(spec.dims)
        occ = OccupancyGrid(spec, y)
        total = 0.0
        for yi, pi in zip(y.ravel(), p.ravel()):
            pc = min(max(pi, 1e-7), 1 - 1e-7)
            total += yi * math.log(pc) + (1 - yi) * math.log(1 - pc)
        expected = -total / y.size
        assert occupancy_bce(occ, p) == pytest.approx(expected, rel=1e-12)

    def test_bce_shape_mismatch(self):
        spec = desk_spec((2, 2, 2))
        occ = OccupancyGrid(spec, np.zeros(spec.dims))
        with pytest.raises(ValueError):
            occupancy_bce(occ, np.zeros((2, 2, 3)))

    def test_mse_zero_and_hand_value(self):
        spec = desk_spec((1, 1, 1))
        occ = OccupancyGrid(spec, np.ones(spec.dims))
        truth = IntensityGrid(spec, np.full(spec.dims, 0.4))
        assert intensity_mse(truth, truth, occ) == 0.0
        pred = IntensityGrid(spec, np.full(spec.dims, 0.9))
        assert intensity_mse(truth, pred, occ) == pytest.approx(0.25, rel=1e-12)

    def test_mse_ignores_unoccupied(self):
        spec = desk_spec((2, 1, 1))
        occ = OccupancyGrid(spec, np.array([1, 0]).reshape(2, 1, 1))
        truth = IntensityGrid(spec, np.array([0.5, 0.0]).reshape(2, 1, 1))
        pred_a = IntensityGrid(spec, np.array([0.5, 0.0]).reshape(2, 1, 1))
        pred_b = IntensityGrid(spec, np.array([0.5, 0.9]).reshape(2, 1, 1))
        assert intensity_mse(truth, pred_a, occ) == intensity_mse(truth, pred_b, occ)

    def test_mse_requires_occupancy(self):
        spec = desk_spec((1, 1, 1))
        occ = OccupancyGrid(spec, np.zeros(spec.dims))
        grid = IntensityGrid(spec, np.zeros(spec.dims))
        with pytest.raises(ValueError):
            intensity_mse(grid, grid, occ)


class TestVqLoss:
    def test_perfectly_representable_all_zero(self, lossless_setup):
        spec, patch, cloud, *_rest, cb_occ, cb_int = lossless_setup
        occ, inten, _ = voxelize(cloud, spec)
        terms = vq_loss(occ, cb_occ, patch)
        assert terms.reconstruction_term == pytest.approx(0.0, abs=1e-20)
        assert terms.codebook_term == pytest.approx(0.0, abs=1e-20)
        assert terms.commitment_term == pytest.approx(0.0, abs=1e-20)

    def test_codebook_term_equals_commitment(self):
        rng = np.random.default_rng(6)
        spec = desk_spec((4, 4, 2))
        patch = PatchSpec(2, 2)
        occ = OccupancyGrid(spec, (rng.random(spec.dims) < 0.5).astype(np.uint8))
        cb = Codebook.from_entries(rng.random((4, patch.vector_dim(spec))), kind="occ")
        from qpcomm.geometry import IntensityGrid as IG
        from qpcomm.geometry import patchify

        ov, _ = patchify(occ, IG(spec, np.zeros(spec.dims)), patch)
        _, commit = quantize(cb, ov)
        terms = vq_loss(occ, cb, patch)
        assert terms.codebook_term == commit
        assert terms.commitment_term == commit

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        spec = desk_spec((4, 4, 2))
        patch = PatchSpec(2, 2)
        dim = patch.vector_dim(spec)
        data = rng.random(spec.dims)
        grid = IntensityGrid(spec, data)
        cb = Codebook.from_entries(rng.random((5, dim)), kind="int")
        terms = vq_loss(grid, cb, patch)
        # brute force: per-cell scan, then element-wise reconstruction
        from qpcomm.geometry import IntensityGrid as IG
        from qpcomm.geometry import OccupancyGrid as OG
        from qpcomm.geometry import assemble_grid, patchify

        _, vec = patchify(OG(spec, np.zeros(spec.dims)), grid, patch)
        dists, recon_cells = [], np.empty_like(vec)
        for i in range(vec.shape[0]):
            for j in range(vec.shape[1]):
                d = ((cb.entries - vec[i, j]) ** 2).sum(axis=1)
                k = int(np.argmin(d))
                dists.append(d[k])
                recon_cells[i, j] = cb.entries[k]
        recon = np.clip(assemble_grid(recon_cells, patch, spec), 0, 1)
        assert terms.commitment_term == pytest.approx(np.mean(dists), rel=1e-12)
        assert terms.reconstruction_term == pytest.approx(
            ((data - recon) ** 2).mean(), rel=1e-12
        )


class TestRoundtripInvariants:
    def test_lossless_roundtrip_exact_occupancy(self, lossless_setup):
        spec, patch, cloud, *_rest, cb_occ, cb_int = lossless_setup
        occ, _, _ = voxelize(cloud, spec)
        im = encode(cloud, spec, patch, cb_occ, cb_int)
        out = decode(im, cb_occ, cb_int, DecodeConfig(sigma=0.0, points_per_voxel=1))
        occ2, _, _ = voxelize(out, spec)
        assert np.array_equal(occ.data, occ2.data)
        assert len(out) == occ.n_occupied  # exactly one point per occupied voxel

    def test_lossless_chamfer_bounded(self, lossless_setup):
        from qpcomm.metrics import chamfer

        spec, patch, cloud, *_rest, cb_occ, cb_int = lossless_setup
        im = encode(cloud, spec, patch, cb_occ, cb_int)
        out = decode(im, cb_occ, cb_int, DecodeConfig(seed=4))
        assert chamfer(cloud, out) <= spec.voxel_diagonal

    def test_quantized_representation_idempotent(self, lossless_setup):
        spec, patch, cloud, *_rest, cb_occ, cb_int = lossless_setup
        im = encode(cloud, spec, patch, cb_occ, cb_int)
        out = decode(im, cb_occ, cb_int, DecodeConfig(sigma=0.0, points_per_voxel=1))
        im2 = encode(out, spec, patch, cb_occ, cb_int)
        assert im2 == im
