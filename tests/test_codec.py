import dataclasses
import math

import numpy as np
import pytest
from helpers import (
    _dense_assign,
    dense_voxelize,
    desk_spec,
    dividing,
    grid_voxels,
    received,
    reference_bce,
    reference_decode_grids,
    representable_scene,
    trained_codebooks_for,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from qpcomm import metrics
from qpcomm.codec import (
    DecodeConfig,
    IndexMap,
    decode_voxels,
    encode,
    intensity_mse,
    occupancy_bce,
    vq_loss,
)
from qpcomm.geometry import (
    MAX_POINTS,
    IntensityGrid,
    OccupancyGrid,
    PatchSpec,
    PointCloud,
    Voxels,
    _to_patch_vectors,
    assemble_grid,
    patchify,
    training_vectors,
    voxelize,
)
from qpcomm.quantizer import KIND_INT, Codebook, quantize
from qpcomm.wire import Pose, serialize


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


def edge_cloud(rng, spec, n_inside, n_dup, n_outside, n_upper, zero):
    """A cloud with the sender's edge cases: several points per voxel, exact
    duplicates (with their own intensities), points outside the grid and on
    its upper faces (outside, as voxels are half-open), and intensities of
    exactly 0 and 1.  Rows come in random order."""
    cell, upper = np.asarray(spec.cell), spec.upper
    inside = (rng.integers(0, spec.dims, size=(n_inside, 3)) + rng.random((n_inside, 3))) * cell
    xyz = np.vstack([inside, inside[rng.integers(n_inside, size=n_dup if n_inside else 0)]])
    outside = rng.uniform(-upper, 2 * upper, size=(n_outside, 3))
    outside[np.arange(n_outside), rng.integers(3, size=n_outside)] = rng.choice(
        [-1.0, 1.0], n_outside) * (upper.max() + 1.0)
    on_face = rng.random((n_upper, 3)) * upper
    axes = rng.integers(3, size=n_upper)
    on_face[np.arange(n_upper), axes] = upper[axes]
    xyz = np.vstack([xyz, outside, on_face])
    inten = rng.choice([0.0, 1.0, 0.5], size=len(xyz)) if zero > 0.5 else rng.random(len(xyz))
    inten[rng.random(len(xyz)) < zero] = 0.0
    return PointCloud(np.column_stack([xyz, inten])[rng.permutation(len(xyz))])


class TestSparseSender:
    """The sender works from the occupied voxels alone.  Its frame equals
    ``serialize`` of per-row ``_dense_assign`` on the ``patchify`` of the
    dense grids (``dense_voxelize``, the first implementation), its truth
    equals those grids' nonzeros bit for bit, and ``encode`` and every dense
    view of the sparse core give the same indices, grids and vectors."""

    @settings(max_examples=60, deadline=None)
    @given(
        dims=st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(1, 4)),
        data=st.data(),
        k=st.sampled_from([1, 2, 3, 5, 8]),
        n_inside=st.integers(0, 40),
        n_dup=st.integers(0, 10),
        n_outside=st.integers(0, 6),
        n_upper=st.integers(0, 6),
        zero=st.floats(0.0, 1.0),
        from_rows=st.floats(0.0, 1.0),
        levels=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_frame_and_truth_equal_the_dense_oracle(
        self, dims, data, k, n_inside, n_dup, n_outside, n_upper, zero, from_rows, levels, seed
    ):
        spec = desk_spec(dims)
        patch = PatchSpec(data.draw(dividing(dims[0])), data.draw(dividing(dims[1])))
        rng = np.random.default_rng(seed)
        cloud = edge_cloud(rng, spec, n_inside, n_dup, n_outside, n_upper, zero)
        occ, inten, dropped = dense_voxelize(cloud, spec)
        grids = OccupancyGrid(spec, occ), IntensityGrid(spec, inten)
        h, w = patch.latent_shape(spec)
        dim = patch.vector_dim(spec)
        ov, iv = (v.reshape(-1, dim) for v in patchify(*grids, patch))

        def codebook(rows, kind):
            # entries of few levels tie exactly with each other, and entries
            # copied from the rows match them exactly
            values = rng.choice([0.0, 0.5, 1.0], (k, dim)) if levels else rng.random((k, dim))
            made = np.where(rng.random((k, dim)) < 0.5, values, 0.0)
            copied = rng.random(k) < from_rows
            made[copied] = rows[rng.integers(len(rows), size=int(copied.sum()))]
            return Codebook.from_entries(made, kind)

        cb_occ, cb_int = codebook(ov, "occ"), codebook(iv, KIND_INT)
        expected = serialize(IndexMap(
            _dense_assign(ov, cb_occ.entries).reshape(h, w),
            _dense_assign(iv, cb_int.entries).reshape(h, w), k, k, spec, patch), Pose())

        truth, frame = metrics._send(cloud, cb_occ, cb_int, spec, patch)
        ids = np.flatnonzero(occ)
        assert truth.ids.tobytes() == ids.tobytes()
        assert truth.means.tobytes() == inten.reshape(-1)[ids].tobytes()
        assert truth.dropped == dropped
        assert frame.to_bytes() == expected.to_bytes()

        # encode, and the dense views of the same core
        im = encode(cloud, spec, patch, cb_occ, cb_int)
        assert serialize(im, Pose()).to_bytes() == expected.to_bytes()
        got_occ, got_inten, got_dropped = voxelize(cloud, spec)
        assert got_occ.data.tobytes() == occ.tobytes()
        assert got_inten.data.tobytes() == inten.tobytes()
        assert got_dropped == dropped
        got_ov, got_iv = training_vectors([cloud, cloud], spec, patch)
        assert got_ov.tobytes() == np.vstack([ov, ov]).tobytes()
        assert got_iv.tobytes() == np.vstack([iv, iv]).tobytes()
        if ids.size:
            # the dense definition: the error over the occupancy mask, in flat
            # order, where a voxel the prediction lacks reads 0
            hit = rng.random(spec.n_voxels) < 0.5
            predicted = Voxels(spec, np.flatnonzero(hit), rng.random(int(hit.sum())), 0)
            mask = occ > 0
            dense = float(((predicted.intensity().data[mask] - inten[mask]) ** 2).mean())
            assert intensity_mse(truth, predicted) == dense


class TestDecode:
    def test_sigma_zero_hits_centroids(self, lossless_setup):
        spec, patch, cloud, *_rest, cb_occ, cb_int = lossless_setup
        im = encode(cloud, spec, patch, cb_occ, cb_int)
        out = received(im, cb_occ, cb_int, DecodeConfig(sigma=0.0), 9)
        occ, _, _ = voxelize(cloud, spec)
        idx = np.argwhere(occ.data > 0)
        np.testing.assert_allclose(np.sort(out.xyz, axis=0), np.sort(spec.centroids(idx), axis=0))

    def test_point_count_matches_occupancy(self, lossless_setup):
        spec, patch, cloud, *_rest, cb_occ, cb_int = lossless_setup
        im = encode(cloud, spec, patch, cb_occ, cb_int)
        out = received(im, cb_occ, cb_int, DecodeConfig(points_per_voxel=1), 1)
        occ_rec, _, _ = voxelize(out, spec)  # counting oracle via re-voxelization
        recon_vec = cb_occ.entries[im.occ_indices]
        expected = int((recon_vec >= 0.5).sum())
        assert len(out) == expected
        assert occ_rec.n_occupied == expected

    def test_points_share_voxel_intensity(self, lossless_setup):
        spec, patch, cloud, *_rest, cb_occ, cb_int = lossless_setup
        im = encode(cloud, spec, patch, cb_occ, cb_int)
        out = received(im, cb_occ, cb_int, DecodeConfig(points_per_voxel=4), 2)
        idx, inside = spec.voxel_indices(out.xyz)
        assert inside.all()
        flat = np.ravel_multi_index(tuple(idx.T), spec.dims)
        for voxel in np.unique(flat):
            values = out.intensity[flat == voxel]
            assert np.unique(values).size == 1

    def test_clip_keeps_points_in_voxel(self, lossless_setup):
        spec, patch, cloud, *_rest, cb_occ, cb_int = lossless_setup
        im = encode(cloud, spec, patch, cb_occ, cb_int)
        big_sigma = DecodeConfig(sigma=5.0, points_per_voxel=3)
        out = received(im, cb_occ, cb_int, big_sigma, 3)
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
        cfg = DecodeConfig(points_per_voxel=2)
        a = received(im, cb_occ, cb_int, cfg, 77)
        b = received(im, cb_occ, cb_int, cfg, 77)
        np.testing.assert_array_equal(a.points, b.points)

    def test_codebook_size_mismatch_rejected(self, lossless_setup):
        spec, patch, cloud, *_rest, cb_occ, cb_int = lossless_setup
        im = encode(cloud, spec, patch, cb_occ, cb_int)
        smaller = Codebook.from_entries(cb_int.entries[:-1], kind="int")
        with pytest.raises(ValueError, match="disagrees"):
            received(im, cb_occ, smaller, DecodeConfig())


    @pytest.mark.parametrize(
        "sigma,ppv,clip",
        [(None, 1, True), (0.3, 3, True), (2.0, 4, True), (50.0, 2, True), (0.0, 2, True),
         (2.0, 3, False)],
    )
    def test_decode_grids_bit_equal_to_whole_array_loop(self, sigma, ppv, clip):
        # at sigma 0.3 a point lands in its voxel with probability ~0.11 per
        # round, so the rounds re-test a shrinking, scattered subset and some
        # points fall back to the centroid; at sigma 50 nearly all of them do
        spec = desk_spec((12, 10, 3))
        rng = np.random.default_rng(ppv)
        occ = OccupancyGrid(spec, (rng.random(spec.dims) < 0.4).astype(np.uint8))
        inten = IntensityGrid(spec, rng.random(spec.dims))
        cfg = DecodeConfig(sigma=sigma, points_per_voxel=ppv, clip_to_voxel=clip)
        got = decode_voxels(grid_voxels(occ, inten), cfg, 11)
        assert len(got) == occ.n_occupied * ppv
        np.testing.assert_array_equal(got.points,
                                      reference_decode_grids(occ, inten, cfg, 11).points)
        centroids = np.repeat(spec.centroids(np.argwhere(occ.data > 0)), ppv, axis=0)
        if sigma == 0.3:  # the fallback really happened, and not to every point
            at_centroid = np.all(got.xyz == centroids, axis=1)
            assert 0 < at_centroid.sum() < len(got)
        # an all-empty grid decodes to no points
        empty = OccupancyGrid(spec, np.zeros(spec.dims, dtype=np.uint8))
        got = decode_voxels(grid_voxels(empty, inten), cfg, 11)
        assert got.points.shape == (0, 4)
        np.testing.assert_array_equal(got.points,
                                      reference_decode_grids(empty, inten, cfg, 11).points)

    def test_decode_grids_bit_equal_at_every_attempt_count(self, monkeypatch):
        # the same draws as the whole-array loop in every round count, the
        # fallback after zero rounds included
        spec = desk_spec((6, 6, 2))
        rng = np.random.default_rng(5)
        occ = OccupancyGrid(spec, (rng.random(spec.dims) < 0.5).astype(np.uint8))
        inten = IntensityGrid(spec, rng.random(spec.dims))
        cfg = DecodeConfig(sigma=1.0, points_per_voxel=5)
        for attempts in (0, 1, 2, 7):
            monkeypatch.setattr("qpcomm.codec._CLIP_ATTEMPTS", attempts)
            np.testing.assert_array_equal(
                decode_voxels(grid_voxels(occ, inten), cfg, 3).points,
                reference_decode_grids(occ, inten, cfg, 3, attempts).points,
            )

    @pytest.mark.parametrize(
        "kwargs", [{"sigma": -1.0}, {"sigma": math.nan}, {"sigma": math.inf},
                   {"points_per_voxel": 0}]
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            DecodeConfig(**kwargs)

    @pytest.mark.parametrize("ppv, expected", [(2.0, 2), (np.int64(3), 3), (2.5, None),
                                               (math.inf, None)])
    def test_points_per_voxel_is_an_integer(self, ppv, expected):
        # an integral value becomes an int; a fraction would decode int(ppv) points
        if expected is None:
            with pytest.raises(ValueError, match="points_per_voxel must be an integer"):
                DecodeConfig(points_per_voxel=ppv)
        else:
            got = DecodeConfig(points_per_voxel=ppv).points_per_voxel
            assert got == expected and type(got) is int

    def test_config_is_a_frozen_value(self):
        cfg = DecodeConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.sigma = 0.0
        assert cfg == DecodeConfig() and not hasattr(cfg, "seed")

    @pytest.mark.parametrize("sigma", [0.0, None])
    def test_decode_grids_rejects_a_negative_seed(self, sigma):
        # at sigma 0 no number is drawn, and the seed is still checked
        spec = desk_spec((4, 4, 2))
        voxels = Voxels(spec, np.arange(spec.n_voxels), np.zeros(spec.n_voxels), 0)
        with pytest.raises(ValueError, match="non-negative"):
            decode_voxels(voxels, DecodeConfig(sigma=sigma), -1)

    def test_points_per_voxel_capped(self, monkeypatch):
        DecodeConfig(points_per_voxel=MAX_POINTS)
        for ppv in (MAX_POINTS + 1, 10**30):
            with pytest.raises(ValueError, match="points_per_voxel must lie in"):
                DecodeConfig(points_per_voxel=ppv)
        # occupied voxels x points_per_voxel is checked before anything is allocated
        spec = desk_spec((4, 4, 2))
        voxels = Voxels(spec, np.array([0, 2, 4]), np.zeros(3), 0)
        monkeypatch.setattr("qpcomm.codec.MAX_POINTS", 10)
        assert len(decode_voxels(voxels, DecodeConfig(points_per_voxel=3))) == 9
        with pytest.raises(ValueError, match="3 voxels x 4 points exceed 10 points"):
            decode_voxels(voxels, DecodeConfig(points_per_voxel=4))


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

    @pytest.mark.parametrize("truth", ["random", "all_0", "all_1"])
    @pytest.mark.parametrize("dims", [(1, 1, 1), (4, 4, 2), (33, 17, 9), (2, 2, 3)])
    def test_bce_bit_equal_to_two_term_formula(self, truth, dims):
        rng = np.random.default_rng(7)
        spec = desk_spec(dims)
        y = {"random": rng.random(dims) < 0.4, "all_0": np.zeros(dims),
             "all_1": np.ones(dims)}[truth]
        occ = OccupancyGrid(spec, y)
        # one patch per grid row (h = 1, p_w = 1): for p_h > 1 and w > 1,
        # assemble_grid returns a view that is not C-ordered
        patch = PatchSpec(dims[0], 1)
        # inside [0, 1], outside it, and exactly 0 and 1 (both clamped)
        for p in (rng.random(dims), rng.uniform(-1.0, 2.0, dims), y * 1.0, 1.0 - y):
            before = p.copy()
            view = assemble_grid(_to_patch_vectors(p, patch, spec), patch, spec)
            assert occupancy_bce(occ, p) == occupancy_bce(occ, view) == reference_bce(occ, p)
            np.testing.assert_array_equal(p, before)

    def test_bce_shape_mismatch(self):
        spec = desk_spec((2, 2, 2))
        occ = OccupancyGrid(spec, np.zeros(spec.dims))
        with pytest.raises(ValueError):
            occupancy_bce(occ, np.zeros((2, 2, 3)))

    def test_mse_zero_and_hand_value(self):
        spec = desk_spec((1, 1, 1))
        truth = Voxels(spec, np.array([0]), np.array([0.4]), 0)
        assert intensity_mse(truth, truth) == 0.0
        pred = Voxels(spec, np.array([0]), np.array([0.9]), 0)
        assert intensity_mse(truth, pred) == pytest.approx(0.25, rel=1e-12)
        # a truth voxel the prediction lacks reads 0
        missing = Voxels(spec, np.empty(0, dtype=np.int64), np.empty(0), 0)
        assert intensity_mse(truth, missing) == pytest.approx(0.16, rel=1e-12)

    def test_mse_ignores_unoccupied(self):
        spec = desk_spec((2, 1, 1))
        truth = Voxels(spec, np.array([0]), np.array([0.5]), 0)
        pred_a = Voxels(spec, np.array([0]), np.array([0.5]), 0)
        pred_b = Voxels(spec, np.array([0, 1]), np.array([0.5, 0.9]), 0)
        assert intensity_mse(truth, pred_a) == intensity_mse(truth, pred_b)

    def test_mse_requires_occupancy(self):
        spec = desk_spec((1, 1, 1))
        truth = Voxels(spec, np.empty(0, dtype=np.int64), np.empty(0), 0)
        with pytest.raises(ValueError):
            intensity_mse(truth, truth)


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
        out = received(im, cb_occ, cb_int, DecodeConfig(sigma=0.0, points_per_voxel=1))
        occ2, _, _ = voxelize(out, spec)
        assert np.array_equal(occ.data, occ2.data)
        assert len(out) == occ.n_occupied  # exactly one point per occupied voxel

    def test_lossless_chamfer_bounded(self, lossless_setup):
        from qpcomm.metrics import chamfer

        spec, patch, cloud, *_rest, cb_occ, cb_int = lossless_setup
        im = encode(cloud, spec, patch, cb_occ, cb_int)
        out = received(im, cb_occ, cb_int, DecodeConfig(), 4)
        assert chamfer(cloud, out) <= spec.voxel_diagonal

    def test_quantized_representation_idempotent(self, lossless_setup):
        spec, patch, cloud, *_rest, cb_occ, cb_int = lossless_setup
        im = encode(cloud, spec, patch, cb_occ, cb_int)
        out = received(im, cb_occ, cb_int, DecodeConfig(sigma=0.0, points_per_voxel=1))
        im2 = encode(out, spec, patch, cb_occ, cb_int)
        assert im2 == im
