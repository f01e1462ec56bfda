import numpy as np
import pytest
from helpers import desk_spec, representable_scene, trained_codebooks_for

from qpcomm.codec import DecodeConfig, decode, decode_grids, encode
from qpcomm.geometry import PatchSpec, unpatchify
from qpcomm.tolerance import (
    POLICIES,
    FillPolicy,
    LossMask,
    confidence_filter,
    expand_to_grid,
    fill,
    fit_fill_vector,
    mask_random,
    nearest_rank_threshold,
)


class TestMaskRandom:
    def test_zero_ratio(self):
        assert mask_random(6, 7, 0.0, seed=1).n_lost == 0

    def test_full_ratio(self):
        m = mask_random(6, 7, 1.0, seed=1)
        assert m.n_lost == 42

    def test_exact_count_and_determinism(self):
        a = mask_random(10, 10, 0.3, seed=5)
        b = mask_random(10, 10, 0.3, seed=5)
        c = mask_random(10, 10, 0.3, seed=6)
        assert a.n_lost == 30
        assert np.array_equal(a.lost, b.lost)
        assert not np.array_equal(a.lost, c.lost)

    @pytest.mark.parametrize("h,w,r", [(7, 9, 0.29), (5, 5, 0.5), (3, 11, 0.999)])
    def test_exact_floor(self, h, w, r):
        import math

        assert mask_random(h, w, r, seed=0).n_lost == math.floor(round(r * h * w, 6))

    def test_bad_ratio(self):
        with pytest.raises(ValueError):
            mask_random(4, 4, 1.5, seed=0)

    def test_loss_rate_exact(self):
        m = mask_random(8, 8, 0.3, seed=2)
        assert m.cell_loss_rate == 19 / 64  # floor(0.3 * 64) = 19


class TestExpandToGrid:
    def test_no_lost_cells(self):
        spec = desk_spec((4, 4, 3))
        patch = PatchSpec(2, 2)
        out = expand_to_grid(LossMask.none(2, 2), patch, spec)
        assert not out.any()

    def test_single_cell_block_count(self):
        spec = desk_spec((4, 4, 3))
        patch = PatchSpec(2, 2)
        mask = LossMask.none(2, 2)
        mask.lost[1, 0] = True
        out = expand_to_grid(mask, patch, spec)
        assert out.sum() == 2 * 2 * 3
        assert out[2:4, 0:2, :].all()

    def test_adjacent_cells_union(self):
        # set oracle: accumulate the expected voxel set cell by cell
        spec = desk_spec((4, 4, 3))
        patch = PatchSpec(2, 2)
        mask = LossMask.none(2, 2)
        mask.lost[0, 0] = True
        mask.lost[0, 1] = True
        expected = set()
        for (ci, cj) in [(0, 0), (0, 1)]:
            for i in range(ci * 2, ci * 2 + 2):
                for j in range(cj * 2, cj * 2 + 2):
                    for k in range(3):
                        expected.add((i, j, k))
        out = expand_to_grid(mask, patch, spec)
        assert {tuple(v) for v in np.argwhere(out)} == expected
        assert out.sum() == len(expected)

    def test_random_mask_counts(self):
        spec = desk_spec((8, 8, 2))
        patch = PatchSpec(2, 2)
        for seed in range(5):
            mask = mask_random(4, 4, 0.4, seed=seed)
            out = expand_to_grid(mask, patch, spec)
            assert out.sum() == mask.n_lost * 2 * 2 * 2

    def test_dims_mismatch(self):
        spec = desk_spec((4, 4, 3))
        with pytest.raises(ValueError):
            expand_to_grid(LossMask.none(3, 3), PatchSpec(2, 2), spec)


class TestFitFillVector:
    def test_single_vector(self):
        np.testing.assert_array_equal(fit_fill_vector([[1.0, 2.0]]), [1.0, 2.0])

    def test_mean_of_two(self):
        np.testing.assert_array_equal(
            fit_fill_vector([[0.0, 0.0], [1.0, 1.0]]), [0.5, 0.5]
        )

    def test_least_squares_optimality(self):
        # grid-search oracle on 1-D data: no constant beats the mean
        rng = np.random.default_rng(3)
        data = rng.random((40, 1))
        f = fit_fill_vector(data)
        best = min(
            float(((data - c) ** 2).mean()) for c in np.linspace(0, 1, 2001)
        )
        ours = float(((data - f) ** 2).mean())
        assert ours <= best + 1e-9

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            fit_fill_vector(np.empty((0, 4)))


@pytest.fixture(scope="module")
def fill_setup():
    spec = desk_spec()
    patch = PatchSpec(2, 2)
    cloud, occ_vec, int_vec = representable_scene(spec, patch, n_patterns=5, seed=3)
    cb_occ, cb_int = trained_codebooks_for(occ_vec, int_vec, k=8, seed=4)
    im = encode(cloud, spec, patch, cb_occ, cb_int)
    dim = patch.vector_dim(spec)
    f_occ = fit_fill_vector(occ_vec.reshape(-1, dim))
    f_int = fit_fill_vector(int_vec.reshape(-1, dim))
    return spec, patch, cloud, im, cb_occ, cb_int, f_occ, f_int


class TestFill:
    def test_no_loss_identical_to_plain_decode(self, fill_setup):
        spec, patch, cloud, im, cb_occ, cb_int, f_occ, f_int = fill_setup
        mask = LossMask.none(im.h, im.w)
        occ_vec, int_vec = fill(im, mask, FillPolicy.learned_constant(f_occ, f_int), cb_occ, cb_int)
        cfg = DecodeConfig(seed=8)
        a = decode_grids(*unpatchify(occ_vec, int_vec, patch, spec), cfg)
        b = decode(im, cb_occ, cb_int, cfg)
        np.testing.assert_array_equal(a.points, b.points)

    def test_all_lost_empty_policy_gives_empty_cloud(self, fill_setup):
        spec, patch, cloud, im, cb_occ, cb_int, *_ = fill_setup
        mask = LossMask.all_lost(im.h, im.w)
        occ_vec, int_vec = fill(im, mask, FillPolicy.empty(), cb_occ, cb_int)
        out = decode_grids(*unpatchify(occ_vec, int_vec, patch, spec), DecodeConfig())
        assert len(out) == 0

    def test_neighbor_copy_two_cell_fixture(self, fill_setup):
        spec, patch, cloud, im, cb_occ, cb_int, *_ = fill_setup
        mask = LossMask.none(im.h, im.w)
        mask.lost[0, 0] = True
        occ_vec, int_vec = fill(im, mask, FillPolicy.neighbor_copy(), cb_occ, cb_int)
        # nearest present cell to (0,0) at Manhattan distance 1, lowest flat
        # index wins: that is (0,1)
        np.testing.assert_array_equal(occ_vec[0, 0], cb_occ.entries[im.occ_indices[0, 1]])
        np.testing.assert_array_equal(int_vec[0, 0], cb_int.entries[im.int_indices[0, 1]])

    def test_neighbor_copy_tie_breaks_to_lowest_index(self, fill_setup):
        spec, patch, cloud, im, cb_occ, cb_int, *_ = fill_setup
        mask = LossMask.none(im.h, im.w)
        mask.lost[1, 1] = True
        occ_vec, _ = fill(im, mask, FillPolicy.neighbor_copy(), cb_occ, cb_int)
        # (0,1), (1,0), (1,2), (2,1) are all at distance 1; flat order picks (0,1)
        np.testing.assert_array_equal(occ_vec[1, 1], cb_occ.entries[im.occ_indices[0, 1]])

    def test_neighbor_copy_total_loss_falls_back(self, fill_setup):
        spec, patch, cloud, im, cb_occ, cb_int, f_occ, f_int = fill_setup
        mask = LossMask.all_lost(im.h, im.w)
        occ_vec, int_vec = fill(
            im, mask, FillPolicy.neighbor_copy(f_occ, f_int), cb_occ, cb_int
        )
        assert (occ_vec == f_occ).all()
        assert (int_vec == f_int).all()

    def test_learned_constant_without_vectors_errors(self, fill_setup):
        spec, patch, cloud, im, cb_occ, cb_int, *_ = fill_setup
        mask = LossMask.all_lost(im.h, im.w)
        with pytest.raises(ValueError):
            fill(im, mask, FillPolicy(kind="learned_constant"), cb_occ, cb_int)
        with pytest.raises(ValueError):
            fill(im, mask, FillPolicy.neighbor_copy(), cb_occ, cb_int)

    def test_learned_constant_requires_both_vectors_at_construction(self):
        for fill_occ, fill_int in [(None, None), ([0.5], None), (None, [0.5])]:
            with pytest.raises(ValueError, match="requires both fill vectors"):
                FillPolicy("learned_constant", fill_occ, fill_int)
        FillPolicy("neighbor_copy")  # its vectors are only a fallback

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("kind", ["learned_constant", "neighbor_copy"])
    def test_non_finite_fill_vector_rejected(self, kind, bad):
        with pytest.raises(ValueError, match="fill_occ must be finite"):
            FillPolicy(kind, [0.5, bad], [0.5, 0.5])
        with pytest.raises(ValueError, match="fill_int must be finite"):
            FillPolicy(kind, [0.5, 0.5], [bad, 0.5])

    def test_empty_fill_never_adds_occupancy(self, fill_setup):
        spec, patch, cloud, im, cb_occ, cb_int, *_ = fill_setup
        base = decode(im, cb_occ, cb_int, DecodeConfig(sigma=0.0))
        for seed in range(5):
            mask = mask_random(im.h, im.w, 0.4, seed=seed)
            occ_vec, int_vec = fill(im, mask, FillPolicy.empty(), cb_occ, cb_int)
            out = decode_grids(*unpatchify(occ_vec, int_vec, patch, spec), DecodeConfig(sigma=0.0))
            assert len(out) <= len(base)

    @pytest.mark.parametrize("ratio", [0.0, 0.4, 1.0])
    @pytest.mark.parametrize("kind", POLICIES)
    def test_codebooks_are_neither_written_nor_aliased(self, fill_setup, kind, ratio):
        spec, patch, cloud, im, cb_occ, cb_int, f_occ, f_int = fill_setup
        before = [(cb.entries.copy(), cb.codebook_id) for cb in (cb_occ, cb_int)]
        mask = mask_random(im.h, im.w, ratio, seed=2)
        vectors = fill(im, mask, FillPolicy(kind, f_occ, f_int), cb_occ, cb_int)
        for cb, (entries, cb_id), vec in zip((cb_occ, cb_int), before, vectors, strict=True):
            np.testing.assert_array_equal(cb.entries, entries)
            assert cb.codebook_id == cb_id
            assert not np.shares_memory(vec, cb.entries)

    def test_mask_shape_mismatch(self, fill_setup):
        spec, patch, cloud, im, cb_occ, cb_int, *_ = fill_setup
        with pytest.raises(ValueError):
            fill(im, LossMask.none(1, 1), FillPolicy.empty(), cb_occ, cb_int)


class TestConfidenceFilter:
    def test_hand_fixture(self):
        g = np.array([[0.1, 0.2], [0.3, 0.4]])
        out = confidence_filter(g, 0.5, 0.0)
        np.testing.assert_allclose(out, [[0.0, 0.0], [0.3, 0.4]])

    def test_p_zero_zeroes_only_strict_minimum(self):
        g = np.array([[0.1, 0.2], [0.3, 0.4]])
        out = confidence_filter(g, 0.0, 0.0)
        np.testing.assert_allclose(out, [[0.0, 0.2], [0.3, 0.4]])

    def test_constant_map_all_zero(self):
        g = np.full((3, 3), 0.7)
        assert not confidence_filter(g, 0.5, 0.0).any()
        assert not confidence_filter(g, 0.0, 1.0).any()

    def test_nearest_rank_threshold(self):
        vals = np.array([0.1, 0.2, 0.3, 0.4])
        assert nearest_rank_threshold(vals, 0.0) == 0.1
        assert nearest_rank_threshold(vals, 0.5) == 0.2
        assert nearest_rank_threshold(vals, 0.75) == 0.3
        assert nearest_rank_threshold(vals, 0.76) == 0.4

    def test_zero_below_threshold_property(self):
        rng = np.random.default_rng(9)
        g = rng.random((12, 12))
        for p, sigma in [(0.2, 0.0), (0.35, 1.0), (0.5, 2.0)]:
            out = confidence_filter(g, p, sigma)
            tau = nearest_rank_threshold(g, p)
            assert (out[g <= tau] == 0).all()
            if sigma > 0:
                from scipy.ndimage import gaussian_filter

                smoothed = gaussian_filter(g, sigma, mode="reflect", radius=int(np.ceil(3 * sigma)))
                assert out.max() <= g.max() * smoothed.max() + 1e-15
            else:
                assert out.max() <= g.max()

    def test_sigma_zero_passthrough(self):
        rng = np.random.default_rng(10)
        g = rng.random((6, 6))
        out = confidence_filter(g, 0.25, 0.0)
        tau = nearest_rank_threshold(g, 0.25)
        np.testing.assert_array_equal(out[g > tau], g[g > tau])

    def test_validation(self):
        with pytest.raises(ValueError):
            confidence_filter(np.zeros((2, 2)), 1.0, 0.0)
        with pytest.raises(ValueError):
            confidence_filter(np.zeros((2, 2)), 0.5, -1.0)
