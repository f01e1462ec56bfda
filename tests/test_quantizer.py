import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from helpers import dense_train_codebook
from hypothesis import given, settings
from hypothesis import strategies as st

from qpcomm import quantizer
from qpcomm.pcio import FormatError
from qpcomm.quantizer import (
    Codebook,
    QuantizerConfig,
    nearest,
    quantize,
    read_codebook,
    train_codebook,
    train_dual,
    write_codebook,
)


def nearest_rows(codebook, vectors):
    """``nearest`` row by row: the oracle of ``quantize``'s indices."""
    return np.array([nearest(codebook, v) for v in vectors], dtype=np.int64)


def brute_nearest(entries, z):
    best, best_d = 0, np.inf
    for k, e in enumerate(entries):
        d = float(((z - e) ** 2).sum())
        if d < best_d:
            best, best_d = k, d
    return best


class TestNearest:
    def test_obvious(self):
        cb = Codebook.from_entries([[0.0, 0.0], [1.0, 1.0]])
        assert nearest(cb, [0.1, 0.1]) == 0

    def test_tie_breaks_low(self):
        cb = Codebook.from_entries([[0.0, 0.0], [1.0, 1.0]])
        assert nearest(cb, [0.5, 0.5]) == 0

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(7)
        entries = rng.normal(size=(8, 5))
        cb = Codebook.from_entries(entries)
        for _ in range(50):
            z = rng.normal(size=5)
            assert nearest(cb, z) == brute_nearest(entries, z)

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 1000])
    def test_error_bit_equal_to_one_shot(self, n):
        # the error is taken 256 rows at a time; every row sum and the mean
        # over them equal the one-shot expression's, here at D = 200, where
        # numpy's pairwise summation splits each row
        rng = np.random.default_rng(n)
        samples = rng.normal(size=(n, 200)) * rng.lognormal(3.0, 2.0, size=(n, 1))
        entries = rng.normal(size=(9, 200))
        idx = rng.integers(9, size=n)
        one_shot = float(((samples - entries[idx]) ** 2).sum(axis=1).mean())
        assert quantizer._direct_error(samples, entries, idx) == one_shot
        strided = np.repeat(samples, 2, axis=1)[:, ::2]  # quantize's input may be a view
        got_idx, err = quantize(Codebook.from_entries(entries), strided)
        assert err == float(((samples - entries[got_idx]) ** 2).sum(axis=1).mean())

    def test_dimension_mismatch(self):
        cb = Codebook.from_entries([[0.0, 0.0]])
        with pytest.raises(ValueError):
            nearest(cb, [1.0, 2.0, 3.0])

    def test_duplicate_append_invariance(self):
        rng = np.random.default_rng(8)
        entries = rng.normal(size=(6, 4))
        cb = Codebook.from_entries(entries)
        cb_dup = Codebook.from_entries(np.vstack([entries, entries[2], entries[0]]))
        for _ in range(40):
            z = rng.normal(size=4)
            assert nearest(cb, z) == nearest(cb_dup, z)


class TestQuantize:
    def test_exact_entries_zero_commitment(self):
        rng = np.random.default_rng(9)
        entries = rng.normal(size=(4, 3))
        cb = Codebook.from_entries(entries)
        vectors = entries[rng.integers(4, size=(5, 6))]
        idx, err = quantize(cb, vectors)
        assert err == 0.0
        np.testing.assert_array_equal(cb.entries[idx], vectors)

    def test_single_cell_hand_value(self):
        cb = Codebook.from_entries([[0.0]])
        idx, err = quantize(cb, np.array([[[2.0]]]))
        assert idx[0, 0] == 0
        assert err == pytest.approx(4.0, abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(10)
        entries = rng.normal(size=(7, 4))
        cb = Codebook.from_entries(entries)
        vectors = rng.normal(size=(4, 4, 4))
        idx, err = quantize(cb, vectors)
        dists = []
        for i in range(4):
            for j in range(4):
                k = brute_nearest(entries, vectors[i, j])
                assert idx[i, j] == k
                dists.append(float(((vectors[i, j] - entries[k]) ** 2).sum()))
        assert err == pytest.approx(np.mean(dists), rel=1e-12)

    def test_dimension_mismatch(self):
        cb = Codebook.from_entries([[0.0, 0.0]])
        with pytest.raises(ValueError):
            quantize(cb, np.zeros((2, 2, 3)))


class TestTrain:
    def test_identical_samples_k1(self):
        samples = np.tile([1.5, -2.0, 0.25], (40, 1))
        cb = train_codebook(samples, QuantizerConfig(k=1, dim=3, seed=0))
        np.testing.assert_allclose(cb.entries[0], [1.5, -2.0, 0.25], atol=1e-15)
        assert cb.trace.errors[-1] == pytest.approx(0.0, abs=1e-20)
        assert cb.usage[0] == 40

    def test_two_clusters_recover_means(self):
        rng = np.random.default_rng(11)
        a = rng.normal([0, 0, 0], 0.05, size=(512, 3))
        b = rng.normal([10, 10, 10], 0.05, size=(512, 3))
        samples = np.vstack([a, b])
        cb = train_codebook(samples, QuantizerConfig(k=2, dim=3, seed=1))
        means = sorted([a.mean(axis=0), b.mean(axis=0)], key=lambda m: m[0])
        got = sorted(cb.entries, key=lambda m: m[0])
        np.testing.assert_allclose(got[0], means[0], atol=1e-6)
        np.testing.assert_allclose(got[1], means[1], atol=1e-6)

    def test_excess_codes_on_two_values(self):
        # K=4 but only two distinct samples: duplicates take zero usage and
        # the training error equals the two-entry optimum (zero)
        samples = np.array([[0.0, 0.0]] * 10 + [[4.0, 4.0]] * 10)
        cb = train_codebook(samples, QuantizerConfig(k=4, dim=2, dead_limit=1, seed=2))
        assert (cb.usage > 0).sum() <= 2
        assert cb.trace.errors[-1] == pytest.approx(0.0, abs=1e-20)

    def test_empty_samples_error(self):
        with pytest.raises(ValueError):
            train_codebook(np.empty((0, 3)), QuantizerConfig(k=2, dim=3))

    def test_determinism(self):
        rng = np.random.default_rng(12)
        samples = rng.normal(size=(300, 4))
        cfg = QuantizerConfig(k=8, dim=4, seed=42)
        cb1 = train_codebook(samples, cfg)
        cb2 = train_codebook(samples, cfg)
        assert cb1.entries.tobytes() == cb2.entries.tobytes()
        assert np.array_equal(cb1.usage, cb2.usage)

    def test_error_monotone_between_refreshes(self):
        rng = np.random.default_rng(13)
        for trial in range(20):
            samples = rng.normal(size=(rng.integers(80, 240), rng.integers(2, 6)))
            cfg = QuantizerConfig(
                k=int(rng.integers(2, 9)), dim=samples.shape[1], dead_limit=0,
                seed=int(rng.integers(1 << 31)), tol=0.0,
            )
            cb = train_codebook(samples, cfg)
            errors = cb.trace.errors
            boundaries = set(cb.trace.refresh_iters)
            for i in range(1, len(errors)):
                if i in boundaries:  # error may jump right after a refresh
                    continue
                assert errors[i] <= errors[i - 1] + 1e-12, (trial, i, errors)

    def test_dead_code_refresh_replenishes_usage(self):
        # a 10-point decoy far away captures an entry at init, dies against
        # dead_limit=256, and is re-seeded inside one of the two real clusters
        rng = np.random.default_rng(14)
        a = rng.normal([0, 0], 0.3, size=(512, 2))
        b = rng.normal([10, 10], 0.3, size=(512, 2))
        decoy = rng.normal([80, 80], 0.1, size=(10, 2))
        samples = np.vstack([a, b, decoy])
        cfg = QuantizerConfig(k=2, dim=2, dead_limit=256, refresh_period=5, seed=1)
        cb = train_codebook(samples, cfg)
        assert cb.trace.refresh_iters, "expected at least one refresh event"
        assert (cb.usage >= 256).all()

    def test_usage_invariant_with_rich_data(self):
        rng = np.random.default_rng(15)
        for seed in range(5):
            samples = rng.uniform(size=(4096, 3))
            cfg = QuantizerConfig(k=4, dim=3, dead_limit=256, seed=seed)
            cb = train_codebook(samples, cfg)
            distinct = np.unique(samples, axis=0).shape[0]
            assert (cb.usage >= cfg.dead_limit).all() or distinct < cfg.k

    def test_final_usage_matches_entries(self):
        rng = np.random.default_rng(16)
        samples = rng.normal(size=(200, 3))
        cb = train_codebook(samples, QuantizerConfig(k=5, dim=3, seed=4))
        idx, _ = quantize(cb, samples)
        np.testing.assert_array_equal(np.bincount(idx, minlength=5), cb.usage)


class TestTrainDual:
    def test_equal_inputs_equal_bits(self):
        rng = np.random.default_rng(17)
        samples = rng.random((128, 4))
        cfg = QuantizerConfig(k=4, dim=4, seed=9)
        cb_occ, cb_int = train_dual(samples, samples, cfg, cfg)
        assert cb_occ.entries.tobytes() == cb_int.entries.tobytes()
        assert cb_occ.kind == "occ" and cb_int.kind == "int"

    def test_binary_stream_entries_in_hull(self):
        rng = np.random.default_rng(18)
        occ = (rng.random((256, 6)) < 0.5).astype(float)
        inten = rng.random((256, 6))
        cb_occ, _ = train_dual(occ, inten, QuantizerConfig(k=8, dim=6, seed=1),
                               QuantizerConfig(k=8, dim=6, seed=1))
        assert cb_occ.entries.min() >= 0.0 and cb_occ.entries.max() <= 1.0

    def test_empty_intensity_stream_errors(self):
        occ = np.zeros((4, 2))
        with pytest.raises(ValueError):
            train_dual(occ, np.empty((0, 2)), QuantizerConfig(k=1, dim=2),
                       QuantizerConfig(k=1, dim=2))


class TestSearchKernel:
    """``quantize`` (and so every training pass, which runs the same search)
    returns ``nearest``'s index for every row, whatever float32 makes of the
    coarse scores."""

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 80),
        k=st.integers(1, 16),
        dim=st.integers(1, 24),
        density=st.floats(0.0, 1.0),
        binary=st.booleans(),
        dup_rows=st.floats(0.0, 0.8),
        dup_entries=st.floats(0.0, 0.8),
        from_rows=st.floats(0.0, 1.0),
        unused=st.floats(0.0, 0.8),
        magnitude=st.sampled_from([1e-170, 1e-30, 1e-3, 1.0, 1e6, 1e30, 1e150]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_random_family(
        self, n, k, dim, density, binary, dup_rows, dup_entries, from_rows, unused, magnitude, seed
    ):
        rng = np.random.default_rng(seed)
        mask = rng.random((n, dim)) < density
        mask[:, rng.random(dim) < unused] = False
        vectors = mask.astype(np.float64) if binary else mask * rng.normal(size=(n, dim))
        vectors *= magnitude
        n_dup = int(dup_rows * n)
        vectors[:n_dup] = vectors[rng.integers(n, size=n_dup)]
        # entries copied from rows make exact matches and exact ties
        entries = np.where(
            (rng.random(k) < from_rows)[:, None],
            vectors[rng.integers(n, size=k)],
            magnitude * rng.normal(size=(k, dim)) * (rng.random((k, dim)) < density),
        )
        k_dup = int(dup_entries * k)
        entries[:k_dup] = entries[rng.integers(k, size=k_dup)]
        cb = Codebook.from_entries(entries)
        idx, _ = quantize(cb, vectors)
        np.testing.assert_array_equal(idx, nearest_rows(cb, vectors))

    @staticmethod
    def assert_exact_where_float32_is_not(entries, vectors):
        cb = Codebook.from_entries(entries)
        expected = nearest_rows(cb, vectors)
        v32, e32 = vectors.astype(np.float32), entries.astype(np.float32)
        coarse = np.argmin((e32**2).sum(axis=1) - 2 * v32 @ e32.T, axis=1)
        assert (coarse != expected).sum() > len(vectors) // 10  # float32 alone gets these wrong
        np.testing.assert_array_equal(quantize(cb, vectors)[0], expected)
        return expected

    # two small entries far from the rows make the band's ‖x‖·‖y‖ term
    # dominate its ½‖y‖² term
    @pytest.mark.parametrize("k,entry_scale,offset", [(6, 1.0, 1e-3), (2, 1e-3, 1.0)])
    def test_near_ties_on_a_bisector(self, k, entry_scale, offset):
        # rows on the bisector of two entries, moved 1e-9 of the entries' gap
        # toward one side: the float64 direct form decides, float32 cannot
        rng = np.random.default_rng(23)
        dim, n = 8, 400
        entries = entry_scale * rng.random((k, dim))
        a, b = entries[0], entries[-1]
        normal = (b - a) / np.linalg.norm(b - a)
        off = rng.normal(size=(n, dim))
        off -= np.outer(off @ normal, normal)
        vectors = 0.5 * (a + b) + offset * off + np.outer(rng.choice([-1e-9, 1e-9], n), b - a)
        assert set(self.assert_exact_where_float32_is_not(entries, vectors)) == {0, k - 1}

    def test_near_ties_between_entries_of_equal_norm(self):
        # rows within 1e-9 of the origin and unit entries whose norms differ
        # by 1e-9: the score is almost all the band's ½‖y‖² term
        rng = np.random.default_rng(27)
        unit = rng.normal(size=(6, 8))
        unit /= np.linalg.norm(unit, axis=1, keepdims=True)
        entries = unit * (1 + 1e-9 * rng.normal(size=(6, 1)))
        vectors = 1e-9 * rng.normal(size=(400, 8))
        assert len(set(self.assert_exact_where_float32_is_not(entries, vectors))) > 1

    @pytest.mark.parametrize("k,dim", [(1, 5), (7, 1), (1, 1)])
    def test_single_entry_or_single_column(self, k, dim):
        rng = np.random.default_rng(24)
        cb = Codebook.from_entries(rng.normal(size=(k, dim)))
        vectors = rng.normal(size=(50, dim))
        vectors[::7] = cb.entries[0]
        np.testing.assert_array_equal(quantize(cb, vectors)[0], nearest_rows(cb, vectors))

    @pytest.mark.parametrize("spread", [0.0, 1e-13])
    def test_entries_float32_cannot_tell_apart(self, spread, monkeypatch):
        # K entries equal (spread 0) or a few float64 ulps apart: every row
        # ties with all of them in float32.  Equal entries are searched once,
        # with no rerank; distinct ones are reranked as n·K pairs, in batches
        rng = np.random.default_rng(25)
        n, k, dim = 1000, 256, 64
        vectors = rng.random((n, dim))
        entries = rng.random(dim) + spread * rng.random((k, dim))
        cb = Codebook.from_entries(entries)
        if spread == 0:
            monkeypatch.setattr(quantizer._Search, "_rerank", None)
        tracemalloc.start()
        try:
            idx, _ = quantize(cb, vectors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (idx == 0).all() if spread == 0 else len(set(idx)) > 1
        np.testing.assert_array_equal(idx, nearest_rows(cb, vectors))
        assert peak < 64 * 2**20, peak  # all pairs at once would take n·K·D·8 = 131 MB

    def test_entries_near_float32_max(self):
        # QPCB stores float32, so its entries reach 3.4e38: a float32 product
        # of them overflows unless scaled first
        rng = np.random.default_rng(26)
        top = float(np.finfo(np.float32).max)
        entries = (top * rng.uniform(-1, 1, size=(300, 16))).astype(np.float32).astype(np.float64)
        entries[:40] = entries[0]
        vectors = np.vstack([
            entries[rng.integers(300, size=200)] * (1 + 1e-7 * rng.normal(size=(200, 16))),
            top * rng.uniform(-1, 1, size=(200, 16)),
            rng.random((100, 16)),
        ])
        cb = Codebook.from_entries(entries)
        tracemalloc.start()
        try:
            idx, err = quantize(cb, vectors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(idx, nearest_rows(cb, vectors))
        assert np.isfinite(err)
        assert peak < 16 * 2**20, peak


def core_and_wide_rows(rng, n, dim, n_core, wide, zero, density, binary, magnitude):
    """Patch-like sparse rows: most use only ``n_core`` popular columns, a
    ``wide`` share also uses columns across all ``dim``, a ``zero`` share is
    all zero, and some zeros are ``-0.0``.  Rows come in random order."""
    core = rng.choice(dim, size=n_core, replace=False)
    mask = np.zeros((n, dim), dtype=bool)
    mask[:, core] = rng.random((n, n_core)) < density
    kind = rng.random(n)
    mask[kind < wide] |= rng.random((int((kind < wide).sum()), dim)) < rng.uniform(0.05, 0.6)
    mask[kind > 1.0 - zero] = False
    vectors = mask.astype(np.float64) if binary else mask * rng.normal(size=(n, dim))
    vectors *= magnitude
    vectors[~mask & (rng.random((n, dim)) < 0.3)] = -0.0
    return vectors, core


class TestBlockedSearch:
    """The search sorts its rows by width, cuts them into blocks that each use
    their own leading columns, and maps the indices back to the caller's row
    order.  ``nearest`` is still the oracle, row by row."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(65, 160),
        k=st.integers(2, 16),
        dim=st.integers(64, 300),
        n_core=st.integers(1, 24),
        wide=st.floats(0.0, 0.3),
        zero=st.floats(0.0, 0.3),
        density=st.floats(0.1, 1.0),
        binary=st.booleans(),
        from_rows=st.floats(0.0, 1.0),
        ties=st.floats(0.0, 0.5),
        rows_per_block=st.integers(1, 64),
        magnitude=st.sampled_from([1e-30, 1e-3, 1.0, 1e6]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_random_family(
        self, n, k, dim, n_core, wide, zero, density, binary, from_rows, ties, rows_per_block,
        magnitude, seed,
    ):
        rng = np.random.default_rng(seed)
        vectors, core = core_and_wide_rows(rng, n, dim, n_core, wide, zero, density, binary,
                                           magnitude)
        on_core = np.zeros(dim)
        on_core[core] = 1.0
        entries = np.where(
            (rng.random(k) < from_rows)[:, None],
            vectors[rng.integers(n, size=k)],
            magnitude * rng.normal(size=(k, dim)) * on_core,
        )
        # rows 1e-9 of the gap off the bisector of two core entries: near
        # ties that only the rerank decides, inside a narrow block
        a, b = magnitude * rng.random((2, dim)) * on_core
        entries[0], entries[-1] = a, b
        tie_rows = np.flatnonzero(rng.random(n) < ties)
        side = rng.choice([-1e-9, 1e-9], tie_rows.size)
        vectors[tie_rows] = 0.5 * (a + b) + np.outer(side, b - a)
        cb = Codebook.from_entries(entries)
        expected = nearest_rows(cb, vectors)
        bound = max(float(entries.max()), -float(entries.min()))
        with pytest.MonkeyPatch.context() as mp:
            # more rows of one width than a block takes: K·rows_per_block scores
            mp.setattr(quantizer, "_BLOCK", k * rows_per_block)
            search = quantizer._Search(vectors.shape, *quantizer._nonzeros(vectors), k, bound)
            assert len(search.blocks) > 1
            np.testing.assert_array_equal(search(entries), expected)
        np.testing.assert_array_equal(quantize(cb, vectors)[0], expected)

    def test_training_csr_equals_scipy(self, monkeypatch):
        # the CSR copy training builds from the search's nonzeros is scipy's
        # own conversion of the dense samples: -0.0 is no nonzero
        rng = np.random.default_rng(28)
        samples, _ = core_and_wide_rows(rng, 300, 96, 12, 0.1, 0.2, 0.5, False, 1.0)
        assert (samples == 0).all(axis=1).any() and np.signbit(samples[samples == 0]).any()
        made = []
        to_csr = quantizer._Search.csr

        def recorded(search):
            made.append(to_csr(search))
            return made[-1]

        monkeypatch.setattr(quantizer._Search, "csr", recorded)
        train_codebook(samples, QuantizerConfig(k=8, dim=96, max_iters=3, seed=1))
        expected = sp.csr_array(samples)
        (got,) = made
        assert got.shape == expected.shape
        for name in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(got, name), getattr(expected, name), err_msg=name)

    def test_nan_score_raises(self):
        # a NaN score leaves its row no candidate within the band: the search
        # raises rather than return an index
        rng = np.random.default_rng(29)
        vectors, entries = rng.random((20, 8)), rng.random((5, 8))
        search = quantizer._Search(vectors.shape, *quantizer._nonzeros(vectors), 5)
        expected = nearest_rows(Codebook.from_entries(entries), vectors)
        np.testing.assert_array_equal(search(entries), expected)
        search.coarse[3, 1] = np.nan
        with pytest.raises(FloatingPointError, match="non-finite score"):
            search(entries)


class TestRejectsUnboundedInput:
    """A row or entry whose squared norm is not finite (NaN, inf, or values
    that overflow when squared) is a ``ValueError``, without a warning."""

    # 1e154 squares to 1e308, finite, but a distance to -1e154 would overflow
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300, 1e154])
    def test_quantize(self, bad):
        cb = Codebook.from_entries([[0.0, 1.0], [1.0, 0.0]])
        vectors = np.zeros((3, 2))
        vectors[1, 0] = bad
        with pytest.raises(ValueError, match="vectors must be finite"):
            quantize(cb, vectors)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e300])
    def test_train_codebook(self, bad):
        samples = np.ones((10, 3))
        samples[4, 2] = bad
        with pytest.raises(ValueError, match="samples must be finite"):
            train_codebook(samples, QuantizerConfig(k=2, dim=3))

    @pytest.mark.parametrize("bad", [1e300, 1e154])
    def test_codebook_entries(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Codebook.from_entries([[0.0, 1.0], [bad, 0.5]])

    def test_largest_accepted_magnitudes_give_finite_distances(self):
        big = 1e153  # squared norm 1e306, under the limit; 2·big squared is 4e306
        cb = Codebook.from_entries([[big, -big], [-big, big]])
        idx, err = quantize(cb, np.array([[-big, big], [big, -big], [0.0, 0.0]]))
        assert idx.tolist() == [1, 0, 0]
        assert np.isfinite(err)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_codebook_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="finite"):
        Codebook.from_entries([[0.0, 1.0], [bad, 0.5]])


@pytest.mark.parametrize("k", [0, 2**32, 10**30])
def test_config_k_fits_a_u32(k):
    # K is a u32 in QPCB files and frame headers; K·D <= 2**26 implies it
    QuantizerConfig(k=2**26, dim=1)
    with pytest.raises(ValueError, match=r"codebook size must lie in \[1, 2\*\*26 / dim\]"):
        QuantizerConfig(k=k, dim=1)


@pytest.mark.parametrize("k, dim", [(2**21, 32), (2**16, 1024), (2**26, 1)])
def test_config_k_times_dim_capped(k, dim):
    # k-means++ allocates (K, D) float64 arrays, 512 MB at K·D = 2**26, before any pass
    QuantizerConfig(k=k, dim=dim)
    with pytest.raises(ValueError, match=r"codebook size must lie in \[1, 2\*\*26 / dim\]"):
        QuantizerConfig(k=k + 1, dim=dim)


@pytest.mark.parametrize(
    "field", ["k", "dim", "refresh_period", "reservoir_size", "max_iters", "seed"]
)
def test_config_counts_are_integers(field):
    base = {"k": 4, "dim": 3}
    cfg = QuantizerConfig(**{**base, field: 2.0})
    assert getattr(cfg, field) == 2 and type(getattr(cfg, field)) is int
    for bad in (2.5, np.inf):
        with pytest.raises(ValueError, match="must be integers"):
            QuantizerConfig(**{**base, field: bad})


@pytest.mark.parametrize("field, bad", [
    ("seed", -1), ("tol", np.nan), ("tol", -1.0), ("tol", np.inf),
    ("dead_limit", np.nan), ("dead_limit", -1), ("dead_limit", np.inf),
])
def test_config_rejects_invalid_settings(field, bad):
    # default_rng rejects a negative seed, and a NaN tol or dead_limit would
    # make every stop or refresh test false
    QuantizerConfig(k=2, dim=3, **{field: 0})
    with pytest.raises(ValueError, match=field):
        QuantizerConfig(k=2, dim=3, **{field: bad})


@pytest.mark.parametrize("shape", [(0, 3), (3, 0)], ids=["k0", "d0"])
def test_codebook_rejects_empty_entries(shape):
    # read_codebook rejects such a file, and quantize has no entry to pick
    with pytest.raises(ValueError, match="K >= 1 and D >= 1"):
        Codebook.from_entries(np.zeros(shape))


def test_codebook_rejects_negative_usage():
    # write_codebook stores usage as u64, where -5 would read back as >= 2**63
    with pytest.raises(ValueError, match="usage"):
        Codebook(np.zeros((2, 1)), [3, -5])


class TestCodebookFile:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(19)
        samples = rng.random((64, 3))
        cb = train_codebook(samples, QuantizerConfig(k=4, dim=3, seed=5), kind="int")
        path = tmp_path / "cb.qpcb"
        write_codebook(path, cb, fill=samples.mean(axis=0))
        back, fill = read_codebook(path)
        assert back.kind == "int"
        np.testing.assert_array_equal(back.entries, cb.entries.astype("<f4").astype(np.float64))
        np.testing.assert_array_equal(back.usage, cb.usage)
        np.testing.assert_allclose(fill, samples.mean(axis=0), atol=1e-7)

    def test_layout(self, tmp_path):
        cb = Codebook.from_entries([[1.0, 2.0]], kind="occ")
        path = tmp_path / "cb.qpcb"
        write_codebook(path, cb)
        raw = path.read_bytes()
        assert raw[:4] == b"QPCB"
        assert raw[4] == 1 and raw[5] == 0
        assert int.from_bytes(raw[6:10], "little") == 1
        assert int.from_bytes(raw[10:14], "little") == 2
        assert np.frombuffer(raw[14:22], dtype="<f4").tolist() == [1.0, 2.0]
        assert int.from_bytes(raw[22:30], "little") == 0

    def test_without_fill(self, tmp_path):
        cb = Codebook.from_entries([[0.5]])
        path = tmp_path / "cb.qpcb"
        write_codebook(path, cb)
        _, fill = read_codebook(path)
        assert fill is None

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "cb.qpcb"
        path.write_bytes(b"XXXX" + bytes(32))
        with pytest.raises(ValueError):
            read_codebook(path)

    def test_usage_beyond_int64_rejected(self, tmp_path):
        path = tmp_path / "cb.qpcb"
        write_codebook(path, Codebook.from_entries([[0.5], [1.0]]))
        raw = bytearray(path.read_bytes())
        raw[14 + 8 : 14 + 16] = (2**63 - 1).to_bytes(8, "little")
        path.write_bytes(bytes(raw))
        assert read_codebook(path)[0].usage.tolist() == [2**63 - 1, 0]
        raw[14 + 8 : 14 + 16] = (2**63).to_bytes(8, "little")  # was read as -2**63
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="2\\*\\*63"):
            read_codebook(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "cb.qpcb"
        write_codebook(path, Codebook.from_entries([[0.5]]))
        raw = bytearray(path.read_bytes())
        raw[5] = 7
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="unknown codebook kind 7"):
            read_codebook(path)

    def test_trailing_bytes_after_fill_rejected(self, tmp_path):
        path = tmp_path / "cb.qpcb"
        write_codebook(path, Codebook.from_entries([[0.5], [1.0]]), fill=[0.75])
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing bytes after FILL"):
            read_codebook(path)

    @pytest.mark.parametrize("k,dim", [(0, 2), (2, 0), (0, 0)])
    def test_empty_codebook_header_rejected(self, tmp_path, k, dim):
        path = tmp_path / "cb.qpcb"
        path.write_bytes(b"QPCB" + bytes([1, 0]) + k.to_bytes(4, "little") + dim.to_bytes(4, "little"))
        with pytest.raises(FormatError):
            read_codebook(path)


def assert_matches_dense_oracle(samples, cfg):
    cb = train_codebook(samples, cfg)
    entries, usage, errors, refresh_iters = dense_train_codebook(samples, cfg)
    assert cb.entries.tobytes() == entries.tobytes()
    np.testing.assert_array_equal(cb.usage, usage)
    assert cb.trace.refresh_iters == refresh_iters
    # in-loop errors come from the expanded form, whose cancellation error is
    # a few ulps of the squared norms; the final pass is direct
    atol = 1e-12 * float((np.asarray(samples) ** 2).sum(axis=1).mean())
    np.testing.assert_allclose(cb.trace.errors, errors, rtol=1e-12, atol=atol)
    assert cb.trace.errors[-1] == errors[-1]


class TestSparseTrainingOracle:
    """``train_codebook`` seeds and updates through a sparse copy of the
    samples; it must return what the dense formulation returns."""

    def test_sparse_binary(self):
        rng = np.random.default_rng(20)
        samples = (rng.random((600, 48)) < 0.04).astype(np.float64)
        assert_matches_dense_oracle(samples, QuantizerConfig(k=24, dim=48, dead_limit=8, seed=3))

    def test_reservoir_smaller_than_samples(self):
        # n > reservoir_size: refreshes re-seed from a sampled reservoir
        rng = np.random.default_rng(26)
        samples = (rng.random((600, 48)) < 0.04).astype(np.float64)
        cfg = QuantizerConfig(k=24, dim=48, dead_limit=8, reservoir_size=50, seed=7)
        assert train_codebook(samples, cfg).trace.refresh_iters
        assert_matches_dense_oracle(samples, cfg)

    def test_sparse_float_with_duplicate_rows(self):
        rng = np.random.default_rng(21)
        base = (rng.random((300, 40)) < 0.08) * rng.random((300, 40))
        order = rng.permutation(424)
        # the same rows with random signs, so clusters also sum negative values
        signed = base * rng.choice([-1.0, 1.0], size=base.shape)
        for rows in (base, signed):
            samples = np.vstack([rows, rows[:120], rows[5:9]])[order]
            cfg = QuantizerConfig(k=32, dim=40, dead_limit=4, seed=4)
            assert_matches_dense_oracle(samples, cfg)

    def test_rows_split_into_width_blocks(self):
        # a popular core of columns plus wide rows at D = 160: the search cuts
        # its rows into blocks of their own widths
        rng = np.random.default_rng(29)
        samples, _ = core_and_wide_rows(rng, 600, 160, 16, 0.05, 0.05, 0.4, False, 1.0)
        cfg = QuantizerConfig(k=24, dim=160, dead_limit=8, seed=8)
        search = quantizer._Search(samples.shape, *quantizer._nonzeros(samples), cfg.k)
        widths = [block[2] for block in search.blocks]
        assert len(widths) > 1 and widths[0] < widths[-1]
        assert_matches_dense_oracle(samples, cfg)

    @pytest.mark.parametrize("dead_limit", [0, 256])
    def test_all_identical_samples(self, dead_limit):
        samples = np.tile([0.0, 1.5, 0.0, -2.0, 0.25], (50, 1))
        cfg = QuantizerConfig(k=6, dim=5, dead_limit=dead_limit, seed=5)
        assert_matches_dense_oracle(samples, cfg)

    def test_more_codes_than_distinct_samples(self):
        rng = np.random.default_rng(22)
        distinct = (rng.random((5, 16)) < 0.2) * rng.normal(size=(5, 16))
        samples = distinct[rng.integers(5, size=80)]
        assert_matches_dense_oracle(samples, QuantizerConfig(k=12, dim=16, dead_limit=2, seed=6))

    def test_stop_rule_at_rounding_level(self):
        # with tol=0 the stop test compares errors that differ only by rounding
        # once entries settle, so it must see the direct errors
        for seed in range(30):
            rng = np.random.default_rng(seed)
            n, dim, k = int(rng.integers(2, 60)), int(rng.integers(1, 24)), int(rng.integers(1, 12))
            samples = (rng.random((n, dim)) < rng.random()) * rng.normal(size=(n, dim))
            cfg = QuantizerConfig(k=k, dim=dim, dead_limit=0, max_iters=30, seed=seed, tol=0.0)
            assert_matches_dense_oracle(samples, cfg)

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 60), st.integers(1, 24)),
        k=st.integers(1, 12),
        density=st.floats(0.0, 1.0),
        dup_frac=st.floats(0.0, 0.8),
        binary=st.booleans(),
        dead_limit=st.sampled_from([0, 2, 256]),
        tol=st.sampled_from([1e-5, 0.0]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_random_sparse_family(self, shape, k, density, dup_frac, binary, dead_limit, tol, seed):
        rng = np.random.default_rng(seed)
        n, dim = shape
        mask = rng.random((n, dim)) < density
        samples = mask.astype(np.float64) if binary else mask * rng.normal(size=(n, dim))
        n_dup = int(dup_frac * n)
        samples[:n_dup] = samples[rng.integers(n, size=n_dup)]
        cfg = QuantizerConfig(
            k=k, dim=dim, dead_limit=dead_limit, refresh_period=3, max_iters=30, tol=tol, seed=seed,
        )
        assert_matches_dense_oracle(samples, cfg)
