import numpy as np
import pytest
from helpers import dense_train_codebook
from hypothesis import given, settings
from hypothesis import strategies as st

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
        assert back.codebook_id == cb.codebook_id

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

    def test_sparse_float_with_duplicate_rows(self):
        rng = np.random.default_rng(21)
        base = (rng.random((300, 40)) < 0.08) * rng.random((300, 40))
        samples = np.vstack([base, base[:120], base[5:9]])[rng.permutation(424)]
        assert_matches_dense_oracle(samples, QuantizerConfig(k=32, dim=40, dead_limit=4, seed=4))

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
