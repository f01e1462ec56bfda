"""Shared fixture builders for the test suite."""

import numpy as np

from qpcomm.geometry import PointCloud, VoxelGridSpec, assemble_grid
from qpcomm.quantizer import QuantizerConfig, train_codebook


def desk_spec(dims=(8, 8, 2)):
    return VoxelGridSpec((0.0, 0.0, 0.0), (0.5, 0.5, 0.25), dims)


def representable_scene(spec, patch, n_patterns=6, seed=0, intensity=0.5):
    """A scene whose occupancy patch vectors take only ``n_patterns`` distinct
    binary values (the all-zero pattern included), with one point per occupied
    voxel at the voxel centroid and constant intensity.

    Returns (cloud, occ_vectors, int_vectors) where the vector grids are the
    exact patch decomposition of the scene's grids.
    """
    rng = np.random.default_rng(seed)
    h, w = patch.latent_shape(spec)
    dim = patch.vector_dim(spec)
    patterns = [np.zeros(dim)]
    seen = {patterns[0].tobytes()}
    while len(patterns) < n_patterns:
        cand = (rng.random(dim) < 0.45).astype(np.float64)
        if cand.tobytes() not in seen:
            seen.add(cand.tobytes())
            patterns.append(cand)
    patterns = np.asarray(patterns)
    choice = rng.integers(len(patterns), size=(h, w))
    occ_vec = patterns[choice]
    int_vec = occ_vec * intensity
    occ_data = assemble_grid(occ_vec, patch, spec)
    idx = np.argwhere(occ_data > 0.5)
    pts = np.column_stack([spec.centroids(idx), np.full(idx.shape[0], intensity)])
    return PointCloud(pts), occ_vec, int_vec


def build_straddle_fixture():
    """Find a wire configuration where the final latent cell's intensity
    field straddles the last packet boundary and the final packet contains no
    other cell's bits (so dropping it loses exactly that cell)."""
    from qpcomm.wire import HEADER_LEN

    mtu = 64
    bits = 11  # K = 2048
    for w in range(2, 4000):
        total_bits = 2 * w * bits
        payload_len = (total_bits + 7) // 8
        total_len = HEADER_LEN + payload_len
        last_start = ((total_len - 1) // mtu) * mtu  # first byte of last packet
        field_first_byte = ((2 * w - 1) * bits) // 8
        if (
            last_start >= HEADER_LEN + field_first_byte + 1
            and last_start < HEADER_LEN + payload_len
            and last_start >= 3 * mtu
        ):
            return w, bits, mtu
    raise AssertionError("no straddle configuration found")


def trained_codebooks_for(occ_vec, int_vec, k=16, seed=0, dead_limit=0):
    # dead_limit=0 disables the refresh machinery: these fixtures are far too
    # small for a meaningful usage floor
    dim = occ_vec.shape[-1]
    cb_occ = train_codebook(
        occ_vec.reshape(-1, dim),
        QuantizerConfig(k=k, dim=dim, seed=seed, dead_limit=dead_limit),
        kind="occ",
    )
    cb_int = train_codebook(
        int_vec.reshape(-1, dim),
        QuantizerConfig(k=k, dim=dim, seed=seed + 1, dead_limit=dead_limit),
        kind="int",
    )
    return cb_occ, cb_int


def _dense_assign(vectors, entries, chunk=8192):
    idx = np.empty(vectors.shape[0], dtype=np.int64)
    ent_sq = (entries**2).sum(axis=1)
    for start in range(0, vectors.shape[0], chunk):
        d = ent_sq - 2.0 * (vectors[start : start + chunk] @ entries.T)
        idx[start : start + chunk] = np.argmin(d, axis=1)
    return idx


def _dense_kmeanspp_init(samples, k, rng):
    n = samples.shape[0]
    entries = np.empty((k, samples.shape[1]), dtype=np.float64)
    pick = int(rng.integers(n))
    entries[0] = samples[pick]
    min_d = ((samples - entries[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = float(min_d.sum())
        if total > 0.0:
            pick = int(rng.choice(n, p=min_d / total))
        else:
            pick = int(rng.integers(n))
        entries[j] = samples[pick]
        min_d = np.minimum(min_d, ((samples - entries[j]) ** 2).sum(axis=1))
    return entries


def dense_train_codebook(samples, cfg):
    """Reference trainer: dense k-means++ seeding, ``np.add.at`` centroid sums
    and the direct per-pass error.  ``train_codebook`` must return the same
    entries, usage and refresh iterations bit for bit, and the same errors up
    to rounding.  Returns ``(entries, usage, errors, refresh_iters)``."""
    samples = np.asarray(samples, dtype=np.float64)
    n = samples.shape[0]
    rng = np.random.default_rng(cfg.seed)
    if n <= cfg.reservoir_size:
        reservoir = samples
    else:
        reservoir = samples[rng.choice(n, size=cfg.reservoir_size, replace=False)]

    entries = _dense_kmeanspp_init(samples, cfg.k, rng)
    ema_counts = np.zeros(cfg.k)
    ema_sums = np.zeros_like(entries)
    age = np.zeros(cfg.k, dtype=np.int64)
    errors, refresh_iters = [], []
    decay = cfg.ema_decay
    prev_err = None
    for it in range(1, cfg.max_iters + 1):
        idx = _dense_assign(samples, entries)
        err = float(((samples - entries[idx]) ** 2).sum(axis=1).mean())
        errors.append(err)
        converged = prev_err is not None and (prev_err - err) <= cfg.tol * max(prev_err, 1e-300)
        prev_err = err

        counts = np.bincount(idx, minlength=cfg.k).astype(np.float64)
        sums = np.zeros_like(entries)
        np.add.at(sums, idx, samples)
        age += 1
        ema_counts = decay * ema_counts + (1.0 - decay) * counts
        ema_sums = decay * ema_sums + (1.0 - decay) * sums
        served = counts > 0
        entries[served] = ema_sums[served] / ema_counts[served, None]

        dead = ema_counts / (1.0 - decay**age) < cfg.dead_limit
        mature_dead = dead & (age >= min(cfg.refresh_period, cfg.max_iters))
        if converged and not dead.any():
            break
        if mature_dead.any() and (converged or it % cfg.refresh_period == 0):
            n_dead = int(mature_dead.sum())
            entries[mature_dead] = reservoir[rng.integers(len(reservoir), size=n_dead)]
            ema_counts[mature_dead] = 0.0
            ema_sums[mature_dead] = 0.0
            age[mature_dead] = 0
            refresh_iters.append(it)
            prev_err = None

    idx = _dense_assign(samples, entries)
    errors.append(float(((samples - entries[idx]) ** 2).sum(axis=1).mean()))
    return entries, np.bincount(idx, minlength=cfg.k).astype(np.int64), errors, refresh_iters
