"""Shared fixture builders for the test suite."""

import numpy as np
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from qpcomm.geometry import (
    CellRows,
    IntensityGrid,
    OccupancyGrid,
    PointCloud,
    VoxelGridSpec,
    Voxels,
    assemble_grid,
)
from qpcomm.metrics import reconstruct
from qpcomm.quantizer import QuantizerConfig, train_codebook
from qpcomm.tolerance import FillPolicy
from qpcomm.wire import Pose, packetize, receive, serialize


def desk_spec(dims=(8, 8, 2)):
    return VoxelGridSpec((0.0, 0.0, 0.0), (0.5, 0.5, 0.25), dims)


def dividing(n):
    """A ``hypothesis`` strategy for the divisors of ``n``: patch sizes that
    tile a grid side of ``n`` voxels."""
    return st.sampled_from([d for d in range(1, n + 1) if n % d == 0])


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


def received(im, cb_occ, cb_int, cfg, seed=0):
    """The cloud the receiver decodes from the index map ``im`` when every
    packet arrives: ``serialize`` -> ``packetize`` -> ``reconstruct`` with
    the decoder seed ``seed``, as ``qpc decode`` runs it."""
    frame = serialize(im, Pose())
    packets = packetize(frame, frame.total_nbytes)
    return reconstruct(packets, im.spec, im.patch, cb_occ, cb_int, FillPolicy.empty(), cfg,
                       seed)[3]


def vector_rows(vectors):
    """The ``CellRows`` of an (h, w, D) vector grid: one table row per cell,
    cell (i, j) reading row i·w + j."""
    h, w, dim = np.shape(vectors)
    return CellRows(np.arange(h * w).reshape(h, w), np.reshape(vectors, (h * w, dim)))


def reference_chamfer(a, b):
    """Chamfer distance as first implemented: balanced trees, each cloud
    queried in its own order.  The library's result must equal it bit for
    bit, because nearest-neighbour distances are exact."""
    d_ab, _ = cKDTree(b.xyz).query(a.xyz, k=1)
    d_ba, _ = cKDTree(a.xyz).query(b.xyz, k=1)
    return 0.5 * (float(np.mean(d_ab)) + float(np.mean(d_ba)))


def grid_voxels(occ, inten):
    """The ``Voxels`` of an occupancy and an intensity grid: the occupied
    voxels' flat ids, ascending, each with its entry of ``inten``."""
    ids = np.flatnonzero(occ.data)
    return Voxels(occ.spec, ids, inten.data.reshape(-1)[ids], 0)


def reference_decode_grids(occ, inten, cfg, seed=0, attempts=16):
    """The decoder as first implemented, from an occupancy and an intensity
    grid: every rejection round re-tests all points against their voxel
    boxes.  ``codec.decode_voxels`` of the grids' ``grid_voxels`` re-tests
    only the redrawn rows and must return the same points bit for bit,
    because it draws the same numbers in the same order, for the voxels in the
    same (``argwhere``) order."""
    spec = occ.spec
    idx = np.argwhere(occ.data > 0)
    if idx.shape[0] == 0:
        return PointCloud.empty()
    values = inten.data[tuple(idx.T)]
    ppv = cfg.points_per_voxel
    centers = np.repeat(spec.centroids(idx), ppv, axis=0)
    sigma = cfg.resolved_sigma(spec)
    if sigma == 0.0:
        pos = centers
    else:
        rng = np.random.default_rng(seed)
        cell = np.asarray(spec.cell)
        lo = np.repeat(np.asarray(spec.origin) + idx * cell, ppv, axis=0)
        hi = lo + cell
        pos = centers + sigma * rng.standard_normal(centers.shape)
        if cfg.clip_to_voxel:
            out = ~np.all((pos >= lo) & (pos < hi), axis=1)
            for _ in range(attempts):
                if not out.any():
                    break
                pos[out] = centers[out] + sigma * rng.standard_normal((int(out.sum()), 3))
                out = ~np.all((pos >= lo) & (pos < hi), axis=1)
            pos[out] = centers[out]
    return PointCloud(np.column_stack([pos, np.repeat(values, ppv)]))


def reference_reconstruct(delivered, spec, patch, cb_occ, cb_int, policy, decode_cfg, seed):
    """``metrics.reconstruct`` as first implemented, through dense grids:
    ``receive``'s rows expanded to (h, w, D) vector grids, both streams
    assembled into (H, W, L) tensors, occupancy thresholded at 0.5,
    intensity clamped to [0, 1] and zeroed where unoccupied, then
    ``reference_decode_grids``.  Returns the raw occupancy tensor, the
    intensity grid and the decoded cloud.  The receiver, which reads the
    rows without expanding them, must give the same cloud bit for bit;
    ``reference_intensity_mse`` of the grid must equal the trial's MSE, and
    ``reference_bce`` of the tensor its BCE."""
    occ_rows, int_rows, _ = receive(delivered, spec, patch, cb_occ, cb_int, policy)
    occ_vec, int_vec = occ_rows.table[occ_rows.ids], int_rows.table[int_rows.ids]
    occ_raw = assemble_grid(occ_vec, patch, spec)
    occ = (occ_raw >= 0.5).astype(np.uint8)
    inten = np.clip(assemble_grid(int_vec, patch, spec), 0.0, 1.0)
    inten *= occ
    occ, inten = OccupancyGrid(spec, occ), IntensityGrid(spec, inten)
    return occ_raw, inten, reference_decode_grids(occ, inten, decode_cfg, seed)


def reference_intensity_mse(truth_occ, truth_inten, predicted):
    """Intensity MSE as first implemented: the (H, W, L) ``predicted`` grid
    against the truth grids over the truth's occupancy mask, in flat order."""
    mask = truth_occ > 0
    return float(((predicted.data[mask] - truth_inten[mask]) ** 2).mean())


def reference_bce(truth, predicted_probs):
    """Occupancy BCE as first implemented, the full two-term formula; the
    library's one-log form must equal it bit for bit."""
    p = np.clip(np.asarray(predicted_probs, dtype=np.float64), 1e-7, 1.0 - 1e-7)
    y = truth.data.astype(np.float64)
    return float(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)).mean())


def missing_bytes(packets, nbytes):
    """The bytes of an ``nbytes`` stream that no packet carries."""
    missing = np.ones(nbytes, dtype=bool)
    for p in packets:
        missing[p.byte_offset : p.byte_offset + len(p.payload)] = False
    return missing


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


def brute_nearest_present(lost, chunk=1024):
    """Reference for ``tolerance._nearest_present``: for each lost cell, in flat
    order, the flat index of the nearest present cell by Manhattan distance,
    ties to the lowest flat index, by comparing every lost cell with every
    present one."""
    h, w = lost.shape
    lost_flat = np.flatnonzero(lost.ravel())
    present_flat = np.flatnonzero(~lost.ravel())
    li, lj = np.divmod(lost_flat, w)
    pi, pj = np.divmod(present_flat, w)
    out = np.empty(lost_flat.shape[0], dtype=np.int64)
    for start in range(0, lost_flat.shape[0], chunk):
        sl = slice(start, start + chunk)
        d = np.abs(li[sl, None] - pi[None, :]) + np.abs(lj[sl, None] - pj[None, :])
        out[sl] = present_flat[np.argmin(d, axis=1)]
    return out


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


def dense_voxelize(cloud, spec):
    """``geometry.voxelize`` as first implemented: two bincounts over the
    whole grid.  Returns the (H, W, L) uint8 occupancy, the float64 mean
    intensities and the count of points outside the grid.  The sparse
    ``occupied_voxels`` must give the same voxels and means bit for bit,
    because it adds each voxel's intensities in the same point order."""
    n_vox = spec.n_voxels
    idx, inside = spec.voxel_indices(cloud.xyz)
    flat = np.ravel_multi_index(tuple(idx[inside].T), spec.dims)
    occ = np.bincount(flat, minlength=n_vox)
    inten_sum = np.bincount(flat, weights=cloud.intensity[inside], minlength=n_vox)
    occupied = occ > 0
    inten = np.zeros(n_vox, dtype=np.float64)
    inten[occupied] = inten_sum[occupied] / occ[occupied]
    np.clip(inten, 0.0, 1.0, out=inten)
    return (occupied.reshape(spec.dims).astype(np.uint8), inten.reshape(spec.dims),
            int((~inside).sum()))


def _dense_assign(vectors, entries):
    """``nearest``'s definition, row by row: the lowest index minimizing the
    direct-form ``((entries - v) ** 2).sum(axis=1)``."""
    return np.array([np.argmin(((entries - v) ** 2).sum(axis=1)) for v in vectors], dtype=np.int64)


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
    """Reference trainer: dense k-means++ seeding, assignment by ``nearest``'s
    definition, ``np.add.at`` centroid sums and the direct per-pass error.
    ``train_codebook`` must return the same entries, usage and refresh
    iterations bit for bit, and the same errors up to rounding.  Returns
    ``(entries, usage, errors, refresh_iters)``."""
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
