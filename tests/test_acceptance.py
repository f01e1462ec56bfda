"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import math
import time

import numpy as np
import pytest
from helpers import received

import qpcomm as q
from qpcomm.quantizer import QuantizerConfig, train_codebook

DESK_SPEC = q.VoxelGridSpec((0.0, 0.0, 0.0), (0.15625, 0.15625, 0.15), (64, 64, 8))
DESK_PATCH = q.PatchSpec(2, 2)


def report(name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def desk_setup():
    """Five synthetic scenes with jointly trained codebooks and fitted fill
    vectors on the 64x64x8 desk grid."""
    dim = DESK_PATCH.vector_dim(DESK_SPEC)
    scenes = [q.generate(q.SceneConfig(seed=s))[0] for s in range(5)]
    occ_samples, int_samples = q.training_vectors(scenes, DESK_SPEC, DESK_PATCH)
    cb_occ = train_codebook(
        occ_samples, QuantizerConfig(k=64, dim=dim, seed=1, dead_limit=0), kind="occ"
    )
    cb_int = train_codebook(
        int_samples, QuantizerConfig(k=64, dim=dim, seed=2, dead_limit=0), kind="int"
    )
    fill_occ = q.fit_fill_vector(occ_samples)
    fill_int = q.fit_fill_vector(int_samples)
    return scenes, cb_occ, cb_int, fill_occ, fill_int


def test_c01_communication_volume():
    ok = True
    details = []
    for k, expected in ((2048, 14.95), (1024, 14.81), (512, 14.66)):
        got = q.comm_volume_log2_bytes(11520, k)
        details.append(f"K={k}: {got:.4f}")
        ok &= abs(got - expected) <= 0.01
    report("1 communication-volume", ok, "; ".join(details))


def test_c02_latency_arithmetic():
    bandwidth = 1e6 / 0.1  # 1 MB per 100 ms
    small = q.latency_for_volume(2**14.95, bandwidth) * 1e3
    large = q.latency_for_volume(6.15e6, bandwidth) * 1e3
    ok = abs(small - 3.3) / 3.3 <= 0.05 and abs(large - 615.0) / 615.0 <= 0.05
    report("2 latency-arithmetic", ok, f"{small:.2f} ms, {large:.1f} ms")


def test_c03_lossless_roundtrip():
    t0 = time.monotonic()
    dim = DESK_PATCH.vector_dim(DESK_SPEC)
    # a scene built from 24 distinct occupancy patch patterns, one point per
    # occupied voxel at the voxel centroid
    rng = np.random.default_rng(30)
    h, w = DESK_PATCH.latent_shape(DESK_SPEC)
    patterns = [np.zeros(dim)]
    while len(patterns) < 24:
        cand = (rng.random(dim) < 0.4).astype(float)
        if not any(np.array_equal(cand, p) for p in patterns):
            patterns.append(cand)
    occ_vec = np.asarray(patterns)[rng.integers(24, size=(h, w))]
    int_vec = occ_vec * 0.5
    occ_data = q.assemble_grid(occ_vec, DESK_PATCH, DESK_SPEC)
    idx = np.argwhere(occ_data > 0.5)
    scene = q.PointCloud(
        np.column_stack([DESK_SPEC.centroids(idx), np.full(idx.shape[0], 0.5)])
    )

    n_distinct = np.unique(occ_vec.reshape(-1, dim), axis=0).shape[0]
    k = 32
    assert k >= n_distinct
    cb_occ = train_codebook(
        occ_vec.reshape(-1, dim), QuantizerConfig(k=k, dim=dim, seed=3, dead_limit=0),
        kind="occ",
    )
    cb_int = train_codebook(
        int_vec.reshape(-1, dim), QuantizerConfig(k=k, dim=dim, seed=4, dead_limit=0),
        kind="int",
    )
    im = q.encode(scene, DESK_SPEC, DESK_PATCH, cb_occ, cb_int)
    out = received(im, cb_occ, cb_int, q.DecodeConfig(sigma=0.0, points_per_voxel=1))

    occ_truth, _, _ = q.voxelize(scene, DESK_SPEC)
    occ_rec, _, _ = q.voxelize(out, DESK_SPEC)
    exact = np.array_equal(occ_truth.data, occ_rec.data)
    bce = q.occupancy_bce(occ_truth, q.assemble_grid(cb_occ.entries[im.occ_indices], DESK_PATCH, DESK_SPEC))
    cd = q.chamfer(scene, out)
    elapsed = time.monotonic() - t0
    ok = exact and bce <= 1e-6 and cd <= DESK_SPEC.voxel_diagonal and elapsed < 10.0
    report(
        "3 lossless-roundtrip",
        ok,
        f"exact={exact}, bce={bce:.2e}, chamfer={cd:.2e} m, {elapsed:.1f}s",
    )


def test_c04_wire_bit_exactness():
    rng = np.random.default_rng(40)
    ok = True
    for _ in range(1000):
        h, w = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        k_occ, k_int = int(rng.integers(1, 700)), int(rng.integers(1, 700))
        spec = q.VoxelGridSpec(
            tuple(rng.normal(size=3)), tuple(rng.uniform(0.05, 1, 3)), (h, w, 2)
        )
        im = q.IndexMap(
            rng.integers(k_occ, size=(h, w)), rng.integers(k_int, size=(h, w)),
            k_occ, k_int, spec, q.PatchSpec(1, 1),
        )
        back, mask = q.deserialize(q.serialize(im, q.Pose()))
        ok &= back == im and mask.n_lost == 0
        if not ok:
            break

    # adversarial straddle fixture: the last cell's field crosses the final
    # packet boundary and owns every byte of the final packet
    from helpers import build_straddle_fixture

    w, bits, mtu = build_straddle_fixture()
    k = 1 << bits
    spec = q.VoxelGridSpec((0, 0, 0), (1, 1, 1), (1, w, 1))
    im = q.IndexMap(
        rng.integers(k, size=(1, w)), rng.integers(k, size=(1, w)),
        k, k, spec, q.PatchSpec(1, 1),
    )
    packets = q.packetize(q.serialize(im, q.Pose()), mtu)
    cb = q.Codebook.from_entries(rng.random((k, 1)))
    receiver = (spec, im.patch, cb, cb, q.FillPolicy.empty())
    _, _, mask = q.receive(packets[:-1], *receiver)  # drop the last packet
    straddle_exact = mask.n_lost == 1 and bool(mask.lost[0, w - 1])
    _, _, mask = q.receive(packets[:-2] + [packets[-1]], *receiver)  # drop the one before
    straddle_other = bool(mask.lost[0, w - 1])
    ok = ok and straddle_exact and straddle_other
    report("4 wire-bit-exactness", ok, f"1000 roundtrips, straddle cell lost both ways")


def test_c05_channel_statistics():
    packets = [q.Packet(0, i, i, b"x") for i in range(10_000)]
    delivered, rep = q.transmit(packets, q.ChannelConfig(drop_rate=0.3), 2025)
    bound = 3 * math.sqrt(0.3 * 0.7 / 10_000)
    frac_ok = abs(rep.drop_fraction - 0.3) <= bound
    _, rep2 = q.transmit(packets, q.ChannelConfig(drop_rate=0.3), 2025)
    det_ok = rep.dropped_seqs == rep2.dropped_seqs
    report(
        "5 channel-statistics",
        frac_ok and det_ok,
        f"drop fraction {rep.drop_fraction:.4f} in 0.3+-{bound:.4f}, deterministic={det_ok}",
    )


def test_c06_quantizer_convergence():
    rng = np.random.default_rng(60)
    mono_ok = True
    for _ in range(20):
        samples = rng.normal(size=(int(rng.integers(100, 300)), int(rng.integers(2, 5))))
        cfg = QuantizerConfig(
            k=int(rng.integers(2, 8)), dim=samples.shape[1], dead_limit=0,
            seed=int(rng.integers(1 << 31)), tol=0.0,
        )
        cb = train_codebook(samples, cfg)
        errs = cb.trace.errors
        refr = set(cb.trace.refresh_iters)
        mono_ok &= all(
            errs[i] <= errs[i - 1] + 1e-12 for i in range(1, len(errs)) if i not in refr
        )

    a = rng.normal([0, 0, 0], 0.05, size=(512, 3))
    b = rng.normal([8, 8, 8], 0.05, size=(512, 3))
    cb = train_codebook(np.vstack([a, b]), QuantizerConfig(k=2, dim=3, seed=5))
    means = sorted([a.mean(axis=0), b.mean(axis=0)], key=lambda m: m[0])
    got = sorted(cb.entries, key=lambda m: m[0])
    cluster_ok = np.allclose(got[0], means[0], atol=1e-6) and np.allclose(
        got[1], means[1], atol=1e-6
    )

    # dead-code refresh with dead_limit=256 on K=2-diverse data: the decoy
    # entry dies and is re-seeded inside a real cluster
    a = rng.normal([0, 0], 0.3, size=(512, 2))
    b = rng.normal([10, 10], 0.3, size=(512, 2))
    decoy = rng.normal([80, 80], 0.1, size=(10, 2))
    refreshed = None
    for seed in range(16):
        cb = train_codebook(
            np.vstack([a, b, decoy]),
            QuantizerConfig(k=2, dim=2, dead_limit=256, refresh_period=5, seed=seed),
        )
        if cb.trace.refresh_iters:
            refreshed = cb
            break
    dead_ok = refreshed is not None and bool((refreshed.usage >= 256).all())
    report(
        "6 quantizer-convergence",
        mono_ok and cluster_ok and dead_ok,
        f"monotone={mono_ok}, cluster-means={cluster_ok}, refresh-floor={dead_ok}",
    )


def test_c07_loss_rule_fidelity():
    spec = q.VoxelGridSpec((0, 0, 0), (0.2, 0.2, 0.2), (12, 8, 5))
    patch = q.PatchSpec(3, 2)
    ok = True
    for seed in range(25):
        mask = q.mask_random(4, 4, 0.35, seed=seed)
        grid = q.expand_to_grid(mask, patch, spec)
        ok &= int(grid.sum()) == mask.n_lost * 3 * 2 * 5
    report("7 loss-rule-fidelity", ok, "|lost| * p_h * p_w * L voxels on 25 masks")


def test_c08_mask_determinism():
    m1 = q.mask_random(32, 32, 0.3, seed=99)
    m2 = q.mask_random(32, 32, 0.3, seed=99)
    m3 = q.mask_random(32, 32, 0.3, seed=100)
    count_ok = m1.n_lost == math.floor(0.3 * 32 * 32)
    same_ok = np.array_equal(m1.lost, m2.lost)
    diff_ok = not np.array_equal(m1.lost, m3.lost)
    report(
        "8 mask-determinism",
        count_ok and same_ok and diff_ok,
        f"{m1.n_lost} cells, reproducible={same_ok}",
    )


def test_c09_degradation_monotonicity(desk_setup):
    t0 = time.monotonic()
    scenes, cb_occ, cb_int, fill_occ, fill_int = desk_setup
    p_values = [0.0, 0.1, 0.2, 0.3, 0.4]
    policies = {
        "learned_constant": q.FillPolicy.learned_constant(fill_occ, fill_int),
        "empty": q.FillPolicy.empty(),
    }
    means = {}
    for name, policy in policies.items():
        result = q.sweep(
            scenes, p_values, 30, cb_occ, cb_int, DESK_SPEC, DESK_PATCH, policy,
            mtu=128, master_seed=90,
        )
        means[name] = [agg["mean_chamfer"] for agg in result.aggregates]
    mono_ok = all(
        means[name][i + 1] >= means[name][i] * 0.95
        for name in policies
        for i in range(len(p_values) - 1)
    )
    better_ok = all(
        means["learned_constant"][i] < means["empty"][i]
        for i, p in enumerate(p_values)
        if p >= 0.2
    )
    elapsed = time.monotonic() - t0
    fmt = lambda xs: "[" + ", ".join(f"{x:.3f}" for x in xs) + "]"
    report(
        "9 degradation-monotonicity",
        mono_ok and better_ok and elapsed < 300.0,
        f"learned={fmt(means['learned_constant'])}, empty={fmt(means['empty'])}, {elapsed:.0f}s",
    )


def test_c10_confidence_filter():
    fixture = q.confidence_filter(np.array([[0.1, 0.2], [0.3, 0.4]]), 0.5, 0.0)
    fixture_ok = np.allclose(fixture, [[0.0, 0.0], [0.3, 0.4]])
    constant = q.confidence_filter(np.full((4, 4), 0.6), 0.5, 0.0)
    constant_ok = not constant.any()
    report(
        "10 confidence-filter",
        fixture_ok and constant_ok,
        f"fixture={fixture.tolist()}, constant-zeroed={constant_ok}",
    )


def test_c11_chamfer_oracle_equivalence():
    rng = np.random.default_rng(110)
    ok = True
    worst = 0.0
    for _ in range(100):
        a = q.PointCloud(np.column_stack([rng.normal(size=(50, 3)), rng.random(50)]))
        b = q.PointCloud(np.column_stack([rng.normal(size=(50, 3)), rng.random(50)]))
        d = np.linalg.norm(a.xyz[:, None, :] - b.xyz[None, :, :], axis=2)
        brute = 0.5 * (d.min(axis=1).mean() + d.min(axis=0).mean())
        fast = q.chamfer(a, b)
        worst = max(worst, abs(fast - brute))
        ok &= abs(fast - brute) <= 1e-9
        ok &= q.chamfer(a, b) == q.chamfer(b, a)
        t = np.array([2.0, -3.0, 1.0, 0.0])
        shifted = abs(
            q.chamfer(q.PointCloud(a.points + t), q.PointCloud(b.points + t)) - fast
        )
        ok &= shifted <= 1e-9
    report("11 chamfer-oracle", ok, f"max |fast - brute| = {worst:.2e}")
