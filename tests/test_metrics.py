import math
import sys
import threading
import time
import tracemalloc
from itertools import product

import numpy as np
import pytest
from helpers import (
    dense_voxelize,
    desk_spec,
    dividing,
    missing_bytes,
    reference_bce,
    reference_chamfer,
    reference_intensity_mse,
    reference_reconstruct,
    representable_scene,
    trained_codebooks_for,
    vector_rows,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from qpcomm import metrics
from qpcomm.channel import ChannelConfig, transmit
from qpcomm.codec import (
    DecodeConfig,
    decode_voxels,
    encode,
    encode_voxels,
    occupancy_bce,
    occupancy_bce_rows,
)
from qpcomm.geometry import (
    OccupancyGrid,
    PatchSpec,
    PointCloud,
    VoxelGridSpec,
    assemble_grid,
    occupied_voxels,
    threshold_voxels,
    voxelize,
)
from qpcomm.metrics import (
    STATUS_EMPTY,
    STATUS_OK,
    chamfer,
    evaluate_roundtrip,
    sweep,
    write_reports_jsonl,
    write_summary_csv,
)
from qpcomm.quantizer import KIND_INT, Codebook
from qpcomm.seeds import derive_seed
from qpcomm.tolerance import POLICIES, FillPolicy, fill, fit_fill_vector
from qpcomm.wire import (
    MIN_MTU,
    HEADER_LEN,
    Pose,
    comm_volume_log2_bytes,
    deserialize,
    packetize,
    receive,
    serialize,
)


def brute_chamfer(a, b):
    d = np.linalg.norm(a.xyz[:, None, :] - b.xyz[None, :, :], axis=2)
    return 0.5 * (d.min(axis=1).mean() + d.min(axis=0).mean())


def random_cloud(rng, n=50):
    return PointCloud(np.column_stack([rng.normal(size=(n, 3)), rng.random(n)]))


def recording_tree(workers):
    """A ``cKDTree`` whose queries append their ``workers`` to ``workers``."""

    class RecordingTree(cKDTree):
        def query(self, *args, **kwargs):
            workers.append(kwargs.get("workers", 1))
            return super().query(*args, **kwargs)

    return RecordingTree


# the layer functions a trial calls, and those the benchmark's tracer wraps,
# each as (defining module, name)
LAYER_FUNCTIONS = [
    ("qpcomm.quantizer", "quantize"),
    ("qpcomm.quantizer", "assign"),
    ("qpcomm.metrics", "chamfer"),
    ("qpcomm.metrics", "evaluate_roundtrip"),
    ("qpcomm.geometry", "occupied_voxels"),
    ("qpcomm.geometry", "patch_positions"),
    ("qpcomm.geometry", "voxelize"),
    ("qpcomm.geometry", "patchify"),
    ("qpcomm.geometry", "assemble_grid"),
    ("qpcomm.geometry", "threshold_voxels"),
    ("qpcomm.codec", "encode"),
    ("qpcomm.codec", "encode_voxels"),
    ("qpcomm.codec", "decode_voxels"),
    ("qpcomm.codec", "occupancy_bce"),
    ("qpcomm.codec", "occupancy_bce_rows"),
    ("qpcomm.codec", "intensity_mse"),
    ("qpcomm.tolerance", "fill"),
    ("qpcomm.tolerance", "fill_rows"),
    ("qpcomm.wire", "serialize"),
    ("qpcomm.wire", "packetize"),
    ("qpcomm.wire", "deserialize"),
    ("qpcomm.wire", "receive"),
    ("qpcomm.channel", "transmit"),
]


class TestChamfer:
    def test_identical_zero(self):
        rng = np.random.default_rng(0)
        a = random_cloud(rng)
        assert chamfer(a, a) == 0.0

    def test_single_pair(self):
        a = PointCloud(np.array([[0.0, 0.0, 0.0, 0.0]]))
        b = PointCloud(np.array([[1.0, 0.0, 0.0, 0.0]]))
        assert chamfer(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a, b = random_cloud(rng), random_cloud(rng)
            assert chamfer(a, b) == pytest.approx(brute_chamfer(a, b), abs=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        a, b = random_cloud(rng), random_cloud(rng)
        assert chamfer(a, b) == chamfer(b, a)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(3)
        a, b = random_cloud(rng), random_cloud(rng)
        t = np.array([3.0, -1.5, 0.25, 0.0])
        at = PointCloud(a.points + t)
        bt = PointCloud(b.points + t)
        assert chamfer(at, bt) == pytest.approx(chamfer(a, b), abs=1e-9)

    @pytest.mark.parametrize("n_a,n_b", [(60, 45), (1, 30), (30, 1), (1, 1)])
    def test_scene_index_bit_equal(self, n_a, n_b):
        # the trial's cached-index path against the public function and the
        # first implementation, on clouds with duplicate points; one index
        # serves several clouds, as one scene's index serves every trial
        rng = np.random.default_rng(n_a * 1000 + n_b)

        def with_duplicates(n):
            grid = rng.integers(0, 4, size=(n, 3)) * 0.5  # many equal distances
            pts = np.column_stack([grid, rng.random(n)])
            return PointCloud(np.vstack([pts, pts[: n // 3]]))

        a = with_duplicates(n_a)
        index = metrics._index(a.xyz)
        for _ in range(3):
            b = with_duplicates(n_b)
            got = metrics._chamfer(*index, cKDTree(b.xyz, balanced_tree=False), 1)
            assert got == chamfer(a, b) == reference_chamfer(a, b)
            assert got == pytest.approx(brute_chamfer(a, b), abs=1e-12)

    def test_threads_bit_equal(self):
        # clouds of 20k+ points with duplicates and many equal distances, so
        # scipy splits both queries into one range per thread
        rng = np.random.default_rng(21)

        def with_duplicates(n):
            grid = rng.integers(0, 40, size=(n, 3)) * 0.05
            jitter = rng.normal(scale=1e-3, size=(n, 3)) * (rng.random((n, 1)) < 0.5)
            pts = np.column_stack([grid + jitter, rng.random(n)])
            return PointCloud(np.vstack([pts, pts[: n // 4]]))

        a, b = with_duplicates(20_000), with_duplicates(24_000)
        index, b_tree = metrics._index(a.xyz), cKDTree(b.xyz, balanced_tree=False)
        expected = reference_chamfer(a, b)
        for threads in (1, 2, 3, 8):
            assert metrics._chamfer(*index, b_tree, threads) == expected
        assert chamfer(a, b) == expected

    def test_uses_every_usable_cpu(self, monkeypatch):
        workers = []
        monkeypatch.setattr(metrics, "cKDTree", recording_tree(workers))
        monkeypatch.setattr(metrics, "_cpus", lambda: 5)
        rng = np.random.default_rng(5)
        a, b = random_cloud(rng), random_cloud(rng)
        assert chamfer(a, b) == reference_chamfer(a, b)
        assert workers == [5, 5]

    def test_without_a_cpu_count(self, monkeypatch):
        # no affinity mask and no CPU count: one thread
        monkeypatch.setattr(metrics.os, "cpu_count", lambda: None)
        monkeypatch.delattr(metrics.os, "sched_getaffinity", raising=False)
        assert metrics._cpus() == 1
        rng = np.random.default_rng(6)
        a, b = random_cloud(rng), random_cloud(rng)
        assert chamfer(a, b) == reference_chamfer(a, b)

    def test_empty_errors(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            chamfer(PointCloud.empty(), random_cloud(rng))


@pytest.fixture(scope="module")
def pipeline():
    spec = desk_spec((8, 8, 2))
    patch = PatchSpec(2, 2)
    cloud, occ_vec, int_vec = representable_scene(spec, patch, n_patterns=5, seed=5)
    cb_occ, cb_int = trained_codebooks_for(occ_vec, int_vec, k=8, seed=6)
    dim = patch.vector_dim(spec)
    policy = FillPolicy.learned_constant(
        fit_fill_vector(occ_vec.reshape(-1, dim)), fit_fill_vector(int_vec.reshape(-1, dim))
    )
    return spec, patch, cloud, cb_occ, cb_int, policy


def test_sender_builds_no_dense_grid():
    # a 512 x 512 x 32 grid, where one float64 (H, W, L) array takes 64 MB,
    # and 4,000 points in a 0.2 m ground slab: the sender's peak stays below
    # that one array.  The search's score blocks and rerank batches are sized
    # by _BLOCK, not by the grid, so a much smaller grid could not show the bound.
    spec = VoxelGridSpec((0.0, 0.0, 0.0), (0.1, 0.1, 0.1), (512, 512, 32))
    patch = PatchSpec(4, 4)
    rng = np.random.default_rng(31)
    n = 4000
    cloud = PointCloud(np.column_stack([rng.uniform(0.0, 51.2, (n, 2)), rng.uniform(0.0, 0.2, n),
                                        rng.random(n)]))
    dim = patch.vector_dim(spec)
    entries = np.where(rng.random((64, dim)) < 0.02, 1.0, 0.0)
    entries[0] = 0.0
    cb_occ, cb_int = Codebook.from_entries(entries), Codebook.from_entries(entries / 2, KIND_INT)
    tracemalloc.start()
    try:
        truth, frame = metrics._send(cloud, cb_occ, cb_int, spec, patch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert truth.ids.size > 3000 and frame.payload_nbits == 2 * 128 * 128 * 6
    assert peak < 8 * spec.n_voxels, peak


def _receiver_setup():
    """The sender test's grid and scene, with codebooks whose every entry
    holds one occupied voxel, so each of the 128 x 128 cells decodes a point:
    the scene's ``Voxels``, its packets and the receiver's arguments."""
    spec = VoxelGridSpec((0.0, 0.0, 0.0), (0.1, 0.1, 0.1), (512, 512, 32))
    patch = PatchSpec(4, 4)
    rng = np.random.default_rng(31)
    n = 4000
    cloud = PointCloud(np.column_stack([rng.uniform(0.0, 51.2, (n, 2)), rng.uniform(0.0, 0.2, n),
                                        rng.random(n)]))
    dim = patch.vector_dim(spec)
    entries = np.zeros((64, dim))
    entries[np.arange(64), rng.integers(dim, size=64)] = 1.0
    cb_occ, cb_int = Codebook.from_entries(entries), Codebook.from_entries(entries / 2, KIND_INT)
    truth, frame = metrics._send(cloud, cb_occ, cb_int, spec, patch)
    return truth, packetize(frame, frame.total_nbytes), (spec, patch, cb_occ, cb_int)


def test_receiver_builds_one_dense_grid():
    # the receiver keeps row ids into (K + 1, D) tables and builds no vector
    # grid or (H, W, L) array, so reconstruct's peak stays below a quarter of
    # one float64 (H, W, L) array (the vector grids and the assembled
    # occupancy tensor peaked at 3.13 such arrays)
    _, packets, (spec, patch, cb_occ, cb_int) = _receiver_setup()
    tracemalloc.start()
    try:
        _, occ, voxels, recon = metrics.reconstruct(
            packets, spec, patch, cb_occ, cb_int, FillPolicy.empty(), DecodeConfig(), 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert occ.ids.shape == (128, 128) and len(recon) == voxels.ids.size == 128 * 128
    assert peak < 0.25 * 8 * spec.n_voxels, peak


def test_trial_bce_builds_one_term_array():
    # BCE gathers each voxel's term from the occupancy rows into one float64
    # (H, W, L) array and takes the logs of the table only, so its peak stays
    # below 1.25 such arrays (the dense clip and logs peaked at 2.13)
    truth, packets, (spec, patch, cb_occ, cb_int) = _receiver_setup()
    _, occ, _, _ = metrics.reconstruct(
        packets, spec, patch, cb_occ, cb_int, FillPolicy.empty(), DecodeConfig(), 0)
    tracemalloc.start()
    try:
        bce = occupancy_bce_rows(truth, occ, patch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bce == occupancy_bce(truth.occupancy(), assemble_grid(occ.vectors(), patch, spec))
    assert peak < 1.25 * 8 * spec.n_voxels, peak


# values at the receiver's edges: the occupancy threshold and just below it,
# the ends of the intensity clamp and beyond them, and -0.0
EDGE_VALUES = np.array([0.5, np.nextafter(0.5, 0.0), 0.0, -0.0, 1.0, 1.5, -0.25])


@st.composite
def layouts(draw):
    """A grid of at most 8 x 8 x 4 voxels and a patch that tiles it."""
    dims = draw(st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(1, 4)))
    return dims, PatchSpec(draw(dividing(dims[0])), draw(dividing(dims[1])))


@settings(max_examples=60, deadline=None)
@given(
    layout=layouts(),
    k=st.sampled_from([1, 2, 3, 5, 8]),
    kind=st.sampled_from(POLICIES),
    p=st.sampled_from([0.0, 0.3, 1.0]),
    sigma=st.sampled_from([None, 0.0, 0.3]),
    ppv=st.integers(1, 3),
    clip=st.booleans(),
    n_points=st.integers(0, 40),
    seed=st.integers(0, 2**31 - 1),
)
# h = 1 and p_w = 1, where assemble_grid returns a view that is not C-ordered
@example(layout=((2, 2, 3), PatchSpec(2, 1)), k=3, kind="neighbor_copy", p=0.3, sigma=None, ppv=1,
         clip=True, n_points=12, seed=5)
def test_reconstruct_equals_the_dense_oracle(layout, k, kind, p, sigma, ppv, clip, n_points, seed):
    # codebook entries and fill vectors mix EDGE_VALUES with values in
    # [-0.5, 1.5]; a drop rate of 1 loses the header, so every cell is filled
    dims, patch = layout
    spec = desk_spec(dims)
    rng = np.random.default_rng(seed)
    dim = patch.vector_dim(spec)

    def edged(shape):
        return np.where(rng.random(shape) < 0.5, rng.choice(EDGE_VALUES, shape),
                        rng.uniform(-0.5, 1.5, shape))

    cb_occ = Codebook.from_entries(edged((k, dim)))
    cb_int = Codebook.from_entries(edged((k, dim)), KIND_INT)
    policy = FillPolicy(kind, edged(dim), edged(dim))
    cfg = DecodeConfig(sigma, ppv, clip)
    xyz = (rng.integers(0, dims, (n_points, 3)) + rng.random((n_points, 3))) * spec.cell
    cloud = PointCloud(np.column_stack([xyz, rng.random(n_points)]))
    channel = ChannelConfig(p)

    _, frame = metrics._send(cloud, cb_occ, cb_int, spec, patch)
    delivered, _ = metrics.deliver(frame, channel, MIN_MTU, seed)
    # the received rows, expanded, are fill of what deserialize decodes
    want_im, want_mask = deserialize(frame, missing_bytes(delivered, frame.total_nbytes))
    *rows, mask = receive(delivered, spec, patch, cb_occ, cb_int, policy)
    assert mask.lost.tobytes() == want_mask.lost.tobytes()
    for got, want_vectors in zip(rows, fill(want_im, want_mask, policy, cb_occ, cb_int),
                                 strict=True):
        assert got.table[got.ids].tobytes() == want_vectors.tobytes()

    args = (delivered, spec, patch, cb_occ, cb_int, policy, cfg, derive_seed(seed, 2))
    recon = metrics.reconstruct(*args)[3]
    want_raw, want_inten, want = reference_reconstruct(*args)
    assert recon.points.tobytes() == want.points.tobytes()

    report = evaluate_roundtrip(cloud, cb_occ, cb_int, spec, patch, channel, cfg, policy,
                                seed=seed, mtu=MIN_MTU)
    occ, inten, _ = dense_voxelize(cloud, spec)
    assert report.intensity_mse == (reference_intensity_mse(occ, inten, want_inten)
                                    if occ.any() else None)
    assert report.occupancy_bce == reference_bce(OccupancyGrid(spec, occ), want_raw)


class TestEvaluateRoundtrip:
    def test_lossless_regime(self, pipeline):
        spec, patch, cloud, cb_occ, cb_int, policy = pipeline
        rep = evaluate_roundtrip(
            cloud, cb_occ, cb_int, spec, patch,
            ChannelConfig(drop_rate=0.0),
            DecodeConfig(sigma=0.0), policy, seed=1, mtu=64,
        )
        assert rep.status == STATUS_OK
        assert rep.chamfer_m <= spec.voxel_diagonal
        assert rep.occupancy_bce <= 1e-6
        assert rep.cell_loss_rate == 0.0

    def test_total_loss_empty_fill(self, pipeline):
        spec, patch, cloud, cb_occ, cb_int, _ = pipeline
        rep = evaluate_roundtrip(
            cloud, cb_occ, cb_int, spec, patch,
            ChannelConfig(drop_rate=1.0),
            DecodeConfig(), FillPolicy.empty(), seed=1, mtu=64,
        )
        assert rep.status == STATUS_EMPTY
        assert rep.chamfer_m is None
        assert rep.cell_loss_rate == 1.0

    def test_comm_field_matches_formula(self, pipeline):
        spec, patch, cloud, cb_occ, cb_int, policy = pipeline
        rep = evaluate_roundtrip(
            cloud, cb_occ, cb_int, spec, patch,
            ChannelConfig(drop_rate=0.0),
            DecodeConfig(), policy, seed=2, mtu=64,
        )
        h, w = patch.latent_shape(spec)
        assert rep.comm_log2_bytes == comm_volume_log2_bytes(h * w, cb_occ.k)

        # K = 100: 7-bit fields, outside the power-of-two volume formula;
        # the padding entries sit far from every vector and are never chosen
        pad = np.full((100 - cb_occ.k, cb_occ.dim), 1e3)
        cb100 = [Codebook.from_entries(np.vstack([cb.entries, pad]), cb.kind)
                 for cb in (cb_occ, cb_int)]
        rep = evaluate_roundtrip(
            cloud, *cb100, spec, patch, ChannelConfig(drop_rate=0.0),
            DecodeConfig(), policy, seed=2, mtu=64,
        )
        assert (rep.config["k_occ"], rep.config["k_int"]) == (100, 100)
        assert rep.comm_log2_bytes == math.log2((h * w * (7 + 7) + 6 * 32) / 8)

    def test_deterministic(self, pipeline):
        spec, patch, cloud, cb_occ, cb_int, policy = pipeline
        args = (cloud, cb_occ, cb_int, spec, patch, ChannelConfig(drop_rate=0.5),
                DecodeConfig(), policy)
        a = evaluate_roundtrip(*args, seed=9, mtu=64)
        b = evaluate_roundtrip(*args, seed=9, mtu=64)
        assert a.to_json_dict() == b.to_json_dict()

    def test_k_d_tree_work_overlaps_the_traced_stages(self, pipeline, monkeypatch):
        # the sender's occupied_voxels waits until the helper builds the scene
        # index, and BCE until the helper starts the Chamfer: without the
        # overlap, both would time out
        spec, patch, cloud, cb_occ, cb_int, policy = pipeline
        indexed, chamfer_started, waits = threading.Event(), threading.Event(), []
        index, chamfer_ = metrics._index, metrics._chamfer
        voxels_, bce = metrics.occupied_voxels, metrics.occupancy_bce_rows

        def signal(event, fn):
            def run(*args):
                event.set()
                return fn(*args)

            return run

        def wait_for(event, fn):
            def run(*args):
                waits.append(event.wait(timeout=10))
                return fn(*args)

            return run

        monkeypatch.setattr(metrics, "_index", signal(indexed, index))
        monkeypatch.setattr(metrics, "_chamfer", signal(chamfer_started, chamfer_))
        monkeypatch.setattr(metrics, "occupied_voxels", wait_for(indexed, voxels_))
        monkeypatch.setattr(metrics, "occupancy_bce_rows", wait_for(chamfer_started, bce))
        rep = evaluate_roundtrip(cloud, cb_occ, cb_int, spec, patch, ChannelConfig(0.0),
                                 DecodeConfig(), policy, seed=1, mtu=64)
        assert waits == [True, True] and rep.chamfer_m is not None

    @pytest.mark.parametrize("where", ["_index", "_chamfer"])
    def test_helper_error_propagates(self, pipeline, monkeypatch, where):
        spec, patch, cloud, cb_occ, cb_int, policy = pipeline

        def fail(*args):
            raise RuntimeError(f"{where} failed")

        monkeypatch.setattr(metrics, where, fail)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"{where} failed"):
            evaluate_roundtrip(cloud, cb_occ, cb_int, spec, patch, ChannelConfig(0.0),
                               DecodeConfig(), policy, seed=1, mtu=64)
        assert threading.active_count() == before

    def test_calling_thread_error_propagates(self, pipeline, monkeypatch):
        spec, patch, cloud, cb_occ, cb_int, policy = pipeline
        before = threading.active_count()
        # quantize's error while the helper builds the scene index
        narrow = Codebook.from_entries(cb_occ.entries[:, :-1])
        with pytest.raises(ValueError, match="codebook dim"):
            evaluate_roundtrip(cloud, narrow, cb_int, spec, patch, ChannelConfig(0.0),
                               DecodeConfig(), policy, seed=1, mtu=64)
        assert threading.active_count() == before

        # BCE's error while the helper runs the Chamfer
        def fail(*args):
            raise ValueError("bce failed")

        monkeypatch.setattr(metrics, "occupancy_bce_rows", fail)
        with pytest.raises(ValueError, match="bce failed"):
            evaluate_roundtrip(cloud, cb_occ, cb_int, spec, patch, ChannelConfig(0.0),
                               DecodeConfig(), policy, seed=1, mtu=64)
        assert threading.active_count() == before

    def test_helper_stops_after_each_call(self, pipeline):
        spec, patch, cloud, cb_occ, cb_int, policy = pipeline
        before = threading.active_count()
        for p, fill in [(0.0, policy), (1.0, FillPolicy.empty())]:  # measured, then empty
            evaluate_roundtrip(cloud, cb_occ, cb_int, spec, patch, ChannelConfig(p),
                               DecodeConfig(), fill, seed=1, mtu=64)
            assert threading.active_count() == before


    @pytest.mark.parametrize("kind", ["empty", "learned_constant", "neighbor_copy"])
    def test_header_loss_decodes_the_fill_constants(self, pipeline, kind):
        spec, patch, cloud, cb_occ, cb_int, learned = pipeline
        policy = FillPolicy(kind, learned.fill_occ, learned.fill_int)
        channel = ChannelConfig(drop_rate=0.5)
        packets = packetize(serialize(encode(cloud, spec, patch, cb_occ, cb_int), Pose()), 64)

        def header_lost_payload_kept(seed):
            delivered, _ = transmit(packets, channel, derive_seed(seed, 1))
            offsets = {p.byte_offset for p in delivered}
            return not {0, 64} <= offsets and packets[-1].byte_offset in offsets

        assert packets[1].byte_offset + len(packets[1].payload) > HEADER_LEN
        seed = next(s for s in range(1000) if header_lost_payload_kept(s))
        rep = evaluate_roundtrip(
            cloud, cb_occ, cb_int, spec, patch, channel, DecodeConfig(), policy, seed=seed, mtu=64
        )
        assert rep.cell_loss_rate == 1.0
        dim = patch.vector_dim(spec)
        shape = (*patch.latent_shape(spec), dim)
        empty = kind == "empty"
        occ_vec = np.broadcast_to(np.zeros(dim) if empty else learned.fill_occ, shape)
        int_vec = np.broadcast_to(np.zeros(dim) if empty else learned.fill_int, shape)
        truth = voxelize(cloud, spec).occupancy
        assert rep.occupancy_bce == occupancy_bce(truth, assemble_grid(occ_vec, patch, spec))
        voxels = threshold_voxels(vector_rows(occ_vec), vector_rows(int_vec), patch, spec)
        recon = decode_voxels(voxels, DecodeConfig(), derive_seed(seed, 2))
        assert rep.chamfer_m == (chamfer(cloud, recon) if len(recon) else None)
        assert (rep.chamfer_m is None) == empty


class TestSweep:
    def test_single_condition_matches_direct_eval(self, pipeline):
        spec, patch, cloud, cb_occ, cb_int, policy = pipeline
        result = sweep(
            [cloud], [0.0], 1, cb_occ, cb_int, spec, patch, policy,
            mtu=64, master_seed=3,
        )
        assert len(result.reports) == 1
        agg = result.aggregates[0]
        assert agg["mean_chamfer"] == result.reports[0].chamfer_m
        assert agg["n"] == 1 and agg["n_failed"] == 0

    def test_reaggregation_oracle(self, pipeline):
        spec, patch, cloud, cb_occ, cb_int, policy = pipeline
        result = sweep(
            [cloud], [0.0, 0.5], 4, cb_occ, cb_int, spec, patch, policy,
            mtu=64, master_seed=4,
        )
        for agg in result.aggregates:
            group = [r for r in result.reports if r.config["drop_rate"] == agg["p"]]
            chams = [r.chamfer_m for r in group if r.chamfer_m is not None]
            assert agg["mean_chamfer"] == pytest.approx(np.mean(chams), abs=1e-12)

    def test_derived_seeds_deterministic(self, pipeline):
        spec, patch, cloud, cb_occ, cb_int, policy = pipeline
        r1 = sweep([cloud], [0.3], 3, cb_occ, cb_int, spec, patch, policy,
                   mtu=64, master_seed=5)
        r2 = sweep([cloud], [0.3], 3, cb_occ, cb_int, spec, patch, policy,
                   mtu=64, master_seed=5)
        assert [r.seed for r in r1.reports] == [r.seed for r in r2.reports]
        assert [r.chamfer_m for r in r1.reports] == [r.chamfer_m for r in r2.reports]
        # distinct trials use distinct seeds
        assert len({r.seed for r in r1.reports}) == 3

    def test_trials_validated(self, pipeline):
        spec, patch, cloud, cb_occ, cb_int, policy = pipeline
        with pytest.raises(ValueError):
            sweep([cloud], [0.0], 0, cb_occ, cb_int, spec, patch, policy)
        # checked before any index triple is built
        for trials in (metrics.MAX_TRIALS + 1, 10**30):
            with pytest.raises(ValueError, match="trials must lie in"):
                sweep([cloud], [0.0], trials, cb_occ, cb_int, spec, patch, policy)

    @pytest.mark.parametrize("n_scenes, n_rates", [(2, 1), (1, 2)])
    def test_total_trials_bounded_before_any_trial(self, pipeline, monkeypatch, n_scenes,
                                                   n_rates):
        # every (scene, drop rate, trial) triple counts, not just each group's trials
        spec, patch, cloud, cb_occ, cb_int, policy = pipeline
        monkeypatch.setattr(metrics, "MAX_TRIALS", 3)

        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(metrics, "_roundtrips", no_trial)
        with pytest.raises(ValueError, match="exceed 3 trials"):
            sweep([cloud] * n_scenes, [0.0] * n_rates, 2, cb_occ, cb_int, spec, patch, policy)

    def test_default_decode_config(self, pipeline):
        spec, patch, cloud, cb_occ, cb_int, policy = pipeline
        args = ([cloud], [0.0, 0.5], 2, cb_occ, cb_int, spec, patch, policy)
        assert sweep(*args, mtu=64) == sweep(*args, DecodeConfig(), mtu=64)

    def test_reports_match_evaluate_roundtrip_per_index(self, pipeline):
        spec, patch, cloud, cb_occ, cb_int, policy = pipeline
        scenes = [cloud, PointCloud(cloud.points[::2])]
        p_values, trials, master = [0.0, 0.5], 2, 12
        result = sweep(scenes, p_values, trials, cb_occ, cb_int, spec, patch, policy,
                       mtu=64, master_seed=master)
        it = iter(result.reports)
        for si, scene in enumerate(scenes):
            for pi, p in enumerate(p_values):
                for trial in range(trials):
                    direct = evaluate_roundtrip(
                        scene, cb_occ, cb_int, spec, patch, ChannelConfig(drop_rate=p),
                        DecodeConfig(), policy, seed=derive_seed(master, si, pi, trial), mtu=64,
                    )
                    assert next(it).to_json_dict() == direct.to_json_dict()
        assert next(it, None) is None

    def test_encodes_each_scene_once(self, pipeline, monkeypatch):
        spec, patch, cloud, cb_occ, cb_int, policy = pipeline
        encoded, voxelized, trees = [], [], []

        def spy(calls, fn):
            def record(first, *args, **kwargs):
                calls.append(first)
                return fn(first, *args, **kwargs)

            return record

        monkeypatch.setattr(metrics, "encode_voxels", spy(encoded, encode_voxels))
        monkeypatch.setattr(metrics, "occupied_voxels", spy(voxelized, occupied_voxels))
        monkeypatch.setattr(metrics, "cKDTree", spy(trees, cKDTree))
        scenes = [cloud, PointCloud(cloud.points[::2])]
        result = sweep(scenes, [0.0, 0.5], 2, cb_occ, cb_int, spec, patch, policy, mtu=64)
        assert len(result.reports) == 8
        assert len(voxelized) == len(scenes) and all(v is s for v, s in zip(voxelized, scenes))
        # each scene is quantized from the voxels of its one voxelization
        assert len(encoded) == len(scenes)
        for voxels, scene in zip(encoded, scenes):
            occ, inten, _ = voxelize(scene, spec)
            assert np.array_equal(voxels.occupancy().data, occ.data)
            assert np.array_equal(voxels.intensity().data, inten.data)
        # one tree per scene, plus one per trial over its reconstruction
        assert [sum(np.array_equal(t, s.xyz) for t in trees) for s in scenes] == [1, 1]
        n_measured = sum(r.chamfer_m is not None for r in result.reports)
        assert len(trees) == len(scenes) + n_measured

    def test_empty_scene_gives_status_empty(self, pipeline):
        spec, patch, cloud, cb_occ, cb_int, policy = pipeline
        result = sweep([PointCloud.empty(), cloud], [0.0], 1, cb_occ, cb_int, spec, patch,
                       policy, mtu=64)
        empty, full = result.reports
        assert empty.status == STATUS_EMPTY and empty.chamfer_m is None
        assert empty.intensity_mse is None
        assert full.status == STATUS_OK
        assert result.aggregates[0]["n_failed"] == 1

    def test_repeated_drop_rate_aggregated_per_entry(self, pipeline):
        spec, patch, cloud, cb_occ, cb_int, policy = pipeline
        result = sweep([cloud, cloud], [0.3, 0.3], 1, cb_occ, cb_int, spec, patch, policy,
                       mtu=64, master_seed=7)
        assert [agg["n"] for agg in result.aggregates] == [2, 2]
        assert [agg["p"] for agg in result.aggregates] == [0.3, 0.3]
        # reports 0 and 2 are p entry 0, reports 1 and 3 are p entry 1
        first = [result.reports[0].cell_loss_rate, result.reports[2].cell_loss_rate]
        assert result.aggregates[0]["mean_cell_loss_rate"] == float(np.mean(first))

    def test_scenes_from_a_generator(self, pipeline):
        spec, patch, cloud, cb_occ, cb_int, policy = pipeline
        scenes = [cloud, PointCloud(cloud.points[::2])]
        args = ([0.0, 0.5], 2, cb_occ, cb_int, spec, patch, policy)
        listed = sweep(scenes, *args, mtu=64, master_seed=5)
        generated = sweep((s for s in scenes), *args, mtu=64, master_seed=5)
        assert [r.to_json_dict() for r in generated.reports] == [
            r.to_json_dict() for r in listed.reports
        ]
        assert generated.aggregates == listed.aggregates

    def test_empty_scenes_rejected(self, pipeline):
        spec, patch, cloud, cb_occ, cb_int, policy = pipeline
        with pytest.raises(ValueError, match="scene"):
            sweep([], [0.3], 1, cb_occ, cb_int, spec, patch, policy)

    @pytest.mark.parametrize("trials", [1, 3, 6])
    @pytest.mark.parametrize("cpus", [1, 2, 5, 8])
    def test_chamfer_threads_share_the_cpus(self, pipeline, monkeypatch, cpus, trials):
        # lanes = min(cpus, trials) lanes of cpus // lanes threads each
        spec, patch, cloud, cb_occ, cb_int, policy = pipeline
        serial = sweep([cloud], [0.0], trials, cb_occ, cb_int, spec, patch, policy,
                       mtu=64, master_seed=9)
        queries = []
        monkeypatch.setattr(metrics, "cKDTree", recording_tree(queries))
        monkeypatch.setattr(metrics, "_cpus", lambda: cpus)
        result = sweep([cloud], [0.0], trials, cb_occ, cb_int, spec, patch, policy,
                       mtu=64, master_seed=9)
        n_measured = sum(r.chamfer_m is not None for r in result.reports)
        assert n_measured == trials
        assert queries == [cpus // min(cpus, trials)] * (2 * n_measured)
        assert [r.to_json_dict() for r in result.reports] == [
            r.to_json_dict() for r in serial.reports
        ]
        queries.clear()  # one trial: one lane on every CPU
        evaluate_roundtrip(cloud, cb_occ, cb_int, spec, patch, ChannelConfig(0.0),
                           DecodeConfig(), policy, seed=1, mtu=64)
        assert queries == [cpus, cpus]

    def test_workers_follow_the_affinity_mask(self, pipeline, monkeypatch):
        # one allowed CPU on an 8-CPU machine: one lane of one Chamfer thread
        spec, patch, cloud, cb_occ, cb_int, policy = pipeline
        queries = []
        monkeypatch.setattr(metrics, "cKDTree", recording_tree(queries))
        monkeypatch.setattr(metrics.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(metrics.os, "cpu_count", lambda: 8)
        result = sweep([cloud], [0.0, 0.5], 1, cb_occ, cb_int, spec, patch, policy,
                       mtu=64, master_seed=3)
        n_measured = sum(r.chamfer_m is not None for r in result.reports)
        assert n_measured and queries == [1] * (2 * n_measured)

    @pytest.mark.parametrize("lanes", [1, 2, None])  # None: evaluate_roundtrip, not sweep
    def test_traced_layers_stay_on_the_calling_thread(self, pipeline, monkeypatch, lanes):
        # every binding of a layer function in a qpcomm module is spied on, as the
        # benchmark's tracer wraps them; only k-d tree work leaves this thread:
        # the scene indexes and the queries
        spec, patch, cloud, cb_occ, cb_int, policy = pipeline
        callers, index_threads, query_threads = [], [], []

        def spy(fn):
            def record(*args, **kwargs):
                callers.append((fn.__name__, threading.get_ident()))
                return fn(*args, **kwargs)

            return record

        for module, name in LAYER_FUNCTIONS:
            original = getattr(sys.modules[module], name)
            wrapper = spy(original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is not None and mod_name.split(".")[0] == "qpcomm":
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            monkeypatch.setattr(mod, key, wrapper)
        index, queries = metrics._index, metrics._chamfer

        def indexed(*args):
            index_threads.append(threading.get_ident())
            return index(*args)

        def query(*args):
            query_threads.append(threading.get_ident())
            return queries(*args)

        monkeypatch.setattr(metrics, "_index", indexed)
        monkeypatch.setattr(metrics, "_chamfer", query)
        monkeypatch.setattr(metrics, "_cpus", lambda: lanes or 2)  # sweeps of 12 trials
        scenes = [cloud, PointCloud(cloud.points[::2])]
        here = threading.get_ident()
        if lanes is None:
            reports = [
                metrics.evaluate_roundtrip(scene, cb_occ, cb_int, spec, patch, ChannelConfig(p),
                                           DecodeConfig(), policy, seed=seed, mtu=64)
                for scene, p, seed in product(scenes, [0.0, 0.5], range(3))
            ]
        else:
            reports = sweep(scenes, [0.0, 0.5], 3, cb_occ, cb_int, spec, patch, policy,
                            mtu=64, master_seed=2).reports
        assert {name for name, _ in callers} >= {
            "occupied_voxels", "encode_voxels", "assign", "transmit", "fill_rows",
            "occupancy_bce_rows"}
        assert {ident for _, ident in callers} == {here}
        n_measured = sum(r.chamfer_m is not None for r in reports)
        assert len(query_threads) == n_measured > 0 and here not in query_threads
        # one scene index per call of evaluate_roundtrip, or per scene of a sweep
        assert len(index_threads) == (len(reports) if lanes is None else len(scenes))
        assert here not in index_threads

    def test_pending_chamfers_bounded_by_lanes(self, pipeline, monkeypatch):
        # slow queries: this thread runs ahead until `lanes` trials wait for theirs;
        # each trial hands its Chamfer off before its BCE
        spec, patch, cloud, cb_occ, cb_int, policy = pipeline
        lock, made, finished, peaks = threading.Lock(), [0], [0], []
        bce, chamfer_ = metrics.occupancy_bce_rows, metrics._chamfer

        def counted_bce(*args):
            with lock:
                made[0] += 1
                peaks.append(made[0] - finished[0])
            return bce(*args)

        def slow_chamfer(*args):
            time.sleep(0.1)
            d = chamfer_(*args)
            with lock:
                finished[0] += 1
            return d

        monkeypatch.setattr(metrics, "occupancy_bce_rows", counted_bce)
        monkeypatch.setattr(metrics, "_chamfer", slow_chamfer)
        monkeypatch.setattr(metrics, "_cpus", lambda: 2)
        result = sweep([cloud], [0.0, 0.3], 3, cb_occ, cb_int, spec, patch, policy,
                       mtu=64, master_seed=1)
        lanes = 2  # min(2 CPUs, 6 trials)
        assert made[0] == finished[0] == 6
        assert max(peaks) == lanes
        assert all(r.chamfer_m is not None for r in result.reports)

    def test_more_lanes_than_cores_match_one_lane(self, pipeline, monkeypatch):
        # 8 lanes share one scene tree, with thread switches as often as possible
        spec, patch, cloud, cb_occ, cb_int, policy = pipeline
        scenes, p_values = [cloud, PointCloud(cloud.points[::2])], [0.0, 0.3, 0.6]
        monkeypatch.setattr(metrics, "_cpus", lambda: 1)
        one_lane = sweep(scenes, p_values, 4, cb_occ, cb_int, spec, patch, policy, mtu=64)
        monkeypatch.setattr(metrics, "_cpus", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            many = sweep(scenes, p_values, 4, cb_occ, cb_int, spec, patch, policy, mtu=64)
        finally:
            sys.setswitchinterval(interval)
        assert [r.to_json_dict() for r in many.reports] == [
            r.to_json_dict() for r in one_lane.reports
        ]

    def test_query_error_propagates(self, pipeline, monkeypatch):
        spec, patch, cloud, cb_occ, cb_int, policy = pipeline
        calls, queries = [], metrics._chamfer

        def failing_query(*args):
            calls.append(None)
            if len(calls) == 2:
                raise RuntimeError("query failed")
            return queries(*args)

        monkeypatch.setattr(metrics, "_chamfer", failing_query)
        monkeypatch.setattr(metrics, "_cpus", lambda: 2)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="query failed"):
            sweep([cloud], [0.0, 0.3], 3, cb_occ, cb_int, spec, patch, policy, mtu=64)
        assert threading.active_count() == before

    def test_drop_rates_validated_before_the_sender_stage(self, pipeline, monkeypatch):
        spec, patch, cloud, cb_occ, cb_int, policy = pipeline
        sends, original = [], metrics._send

        def send(*args):
            sends.append(args)
            return original(*args)

        monkeypatch.setattr(metrics, "_send", send)
        with pytest.raises(ValueError, match="drop_rate"):
            sweep([cloud, cloud], [0.3, 1.5], 2, cb_occ, cb_int, spec, patch, policy, mtu=64)
        assert sends == []

    def test_empty_drop_rates_rejected_before_the_sender_stage(self, pipeline, monkeypatch):
        spec, patch, cloud, cb_occ, cb_int, policy = pipeline
        sends = []
        monkeypatch.setattr(metrics, "_send", lambda *args: sends.append(args))
        with pytest.raises(ValueError, match="drop rate"):
            sweep([cloud], [], 1, cb_occ, cb_int, spec, patch, policy, mtu=64)
        assert sends == []

    def test_without_a_cpu_count(self, pipeline, monkeypatch):
        spec, patch, cloud, cb_occ, cb_int, policy = pipeline
        serial = sweep([cloud], [0.0, 0.5], 2, cb_occ, cb_int, spec, patch, policy,
                       mtu=64, master_seed=4)
        monkeypatch.setattr(metrics.os, "cpu_count", lambda: None)
        monkeypatch.delattr(metrics.os, "sched_getaffinity", raising=False)
        result = sweep([cloud], [0.0, 0.5], 2, cb_occ, cb_int, spec, patch, policy,
                       mtu=64, master_seed=4)
        assert [r.to_json_dict() for r in result.reports] == [
            r.to_json_dict() for r in serial.reports
        ]

    def test_report_files(self, pipeline, tmp_path):
        import csv as csv_mod
        import json

        spec, patch, cloud, cb_occ, cb_int, policy = pipeline
        result = sweep([cloud], [0.0, 1.0], 2, cb_occ, cb_int, spec, patch, policy,
                       mtu=64, master_seed=6)
        jsonl = tmp_path / "r.jsonl"
        write_reports_jsonl(jsonl, result.reports)
        lines = jsonl.read_text().strip().split("\n")
        assert len(lines) == 4
        parsed = [json.loads(line) for line in lines]
        assert all("chamfer_m" in p for p in parsed)

        csv_path = tmp_path / "r.csv"
        write_summary_csv(csv_path, result.reports, ["sceneA"], 2, [0.0, 1.0])
        with open(csv_path) as fh:
            rows = list(csv_mod.reader(fh))
        assert rows[0] == [
            "scene", "p", "trial", "chamfer_m", "bce", "mse", "log2_bytes", "cell_loss_rate",
        ]
        assert len(rows) == 5
        assert rows[1][0] == "sceneA"
        with pytest.raises(ValueError):  # fewer reports than (scene, p, trial) rows
            write_summary_csv(csv_path, result.reports[:-1], ["sceneA"], 2, [0.0, 1.0])
