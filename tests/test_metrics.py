import math
from dataclasses import replace

import numpy as np
import pytest
from helpers import desk_spec, representable_scene, trained_codebooks_for

from qpcomm import metrics
from qpcomm.channel import ChannelConfig, transmit
from qpcomm.codec import DecodeConfig, decode_vectors, encode, occupancy_bce
from qpcomm.geometry import PatchSpec, PointCloud, assemble_grid, voxelize
from qpcomm.metrics import (
    STATUS_EMPTY,
    STATUS_OK,
    chamfer,
    evaluate_roundtrip,
    sweep,
    write_reports_jsonl,
    write_summary_csv,
)
from qpcomm.quantizer import Codebook
from qpcomm.seeds import derive_seed
from qpcomm.tolerance import FillPolicy, fit_fill_vector
from qpcomm.wire import HEADER_LEN, Pose, comm_volume_log2_bytes, packetize, serialize


def brute_chamfer(a, b):
    d = np.linalg.norm(a.xyz[:, None, :] - b.xyz[None, :, :], axis=2)
    return 0.5 * (d.min(axis=1).mean() + d.min(axis=0).mean())


def random_cloud(rng, n=50):
    return PointCloud(np.column_stack([rng.normal(size=(n, 3)), rng.random(n)]))


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


    @pytest.mark.parametrize("kind", ["empty", "learned_constant", "neighbor_copy"])
    def test_header_loss_decodes_the_fill_constants(self, pipeline, kind):
        spec, patch, cloud, cb_occ, cb_int, learned = pipeline
        policy = FillPolicy(kind, learned.fill_occ, learned.fill_int)
        channel = ChannelConfig(drop_rate=0.5)
        packets = packetize(serialize(encode(cloud, spec, patch, cb_occ, cb_int), Pose()), 64)

        def header_lost_payload_kept(seed):
            delivered, _ = transmit(packets, replace(channel, seed=derive_seed(seed, 1)))
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
        recon = decode_vectors(
            occ_vec, int_vec, spec, patch, DecodeConfig(seed=derive_seed(seed, 2))
        )
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
            assert agg["std_chamfer"] == pytest.approx(np.std(chams), abs=1e-12)

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

    def test_parallel_jobs_bit_identical(self, pipeline, monkeypatch):
        spec, patch, cloud, cb_occ, cb_int, policy = pipeline
        monkeypatch.setattr(metrics.os, "cpu_count", lambda: 2)  # a real two-worker pool
        scenes = [cloud, PointCloud(cloud.points[::2])]
        p_values = [0.0, 0.4, 0.4]
        serial = sweep(scenes, p_values, 3, cb_occ, cb_int, spec, patch, policy,
                       mtu=64, master_seed=8, jobs=1)
        parallel = sweep(scenes, p_values, 3, cb_occ, cb_int, spec, patch, policy,
                         mtu=64, master_seed=8, jobs=2)
        assert len(serial.reports) == 18
        assert [r.to_json_dict() for r in serial.reports] == [
            r.to_json_dict() for r in parallel.reports
        ]
        assert serial.aggregates == parallel.aggregates

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
        calls = []

        def counting_encode(scene, *args):
            calls.append(scene)
            return encode(scene, *args)

        monkeypatch.setattr(metrics, "encode", counting_encode)
        scenes = [cloud, PointCloud(cloud.points[::2])]
        result = sweep(scenes, [0.0, 0.5], 2, cb_occ, cb_int, spec, patch, policy, mtu=64)
        assert len(result.reports) == 8
        assert len(calls) == len(scenes) and all(c is s for c, s in zip(calls, scenes))

    def test_repeated_drop_rate_aggregated_per_entry(self, pipeline):
        spec, patch, cloud, cb_occ, cb_int, policy = pipeline
        result = sweep([cloud, cloud], [0.3, 0.3], 1, cb_occ, cb_int, spec, patch, policy,
                       mtu=64, master_seed=7)
        assert [agg["n"] for agg in result.aggregates] == [2, 2]
        assert [agg["p"] for agg in result.aggregates] == [0.3, 0.3]
        # reports 0 and 2 are p entry 0, reports 1 and 3 are p entry 1
        first = [result.reports[0].cell_loss_rate, result.reports[2].cell_loss_rate]
        assert result.aggregates[0]["mean_cell_loss_rate"] == float(np.mean(first))

    def test_empty_scenes_rejected(self, pipeline):
        spec, patch, cloud, cb_occ, cb_int, policy = pipeline
        with pytest.raises(ValueError, match="scene"):
            sweep([], [0.3], 1, cb_occ, cb_int, spec, patch, policy)

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_validated(self, pipeline, jobs):
        spec, patch, cloud, cb_occ, cb_int, policy = pipeline
        with pytest.raises(ValueError, match="jobs"):
            sweep([cloud], [0.0], 1, cb_occ, cb_int, spec, patch, policy, jobs=jobs)

    @pytest.mark.parametrize(
        "jobs,n_scenes,cpus,expected",
        [(64, 1, 8, 3), (2, 1, 8, 2), (64, 2, 4, 4), (64, 1, None, None), (3, 1, 1, None)],
    )
    def test_worker_count_capped(self, pipeline, monkeypatch, jobs, n_scenes, cpus, expected):
        # expected None: a single worker, so the trials run in this process
        spec, patch, cloud, cb_occ, cb_int, policy = pipeline
        started = []

        class FakeExecutor:
            """Records the worker count and runs the trials in this process."""

            def __init__(self, max_workers, initializer, initargs):
                started.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                return map(fn, iterable)

        monkeypatch.setattr(metrics, "ProcessPoolExecutor", FakeExecutor)
        monkeypatch.setattr(metrics, "_worker_run", None)
        monkeypatch.setattr(metrics.os, "cpu_count", lambda: cpus)
        scenes = [cloud] * n_scenes
        result = sweep(scenes, [0.0, 0.5, 1.0], 1, cb_occ, cb_int, spec, patch, policy,
                       mtu=64, master_seed=9, jobs=jobs)
        assert started == ([] if expected is None else [expected])
        serial = sweep(scenes, [0.0, 0.5, 1.0], 1, cb_occ, cb_int, spec, patch, policy,
                       mtu=64, master_seed=9)
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
