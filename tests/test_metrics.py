from dataclasses import replace

import numpy as np
import pytest
from helpers import desk_spec, representable_scene, trained_codebooks_for

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

    def test_parallel_jobs_bit_identical(self, pipeline):
        spec, patch, cloud, cb_occ, cb_int, policy = pipeline
        serial = sweep([cloud], [0.0, 0.4], 3, cb_occ, cb_int, spec, patch, policy,
                       mtu=64, master_seed=8, jobs=1)
        parallel = sweep([cloud], [0.0, 0.4], 3, cb_occ, cb_int, spec, patch, policy,
                         mtu=64, master_seed=8, jobs=2)
        assert [r.to_json_dict() for r in serial.reports] == [
            r.to_json_dict() for r in parallel.reports
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
