"""Fidelity metrics and end-to-end roundtrip evaluation.

``chamfer`` is the symmetric mean nearest-neighbor distance (unsquared
Euclidean, halved, in meters).  ``evaluate_roundtrip`` runs one scene through
encode -> serialize -> packetize -> lossy channel -> reassemble -> fill ->
decode and reports fidelity plus communication volume; ``sweep`` repeats that
over scenes x drop rates x trials with deterministically derived seeds.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.spatial import cKDTree

from .channel import ChannelConfig, transmit
from .codec import DecodeConfig, decode_vectors, encode, intensity_mse, occupancy_bce
from .geometry import (
    PatchSpec,
    PointCloud,
    VoxelGridSpec,
    assemble_grid,
    unpatchify,
    voxelize,
)
from .quantizer import Codebook
from .seeds import derive_seed
from .tolerance import FillPolicy
from .wire import Pose, bits_for, packetize, receive, serialize

STATUS_OK = "ok"
STATUS_EMPTY = "empty_reconstruction"


@dataclass
class EvalReport:
    chamfer_m: float | None
    occupancy_bce: float | None
    intensity_mse: float | None
    comm_log2_bytes: float
    cell_loss_rate: float
    seed: int
    status: str = STATUS_OK
    config: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "chamfer_m": self.chamfer_m,
            "occupancy_bce": self.occupancy_bce,
            "intensity_mse": self.intensity_mse,
            "comm_log2_bytes": self.comm_log2_bytes,
            "cell_loss_rate": self.cell_loss_rate,
            "seed": self.seed,
            "status": self.status,
            "config": self.config,
        }


def chamfer(a: PointCloud, b: PointCloud) -> float:
    """0.5 * (mean_A min-dist-to-B + mean_B min-dist-to-A), exact nearest
    neighbors; raises on an empty cloud."""
    if len(a) == 0 or len(b) == 0:
        raise ValueError("chamfer distance is undefined for empty clouds")
    d_ab, _ = cKDTree(b.xyz).query(a.xyz, k=1)
    d_ba, _ = cKDTree(a.xyz).query(b.xyz, k=1)
    return 0.5 * (float(np.mean(d_ab)) + float(np.mean(d_ba)))


def _volume_field(n_cells: int, k_occ: int, k_int: int) -> float:
    bits = n_cells * (bits_for(k_occ) + bits_for(k_int)) + 6 * 32
    return math.log2(bits / 8.0)


def evaluate_roundtrip(
    scene: PointCloud,
    cb_occ: Codebook,
    cb_int: Codebook,
    spec: VoxelGridSpec,
    patch: PatchSpec,
    channel_cfg: ChannelConfig,
    decode_cfg: DecodeConfig,
    fill_policy: FillPolicy,
    seed: int,
    mtu: int = 1200,
    pose: Pose | None = None,
) -> EvalReport:
    """One full transmit-and-reconstruct measurement, deterministic given
    ``seed`` (channel and decoder sub-seeds are derived from it)."""
    occ_truth, int_truth, _ = voxelize(scene, spec)
    im = encode(scene, spec, patch, cb_occ, cb_int)
    frame = serialize(im, pose or Pose())
    packets = packetize(frame, mtu)
    delivered, _report = transmit(packets, replace(channel_cfg, seed=derive_seed(seed, 1)))
    occ_vec, int_vec, mask = receive(delivered, spec, patch, cb_occ, cb_int, fill_policy)
    dec_cfg = replace(decode_cfg, seed=derive_seed(seed, 2))
    recon = decode_vectors(occ_vec, int_vec, spec, patch, dec_cfg)

    bce = occupancy_bce(occ_truth, assemble_grid(occ_vec, patch, spec))
    _occ_rec, int_rec = unpatchify(occ_vec, int_vec, patch, spec)
    mse = (
        intensity_mse(int_truth, int_rec, occ_truth) if occ_truth.n_occupied else None
    )
    if len(scene) and len(recon):
        cd = chamfer(scene, recon)
        status = STATUS_OK
    else:
        cd = None
        status = STATUS_EMPTY
    return EvalReport(
        chamfer_m=cd,
        occupancy_bce=bce,
        intensity_mse=mse,
        comm_log2_bytes=_volume_field(im.n_cells, im.k_occ, im.k_int),
        cell_loss_rate=mask.cell_loss_rate,
        seed=seed,
        status=status,
        config={
            "drop_rate": channel_cfg.drop_rate,
            "mtu": mtu,
            "fill": fill_policy.kind,
            "sigma": decode_cfg.resolved_sigma(spec),
            "points_per_voxel": decode_cfg.points_per_voxel,
            "k_occ": im.k_occ,
            "k_int": im.k_int,
        },
    )


@dataclass
class SweepResult:
    reports: list  # EvalReport per (scene, p, trial), in that nesting order
    aggregates: list  # one dict per drop rate

    def reports_for(self, p: float) -> list:
        return [r for r in self.reports if r.config["drop_rate"] == p]


def _run_trial(args):
    (scene, cb_occ, cb_int, spec, patch, p, latency_ms, jitter_ms, fill_policy,
     decode_cfg, mtu, trial_seed) = args
    return evaluate_roundtrip(
        scene,
        cb_occ,
        cb_int,
        spec,
        patch,
        ChannelConfig(drop_rate=p, latency_ms=latency_ms, jitter_ms=jitter_ms),
        decode_cfg,
        fill_policy,
        seed=trial_seed,
        mtu=mtu,
    )


def sweep(
    scenes,
    p_values,
    trials: int,
    cb_occ: Codebook,
    cb_int: Codebook,
    spec: VoxelGridSpec,
    patch: PatchSpec,
    fill_policy: FillPolicy,
    decode_cfg: DecodeConfig | None = None,
    mtu: int = 1200,
    latency_ms: float = 0.0,
    jitter_ms: float = 0.0,
    master_seed: int = 0,
    jobs: int = 1,
) -> SweepResult:
    """Evaluate every (scene, drop rate, trial) combination.

    Trial seeds are ``derive_seed(master_seed, scene_idx, p_idx, trial)``, so
    results are reproducible and independent of ``jobs``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    decode_cfg = decode_cfg or DecodeConfig()
    tasks = []
    for si, scene in enumerate(scenes):
        for pi, p in enumerate(p_values):
            for trial in range(trials):
                tasks.append(
                    (scene, cb_occ, cb_int, spec, patch, p, latency_ms, jitter_ms,
                     fill_policy, decode_cfg, mtu,
                     derive_seed(master_seed, si, pi, trial))
                )
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(_run_trial, tasks, chunksize=8))
    else:
        reports = [_run_trial(t) for t in tasks]

    aggregates = []
    for p in p_values:
        group = [r for r in reports if r.config["drop_rate"] == p]
        chams = [r.chamfer_m for r in group if r.chamfer_m is not None]
        bces = [r.occupancy_bce for r in group if r.occupancy_bce is not None]
        mses = [r.intensity_mse for r in group if r.intensity_mse is not None]
        aggregates.append(
            {
                "p": p,
                "n": len(group),
                "n_failed": sum(1 for r in group if r.status != STATUS_OK),
                "mean_chamfer": float(np.mean(chams)) if chams else None,
                "std_chamfer": float(np.std(chams)) if chams else None,
                "mean_bce": float(np.mean(bces)) if bces else None,
                "mean_mse": float(np.mean(mses)) if mses else None,
                "mean_cell_loss_rate": float(np.mean([r.cell_loss_rate for r in group])),
            }
        )
    return SweepResult(reports, aggregates)


def write_reports_jsonl(path, reports) -> None:
    with open(path, "w") as fh:
        for r in reports:
            fh.write(json.dumps(r.to_json_dict(), sort_keys=True) + "\n")


def write_summary_csv(path, reports, scene_ids, trials: int, p_values) -> None:
    """One row per (scene, p, trial), matching the report nesting order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["scene", "p", "trial", "chamfer_m", "bce", "mse", "log2_bytes", "cell_loss_rate"]
        )
        it = iter(reports)
        for sid in scene_ids:
            for p in p_values:
                for trial in range(trials):
                    r = next(it)
                    writer.writerow(
                        [
                            sid,
                            p,
                            trial,
                            _fmt(r.chamfer_m),
                            _fmt(r.occupancy_bce),
                            _fmt(r.intensity_mse),
                            _fmt(r.comm_log2_bytes),
                            _fmt(r.cell_loss_rate),
                        ]
                    )


def _fmt(v):
    return "" if v is None else repr(float(v))
