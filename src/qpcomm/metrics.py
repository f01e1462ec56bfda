"""Fidelity metrics and end-to-end roundtrip evaluation.

``chamfer`` is the symmetric mean nearest-neighbor distance (unsquared
Euclidean, halved, in meters).  ``evaluate_roundtrip`` runs one scene through
encode -> serialize -> packetize -> lossy channel -> reassemble -> fill ->
decode and reports fidelity plus communication volume.  It is two stages: a
sender stage (truth grids, encode, serialize) that depends on the scene alone,
and a per-trial stage (channel onwards).  ``sweep`` runs the sender stage once
per scene and the trial stage for every ``(scene, drop rate, trial)`` index
triple, with deterministically derived seeds.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from itertools import product

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
from .wire import POSE_BITS, Pose, packetize, receive, serialize

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
        return asdict(self)


def chamfer(a: PointCloud, b: PointCloud) -> float:
    """0.5 * (mean_A min-dist-to-B + mean_B min-dist-to-A), exact nearest
    neighbors; raises on an empty cloud."""
    if len(a) == 0 or len(b) == 0:
        raise ValueError("chamfer distance is undefined for empty clouds")
    d_ab, _ = cKDTree(b.xyz).query(a.xyz, k=1)
    d_ba, _ = cKDTree(a.xyz).query(b.xyz, k=1)
    return 0.5 * (float(np.mean(d_ab)) + float(np.mean(d_ba)))


def _send(scene, cb_occ, cb_int, spec, patch, pose=None):
    """Sender stage: the scene, its truth grids and the frame encoding it."""
    occ_truth, int_truth, _ = voxelize(scene, spec)
    frame = serialize(encode(scene, spec, patch, cb_occ, cb_int), pose or Pose())
    return scene, occ_truth, int_truth, frame


def _trial(sent, cb_occ, cb_int, spec, patch, channel_cfg, decode_cfg, fill_policy, seed, mtu):
    """Per-trial stage on a ``_send`` result: packetize -> lossy channel ->
    receive -> decode -> measure, deterministic given ``seed``."""
    scene, occ_truth, int_truth, frame = sent
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
        comm_log2_bytes=math.log2((frame.payload_nbits + POSE_BITS) / 8),
        cell_loss_rate=mask.cell_loss_rate,
        seed=seed,
        status=status,
        config={
            "drop_rate": channel_cfg.drop_rate,
            "mtu": mtu,
            "fill": fill_policy.kind,
            "sigma": decode_cfg.resolved_sigma(spec),
            "points_per_voxel": decode_cfg.points_per_voxel,
            "k_occ": frame.k_occ,
            "k_int": frame.k_int,
        },
    )


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
    sent = _send(scene, cb_occ, cb_int, spec, patch, pose)
    return _trial(
        sent, cb_occ, cb_int, spec, patch, channel_cfg, decode_cfg, fill_policy, seed, mtu
    )


@dataclass
class SweepResult:
    reports: list  # EvalReport per (scene, p, trial), in that nesting order
    aggregates: list  # one dict per entry of p_values


def _sweep_trial(index, *, sent, p_values, master_seed, channel_cfg, **common):
    """The sweep trial at ``index = (scene_idx, p_idx, trial)``."""
    si, pi, trial = index
    cfg = replace(channel_cfg, drop_rate=p_values[pi])
    return _trial(sent[si], channel_cfg=cfg, seed=derive_seed(master_seed, si, pi, trial), **common)


_worker_run = None  # a pool worker's bound ``_sweep_trial``, set once by ``_init_worker``


def _init_worker(run) -> None:
    global _worker_run
    _worker_run = run


def _run_in_worker(index):
    return _worker_run(index)


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

    Each scene is encoded once; each trial then runs from its index triple
    with seed ``derive_seed(master_seed, scene_idx, p_idx, trial)``, so
    results are reproducible and independent of ``jobs`` (>= 1; the worker
    count is capped at the trial and CPU counts, and each worker receives
    the encoded scenes and codebooks once).  There is one aggregate per
    entry of ``p_values``, a repeated drop rate included.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    sent = [_send(scene, cb_occ, cb_int, spec, patch) for scene in scenes]
    if not sent:
        raise ValueError("need at least one scene")
    channel_cfg = ChannelConfig(drop_rate=0.0, latency_ms=latency_ms, jitter_ms=jitter_ms)
    run = partial(
        _sweep_trial, sent=sent, p_values=list(p_values), master_seed=master_seed,
        channel_cfg=channel_cfg, cb_occ=cb_occ, cb_int=cb_int, spec=spec, patch=patch,
        decode_cfg=decode_cfg or DecodeConfig(), fill_policy=fill_policy, mtu=mtu,
    )
    indices = list(product(range(len(sent)), range(len(p_values)), range(trials)))
    workers = min(jobs, len(indices), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(workers, initializer=_init_worker, initargs=(run,)) as pool:
            reports = list(pool.map(_run_in_worker, indices, chunksize=8))
    else:
        reports = [run(index) for index in indices]

    aggregates = []
    for pi, p in enumerate(p_values):
        group = [r for (_si, i, _t), r in zip(indices, reports) if i == pi]
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
        for (sid, p, trial), r in zip(product(scene_ids, p_values, range(trials)), reports,
                                      strict=True):
            values = (r.chamfer_m, r.occupancy_bce, r.intensity_mse, r.comm_log2_bytes,
                      r.cell_loss_rate)
            writer.writerow([sid, p, trial, *map(_fmt, values)])


def _fmt(v):
    return "" if v is None else repr(float(v))
