"""Fidelity metrics and end-to-end roundtrip evaluation.

``chamfer`` is the symmetric mean nearest-neighbor distance (unsquared
Euclidean, halved, in meters).  ``evaluate_roundtrip`` runs one scene through
encode -> serialize -> packetize -> lossy channel -> reassemble -> fill ->
decode and reports fidelity plus communication volume.  It is two stages: a
sender stage (``_send``) that depends on the scene alone, and a trial.
``_send`` voxelizes the scene once, quantizes the frame from those truth
grids and returns them with the scene's Chamfer index (a k-d tree and the
points in its leaf order).  A trial is ``deliver`` (packetize -> channel), then
``reconstruct`` (receive -> fill -> decode), then the measurements;
``qpc simulate`` runs the same two functions.  Each of them defines one
sub-seed of the trial seed: index 1 for the channel, index 2 for the
decoder.  ``sweep`` runs the sender stage once per scene and a trial for
every ``(scene, drop rate, trial)`` index triple, with deterministically
derived seeds.

Chamfer threads: a process's CPU share is ``share = max(1, _cpus() //
workers)``, all the CPUs it may use outside a ``sweep`` pool.  A process
that runs ``n`` sweep trials overlaps them: the calling thread runs every
trial in index order and builds each reconstruction's k-d tree, and the two
exact nearest-neighbour queries of a trial then run on one of ``lanes =
min(share, n)`` helper threads, each query split over ``share // lanes``
threads, while the calling thread goes on to the next trial.  At most
``lanes`` trials wait for their queries.  ``evaluate_roundtrip`` overlaps
its k-d tree work with its own stages on one helper thread: the scene's
``_index`` builds there while the calling thread voxelizes and encodes, and
once ``reconstruct`` returns, the whole Chamfer (the reconstruction's tree
and both queries on all ``share`` CPUs) runs there while the calling thread
computes BCE and MSE.  ``chamfer`` queries inline on all ``share`` CPUs.  In
every case the calling thread runs each traced stage, and the helpers run
only ``_index``, ``_chamfer`` and ``_queries``.  Each point's distance is
computed alone and the means sum in point order, so the result does not
depend on the thread or lane count.
"""

from __future__ import annotations

import csv
import json
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from itertools import product

import numpy as np
from scipy.spatial import cKDTree

from .channel import ChannelConfig, transmit
from .codec import DecodeConfig, decode_grids, encode_grids, intensity_mse, occupancy_bce
from .geometry import (
    PatchSpec,
    PointCloud,
    VoxelGridSpec,
    assemble_grid,
    threshold_grids,
    voxelize,
)
from .quantizer import Codebook
from .seeds import derive_seed
from .tolerance import FillPolicy
from .wire import Frame, Pose, log2_volume, packetize, receive, serialize

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


def _index(xyz: np.ndarray):
    """The k-d tree of the points ``xyz`` (n, 3) and the points in the tree's
    leaf order.  The tree keeps ``xyz`` itself as its ``data`` when that is
    C-contiguous float64, else a copy."""
    tree = cKDTree(xyz, balanced_tree=False)
    return tree, tree.data[tree.indices]


def _cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has
    one, else ``os.cpu_count()``, and at least 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chamfer(tree, leaf_xyz, b_xyz, threads: int) -> float:
    """``chamfer`` from the first cloud's ``_index`` and its points in the
    tree's leaf order to the points ``b_xyz``, each query split over
    ``threads`` threads."""
    return _queries(tree, leaf_xyz, cKDTree(b_xyz, balanced_tree=False), threads)


def _queries(tree, leaf_xyz, b_tree, threads: int) -> float:
    """``_chamfer`` once both trees are built.  The first cloud's points are
    queried in leaf order, so consecutive queries visit nearby parts of b's
    tree, and the distances are scattered back to the cloud's order, so both
    means sum in the order the plain per-point queries give."""
    d_ab = np.empty(len(leaf_xyz))
    d_ab[tree.indices] = b_tree.query(leaf_xyz, k=1, workers=threads)[0]
    d_ba, _ = tree.query(b_tree.data, k=1, workers=threads)
    return 0.5 * (float(np.mean(d_ab)) + float(np.mean(d_ba)))


def chamfer(a: PointCloud, b: PointCloud) -> float:
    """0.5 * (mean_A min-dist-to-B + mean_B min-dist-to-A), exact nearest
    neighbors; raises on an empty cloud."""
    if len(a) == 0 or len(b) == 0:
        raise ValueError("chamfer distance is undefined for empty clouds")
    return _chamfer(*_index(a.xyz), b.xyz, _cpus())


def _send(scene, cb_occ, cb_int, spec, patch, index):
    """Sender stage: the scene's truth grids, the frame quantized from them,
    and the scene's ``_index``, which the zero-argument ``index`` returns
    once the frame is built."""
    occ, inten, _ = voxelize(scene, spec)
    frame = serialize(encode_grids(occ, inten, patch, cb_occ, cb_int), Pose())
    return (occ, inten, frame, *index())


def deliver(frame: Frame, channel_cfg: ChannelConfig, mtu: int, seed: int):
    """The trial's sender side: ``frame``'s packets at ``mtu`` through the
    channel, seeded with sub-seed 1 of ``seed``.  Returns the delivered
    packets and the ``ChannelReport``."""
    return transmit(packetize(frame, mtu), replace(channel_cfg, seed=derive_seed(seed, 1)))


def reconstruct(
    delivered, spec: VoxelGridSpec, patch: PatchSpec, cb_occ: Codebook, cb_int: Codebook,
    policy: FillPolicy, decode_cfg: DecodeConfig, seed: int,
):
    """The trial's receiver side: ``receive`` the delivered packets, assemble
    the occupancy grid once, threshold both grids and decode with sub-seed 2
    of ``seed``.  Returns the ``LossMask``, the raw occupancy tensor, the
    intensity grid and the decoded cloud."""
    occ_vec, int_vec, mask = receive(delivered, spec, patch, cb_occ, cb_int, policy)
    occ_raw = assemble_grid(occ_vec, patch, spec)
    occ, inten = threshold_grids(occ_raw, assemble_grid(int_vec, patch, spec), spec)
    cloud = decode_grids(occ, inten, replace(decode_cfg, seed=derive_seed(seed, 2)))
    return mask, occ_raw, inten, cloud


def _trial(sent, cb_occ, cb_int, spec, patch, channel_cfg, decode_cfg, fill_policy, seed, mtu,
           start_chamfer):
    """Per-trial stage on a ``_send`` result: ``deliver`` -> ``reconstruct``
    -> measure, deterministic given ``seed``.  Once the reconstruction
    exists, and before BCE and MSE, ``start_chamfer(tree, leaf_xyz, recon)``
    starts its Chamfer against the scene's ``_index`` and returns a
    zero-argument function for the distance.  Returns the report with its
    ``chamfer_m`` still unset and that function, or None when either cloud
    is empty."""
    occ_truth, int_truth, frame, tree, leaf_xyz = sent
    delivered, _report = deliver(frame, channel_cfg, mtu, seed)
    mask, occ_raw, inten, recon = reconstruct(
        delivered, spec, patch, cb_occ, cb_int, fill_policy, decode_cfg, seed
    )
    measure = start_chamfer(tree, leaf_xyz, recon) if len(leaf_xyz) and len(recon) else None
    bce = occupancy_bce(occ_truth, occ_raw)
    mse = intensity_mse(int_truth, inten, occ_truth) if occ_truth.n_occupied else None
    report = EvalReport(
        chamfer_m=None,
        occupancy_bce=bce,
        intensity_mse=mse,
        comm_log2_bytes=log2_volume(frame.payload_nbits),
        cell_loss_rate=mask.cell_loss_rate,
        seed=seed,
        status=STATUS_OK if measure else STATUS_EMPTY,
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
    return report, measure


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
) -> EvalReport:
    """One full transmit-and-reconstruct measurement, deterministic given
    ``seed`` (channel and decoder sub-seeds are derived from it).  One
    helper thread builds the scene's ``_index`` while this thread voxelizes
    and encodes, then runs the Chamfer while this thread measures BCE and
    MSE; an error on either thread propagates, after the helper has
    stopped."""
    cpus = _cpus()
    # memory the helper frees stays in its own malloc arena, out of this thread's
    # reach, so the point arrays both trees keep are copied here
    contiguous = np.ascontiguousarray
    with ThreadPoolExecutor(1) as helper:
        sent = _send(scene, cb_occ, cb_int, spec, patch,
                     helper.submit(_index, contiguous(scene.xyz)).result)
        report, measure = _trial(
            sent, cb_occ, cb_int, spec, patch, channel_cfg, decode_cfg, fill_policy, seed, mtu,
            lambda tree, leaf_xyz, recon: helper.submit(
                _chamfer, tree, leaf_xyz, contiguous(recon.xyz), cpus).result,
        )
        if measure:
            report.chamfer_m = measure()
    return report


@dataclass
class SweepResult:
    reports: list  # EvalReport per (scene, p, trial), in that nesting order
    aggregates: list  # one dict per entry of p_values


def _queries_later(tree, leaf_xyz, recon, threads):
    """A sweep trial's ``start_chamfer``: builds the reconstruction's tree
    on this thread and leaves both queries, on ``threads`` threads, to the
    returned function."""
    return partial(_queries, tree, leaf_xyz, cKDTree(recon.xyz, balanced_tree=False), threads)


def _sweep_trial(index, threads, *, sent, channels, master_seed, **common):
    """The sweep trial at ``index = (scene_idx, p_idx, trial)``, as ``_trial``
    returns it."""
    si, pi, trial = index
    seed = derive_seed(master_seed, si, pi, trial)
    return _trial(sent[si], channel_cfg=channels[pi], seed=seed,
                  start_chamfer=partial(_queries_later, threads=threads), **common)


def _pipeline(run, indices, share: int) -> list:
    """The reports of ``run`` at every index, in order, on ``share`` CPUs, by
    the lane rule of the module docstring.  Before it hands off a trial's
    queries, this thread finishes the report ``lanes`` hand-offs back."""
    lanes = min(share, len(indices))
    reports, pending = [], deque()
    with ThreadPoolExecutor(lanes) as helpers:
        for index in indices:
            report, measure = run(index, share // lanes)
            reports.append(report)
            if measure:
                if len(pending) == lanes:
                    done, future = pending.popleft()
                    done.chamfer_m = future.result()
                pending.append((report, helpers.submit(measure)))
        for done, future in pending:
            done.chamfer_m = future.result()
    return reports


_worker_run = None  # a pool worker's ``_pipeline`` over its chunks, set once by ``_init_worker``
_CHUNK = 8  # consecutive trial indices per pool task


def _init_worker(run) -> None:
    global _worker_run
    _worker_run = run


def _run_in_worker(chunk):
    return _worker_run(chunk)


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
    master_seed: int = 0,
    jobs: int = 1,
) -> SweepResult:
    """Evaluate every (scene, drop rate, trial) combination.

    Each scene goes through the sender stage once (one voxelization, one
    encoding, one k-d tree); each trial then runs from its index triple
    with seed ``derive_seed(master_seed, scene_idx, p_idx, trial)``, so
    results are reproducible and independent of ``jobs`` (>= 1; the worker
    count is capped at the trial count and at ``_cpus()``, the CPUs this
    process may use, and each worker receives the sender-stage results and
    codebooks once, then chunks of consecutive trial indices).  Each process
    overlaps a trial's Chamfer with its next trials by the lane rule of the
    module docstring; no lane or thread count changes a result.  Every drop
    rate is validated before any scene is encoded.  There is one aggregate
    per entry of ``p_values``, a repeated drop rate included.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if len(p_values) == 0:
        raise ValueError("need at least one drop rate")
    channels = [ChannelConfig(p) for p in p_values]
    sent = [_send(scene, cb_occ, cb_int, spec, patch, partial(_index, scene.xyz))
            for scene in scenes]
    if not sent:
        raise ValueError("need at least one scene")
    indices = list(product(range(len(sent)), range(len(p_values)), range(trials)))
    cpus = _cpus()
    workers = min(jobs, len(indices), cpus)
    share = max(1, cpus // workers)
    run = partial(
        _sweep_trial, sent=sent, channels=channels, master_seed=master_seed,
        cb_occ=cb_occ, cb_int=cb_int, spec=spec, patch=patch,
        decode_cfg=decode_cfg or DecodeConfig(), fill_policy=fill_policy, mtu=mtu,
    )
    if workers > 1:
        chunks = [indices[i : i + _CHUNK] for i in range(0, len(indices), _CHUNK)]
        worker_run = partial(_pipeline, run, share=share)
        with ProcessPoolExecutor(workers, initializer=_init_worker, initargs=(worker_run,)) as pool:
            reports = [r for chunk in pool.map(_run_in_worker, chunks) for r in chunk]
    else:
        reports = _pipeline(run, indices, share)

    aggregates = []
    for pi, p in enumerate(p_values):
        group = [r for (_si, i, _t), r in zip(indices, reports) if i == pi]
        chams = [r.chamfer_m for r in group if r.chamfer_m is not None]
        aggregates.append(
            {
                "p": p,
                "n": len(group),
                "n_failed": sum(1 for r in group if r.status != STATUS_OK),
                "mean_chamfer": float(np.mean(chams)) if chams else None,
                "std_chamfer": float(np.std(chams)) if chams else None,
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
