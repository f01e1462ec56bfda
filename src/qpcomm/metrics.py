"""Fidelity metrics and end-to-end roundtrip evaluation.

``chamfer`` is the symmetric mean nearest-neighbor distance (unsquared
Euclidean, halved, in meters).  ``evaluate_roundtrip`` runs one scene through
encode -> serialize -> packetize -> lossy channel -> receive -> fill ->
decode and reports fidelity plus communication volume.  It is two stages: a
sender stage (``_send``) that depends on the scene alone, and a trial.
``_send`` finds the scene's occupied voxels once, the sparse truth every
trial measures against, and quantizes the frame from their patch-vector
nonzeros; no dense grid is built before the channel.  The receiver keeps
each stream as ``CellRows``, (h, w) row ids into a (K + 1, D) table, and
its reconstruction, which intensity MSE and the decoder read, is a
``Voxels`` like the truth.  A trial's one grid-sized array is BCE's (H, W,
L) array of per-voxel terms.  A trial is ``deliver`` (packetize ->
channel), then ``reconstruct`` (receive -> fill -> decode), then the
measurements; ``qpc simulate`` runs the same two
functions, and ``qpc decode`` runs ``reconstruct`` on all of its frame's
packets.  Each stage that draws takes its seed as an argument; no config
carries one.  ``deliver`` takes the trial seed and passes its sub-seed 1
to ``transmit``; ``reconstruct`` takes the decoder's seed, which a trial
derives as sub-seed 2 of its seed, and passes it to ``decode_voxels``
unchanged.  ``sweep`` runs the sender stage once per scene and a trial
for every ``(scene, drop rate, trial)`` index triple, with
deterministically derived seeds.

Chamfer threads: ``evaluate_roundtrip`` and ``sweep`` run their ``n``
trials through one loop, ``_roundtrips``, with ``lanes = min(_cpus(), n)``
helper threads.  The helpers build each scene's ``_index`` (a k-d tree and
the points in its leaf order) while the calling thread runs ``_send``.  The
calling thread then runs every trial in order, builds each reconstruction's
k-d tree and hands the two exact nearest-neighbour queries to a helper, on
``_cpus() // lanes`` threads each, before it measures BCE and MSE; once
``lanes`` Chamfers wait, it first finishes the oldest.  So every traced
stage runs on the calling thread, and the helpers run only ``_index`` and
``_chamfer``.  ``chamfer`` queries inline on all ``_cpus()`` CPUs.  Each
point's distance is computed alone and the means sum in point order, so no
result depends on the thread or lane count.
"""

from __future__ import annotations

import csv
import json
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from itertools import product

import numpy as np
from scipy.spatial import cKDTree

from .channel import ChannelConfig, transmit
from .codec import DecodeConfig, decode_voxels, encode_voxels, intensity_mse, occupancy_bce_rows
from .geometry import PatchSpec, PointCloud, VoxelGridSpec, occupied_voxels, threshold_voxels
from .quantizer import Codebook
from .seeds import derive_seed
from .tolerance import FillPolicy
from .wire import DEFAULT_MTU, Frame, Pose, log2_volume, packetize, receive, serialize

STATUS_OK = "ok"
STATUS_EMPTY = "empty_reconstruction"
MAX_TRIALS = 2**20  # the most (scene, drop rate, trial) index triples a sweep holds


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


def _chamfer(tree, leaf_xyz, b_tree, threads: int) -> float:
    """``chamfer`` from the first cloud's ``_index`` to the second cloud's
    k-d tree, each query split over ``threads`` threads.  The first cloud's
    points are queried in leaf order, so consecutive queries visit nearby
    parts of b's tree, and the distances are scattered back to the cloud's
    order, so both means sum in the order the plain per-point queries give."""
    d_ab = np.empty(len(leaf_xyz))
    d_ab[tree.indices] = b_tree.query(leaf_xyz, k=1, workers=threads)[0]
    d_ba, _ = tree.query(b_tree.data, k=1, workers=threads)
    return 0.5 * (float(np.mean(d_ab)) + float(np.mean(d_ba)))


def chamfer(a: PointCloud, b: PointCloud) -> float:
    """0.5 * (mean_A min-dist-to-B + mean_B min-dist-to-A), exact nearest
    neighbors; raises on an empty cloud."""
    if len(a) == 0 or len(b) == 0:
        raise ValueError("chamfer distance is undefined for empty clouds")
    return _chamfer(*_index(a.xyz), cKDTree(b.xyz, balanced_tree=False), _cpus())


def _send(scene, cb_occ, cb_int, spec, patch):
    """Sender stage: the scene's ``Voxels`` and the frame quantized from them."""
    truth = occupied_voxels(scene, spec)
    return truth, serialize(encode_voxels(truth, patch, cb_occ, cb_int), Pose())


def deliver(frame: Frame, channel_cfg: ChannelConfig, mtu: int, seed: int):
    """The trial's sender side: ``frame``'s packets at ``mtu`` through
    ``transmit`` with sub-seed 1 of ``seed``.  Returns the delivered packets
    and the ``ChannelReport``."""
    return transmit(packetize(frame, mtu), channel_cfg, derive_seed(seed, 1))


def reconstruct(
    delivered, spec: VoxelGridSpec, patch: PatchSpec, cb_occ: Codebook, cb_int: Codebook,
    policy: FillPolicy, decode_cfg: DecodeConfig, seed: int,
):
    """The receiver: ``receive`` the delivered packets as each stream's
    ``CellRows``, threshold them into ``Voxels`` (``threshold_voxels``) and
    ``decode_voxels`` them with ``seed``; no vector grid or (H, W, L) array
    is built.  Returns the ``LossMask``, the occupancy ``CellRows`` BCE
    reads, the reconstructed ``Voxels`` and the decoded cloud."""
    occ, inten, mask = receive(delivered, spec, patch, cb_occ, cb_int, policy)
    voxels = threshold_voxels(occ, inten, patch, spec)
    return mask, occ, voxels, decode_voxels(voxels, decode_cfg, seed)


def _roundtrips(scenes, trials, cb_occ, cb_int, spec, patch, decode_cfg, fill_policy, mtu):
    """The ``EvalReport`` of every trial ``(scene index, ChannelConfig,
    seed)`` of ``trials``, in order: ``deliver`` -> ``reconstruct`` ->
    measure, on the threads of the module docstring's rule.  An error on
    any thread propagates once every helper has stopped."""
    cpus = _cpus()
    lanes = min(cpus, len(trials))
    reports, pending = [], deque()  # pending: (report index, its Chamfer's future)
    with ThreadPoolExecutor(lanes) as helpers:
        # memory a helper frees stays in its own malloc arena, out of this thread's
        # reach, so the point arrays the scene trees keep are copied here
        indexes = [helpers.submit(_index, np.ascontiguousarray(s.xyz)) for s in scenes]
        sent = [_send(scene, cb_occ, cb_int, spec, patch) for scene in scenes]
        indexes = [future.result() for future in indexes]
        for si, channel_cfg, seed in trials:
            truth, frame = sent[si]
            tree, leaf_xyz = indexes[si]
            delivered, _ = deliver(frame, channel_cfg, mtu, seed)
            mask, occ, recon_voxels, recon = reconstruct(
                delivered, spec, patch, cb_occ, cb_int, fill_policy, decode_cfg,
                derive_seed(seed, 2),
            )
            measured = len(leaf_xyz) > 0 and len(recon) > 0
            if measured:
                recon_tree = cKDTree(recon.xyz, balanced_tree=False)
                if len(pending) == lanes:
                    i, future = pending.popleft()
                    reports[i].chamfer_m = future.result()
                pending.append((len(reports), helpers.submit(
                    _chamfer, tree, leaf_xyz, recon_tree, cpus // lanes)))
            reports.append(EvalReport(
                chamfer_m=None,
                occupancy_bce=occupancy_bce_rows(truth, occ, patch),
                intensity_mse=intensity_mse(truth, recon_voxels) if truth.ids.size else None,
                comm_log2_bytes=log2_volume(frame.payload_nbits),
                cell_loss_rate=mask.cell_loss_rate,
                seed=seed,
                status=STATUS_OK if measured else STATUS_EMPTY,
                config={
                    "drop_rate": channel_cfg.drop_rate,
                    "mtu": mtu,
                    "fill": fill_policy.kind,
                    "sigma": decode_cfg.resolved_sigma(spec),
                    "points_per_voxel": decode_cfg.points_per_voxel,
                    "k_occ": frame.k_occ,
                    "k_int": frame.k_int,
                },
            ))
        for i, future in pending:
            reports[i].chamfer_m = future.result()
    return reports


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
    mtu: int = DEFAULT_MTU,
) -> EvalReport:
    """One full transmit-and-reconstruct measurement, deterministic given
    ``seed`` (channel and decoder sub-seeds are derived from it)."""
    return _roundtrips([scene], [(0, channel_cfg, seed)], cb_occ, cb_int, spec, patch,
                       decode_cfg, fill_policy, mtu)[0]


@dataclass
class SweepResult:
    reports: list  # EvalReport per (scene, p, trial), in that nesting order
    aggregates: list  # one dict per entry of p_values


def sweep_channels(p_values, trials: int, n_scenes: int = 1) -> list[ChannelConfig]:
    """The ``ChannelConfig`` of each drop rate; raises ``ValueError`` unless
    there is at least one, ``trials`` (per scene and drop rate) is at least 1
    and ``n_scenes * len(p_values) * trials`` is at most ``MAX_TRIALS``."""
    if len(p_values) == 0:
        raise ValueError("need at least one drop rate")
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must lie in [1, {MAX_TRIALS}]")
    if n_scenes * len(p_values) * trials > MAX_TRIALS:
        raise ValueError(f"{n_scenes} scenes x {len(p_values)} drop rates x {trials} trials "
                         f"exceed {MAX_TRIALS} trials")
    return [ChannelConfig(p) for p in p_values]


def sweep(
    scenes,
    p_values,
    trials: int,
    cb_occ: Codebook,
    cb_int: Codebook,
    spec: VoxelGridSpec,
    patch: PatchSpec,
    fill_policy: FillPolicy,
    decode_cfg: DecodeConfig = DecodeConfig(),
    mtu: int = DEFAULT_MTU,
    master_seed: int = 0,
) -> SweepResult:
    """Evaluate every (scene, drop rate, trial) combination.

    Each scene goes through the sender stage once (one ``occupied_voxels``,
    one encoding, one k-d tree); each trial then runs with seed
    ``derive_seed(master_seed, scene_idx, p_idx, trial)``, so results are
    reproducible.  ``trials`` is at least 1, and the sweep holds at most
    ``MAX_TRIALS`` (2**20) trials in all; these bounds and every drop rate
    are checked (``sweep_channels``) before any scene is voxelized.  There
    is one aggregate per entry of ``p_values``, a repeated drop rate included.
    """
    scenes = list(scenes)
    if not scenes:
        raise ValueError("need at least one scene")
    channels = sweep_channels(p_values, trials, len(scenes))
    indices = list(product(range(len(scenes)), range(len(p_values)), range(trials)))
    reports = _roundtrips(
        scenes, [(si, channels[pi], derive_seed(master_seed, si, pi, t)) for si, pi, t in indices],
        cb_occ, cb_int, spec, patch, decode_cfg, fill_policy, mtu,
    )

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
