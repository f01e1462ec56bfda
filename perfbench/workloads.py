"""The benchmark's workloads: inputs made from a seed, one operation, and the
checks that compare each output with its golden.

Each workload's ``--seed`` selects one of ``POOL`` input sets (``seed %
POOL``), so every output of every run has a golden in ``goldens.json``,
recorded from a known-good version of the program.  A workload has ``slots`` distinct
operations and a run cycles through them.  The slot number, not the seed,
fixes the channel draws: slot ``j`` of every input set sees the same drop
pattern, so the seed varies the scenes and the loss figures stay comparable
across seeds.

A workload without a ``warmup`` method runs slot 0 untimed as its warm-up.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

import qpcomm
from qpcomm import metrics, quantizer
from qpcomm.quantizer import KIND_INT, KIND_OCC, Codebook, QuantizerConfig, nearest

POOL = 16
SPOT_CELLS = 32  # per stream and kind of cell (any cell / non-empty cell)

REF_SPEC = qpcomm.VoxelGridSpec((0.0, 0.0, 0.0), (0.15625, 0.15625, 0.15), (640, 1152, 16))
REF_PATCH = qpcomm.PatchSpec(8, 8)
DESK_SPEC = qpcomm.VoxelGridSpec((0.0, 0.0, 0.0), (0.15625, 0.15625, 0.15), (64, 64, 8))
DESK_PATCH = qpcomm.PatchSpec(2, 2)
DESK_P = (0.0, 0.1, 0.2, 0.3, 0.4)
DESK_SCENES = 5


def reference_scene(seed: int) -> qpcomm.PointCloud:
    """A 100 x 180 m street scene, about 440k points."""
    cfg = qpcomm.SceneConfig(
        seed=seed,
        extent=((0.0, 100.0), (0.0, 180.0), (0.0, 2.4)),
        ground_density=20.0,
        n_vehicles=40,
    )
    return qpcomm.generate(cfg)[0]


def patch_vectors(scene, spec, patch) -> tuple[np.ndarray, np.ndarray]:
    occ, inten, _ = qpcomm.voxelize(scene, spec)
    occ_vec, int_vec = qpcomm.patchify(occ, inten, patch)
    dim = patch.vector_dim(spec)
    return occ_vec.reshape(-1, dim), int_vec.reshape(-1, dim)


def _canonical(value):
    # 10 significant digits: last-bit differences between CPU kernels must
    # not read as a changed output
    if isinstance(value, float):
        return float(f"{value:.10g}")
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_canonical(v) for v in value]
    return value


def report_digest(reports) -> str:
    lines = [json.dumps(_canonical(r.to_json_dict()), sort_keys=True) for r in reports]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _digest(*parts: str) -> str:
    return hashlib.sha256("".join(parts).encode()).hexdigest()


def codebook_digest(*codebooks: Codebook) -> str:
    h = hashlib.sha256()
    for cb in codebooks:
        h.update(cb.entries.astype("<f4").tobytes())
    return h.hexdigest()


def check_frames(scenes, vectors, spec, patch, cb_occ, cb_int, seed: int) -> dict:
    """Encode each scene, hash its frame, and spot-check the frame's indices
    against the brute-force ``nearest`` oracle (lowest index on ties) on a
    seeded sample of cells.  Also returns the mean squared quantization
    error of both streams."""
    rng = np.random.default_rng(seed)
    h = hashlib.sha256()
    mismatches = ties = checked = 0
    errors = []
    for scene, (occ_vec, int_vec) in zip(scenes, vectors):
        frame = qpcomm.serialize(qpcomm.encode(scene, spec, patch, cb_occ, cb_int), qpcomm.Pose())
        blob = frame.to_bytes()
        h.update(blob)
        im, _ = qpcomm.deserialize(frame)
        for cb, vecs, idx in ((cb_occ, occ_vec, im.occ_indices), (cb_int, int_vec, im.int_indices)):
            idx = idx.reshape(-1)
            errors.append(float(((vecs - cb.entries[idx]) ** 2).sum(axis=1).mean()))
            nonempty = np.flatnonzero(vecs.any(axis=1))
            sample = rng.choice(len(vecs), size=min(SPOT_CELLS, len(vecs)), replace=False)
            if nonempty.size:
                sample = np.concatenate(
                    [sample, rng.choice(nonempty, size=min(SPOT_CELLS, nonempty.size), replace=False)]
                )
            for cell in sample:
                d = ((cb.entries - vecs[cell]) ** 2).sum(axis=1)
                ties += int((d == d.min()).sum() > 1)
                mismatches += int(nearest(cb, vecs[cell]) != idx[cell])
                checked += 1
    return {
        "frame_digest": h.hexdigest(),
        "frame_bytes": len(blob),
        "quant_mse": float(np.mean(errors)),
        "spot_checked": checked,
        "spot_ties": ties,
        "spot_mismatches": mismatches,
    }


class _Roundtrips:
    """Shared checks of the workloads whose ops are roundtrips: set-up is
    checked by encoding every scene, each op by its reports."""

    spec: qpcomm.VoxelGridSpec
    patch: qpcomm.PatchSpec

    def check_setup(self, st: dict) -> dict:
        out = check_frames(st["scenes"], st["vectors"], self.spec, self.patch,
                           st["cb_occ"], st["cb_int"], qpcomm.derive_seed(st["pool"], 9))
        out["setup_digest"] = _digest(
            codebook_digest(st["cb_occ"], st["cb_int"]), out.pop("frame_digest"))
        return out

    def check_op(self, st: dict, out) -> dict:
        return {"digest": report_digest(out), "reports": out}


class ReferenceLossy(_Roundtrips):
    """The paper's reference preset, one ``evaluate_roundtrip`` per op."""

    name = "reference-lossy"
    spec, patch = REF_SPEC, REF_PATCH
    roundtrips_per_op = 1
    slots = 3
    K = 2048

    def setup(self, pool: int) -> dict:
        scene = reference_scene(qpcomm.derive_seed(pool, 1))
        occ_vec, int_vec = patch_vectors(scene, REF_SPEC, REF_PATCH)
        rng = np.random.default_rng(qpcomm.derive_seed(pool, 2))
        cb_occ = Codebook.from_entries(occ_vec[rng.choice(len(occ_vec), self.K, replace=False)], KIND_OCC)
        cb_int = Codebook.from_entries(int_vec[rng.choice(len(int_vec), self.K, replace=False)], KIND_INT)
        policy = qpcomm.FillPolicy.neighbor_copy(
            qpcomm.fit_fill_vector(occ_vec), qpcomm.fit_fill_vector(int_vec)
        )
        return {"scenes": [scene], "vectors": [(occ_vec, int_vec)], "cb_occ": cb_occ,
                "cb_int": cb_int, "policy": policy, "pool": pool}

    def op(self, st: dict, slot: int):
        return [metrics.evaluate_roundtrip(
            st["scenes"][0], st["cb_occ"], st["cb_int"], REF_SPEC, REF_PATCH,
            qpcomm.ChannelConfig(drop_rate=0.3), qpcomm.DecodeConfig(), st["policy"],
            seed=slot, mtu=1200,
        )]


class DeskSweep(_Roundtrips):
    """The degradation sweep traffic: many small trials over a few scenes.
    One op is one ``sweep`` call, a trial at every drop rate for every scene."""

    name = "desk-sweep"
    spec, patch = DESK_SPEC, DESK_PATCH
    roundtrips_per_op = DESK_SCENES * len(DESK_P)
    slots = 4

    def setup(self, pool: int) -> dict:
        scenes = [qpcomm.generate(qpcomm.SceneConfig(seed=qpcomm.derive_seed(pool, 3, s)))[0]
                  for s in range(DESK_SCENES)]
        pairs = [patch_vectors(s, DESK_SPEC, DESK_PATCH) for s in scenes]
        occ = np.vstack([p[0] for p in pairs])
        inten = np.vstack([p[1] for p in pairs])
        dim = DESK_PATCH.vector_dim(DESK_SPEC)
        cb_occ = quantizer.train_codebook(
            occ, QuantizerConfig(k=64, dim=dim, seed=1, dead_limit=0), kind=KIND_OCC)
        cb_int = quantizer.train_codebook(
            inten, QuantizerConfig(k=64, dim=dim, seed=2, dead_limit=0), kind=KIND_INT)
        policy = qpcomm.FillPolicy.learned_constant(
            qpcomm.fit_fill_vector(occ), qpcomm.fit_fill_vector(inten))
        return {"scenes": scenes, "vectors": pairs, "cb_occ": cb_occ, "cb_int": cb_int,
                "policy": policy, "pool": pool}

    def op(self, st: dict, slot: int):
        return metrics.sweep(
            st["scenes"], DESK_P, 1, st["cb_occ"], st["cb_int"], DESK_SPEC, DESK_PATCH,
            st["policy"], mtu=128, master_seed=slot,
        ).reports


class Train:
    """``train_dual`` on one reference scene's vectors, K = 128, 10 passes,
    default dead-entry refresh.  Each op's codebooks are then checked by
    encoding with them and by one roundtrip (both untimed)."""

    name = "train"
    roundtrips_per_op = 1
    slots = 1
    K = 128

    def setup(self, pool: int) -> dict:
        scene = reference_scene(qpcomm.derive_seed(pool, 4))
        occ_vec, int_vec = patch_vectors(scene, REF_SPEC, REF_PATCH)
        policy = qpcomm.FillPolicy.neighbor_copy(
            qpcomm.fit_fill_vector(occ_vec), qpcomm.fit_fill_vector(int_vec))
        return {"scene": scene, "occ": occ_vec, "int": int_vec, "policy": policy, "pool": pool}

    def _configs(self, k: int, iters: int):
        dim = REF_PATCH.vector_dim(REF_SPEC)
        return (QuantizerConfig(k=k, dim=dim, max_iters=iters, seed=1),
                QuantizerConfig(k=k, dim=dim, max_iters=iters, seed=2))

    def check_setup(self, st: dict) -> dict:
        h = hashlib.sha256(st["occ"].tobytes())
        h.update(st["int"].tobytes())
        return {"setup_digest": h.hexdigest()}

    def warmup(self, st: dict) -> None:
        # a small training pass touches the same arrays as the timed one
        quantizer.train_dual(st["occ"], st["int"], *self._configs(8, 2))

    def op(self, st: dict, slot: int):
        return quantizer.train_dual(st["occ"], st["int"], *self._configs(self.K, 10))

    def check_op(self, st: dict, out) -> dict:
        cb_occ, cb_int = out
        info = check_frames([st["scene"]], [(st["occ"], st["int"])], REF_SPEC, REF_PATCH, cb_occ, cb_int,
                            qpcomm.derive_seed(st["pool"], 9))
        report = qpcomm.evaluate_roundtrip(
            st["scene"], cb_occ, cb_int, REF_SPEC, REF_PATCH,
            qpcomm.ChannelConfig(drop_rate=0.3), qpcomm.DecodeConfig(), st["policy"],
            seed=0, mtu=1200,
        )
        info["reports"] = [report]
        # final mean squared quantization error of both streams
        info["quant_mse"] = float(np.mean([cb_occ.trace.errors[-1], cb_int.trace.errors[-1]]))
        info["digest"] = _digest(
            codebook_digest(cb_occ, cb_int), info.pop("frame_digest"), report_digest([report]))
        return info


WORKLOADS = {w.name: w for w in (ReferenceLossy(), DeskSweep(), Train())}
