#!/usr/bin/env python3
"""Print a SHA-256 digest of every output of a fixed list of ``qpc`` runs.

Run it on two checkouts and diff what it prints to see which command-line
outputs a change alters:

    python3 tools/cli_digests.py > digests.txt

The runs execute in-process, in a fresh temporary directory, with the
``qpcomm`` package from the ``src/`` directory next to this script, and with
``QPC_SEED`` unset.  Each printed line is ``sha256  name``: one per file the
runs write and one per run's captured stdout (``<run>.stdout``).  The runs:

- ``gen-scene`` seeds 0-2, ``train --k 32``, ``encode``, ``decode --seed 4``,
  and ``decode-ppv``, a decode at ``--seed 4 --points-per-voxel 3 --sigma
  0.05 --no-clip``;
- ``decode-edge`` and ``sim-edge``: a ``decode`` of the same frame, and a
  ``simulate --drop-rate 0.3 --fill learned_constant`` of it, with
  hand-made K = 32, D = 32 codebooks whose entries and FILL vectors hold
  values at the receiver's edges: exactly 0.5 (occupied), just below 0.5
  (not), above 1 and below 0 (clamped to [0, 1]) and -0.0;
- ``train --k 512``, more entries than the scenes have distinct occupancy
  vectors (347), so duplicate entries tie exactly;
- ``train --dim-patch 4,4 --k 32``: D = 128, where the nearest-entry search
  cuts the 768 rows into three blocks by width;
- ``simulate`` at drop rates 0, 0.3 and 0.9, each with every ``--fill``,
  each writing ``--report`` and ``--trace-out``;
- a ``--trace-in`` replay of the 0.3 trace; ``replay-dup``, the same replay
  with every packet of that trace delivered twice and in reverse order, whose
  ``.qpcd`` and report must equal the replay's; and ``headless``, a replay
  whose trace lacks the header packet, which must report every cell lost;
- a scene generated outside the desk grid (``--extent 20,30,20,30,0,1.2``),
  encoded with every point dropped, then ``simulate --drop-rate 1 --fill
  empty`` on it: every cell lost and no point decoded; and ``decode-far``,
  the decode of that frame, whose grid holds no occupied voxel;
- ``encode-edge``: ``encode`` of a hand-made cloud with the sender's edge
  cases: exact duplicate points with their own intensities, points outside
  the grid and on its upper faces (outside, as voxels are half-open), and
  intensities of exactly 0 and 1.  Only its frame and stdout are digested;
- ``sweep --codebooks``, a sweep that trains its own codebooks, and
  ``volume``;
- the ``evaluate_roundtrip`` JSON for every fill at drop rates 0, 0.3, 0.9.

It exits 1 if any run exits non-zero, ``replay-dup`` differs from
``replay``, or ``headless`` reports ``cells_lost`` below ``cells_total``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from qpcomm import cli, metrics  # noqa: E402
from qpcomm.channel import ChannelConfig  # noqa: E402
from qpcomm.codec import DecodeConfig  # noqa: E402
from qpcomm.geometry import PointCloud  # noqa: E402
from qpcomm.pcio import read_qpcd, write_qpcd  # noqa: E402
from qpcomm.quantizer import (  # noqa: E402
    KIND_INT,
    KIND_OCC,
    Codebook,
    read_codebook,
    write_codebook,
)
from qpcomm.tolerance import POLICIES, FillPolicy  # noqa: E402
from qpcomm.wire import (  # noqa: E402
    packetize,
    read_frame,
    read_packet_trace,
    write_packet_trace,
)

DROP_RATES = (0.0, 0.3, 0.9)
CODEBOOKS = ("--codebooks", "occ.qpcb", "int.qpcb")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _edge_cloud() -> PointCloud:
    """``encode-edge``'s cloud on the desk grid, which spans [0, 10) x [0, 10)
    x [0, 1.2) m."""
    rng = np.random.default_rng(27)
    inside = rng.random((400, 3)) * [10.0, 10.0, 1.2]
    xyz = np.vstack([
        inside,
        inside[:80],  # exact duplicates
        [[-0.5, 5.0, 0.5], [5.0, 10.5, 0.5], [5.0, 5.0, 2.0]],  # outside
        [[10.0, 5.0, 0.5], [5.0, 10.0, 0.5], [5.0, 5.0, 1.2]],  # on the upper faces
        [[0.0, 0.0, 0.0]],  # on the lower faces, inside
    ])
    intensity = rng.random(len(xyz))
    intensity[::4] = 0.0
    intensity[1::7] = 1.0
    return PointCloud(np.column_stack([xyz, intensity]))


def _write_edge_codebooks() -> None:
    """``decode-edge``'s codebooks, ``edge-occ.qpcb`` and ``edge-int.qpcb``,
    for the desk frame's K = 32 and D = 32: each entry value is one of
    ``edges`` or uniform in [-0.5, 1.5), and each FILL vector repeats
    ``edges``.  The values are float32, as QPCB files store them."""
    rng = np.random.default_rng(28)
    edges = np.array([0.5, np.nextafter(np.float32(0.5), np.float32(0.0)), 1.25, -0.25, -0.0],
                     dtype=np.float32)
    for kind in (KIND_OCC, KIND_INT):
        entries = np.where(rng.random((32, 32)) < 0.5, rng.choice(edges, (32, 32)),
                           rng.uniform(-0.5, 1.5, (32, 32)).astype(np.float32))
        write_codebook(f"edge-{kind}.qpcb", Codebook.from_entries(entries, kind),
                       np.resize(edges, 32))


def _run_all(stdouts: dict) -> None:
    def qpc(name, *argv):
        argv = [str(a) for a in argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        if code != 0:
            sys.exit(f"{name}: qpc {' '.join(argv)} exited {code}")
        stdouts[name] = out.getvalue()

    Path("scenes").mkdir()
    for seed in range(3):
        qpc(f"gen-scene-{seed}", "gen-scene", "--out", f"scenes/s{seed}.qpcd", "--seed", seed)
    qpc("train", "train", "--scenes", "scenes", "--k", 32, "--seed", 5,
        "--out-occ", "occ.qpcb", "--out-int", "int.qpcb")
    qpc("train-ties", "train", "--scenes", "scenes", "--k", 512, "--seed", 7,
        "--out-occ", "ties-occ.qpcb", "--out-int", "ties-int.qpcb")
    qpc("train-wide", "train", "--scenes", "scenes", "--dim-patch", "4,4", "--k", 32, "--seed", 6,
        "--out-occ", "wide-occ.qpcb", "--out-int", "wide-int.qpcb")
    qpc("encode", "encode", "--in", "scenes/s0.qpcd", *CODEBOOKS, "--out", "f.qpfr")
    qpc("decode", "decode", "--in", "f.qpfr", *CODEBOOKS, "--seed", 4, "--out", "dec.qpcd")
    qpc("decode-ppv", "decode", "--in", "f.qpfr", *CODEBOOKS, "--seed", 4,
        "--points-per-voxel", 3, "--sigma", 0.05, "--no-clip", "--out", "dec-ppv.qpcd")
    _write_edge_codebooks()
    edge_codebooks = ("--codebooks", "edge-occ.qpcb", "edge-int.qpcb")
    qpc("decode-edge", "decode", "--in", "f.qpfr", *edge_codebooks, "--seed", 4,
        "--out", "dec-edge.qpcd")
    qpc("sim-edge", "simulate", "--in", "f.qpfr", *edge_codebooks, "--mtu", 128, "--seed", 5,
        "--drop-rate", 0.3, "--fill", "learned_constant", "--out", "sim-edge.qpcd",
        "--report", "sim-edge.json")

    for p in DROP_RATES:
        for fill in POLICIES:
            tag = f"sim-{p}-{fill}"
            qpc(tag, "simulate", "--in", "f.qpfr", *CODEBOOKS, "--mtu", 128, "--seed", 5,
                "--latency-ms", 2, "--jitter-ms", 1, "--drop-rate", p, "--fill", fill,
                "--out", f"{tag}.qpcd", "--report", f"{tag}.json", "--trace-out", f"{tag}.pkts")
    qpc("replay", "simulate", "--in", "f.qpfr", *CODEBOOKS, "--seed", 9,
        "--fill", "neighbor_copy", "--trace-in", "sim-0.3-neighbor_copy.pkts",
        "--out", "replay.qpcd", "--report", "replay.json")
    recorded = read_packet_trace("sim-0.3-neighbor_copy.pkts")
    write_packet_trace("replay-dup.pkts", recorded[::-1] * 2)
    qpc("replay-dup", "simulate", "--in", "f.qpfr", *CODEBOOKS, "--seed", 9,
        "--fill", "neighbor_copy", "--trace-in", "replay-dup.pkts",
        "--out", "replay-dup.qpcd", "--report", "replay-dup.json")
    frame = read_frame("f.qpfr")
    # the header travels in packet 0
    write_packet_trace("headless.pkts", packetize(frame, 128)[1:])
    qpc("headless", "simulate", "--in", "f.qpfr", *CODEBOOKS, "--seed", 3,
        "--trace-in", "headless.pkts", "--out", "headless.qpcd", "--report", "headless.json")
    headless = json.loads(Path("headless.json").read_text())
    if headless["cells_lost"] != headless["cells_total"]:
        sys.exit(f"headless: {headless['cells_lost']} of {headless['cells_total']} cells lost")
    # outside the 10 m desk grid, so voxelize drops every point
    qpc("gen-scene-far", "gen-scene", "--out", "far.qpcd", "--seed", 3,
        "--extent", "20,30,20,30,0,1.2")
    qpc("encode-far", "encode", "--in", "far.qpcd", *CODEBOOKS, "--out", "far.qpfr")
    qpc("sim-far", "simulate", "--in", "far.qpfr", *CODEBOOKS, "--seed", 6, "--drop-rate", 1,
        "--fill", "empty", "--out", "sim-far.qpcd", "--report", "sim-far.json")
    qpc("decode-far", "decode", "--in", "far.qpfr", *CODEBOOKS, "--out", "dec-far.qpcd")
    write_qpcd("edge.qpcd", _edge_cloud())
    qpc("encode-edge", "encode", "--in", "edge.qpcd", *CODEBOOKS, "--out", "edge.qpfr")
    Path("edge.qpcd").unlink()  # made by this script, so only the encoding is digested

    qpc("sweep", "sweep", "--scenes", "scenes", *CODEBOOKS, "--p-list", "0,0.3,0.3,0.9",
        "--trials", 2, "--mtu", 128, "--seed", 2, "--fill", "neighbor_copy",
        "--out-jsonl", "sweep.jsonl", "--out-csv", "sweep.csv")
    qpc("sweep-train", "sweep", "--scenes", "scenes", "--k", 16, "--p-list", "0.2,0.5",
        "--trials", 2, "--seed", 8, "--out-jsonl", "sweep-train.jsonl",
        "--out-csv", "sweep-train.csv")
    qpc("volume", "volume", "--n", 11520, "--k", 2048)

    scene = read_qpcd("scenes/s0.qpcd")
    (cb_occ, fill_occ), (cb_int, fill_int) = read_codebook("occ.qpcb"), read_codebook("int.qpcb")
    for p in DROP_RATES:
        for fill in POLICIES:
            report = metrics.evaluate_roundtrip(
                scene, cb_occ, cb_int, frame.spec, frame.patch, ChannelConfig(p),
                DecodeConfig(), FillPolicy(fill, fill_occ, fill_int), seed=11, mtu=128,
            )
            text = json.dumps(report.to_json_dict(), sort_keys=True)
            Path(f"eval-{p}-{fill}.json").write_text(text + "\n")


def main() -> int:
    os.environ.pop("QPC_SEED", None)
    stdouts = {}
    digests = {}
    home = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            _run_all(stdouts)
            for path in Path(".").rglob("*"):
                if path.is_file():
                    digests[path.as_posix()] = _sha256(path.read_bytes())
        finally:
            os.chdir(home)
    for name, text in stdouts.items():
        digests[f"{name}.stdout"] = _sha256(text.encode())
    for ext in ("qpcd", "json"):
        if digests[f"replay-dup.{ext}"] != digests[f"replay.{ext}"]:
            sys.exit(f"replay-dup.{ext} differs from replay.{ext}")
    for name in sorted(digests):
        print(f"{digests[name]}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
