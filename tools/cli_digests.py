#!/usr/bin/env python3
"""Print a SHA-256 digest of every output of a fixed list of ``qpc`` runs.

Run it on two checkouts and diff what it prints to see which command-line
outputs a change alters:

    python3 tools/cli_digests.py > digests.txt

The runs execute in-process, in a fresh temporary directory, with the
``qpcomm`` package from the ``src/`` directory next to this script, and with
``QPC_SEED`` unset.  Each printed line is ``sha256  name``: one per file the
runs write and one per run's captured stdout (``<run>.stdout``).  The runs:

- ``gen-scene`` seeds 0-2, ``train --k 32``, ``encode``, ``decode --seed 4``;
- ``simulate`` at drop rates 0, 0.3 and 0.9, each with every ``--fill``,
  each writing ``--report`` and ``--trace-out``;
- a ``--trace-in`` replay of the 0.3 trace, and a replay whose trace lacks
  the header packet;
- ``sweep --codebooks`` at ``--jobs 1`` and ``--jobs 2``, a sweep that
  trains its own codebooks, and ``volume``;
- the ``evaluate_roundtrip`` JSON for every fill at drop rates 0, 0.3, 0.9.

It exits 1 if any run exits non-zero.
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

from qpcomm import cli, metrics  # noqa: E402
from qpcomm.channel import ChannelConfig  # noqa: E402
from qpcomm.codec import DecodeConfig  # noqa: E402
from qpcomm.pcio import read_qpcd  # noqa: E402
from qpcomm.quantizer import read_codebook  # noqa: E402
from qpcomm.tolerance import POLICIES, FillPolicy  # noqa: E402
from qpcomm.wire import packetize, read_frame, write_packet_trace  # noqa: E402

DROP_RATES = (0.0, 0.3, 0.9)
CODEBOOKS = ("--codebooks", "occ.qpcb", "int.qpcb")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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
    qpc("encode", "encode", "--in", "scenes/s0.qpcd", *CODEBOOKS, "--out", "f.qpfr")
    qpc("decode", "decode", "--in", "f.qpfr", *CODEBOOKS, "--seed", 4, "--out", "dec.qpcd")

    for p in DROP_RATES:
        for fill in POLICIES:
            tag = f"sim-{p}-{fill}"
            qpc(tag, "simulate", "--in", "f.qpfr", *CODEBOOKS, "--mtu", 128, "--seed", 5,
                "--latency-ms", 2, "--jitter-ms", 1, "--drop-rate", p, "--fill", fill,
                "--out", f"{tag}.qpcd", "--report", f"{tag}.json", "--trace-out", f"{tag}.pkts")
    qpc("replay", "simulate", "--in", "f.qpfr", *CODEBOOKS, "--seed", 9,
        "--fill", "neighbor_copy", "--trace-in", "sim-0.3-neighbor_copy.pkts",
        "--out", "replay.qpcd", "--report", "replay.json")
    frame = read_frame("f.qpfr")
    # the header travels in packet 0
    write_packet_trace("headless.pkts", packetize(frame, 128)[1:])
    qpc("headless", "simulate", "--in", "f.qpfr", *CODEBOOKS, "--seed", 3,
        "--trace-in", "headless.pkts", "--out", "headless.qpcd", "--report", "headless.json")

    for jobs in (1, 2):
        tag = f"sweep-jobs{jobs}"
        qpc(tag, "sweep", "--scenes", "scenes", *CODEBOOKS, "--p-list", "0,0.3,0.3,0.9",
            "--trials", 2, "--mtu", 128, "--seed", 2, "--fill", "neighbor_copy",
            "--jobs", jobs, "--out-jsonl", f"{tag}.jsonl", "--out-csv", f"{tag}.csv")
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
    for name in sorted(digests):
        print(f"{digests[name]}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
