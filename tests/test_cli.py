import json
import math
import re
import struct

import numpy as np
import pytest
from helpers import vector_rows
from hypothesis import given, settings
from hypothesis import strategies as st

from qpcomm import metrics, pcio
from qpcomm.channel import ChannelConfig
from qpcomm.cli import PRESETS, build_parser, main
from qpcomm.codec import DecodeConfig, decode_voxels
from qpcomm.geometry import PatchSpec, VoxelGridSpec, threshold_voxels
from qpcomm.pcio import read_qpcd, write_qpcd
from qpcomm.quantizer import Codebook, read_codebook, write_codebook
from qpcomm.seeds import derive_seed
from qpcomm.tolerance import POLICIES, FillPolicy
from qpcomm.wire import (
    _HEADER_FMT,
    FRAME_MAGIC,
    FRAME_VERSION,
    packetize,
    read_frame,
    read_packet_trace,
    receive,
    write_packet_trace,
)


@pytest.fixture()
def workspace(tmp_path, monkeypatch):
    monkeypatch.delenv("QPC_SEED", raising=False)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


def make_scenes(ws, n=2):
    scenes = ws / "scenes"
    scenes.mkdir(exist_ok=True)
    for i in range(n):
        assert run("gen-scene", "--out", scenes / f"s{i}.qpcd", "--seed", i) == 0
    return scenes


def exit_code(*argv):
    """main's return value, or the code argparse exits with."""
    try:
        return run(*argv)
    except SystemExit as exc:
        return exc.code


def encoded_frame(ws):
    scenes = make_scenes(ws, n=1)
    occ, inten = train_codebooks(ws, scenes)
    assert run("encode", "--in", scenes / "s0.qpcd", "--codebooks", occ, inten,
               "--out", "f.qpfr") == 0
    return occ, inten


def train_codebooks(ws, scenes):
    args = [
        "train", "--scenes", scenes, "--k", 32, "--seed", 5,
        "--out-occ", ws / "occ.qpcb", "--out-int", ws / "int.qpcb",
    ]
    assert run(*args) == 0
    return ws / "occ.qpcb", ws / "int.qpcb"


class TestGenScene:
    def test_reproducible_bytes(self, workspace):
        assert run("gen-scene", "--out", "a.qpcd", "--seed", 3) == 0
        assert run("gen-scene", "--out", "b.qpcd", "--seed", 3) == 0
        assert (workspace / "a.qpcd").read_bytes() == (workspace / "b.qpcd").read_bytes()

    def test_boxes_json(self, workspace):
        assert run("gen-scene", "--out", "a.qpcd", "--boxes", "a.json", "--seed", 1) == 0
        boxes = json.loads((workspace / "a.json").read_text())
        assert boxes and {"center", "size", "yaw"} <= set(boxes[0])

    def test_qpc_seed_env_overrides(self, workspace, monkeypatch):
        assert run("gen-scene", "--out", "a.qpcd", "--seed", 1) == 0
        monkeypatch.setenv("QPC_SEED", "1")
        assert run("gen-scene", "--out", "b.qpcd", "--seed", 999) == 0
        assert (workspace / "a.qpcd").read_bytes() == (workspace / "b.qpcd").read_bytes()


class TestPipelineCommands:
    def test_full_pipeline(self, workspace):
        scenes = make_scenes(workspace)
        occ, inten = train_codebooks(workspace, scenes)
        assert (
            run("encode", "--in", scenes / "s0.qpcd", "--codebooks", occ, inten,
                "--out", "f.qpfr") == 0
        )
        assert (
            run("decode", "--in", "f.qpfr", "--codebooks", occ, inten,
                "--sigma", 0, "--seed", 2, "--out", "dec.qpcd") == 0
        )
        cloud = read_qpcd(workspace / "dec.qpcd")
        assert len(cloud) > 0

    def test_train_summary_reports_dead_and_refreshes(self, workspace, capsys):
        from qpcomm.quantizer import read_codebook

        scenes = make_scenes(workspace, n=1)
        capsys.readouterr()
        occ, inten = train_codebooks(workspace, scenes)
        line = capsys.readouterr().out.strip()
        for kind, path in (("occ", occ), ("int", inten)):
            dead = int((read_codebook(path)[0].usage == 0).sum())
            assert re.search(rf"{kind} err \S+ \(dead {dead}, refreshes \d+\)", line), line

    def test_encode_deterministic(self, workspace):
        scenes = make_scenes(workspace, n=1)
        occ, inten = train_codebooks(workspace, scenes)
        for name in ("f1.qpfr", "f2.qpfr"):
            assert (
                run("encode", "--in", scenes / "s0.qpcd", "--codebooks", occ, inten,
                    "--out", name) == 0
            )
        assert (workspace / "f1.qpfr").read_bytes() == (workspace / "f2.qpfr").read_bytes()

    def test_simulate_zero_drop_matches_decode(self, workspace):
        scenes = make_scenes(workspace, n=1)
        occ, inten = train_codebooks(workspace, scenes)
        run("encode", "--in", scenes / "s0.qpcd", "--codebooks", occ, inten, "--out", "f.qpfr")
        # the decoder sub-seed inside simulate is derive_seed(seed, 2); decode
        # applies its --seed directly, so pass the derived value to decode
        from qpcomm.seeds import derive_seed

        assert (
            run("simulate", "--in", "f.qpfr", "--codebooks", occ, inten,
                "--drop-rate", 0, "--seed", 7, "--out", "sim.qpcd",
                "--report", "rep.json") == 0
        )
        assert (
            run("decode", "--in", "f.qpfr", "--codebooks", occ, inten,
                "--seed", derive_seed(7, 2), "--out", "dec.qpcd") == 0
        )
        assert (workspace / "sim.qpcd").read_bytes() == (workspace / "dec.qpcd").read_bytes()
        report = json.loads((workspace / "rep.json").read_text())
        assert report["cell_loss_rate"] == 0.0
        assert report["channel"]["packets_dropped"] == 0

    def test_simulate_trace_roundtrip(self, workspace):
        scenes = make_scenes(workspace, n=1)
        occ, inten = train_codebooks(workspace, scenes)
        run("encode", "--in", scenes / "s0.qpcd", "--codebooks", occ, inten, "--out", "f.qpfr")
        assert (
            run("simulate", "--in", "f.qpfr", "--codebooks", occ, inten,
                "--drop-rate", 0.4, "--mtu", 128, "--seed", 3, "--out", "a.qpcd",
                "--trace-out", "t.pkts") == 0
        )
        # a replay takes no channel flags: the trace already holds the drops
        assert (
            run("simulate", "--in", "f.qpfr", "--codebooks", occ, inten,
                "--seed", 3, "--out", "b.qpcd", "--trace-in", "t.pkts") == 0
        )
        assert (workspace / "a.qpcd").read_bytes() == (workspace / "b.qpcd").read_bytes()

    def test_csv_ingestion(self, workspace):
        csv = workspace / "cloud.csv"
        csv.write_text("x,y,z,intensity\n1.0,1.0,0.1,0.5\n2.0,2.0,0.2,0.5\n")
        scenes = make_scenes(workspace, n=1)
        occ, inten = train_codebooks(workspace, scenes)
        assert run("encode", "--in", csv, "--codebooks", occ, inten, "--out", "c.qpfr") == 0


class TestSweepCommand:
    def test_single_condition(self, workspace):
        scenes = make_scenes(workspace)
        assert (
            run("sweep", "--scenes", scenes, "--p-list", "0", "--trials", 1,
                "--k", 32, "--seed", 2, "--out-jsonl", "r.jsonl",
                "--out-csv", "r.csv") == 0
        )
        lines = (workspace / "r.jsonl").read_text().strip().split("\n")
        assert len(lines) == 2  # one line per scene
        rows = (workspace / "r.csv").read_text().strip().split("\n")
        assert len(rows) == 3

    def test_repeated_drop_rate_counted_per_entry(self, workspace, capsys):
        scenes = make_scenes(workspace)
        capsys.readouterr()
        assert run("sweep", "--scenes", scenes, "--p-list", "0.3,0.3", "--trials", 1,
                   "--k", 32, "--seed", 2) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 2
        assert all(line.startswith("p=0.3   trials=2 ") for line in lines)

    def test_codebooks_from_files(self, workspace):
        scenes = make_scenes(workspace, n=1)
        occ, inten = train_codebooks(workspace, scenes)
        assert run("sweep", "--scenes", scenes, "--codebooks", occ, inten, "--p-list", "0,0.5",
                   "--trials", 2, "--mtu", 128, "--seed", 3, "--fill", "neighbor_copy",
                   "--out-jsonl", "r.jsonl") == 0
        (cb_occ, fill_occ), (cb_int, fill_int) = read_codebook(occ), read_codebook(inten)
        spec = VoxelGridSpec((0, 0, 0), PRESETS["desk"]["cell"], PRESETS["desk"]["dims"])
        expected = metrics.sweep(
            [read_qpcd(scenes / "s0.qpcd")], [0.0, 0.5], 2, cb_occ, cb_int, spec,
            PatchSpec(*PRESETS["desk"]["patch"]), FillPolicy("neighbor_copy", fill_occ, fill_int),
            mtu=128, master_seed=3,
        )
        lines = (workspace / "r.jsonl").read_text().splitlines()
        assert lines == [json.dumps(r.to_json_dict(), sort_keys=True) for r in expected.reports]

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_exits_2(self, workspace, capsys, jobs):
        scenes = make_scenes(workspace, n=1)
        assert exit_code("sweep", "--scenes", scenes, "--trials", 1, "--jobs", jobs) == 2
        assert f"unrecognized arguments: --jobs {jobs}" in capsys.readouterr().err

    def test_jobs_flag_is_gone(self, workspace, capsys):
        # a sweep runs its trials in one process, whatever the CPU count
        scenes = make_scenes(workspace, n=1)
        assert exit_code("sweep", "--scenes", scenes, "--trials", 1, "--jobs", 2) == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    def test_jobs_config_key_is_gone(self, workspace, capsys):
        scenes = make_scenes(workspace, n=1)
        cfg = workspace / "cfg.json"
        cfg.write_text(json.dumps({"jobs": 2}))
        assert exit_code("sweep", "--scenes", scenes, "--trials", 1, "--config", cfg) == 2
        assert "unknown config key 'jobs'" in capsys.readouterr().err


class TestVolume:
    def test_prints_reference_value(self, workspace, capsys):
        assert run("volume", "--n", 11520, "--k", 2048) == 0
        assert capsys.readouterr().out.strip() == "14.95"

    def test_other_values(self, workspace, capsys):
        assert run("volume", "--n", 11520, "--k", 1024) == 0
        assert capsys.readouterr().out.strip() == "14.81"
        assert run("volume", "--n", 11520, "--k", 512) == 0
        assert capsys.readouterr().out.strip() == "14.66"

    def test_non_power_of_two_usage_error(self, workspace, capsys):
        assert run("volume", "--n", 100, "--k", 100) == 2
        assert "power of two" in capsys.readouterr().err


class TestErrorHandling:
    def test_unknown_flag_exits_2(self, workspace):
        with pytest.raises(SystemExit) as excinfo:
            run("volume", "--bogus", 1)
        assert excinfo.value.code == 2

    def test_missing_file_exits_3(self, workspace, capsys):
        assert run("decode", "--in", "nope.qpfr", "--codebooks", "a", "b",
                   "--out", "x.qpcd") == 3
        assert "error:" in capsys.readouterr().err

    def test_bad_drop_rate_exits_2(self, workspace):
        scenes = make_scenes(workspace, n=1)
        occ, inten = train_codebooks(workspace, scenes)
        run("encode", "--in", scenes / "s0.qpcd", "--codebooks", occ, inten, "--out", "f.qpfr")
        assert (
            run("simulate", "--in", "f.qpfr", "--codebooks", occ, inten,
                "--drop-rate", 1.5, "--out", "x.qpcd") == 2
        )

    def test_nan_codebook_entry_exits_3(self, workspace, capsys):
        scenes = make_scenes(workspace, n=1)
        occ, inten = train_codebooks(workspace, scenes)
        raw = bytearray(occ.read_bytes())
        raw[14:18] = np.float32(np.nan).tobytes()  # the first entry's first value
        occ.write_bytes(bytes(raw))
        assert run("encode", "--in", scenes / "s0.qpcd", "--codebooks", occ, inten,
                   "--out", "f.qpfr") == 3
        assert "codebook entries must be finite" in capsys.readouterr().err
        assert not (workspace / "f.qpfr").exists()

    def test_nan_fill_vector_exits_3(self, workspace, capsys):
        occ, inten = encoded_frame(workspace)
        raw = bytearray(inten.read_bytes())
        raw[-4:] = np.float32(np.nan).tobytes()  # the FILL block's last value
        inten.write_bytes(bytes(raw))
        for fill in POLICIES:  # even the empty fill reads the codebooks' FILL blocks
            assert run("simulate", "--in", "f.qpfr", "--codebooks", occ, inten,
                       "--drop-rate", 0.3, "--fill", fill, "--out", "x.qpcd") == 3
            assert "fill_int must be finite" in capsys.readouterr().err
            assert not (workspace / "x.qpcd").exists()

    def test_decode_codebook_size_differs_from_header_exits_3(self, workspace, capsys):
        occ, inten = encoded_frame(workspace)
        cb, fill = read_codebook(inten)
        write_codebook(workspace / "small.qpcb",
                       Codebook.from_entries(cb.entries[:-1], kind=cb.kind), fill=fill)
        capsys.readouterr()
        assert run("decode", "--in", "f.qpfr", "--codebooks", occ, "small.qpcb",
                   "--out", "x.qpcd") == 3
        err = capsys.readouterr().err
        assert "frame header disagrees with the receiver" in err and "Traceback" not in err
        assert not (workspace / "x.qpcd").exists()

    def test_no_partial_output_on_failure(self, workspace, capsys):
        scenes = make_scenes(workspace, n=1)
        occ, inten = train_codebooks(workspace, scenes)
        # mismatched patch makes the codebook dim invalid mid-run
        code = run("encode", "--in", scenes / "s0.qpcd", "--codebooks", occ, inten,
                   "--dim-patch", "4,4", "--out", "bad.qpfr")
        assert code == 3
        assert not (workspace / "bad.qpfr").exists()
        leftovers = [p for p in workspace.iterdir() if ".tmp" in p.name]
        assert leftovers == []

    def test_writer_failing_mid_write_leaves_nothing(self, workspace, monkeypatch, capsys):
        def write_half(path, cloud):
            path.write_bytes(b"QPCD")
            raise OSError("device full")

        monkeypatch.setattr(pcio, "write_qpcd", write_half)
        assert run("gen-scene", "--out", "x.qpcd") == 3
        assert "device full" in capsys.readouterr().err
        assert list(workspace.iterdir()) == []


# every input below is missing, so a row that exits 2 was rejected before any
# file was read; outputs would be written to the workspace
MISSING = {
    "gen-scene": ["--out", "x.qpcd"],
    "train": ["--scenes", "nope/", "--out-occ", "o.qpcb", "--out-int", "i.qpcb"],
    "encode": ["--in", "nope.qpcd", "--codebooks", "a", "b", "--out", "x.qpfr"],
    "decode": ["--in", "nope.qpfr", "--codebooks", "a", "b", "--out", "x.qpcd"],
    "simulate": ["--in", "nope.qpfr", "--codebooks", "a", "b", "--out", "x.qpcd",
                 "--report", "r.json"],
    "sweep": ["--scenes", "nope/", "--out-jsonl", "r.jsonl"],
    "volume": [],
}


# signed zero, negatives, NaN, infinities, a float beyond float32, an integer
# beyond int64, one far beyond every size cap and one too large for a float
HOSTILE_NUMBERS = ("0", "-0", "-1", "nan", "inf", "-inf", "1e39", str(2**63), str(10**30),
                   str(10**400))


def _numeric_flags(command):
    """``command``'s flags that take numbers, each with how many
    comma-separated values it takes (``--origin`` takes 3)."""
    parser = build_parser()
    sub = next(a.choices for a in parser._actions if a.dest == "command")[command]
    flags = []
    for action in sub._actions:
        text = action.metavar if isinstance(action.metavar, str) else action.default
        if action.type in (int, float):
            flags.append((action.option_strings[0], 1))
        elif isinstance(text, str) and "," in text:
            flags.append((action.option_strings[0], text.count(",") + 1))
    return flags


@pytest.fixture(scope="module")
def empty_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("flags")
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("QPC_SEED", raising=False)
        mp.chdir(d)
        yield d


class TestFlagsPhase:
    @pytest.mark.parametrize("command", ["train", "encode", "decode", "simulate", "sweep",
                                         "volume"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_hostile_numbers_never_raise(self, empty_dir, command, data):
        # every input is missing, so a drawn value that passes the flags phase
        # meets a missing file (exit 3) before it can size an allocation
        argv = [command, *MISSING[command]]
        for flag, n in _numeric_flags(command):
            value = data.draw(st.none() | st.sampled_from(HOSTILE_NUMBERS), label=flag)
            if value is not None:
                argv.append(f"{flag}={','.join([value] * n)}")
        assert exit_code(*argv) in ((0, 2) if command == "volume" else (2, 3))
        assert list(empty_dir.iterdir()) == []

    @pytest.mark.parametrize(
        "row",
        [
            "encode --agent-id -1",
            "encode --frame-id 4294967296",
            "encode --pose inf,0,0,0,0,0",
            "encode --pose 1e39,0,0,0,0,0",
            "encode --pose 0,0,0,0,0,-1e39",
            "encode --pose 1,2",
            "encode --dim-patch 3,3",
            "encode --grid 0.15625,0.15625,0.15,1000000,1000000,8",
            "train --dim-patch 3,3",
            "train --dim-patch inf,2",
            "train --grid 0.1,0.1,0.1,nan,64,8",
            "train --k 0",
            f"train --k {10**30}",
            "train --k 2097153",  # desk D = 32, so K·D just over 2**26
            "train --k 2000000000",
            "train --ema-decay 2",
            "train --seed -1",
            "train --seed 18446744073709551616",
            "sweep --dim-patch 3,3",
            "sweep --mtu 10 --codebooks a b",
            "sweep --k 0",
            f"sweep --k {10**30}",
            "sweep --k 2000000000",
            "sweep --k 32 --codebooks a b",
            "sweep --p-list 0.1,2",
            "sweep --trials 0",
            f"sweep --trials {10**30}",
            "sweep --p-list 0,0.1 --trials 1048576",  # 2**21 trials in all
            f"sweep --points-per-voxel {10**30}",
            "sweep --seed -1",
            "sweep --seed 18446744073709551616",
            "simulate --latency-ms -1",
            "simulate --jitter-ms nan",
            "simulate --latency-ms 1.7e308 --jitter-ms 1.7e308",
            "simulate --drop-rate nan",
            "simulate --mtu 10",
            "simulate --seed -1",
            "simulate --seed 18446744073709551616",
            "simulate --trace-in t.pkts --drop-rate 0.1",
            "simulate --trace-in t.pkts --mtu 500",
            f"simulate --points-per-voxel {10**30}",
            "decode --sigma -1",
            "decode --sigma nan",
            "decode --seed -5",
            "decode --seed 18446744073709551616",
            f"decode --points-per-voxel {10**30}",
            "gen-scene --seed -5",
            "gen-scene --seed 18446744073709551616",
            "gen-scene --surface-density 1e300",
            "gen-scene --ground-density 1e15",
            "gen-scene --n-vehicles 1000000000",
            "gen-scene --n-vehicles -1",
            "gen-scene --ground-density inf",
            "gen-scene --ground-density nan",
            "gen-scene --surface-density inf",
            "gen-scene --extent 0,inf,0,10,0,1.2",
            "gen-scene --extent nan,10,0,10,0,1.2",
            "volume --n 0",
            "volume --k 3",
            f"volume --n {10**400}",
            f"volume --k {2**64}",
        ],
        ids=lambda row: row.replace(" ", "_"),
    )
    def test_bad_flag_exits_2_before_any_file_is_read(self, workspace, capsys, row):
        command, *flags = row.split()
        assert exit_code(command, *MISSING[command], *flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert sorted(p.name for p in workspace.iterdir()) == []

    @pytest.mark.parametrize("row", ["simulate --fill bogus", "sweep --fill bogus"],
                             ids=lambda row: row.replace(" ", "_"))
    def test_bad_choice_exits_2_before_any_file_is_read(self, workspace, capsys, row):
        # argparse rejects a value outside --fill's choices itself, with its usage text
        command, *flags = row.split()
        assert exit_code(command, *MISSING[command], *flags) == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'bogus'" in err and "Traceback" not in err
        assert sorted(p.name for p in workspace.iterdir()) == []

    @pytest.mark.parametrize("command", ["gen-scene", "train", "decode", "simulate", "sweep"])
    def test_bad_qpc_seed_exits_2_before_any_file_is_read(self, workspace, monkeypatch,
                                                          capsys, command):
        monkeypatch.setenv("QPC_SEED", "x")
        assert exit_code(command, *MISSING[command]) == 2
        assert "QPC_SEED must be an integer" in capsys.readouterr().err
        assert sorted(p.name for p in workspace.iterdir()) == []

    @pytest.mark.parametrize("value", ["-1", "18446744073709551616"])
    @pytest.mark.parametrize("command", ["gen-scene", "train", "decode", "simulate", "sweep"])
    def test_qpc_seed_out_of_range_exits_2_before_any_file_is_read(
        self, workspace, monkeypatch, capsys, command, value
    ):
        monkeypatch.setenv("QPC_SEED", value)
        assert exit_code(command, *MISSING[command]) == 2
        assert f"QPC_SEED must be in [0, 2**64), got {value}" in capsys.readouterr().err
        assert sorted(p.name for p in workspace.iterdir()) == []

    def test_bad_agent_id_on_real_files(self, workspace, capsys):
        occ, inten = encoded_frame(workspace)
        capsys.readouterr()
        assert run("encode", "--in", workspace / "scenes" / "s0.qpcd", "--codebooks", occ,
                   inten, "--agent-id", -1, "--out", "g.qpfr") == 2
        assert "agent_id" in capsys.readouterr().err
        assert not (workspace / "g.qpfr").exists()


class TestSimulateIsTheLibraryTrial:
    def test_lossy_simulate_is_deliver_then_reconstruct(self, workspace):
        occ, inten = encoded_frame(workspace)
        frame = read_frame(workspace / "f.qpfr")
        (cb_occ, fill_occ), (cb_int, fill_int) = read_codebook(occ), read_codebook(inten)
        delivered, channel = metrics.deliver(frame, ChannelConfig(0.3), 128, 5)
        for fill in POLICIES:
            assert run("simulate", "--in", "f.qpfr", "--codebooks", occ, inten,
                       "--drop-rate", 0.3, "--mtu", 128, "--seed", 5, "--fill", fill,
                       "--out", "sim.qpcd", "--report", "rep.json") == 0
            mask, _, _, cloud = metrics.reconstruct(
                delivered, frame.spec, frame.patch, cb_occ, cb_int,
                FillPolicy(fill, fill_occ, fill_int), DecodeConfig(), derive_seed(5, 2),
            )
            write_qpcd(workspace / "want.qpcd", cloud)
            assert (workspace / "sim.qpcd").read_bytes() == (workspace / "want.qpcd").read_bytes()
            report = json.loads((workspace / "rep.json").read_text())
            assert report["channel"] == channel.to_json_dict()
            assert report["cells_lost"] == mask.n_lost
            # a lossy trial with its header delivered
            assert 0 < mask.n_lost < mask.lost.size


class TestConfigOverlay:
    def test_config_supplies_defaults(self, workspace):
        cfg = workspace / "cfg.json"
        cfg.write_text(json.dumps({"n_vehicles": 0, "seed": 9}))
        assert run("gen-scene", "--out", "a.qpcd", "--config", cfg) == 0
        assert run("gen-scene", "--out", "b.qpcd", "--n-vehicles", 0, "--seed", 9) == 0
        assert (workspace / "a.qpcd").read_bytes() == (workspace / "b.qpcd").read_bytes()

    def test_flag_beats_config(self, workspace):
        cfg = workspace / "cfg.json"
        cfg.write_text(json.dumps({"seed": 9}))
        assert run("gen-scene", "--out", "a.qpcd", "--config", cfg, "--seed", 4) == 0
        assert run("gen-scene", "--out", "b.qpcd", "--seed", 4) == 0
        assert (workspace / "a.qpcd").read_bytes() == (workspace / "b.qpcd").read_bytes()

    def test_unknown_config_key_rejected(self, workspace, capsys):
        cfg = workspace / "cfg.json"
        cfg.write_text(json.dumps({"not_a_flag": 1}))
        assert run("gen-scene", "--out", "a.qpcd", "--config", cfg) == 2

    def test_flag_equal_to_default_beats_config(self, workspace):
        occ, inten = encoded_frame(workspace)
        cfg = workspace / "cfg.json"
        cfg.write_text(json.dumps({"drop_rate": 0.5}))
        sim = ("simulate", "--in", "f.qpfr", "--codebooks", occ, inten, "--mtu", 128)
        assert run(*sim, "--config", cfg, "--drop-rate", "0.0", "--out", "a.qpcd",
                   "--report", "a.json") == 0
        assert run(*sim, "--out", "b.qpcd", "--report", "b.json") == 0
        assert (workspace / "a.qpcd").read_bytes() == (workspace / "b.qpcd").read_bytes()
        assert json.loads((workspace / "a.json").read_text())["drop_rate"] == 0.0

    @pytest.mark.parametrize(
        "cfg", [{"mtu": "abc"}, {"mtu": [1]}, {"fill": "bogus"}, {"no_clip": 1},
                {"codebooks": "occ.qpcb"}, {"seed": None}]
    )
    def test_bad_config_value_exits_2(self, workspace, cfg):
        path = workspace / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert exit_code("simulate", "--in", "f.qpfr", "--codebooks", "a", "b",
                         "--out", "x.qpcd", "--config", path) == 2
        assert not (workspace / "x.qpcd").exists()

    def test_list_and_switch_keys(self, workspace):
        scenes = make_scenes(workspace, n=1)
        occ, inten = train_codebooks(workspace, scenes)
        cfg = workspace / "cfg.json"
        cfg.write_text(json.dumps({"codebooks": [str(occ), str(inten)], "no_clip": True}))
        sw = ("sweep", "--scenes", scenes, "--p-list", "0", "--sigma", 0.3, "--mtu", 128)
        assert run(*sw, "--config", cfg, "--out-jsonl", "a.jsonl") == 0
        assert run(*sw, "--codebooks", occ, inten, "--no-clip", "--out-jsonl", "b.jsonl") == 0
        assert run(*sw, "--codebooks", occ, inten, "--out-jsonl", "c.jsonl") == 0
        a, b, c = ((workspace / f"{n}.jsonl").read_text() for n in "abc")
        assert a == b
        assert a != c  # at sigma 0.3 clipping moves points, so Chamfer differs

    @pytest.mark.parametrize("command,infile,out", [
        pytest.param("encode", "scenes/s0.qpcd", "frame.qpfr", id="encode"),
        pytest.param("decode", "f.qpfr", "cloud.qpcd", id="decode"),
        pytest.param("simulate", "f.qpfr", "cloud.qpcd", id="simulate"),
    ])
    def test_config_supplies_required_flags(self, workspace, command, infile, out):
        occ, inten = encoded_frame(workspace)
        cfg = workspace / "cfg.json"
        cfg.write_text(json.dumps(
            {"in": infile, "codebooks": [str(occ), str(inten)], "out": f"a_{out}"}
        ))
        assert run(command, "--config", cfg) == 0
        assert run(command, "--in", infile, "--codebooks", occ, inten, "--out", f"b_{out}") == 0
        assert (workspace / f"a_{out}").read_bytes() == (workspace / f"b_{out}").read_bytes()

    def test_flag_beats_config_for_a_required_flag(self, workspace):
        occ, inten = encoded_frame(workspace)
        cfg = workspace / "cfg.json"
        cfg.write_text(json.dumps(
            {"in": "f.qpfr", "codebooks": [str(occ), str(inten)], "out": "a.qpcd"}
        ))
        assert run("decode", "--out", "b.qpcd", "--config", cfg) == 0
        assert (workspace / "b.qpcd").exists() and not (workspace / "a.qpcd").exists()

    def test_required_flag_in_neither_place_exits_2(self, workspace, capsys):
        occ, inten = encoded_frame(workspace)
        cfg = workspace / "cfg.json"
        cfg.write_text(json.dumps({"in": "f.qpfr", "codebooks": [str(occ), str(inten)]}))
        assert exit_code("decode", "--config", cfg) == 2
        assert "--out" in capsys.readouterr().err

    def test_config_values_parsed_as_flags(self, workspace):
        cfg = workspace / "cfg.json"
        cfg.write_text(json.dumps({"n_vehicles": "0", "extent": "-5,5,-5,5,0,1.2"}))
        assert run("gen-scene", "--out", "a.qpcd", "--config", cfg) == 0
        assert run("gen-scene", "--out", "b.qpcd", "--n-vehicles", 0,
                   "--extent=-5,5,-5,5,0,1.2") == 0
        assert (workspace / "a.qpcd").read_bytes() == (workspace / "b.qpcd").read_bytes()


class TestTraceReplay:
    def test_replay_reports_no_channel(self, workspace, capsys):
        occ, inten = encoded_frame(workspace)
        frame = read_frame(workspace / "f.qpfr")
        cb_occ, cb_int = read_codebook(occ)[0], read_codebook(inten)[0]
        assert run("simulate", "--in", "f.qpfr", "--codebooks", occ, inten, "--drop-rate", 0.3,
                   "--mtu", 128, "--seed", 5, "--out", "a.qpcd", "--trace-out", "t.pkts") == 0
        capsys.readouterr()
        assert run("simulate", "--in", "f.qpfr", "--codebooks", occ, inten,
                   "--seed", 9, "--trace-in", "t.pkts", "--out", "b.qpcd",
                   "--report", "rep.json") == 0
        assert capsys.readouterr().out.startswith("replayed t.pkts: ")
        report = json.loads((workspace / "rep.json").read_text())
        assert not {"drop_rate", "mtu", "channel"} & set(report)
        *_, mask = receive(read_packet_trace(workspace / "t.pkts"), frame.spec, frame.patch,
                           cb_occ, cb_int, FillPolicy.empty())
        assert report["cells_lost"] == mask.n_lost > 0

    @pytest.mark.parametrize("flag", ["--drop-rate", "--latency-ms", "--jitter-ms"])
    def test_channel_flags_with_trace_in_exit_2(self, workspace, flag, capsys):
        occ, inten = encoded_frame(workspace)
        assert run("simulate", "--in", "f.qpfr", "--codebooks", occ, inten, "--mtu", 128,
                   "--out", "a.qpcd", "--trace-out", "t.pkts") == 0
        assert run("simulate", "--in", "f.qpfr", "--codebooks", occ, inten,
                   "--trace-in", "t.pkts", flag, "0.1", "--out", "b.qpcd") == 2
        assert "--trace-in" in capsys.readouterr().err
        assert not (workspace / "b.qpcd").exists()

    def test_header_loss_decodes_the_fill_constants(self, workspace):
        occ, inten = encoded_frame(workspace)
        frame = read_frame(workspace / "f.qpfr")
        (cb_occ, fill_occ), (cb_int, fill_int) = read_codebook(occ), read_codebook(inten)
        # the header travels in packet 0; the payload packets still arrive
        write_packet_trace(workspace / "t.pkts", packetize(frame, 128)[1:])
        h, w = frame.patch.latent_shape(frame.spec)
        shape = (h, w, cb_occ.dim)
        for fill in ("empty", "learned_constant", "neighbor_copy"):
            assert run("simulate", "--in", "f.qpfr", "--codebooks", occ, inten,
                       "--seed", 3, "--fill", fill, "--trace-in", "t.pkts",
                       "--out", "sim.qpcd", "--report", "rep.json") == 0
            report = json.loads((workspace / "rep.json").read_text())
            assert report["cells_lost"] == report["cells_total"] == h * w
            consts = (0.0, 0.0) if fill == "empty" else (fill_occ, fill_int)
            occ_vec, int_vec = (np.broadcast_to(c, shape) for c in consts)
            voxels = threshold_voxels(vector_rows(occ_vec), vector_rows(int_vec), frame.patch,
                                      frame.spec)
            want = decode_voxels(voxels, DecodeConfig(), derive_seed(3, 2))
            write_qpcd(workspace / "want.qpcd", want)
            assert (workspace / "sim.qpcd").read_bytes() == (workspace / "want.qpcd").read_bytes()
            assert report["decoded_points"] == len(want)
            assert (len(want) == 0) == (fill == "empty")


# a 32x32x4 grid with 2x2 patches keeps each corrupt-input run to a few ms
SMALL_GRID = ("--grid", "0.3125,0.3125,0.3,32,32,4")
VALID = {"frame": "f.qpfr", "trace": "t.pkts", "occ": "occ.qpcb", "int": "int.qpcb",
         "scene": "s0.qpcd"}
# per input kind: the (role, file) pairs of that kind, the commands that read it
CORRUPTED = [
    pytest.param([("frame", "f.qpfr")], ("decode", "simulate", "replay"), id="frame"),
    pytest.param([("trace", "t.pkts")], ("replay",), id="trace"),
    pytest.param([("occ", "occ.qpcb"), ("int", "int.qpcb")],
                 ("decode", "simulate", "replay", "encode"), id="qpcb"),
    pytest.param([("scene", "s0.qpcd")], ("encode",), id="qpcd"),
    pytest.param([("scene", "s0.csv")], ("encode",), id="csv"),
]


def _commands(paths, out):
    """Each command that reads an input, reading the files in ``paths``."""
    cb = ("--codebooks", paths["occ"], paths["int"])
    frame = ("--in", paths["frame"], *cb, "--out", out)
    return {
        "decode": ("decode", *frame),
        "simulate": ("simulate", *frame, "--drop-rate", 0.3, "--mtu", 128),
        "replay": ("simulate", *frame, "--trace-in", paths["trace"]),
        "encode": ("encode", "--in", paths["scene"], *SMALL_GRID, *cb, "--out", out),
    }


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """One valid file of every kind a command reads: a frame, a lossy packet
    trace of it, both codebooks, and its scene as QPCD and as CSV."""
    d = tmp_path_factory.mktemp("corpus")
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("QPC_SEED", raising=False)
        assert run("gen-scene", "--out", d / "s0.qpcd", "--seed", 0) == 0
        assert run("train", "--scenes", d, *SMALL_GRID, "--k", 32, "--seed", 5,
                   "--out-occ", d / "occ.qpcb", "--out-int", d / "int.qpcb") == 0
        paths = {role: d / name for role, name in VALID.items()}
        assert run(*_commands(paths, d / "f.qpfr")["encode"]) == 0
        assert run(*_commands(paths, d / "x.qpcd")["simulate"], "--trace-out", d / "t.pkts") == 0
        rows = read_qpcd(d / "s0.qpcd").points[:200].tolist()
        (d / "s0.csv").write_text(
            "x,y,z,intensity\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)
        )
        assert run(*_commands(paths | {"scene": d / "s0.csv"}, d / "c.qpfr")["encode"]) == 0
        (d / "corrupt").mkdir()
        yield d


def _positions(n: int):
    """Positions in [0, n), a third of them in the first 16 bytes (every
    format's magic and first size fields) and a third in the first 160 (every
    header; a frame's is 121 bytes)."""
    return st.one_of(*(st.integers(0, min(n, m) - 1) for m in (16, 160, n)))


@st.composite
def corruptions(draw, data: bytes) -> bytes:
    """``data`` truncated, or with one to three of its bits flipped."""
    if draw(st.booleans()):
        return data[: draw(_positions(len(data)))]
    out = bytearray(data)
    bits = st.builds(lambda byte, bit: 8 * byte + bit, _positions(len(data)), st.integers(0, 7))
    for bit in draw(st.lists(bits, min_size=1, max_size=3, unique=True)):
        out[bit // 8] ^= 1 << bit % 8
    return bytes(out)


_FIELD_CODES = [
    ("magic", "4s"),
    ("version", "B"),
    *((name, "I") for name in ("agent_id", "frame_id", "k_occ", "k_int", "h", "w")),
    *((f"{group}.{axis}", "d") for group in ("origin", "cell") for axis in "xyz"),
    *((name, "I") for name in ("dims.x", "dims.y", "dims.z", "p_h", "p_w")),
    *((f"pose.{axis}", "f") for axis in ("x", "y", "z", "roll", "pitch", "yaw")),
]
# every frame header field as (name, struct code, byte offset)
HEADER_FIELDS = [
    (name, code, struct.calcsize("<" + "".join(c for _, c in _FIELD_CODES[:i])))
    for i, (name, code) in enumerate(_FIELD_CODES)
]
assert HEADER_FIELDS[-1][2] + 4 == struct.calcsize(_HEADER_FMT)
_F32_MAX = float(np.finfo(np.float32).max)
# an f32 field cannot hold +-1e308 or 5e-324, so it takes the f32 extremes instead
HOSTILE_FIELD_VALUES = {
    "4s": (b"\0\0\0\0", b"QPCB", b"\xff\xff\xff\xff"),
    "B": (0, 2, 255),
    "I": (0, 1, 2**31, 2**32 - 1),
    "d": (0.0, -0.0, math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324),
    "f": (0.0, -0.0, math.nan, math.inf, -math.inf, _F32_MAX, -_F32_MAX, 1e-45),
}


class TestCorruptInputs:
    @pytest.mark.parametrize("files,commands", CORRUPTED)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_exit_0_with_output_or_3_without(self, corpus, files, commands, data):
        role, name = data.draw(st.sampled_from(files))
        corrupt = corpus / "corrupt" / name
        corrupt.write_bytes(data.draw(corruptions((corpus / name).read_bytes())))
        paths = {r: corpus / n for r, n in VALID.items()} | {role: corrupt}
        out = corpus / "corrupt" / "out"
        argvs = _commands(paths, out)
        for command in commands:
            out.unlink(missing_ok=True)
            code = run(*argvs[command])
            assert code in (0, 3), (command, code)
            assert out.exists() == (code == 0), command

    @settings(max_examples=60, deadline=None)
    @given(field=st.sampled_from(HEADER_FIELDS), data=st.data())
    def test_hostile_header_field_exits_0_with_output_or_3_without(self, corpus, field, data):
        name, fmt, offset = field
        value = data.draw(st.sampled_from(HOSTILE_FIELD_VALUES[fmt]), label=name)
        blob = bytearray((corpus / "f.qpfr").read_bytes())
        struct.pack_into("<" + fmt, blob, offset, value)
        frame = corpus / "corrupt" / "hostile.qpfr"
        frame.write_bytes(bytes(blob))
        out = corpus / "corrupt" / "out"
        paths = {r: corpus / n for r, n in VALID.items()} | {"frame": frame}
        argvs = _commands(paths, out)
        for command in ("decode", "simulate"):
            out.unlink(missing_ok=True)
            code = run(*argvs[command])
            assert code in (0, 3), (command, code)
            assert out.exists() == (code == 0), command

    @pytest.mark.parametrize("command", ["decode", "simulate"])
    def test_header_grid_over_the_voxel_cap_exits_3(self, corpus, capsys, command):
        # a 121-byte frame declaring a 2**20 x 2**20 x 1 grid of 1x1 patches and
        # K = 1, so its payload is empty; the grid alone is over the voxel cap
        header = struct.pack(_HEADER_FMT, FRAME_MAGIC, FRAME_VERSION, 0, 0, 1, 1, 2**20, 2**20,
                             0, 0, 0, 1, 1, 1, 2**20, 2**20, 1, 1, 1, 0, 0, 0, 0, 0, 0)
        frame = corpus / "corrupt" / "huge.qpfr"
        frame.write_bytes(header)
        out = corpus / "corrupt" / "out"
        out.unlink(missing_ok=True)
        paths = {r: corpus / n for r, n in VALID.items()} | {"frame": frame}
        capsys.readouterr()
        assert run(*_commands(paths, out)[command]) == 3
        err = capsys.readouterr().err
        assert "bad frame header" in err and "Traceback" not in err
        assert not out.exists()
