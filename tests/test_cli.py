import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpcomm import metrics
from qpcomm.channel import ChannelConfig
from qpcomm.cli import main
from qpcomm.codec import DecodeConfig, decode_grids
from qpcomm.geometry import unpatchify
from qpcomm.pcio import read_qpcd, write_qpcd
from qpcomm.quantizer import read_codebook
from qpcomm.seeds import derive_seed
from qpcomm.tolerance import POLICIES, FillPolicy
from qpcomm.wire import packetize, read_frame, read_packet_trace, receive, write_packet_trace


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

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_exits_2(self, workspace, capsys, jobs):
        scenes = make_scenes(workspace, n=1)
        assert exit_code("sweep", "--scenes", scenes, "--trials", 1, "--jobs", jobs) == 2
        assert "--jobs" in capsys.readouterr().err


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


class TestFlagsPhase:
    @pytest.mark.parametrize(
        "row",
        [
            "encode --agent-id -1",
            "encode --frame-id 4294967296",
            "encode --pose inf,0,0,0,0,0",
            "encode --pose 1,2",
            "encode --dim-patch 3,3",
            "train --dim-patch 3,3",
            "train --dim-patch inf,2",
            "train --grid 0.1,0.1,0.1,nan,64,8",
            "train --k 0",
            "train --ema-decay 2",
            "sweep --dim-patch 3,3",
            "sweep --mtu 10 --codebooks a b",
            "sweep --k 0",
            "sweep --k 32 --codebooks a b",
            "sweep --p-list 0.1,2",
            "sweep --trials 0",
            "sweep --jobs 0",
            "simulate --latency-ms -1",
            "simulate --jitter-ms nan",
            "simulate --drop-rate nan",
            "simulate --mtu 10",
            "simulate --trace-in t.pkts --drop-rate 0.1",
            "simulate --trace-in t.pkts --mtu 500",
            "decode --sigma -1",
            "decode --sigma nan",
            "decode --seed -5",
            "gen-scene --seed -5",
            "gen-scene --n-vehicles -1",
            "volume --n 0",
            "volume --k 3",
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
                FillPolicy(fill, fill_occ, fill_int), DecodeConfig(), 5,
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
        shape = (frame.h, frame.w, cb_occ.dim)
        for fill in ("empty", "learned_constant", "neighbor_copy"):
            assert run("simulate", "--in", "f.qpfr", "--codebooks", occ, inten,
                       "--seed", 3, "--fill", fill, "--trace-in", "t.pkts",
                       "--out", "sim.qpcd", "--report", "rep.json") == 0
            report = json.loads((workspace / "rep.json").read_text())
            assert report["cells_lost"] == report["cells_total"] == frame.h * frame.w
            consts = (0.0, 0.0) if fill == "empty" else (fill_occ, fill_int)
            want = decode_grids(
                *unpatchify(np.broadcast_to(consts[0], shape), np.broadcast_to(consts[1], shape),
                            frame.patch, frame.spec),
                DecodeConfig(seed=derive_seed(3, 2)),
            )
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
