"""Command-line surface: scene generation, codebook training, encode/decode,
channel simulation, metric sweeps, and the communication-volume formula.

Exit codes: 0 success; 2 a bad flag, reported before any file is read;
3 a problem with a file or with data (missing or corrupt files, pipeline
failures).  Each command starts with one flags phase (``_flags``) that reads
no file and builds every value that comes from flags with the library's own
constructors, so their ``ValueError`` is the exit-2 message.  The environment
variable ``QPC_SEED`` overrides any ``--seed`` flag.  Output files are
written to a temporary name and renamed on success, so a failing command
never leaves a partial file behind.

Every command but ``volume`` accepts ``--config FILE`` (JSON).  Keys are
the flag names with dashes replaced by underscores.  The values are parsed
as flags placed right after the command name, so they are validated exactly
like flags, and an explicit flag, coming later, wins over the config file,
which wins over built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from . import metrics, pcio, scenegen, wire
from .channel import ChannelConfig
from .codec import DecodeConfig, decode, encode
from .geometry import PatchSpec, VoxelGridSpec, training_vectors
from .metrics import sweep as run_sweep
from .quantizer import (
    KIND_INT,
    KIND_OCC,
    QuantizerConfig,
    read_codebook,
    train_dual,
    write_codebook,
)
from .seeds import derive_seed
from .tolerance import POLICIES, POLICY_LEARNED, FillPolicy, fit_fill_vector
from .wire import Pose, comm_volume_log2_bytes, read_frame, write_frame

USAGE_ERROR = 2
DATA_ERROR = 3

# desk preset: small enough for interactive runs; the reference preset is the
# full-scale configuration (N = 11520 latent cells, D = 1024, K = 2048)
PRESETS = {
    "desk": {
        "cell": (0.15625, 0.15625, 0.15),
        "dims": (64, 64, 8),
        "patch": (2, 2),
        "k": 128,
    },
    "reference": {
        "cell": (0.15625, 0.15625, 0.15),
        "dims": (640, 1152, 16),
        "patch": (8, 8),
        "k": 2048,
    },
}


class UsageError(Exception):
    """A bad flag value or flag combination (exit 2); data errors are
    ``ValueError`` or ``OSError`` (exit 3)."""


@contextmanager
def _flags():
    """A command's flags phase: it reads no file, and a ``ValueError``
    raised in it is a bad flag."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _floats(text: str, n: int | None, what: str) -> tuple:
    vals = tuple(float(p) for p in text.split(","))
    if n is not None and len(vals) != n:
        raise ValueError(f"{what} needs {n} comma-separated values, got {len(vals)}")
    return vals


def _ints(vals, what: str) -> tuple:
    if not all(v.is_integer() for v in vals):
        raise ValueError(f"{what} must be integers")
    return tuple(int(v) for v in vals)


def _seed(args) -> int:
    env = os.environ.get("QPC_SEED")
    if env is None:
        return args.seed
    if not env.strip().lstrip("+-").replace("_", "").isdecimal():
        raise ValueError(f"QPC_SEED must be an integer, got {env!r}")
    return int(env)


def _grid(args) -> tuple[VoxelGridSpec, PatchSpec]:
    """The grid and its patch from --preset, --grid, --origin and --dim-patch."""
    preset = PRESETS[args.preset]
    cell, dims, patch = preset["cell"], preset["dims"], preset["patch"]
    if args.grid is not None:
        vals = _floats(args.grid, 6, "--grid")
        cell, dims = vals[:3], _ints(vals[3:], "--grid dims")
    if args.dim_patch is not None:
        patch = _ints(_floats(args.dim_patch, 2, "--dim-patch"), "--dim-patch values")
    spec = VoxelGridSpec(_floats(args.origin, 3, "--origin"), cell, dims)
    patch = PatchSpec(*patch)
    patch.latent_shape(spec)
    return spec, patch


def _atomic(path, write_fn) -> None:
    """Write through a temp file in the same directory, rename on success."""
    path = Path(path)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _config_tokens(path, command: argparse.ArgumentParser) -> list:
    """The --config JSON object as flag tokens of ``command``."""
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must contain a JSON object")
    actions = {a.dest: a for a in command._actions if a.option_strings}
    del actions["help"]
    tokens = []
    for key, value in cfg.items():
        action = actions.get(key)
        if action is None:
            raise UsageError(f"unknown config key {key!r}")
        flag = action.option_strings[0]
        if action.nargs == 0:  # a store_true switch
            if not isinstance(value, bool):
                raise UsageError(f"config key {key!r} must be true or false")
            tokens += [flag] if value else []
        elif action.nargs is not None:
            if not isinstance(value, list):
                raise UsageError(f"config key {key!r} must be a list")
            tokens += [flag, *map(str, value)]
        elif isinstance(value, (str, int, float)) and not isinstance(value, bool):
            # one token, so a value starting with '-' is not taken for a flag
            tokens.append(f"{flag}={value}")
        else:
            raise UsageError(f"config key {key!r} must be a string or a number")
    return tokens


def _read_codebooks(paths):
    by_kind = {cb.kind: (cb, fill) for cb, fill in map(read_codebook, paths)}
    if set(by_kind) != {KIND_OCC, KIND_INT}:
        raise ValueError("need one occupancy codebook and one intensity codebook")
    return by_kind[KIND_OCC], by_kind[KIND_INT]


def _train(clouds, spec, patch, cfg_occ, cfg_int):
    """Both trained codebooks with their fill vectors, as ``_read_codebooks`` returns them."""
    occ_samples, int_samples = training_vectors(clouds, spec, patch)
    cb_occ, cb_int = train_dual(occ_samples, int_samples, cfg_occ, cfg_int)
    return (cb_occ, fit_fill_vector(occ_samples)), (cb_int, fit_fill_vector(int_samples))


def _scene_files(directory) -> list:
    d = Path(directory)
    if not d.is_dir():
        raise ValueError(f"--scenes is not a directory: {directory}")
    files = sorted(p for p in d.iterdir() if p.suffix.lower() in (".qpcd", ".csv"))
    if not files:
        raise ValueError(f"no .qpcd or .csv scenes in {directory}")
    return files


# --- commands -------------------------------------------------------------


def cmd_gen_scene(args) -> int:
    with _flags():
        extent = _floats(args.extent, 6, "--extent")
        cfg = scenegen.SceneConfig(
            seed=_seed(args),
            extent=(extent[0:2], extent[2:4], extent[4:6]),
            n_vehicles=args.n_vehicles,
            ground_density=args.ground_density,
            surface_density=args.surface_density,
        )
    try:
        cloud, boxes = scenegen.generate(cfg)
    except RuntimeError as exc:
        raise ValueError(str(exc)) from exc
    _atomic(args.out, lambda p: pcio.write_qpcd(p, cloud))
    if args.boxes:
        payload = json.dumps([b.to_dict() for b in boxes], indent=2, sort_keys=True)
        _atomic(args.boxes, lambda p: Path(p).write_text(payload + "\n"))
    print(f"wrote {len(cloud)} points to {args.out}")
    return 0


def cmd_train(args) -> int:
    with _flags():
        seed = _seed(args)
        spec, patch = _grid(args)
        k = PRESETS[args.preset]["k"] if args.k is None else args.k
        cfg_occ, cfg_int = (
            QuantizerConfig(
                k=k, dim=patch.vector_dim(spec), dead_limit=args.dead_limit,
                ema_decay=args.ema_decay, refresh_period=args.refresh_period,
                reservoir_size=args.reservoir_size, seed=derive_seed(seed, i),
            )
            for i in (0, 1)
        )
    clouds = map(pcio.read_cloud, _scene_files(args.scenes))
    (cb_occ, fill_occ), (cb_int, fill_int) = _train(clouds, spec, patch, cfg_occ, cfg_int)
    _atomic(args.out_occ, lambda p: write_codebook(p, cb_occ, fill=fill_occ))
    _atomic(args.out_int, lambda p: write_codebook(p, cb_int, fill=fill_int))
    summary = ", ".join(
        f"{cb.kind} err {cb.trace.errors[-1]:.6g} "
        f"(dead {int((cb.usage == 0).sum())}, refreshes {len(cb.trace.refresh_iters)})"
        for cb in (cb_occ, cb_int)
    )
    # the final pass assigns every training vector once
    print(f"trained K={k} D={cb_occ.dim} on {cb_occ.usage.sum()} vectors: {summary}")
    return 0


def cmd_encode(args) -> int:
    with _flags():
        spec, patch = _grid(args)
        pose = Pose(*_floats(args.pose, 6, "--pose"))
        wire.check_ids(args.agent_id, args.frame_id)
    cloud = pcio.read_cloud(args.infile)
    (cb_occ, _), (cb_int, _) = _read_codebooks(args.codebooks)
    im = encode(cloud, spec, patch, cb_occ, cb_int)
    frame = wire.serialize(im, pose, agent_id=args.agent_id, frame_id=args.frame_id)
    _atomic(args.out, lambda p: write_frame(p, frame))
    print(f"wrote frame ({frame.total_nbytes} bytes, {im.h}x{im.w} cells) to {args.out}")
    return 0


def cmd_decode(args) -> int:
    with _flags():
        decode_cfg = DecodeConfig(args.sigma, args.points_per_voxel, not args.no_clip, _seed(args))
    frame = read_frame(args.infile)
    (cb_occ, _), (cb_int, _) = _read_codebooks(args.codebooks)
    im, _mask = wire.deserialize(frame)
    cloud = decode(im, cb_occ, cb_int, decode_cfg)
    _atomic(args.out, lambda p: pcio.write_qpcd(p, cloud))
    print(f"decoded {len(cloud)} points to {args.out}")
    return 0


def cmd_simulate(args) -> int:
    with _flags():
        seed = _seed(args)
        channel = ChannelConfig(args.drop_rate, args.latency_ms, args.jitter_ms)
        if args.trace_in and (args.drop_rate or args.latency_ms or args.jitter_ms
                              or args.mtu != args.parser.get_default("mtu")):
            raise ValueError("--trace-in replays recorded packets: no channel flags, no --mtu")
        wire.check_mtu(args.mtu)
        decode_cfg = DecodeConfig(args.sigma, args.points_per_voxel, not args.no_clip)
    frame = read_frame(args.infile)
    (cb_occ, fill_occ), (cb_int, fill_int) = _read_codebooks(args.codebooks)
    policy = FillPolicy(args.fill, fill_occ, fill_int)

    if args.trace_in:
        delivered, report = wire.read_packet_trace(args.trace_in), None
    else:
        delivered, report = metrics.deliver(frame, channel, args.mtu, seed)
    if args.trace_out:
        _atomic(args.trace_out, lambda p: wire.write_packet_trace(p, delivered))

    mask, _, _, cloud = metrics.reconstruct(
        delivered, frame.spec, frame.patch, cb_occ, cb_int, policy, decode_cfg, seed
    )
    _atomic(args.out, lambda p: pcio.write_qpcd(p, cloud))
    if args.report:
        payload = {
            "cell_loss_rate": mask.cell_loss_rate,
            "cells_lost": mask.n_lost,
            "cells_total": mask.lost.size,
            "decoded_points": len(cloud),
            "fill": args.fill,
            "seed": seed,
        }
        if report is not None:  # a replay ran no channel
            payload.update(channel=report.to_json_dict(), drop_rate=args.drop_rate, mtu=args.mtu)
        text = json.dumps(payload, indent=2, sort_keys=True)
        _atomic(args.report, lambda p: Path(p).write_text(text + "\n"))
    source = (f"replayed {args.trace_in}" if args.trace_in
              else f"simulated drop_rate={args.drop_rate}")
    print(f"{source}: {mask.n_lost}/{mask.lost.size} cells lost, {len(cloud)} points decoded")
    return 0


def cmd_sweep(args) -> int:
    with _flags():
        seed = _seed(args)
        spec, patch = _grid(args)
        p_values = _floats(args.p_list, None, "--p-list")
        for p in p_values:
            ChannelConfig(p)
        if args.trials < 1:
            raise ValueError("--trials must be >= 1")
        if args.jobs < 1:
            raise ValueError("--jobs must be >= 1")
        wire.check_mtu(args.mtu)
        if args.codebooks and args.k is not None:
            raise ValueError("--codebooks reads trained codebooks; it takes no --k")
        if not args.codebooks:
            k = PRESETS[args.preset]["k"] if args.k is None else args.k
            cfg_occ, cfg_int = (
                QuantizerConfig(k=k, dim=patch.vector_dim(spec), seed=derive_seed(seed, i))
                for i in (100, 101)
            )
        decode_cfg = DecodeConfig(args.sigma, args.points_per_voxel, not args.no_clip)

    files = _scene_files(args.scenes)
    scenes = [pcio.read_cloud(p) for p in files]
    if args.codebooks:
        (cb_occ, fill_occ), (cb_int, fill_int) = _read_codebooks(args.codebooks)
    else:
        (cb_occ, fill_occ), (cb_int, fill_int) = _train(scenes, spec, patch, cfg_occ, cfg_int)
    policy = FillPolicy(args.fill, fill_occ, fill_int)

    result = run_sweep(
        scenes,
        p_values,
        args.trials,
        cb_occ,
        cb_int,
        spec,
        patch,
        policy,
        decode_cfg=decode_cfg,
        mtu=args.mtu,
        master_seed=seed,
        jobs=args.jobs,
    )
    scene_ids = [f.stem for f in files]
    if args.out_jsonl:
        _atomic(args.out_jsonl, lambda p: metrics.write_reports_jsonl(p, result.reports))
    if args.out_csv:
        _atomic(
            args.out_csv,
            lambda p: metrics.write_summary_csv(p, result.reports, scene_ids, args.trials, p_values),
        )
    for agg in result.aggregates:
        mean = agg["mean_chamfer"]
        print(
            f"p={agg['p']:<5g} trials={agg['n']:<4d} "
            f"chamfer={mean if mean is None else f'{mean:.4f}'} "
            f"cell_loss={agg['mean_cell_loss_rate']:.3f} failed={agg['n_failed']}"
        )
    return 0


def cmd_volume(args) -> int:
    with _flags():
        value = comm_volume_log2_bytes(args.n, args.k)
    print(f"{value:.2f}")
    return 0


# --- parser ----------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, *, grid: bool = False, seed: bool = True) -> None:
    p.add_argument("--config", default=None, help="JSON config overlay (flag names as keys)")
    if seed:
        p.add_argument("--seed", type=int, default=0, help="master seed (QPC_SEED overrides)")
    if grid:
        p.add_argument("--preset", choices=sorted(PRESETS), default="desk")
        p.add_argument("--grid", default=None, metavar="dx,dy,dz,H,W,L")
        p.add_argument("--origin", default="0,0,0", metavar="x,y,z")
        p.add_argument("--dim-patch", default=None, metavar="p_h,p_w")


def _add_decode_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sigma", type=float, default=None, help="Gaussian std in m (default dx/4)")
    p.add_argument("--points-per-voxel", type=int, default=1)
    p.add_argument("--no-clip", action="store_true", help="do not clip samples to the voxel box")


def _add_receiver_flags(p: argparse.ArgumentParser) -> None:
    """The flags of a lossy trial's receiver, shared by ``simulate`` and ``sweep``."""
    p.add_argument("--mtu", type=int, default=1200)
    p.add_argument("--fill", choices=POLICIES, default=POLICY_LEARNED)
    _add_decode_flags(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpc", description="quantized point-cloud communication toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, run, help):
        cmd = sub.add_parser(name, help=help)
        # the command's own parser tells _config_tokens its flags
        cmd.set_defaults(run=run, parser=cmd)
        return cmd

    p = add_command("gen-scene", cmd_gen_scene, help="generate a synthetic scene as QPCD")
    _add_common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--boxes", default=None, help="also write ground-truth boxes as JSON")
    p.add_argument("--n-vehicles", type=int, default=4)
    p.add_argument("--extent", default="0,10,0,10,0,1.2", metavar="x0,x1,y0,y1,z0,z1")
    p.add_argument("--ground-density", type=float, default=120.0)
    p.add_argument("--surface-density", type=float, default=160.0)

    p = add_command("train", cmd_train, help="train dual codebooks from a scene directory")
    _add_common(p, grid=True)
    p.add_argument("--scenes", required=True)
    p.add_argument("--k", type=int, default=None, help="codebook size (preset default)")
    p.add_argument("--out-occ", required=True)
    p.add_argument("--out-int", required=True)
    p.add_argument("--dead-limit", type=int, default=256)
    p.add_argument("--ema-decay", type=float, default=0.99)
    p.add_argument("--refresh-period", type=int, default=10)
    p.add_argument("--reservoir-size", type=int, default=4096)

    p = add_command("encode", cmd_encode, help="encode a cloud into a frame file")
    _add_common(p, grid=True, seed=False)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--codebooks", nargs=2, required=True, metavar=("OCC", "INT"))
    p.add_argument("--out", required=True)
    p.add_argument("--agent-id", type=int, default=0)
    p.add_argument("--frame-id", type=int, default=0)
    p.add_argument("--pose", default="0,0,0,0,0,0", metavar="x,y,z,roll,pitch,yaw")

    p = add_command("decode", cmd_decode, help="decode a frame file back into a cloud")
    _add_common(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--codebooks", nargs=2, required=True, metavar=("OCC", "INT"))
    p.add_argument("--out", required=True)
    _add_decode_flags(p)

    p = add_command("simulate", cmd_simulate, help="packetize, drop, reassemble, and decode")
    _add_common(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--codebooks", nargs=2, required=True, metavar=("OCC", "INT"))
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None, help="write a JSON channel/loss report")
    p.add_argument("--drop-rate", type=float, default=0.0)
    p.add_argument("--latency-ms", type=float, default=0.0)
    p.add_argument("--jitter-ms", type=float, default=0.0)
    p.add_argument("--trace-out", default=None, help="dump delivered packets to a trace file")
    p.add_argument("--trace-in", default=None, help="replay delivered packets from a trace file")
    _add_receiver_flags(p)

    p = add_command("sweep", cmd_sweep, help="drop-rate sweep over a scene directory")
    _add_common(p, grid=True)
    p.add_argument("--scenes", required=True)
    p.add_argument("--p-list", default="0,0.1,0.2,0.3,0.4")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--out-csv", default=None)
    p.add_argument("--out-jsonl", default=None)
    p.add_argument("--codebooks", nargs=2, default=None, metavar=("OCC", "INT"))
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    _add_receiver_flags(p)

    p = add_command("volume", cmd_volume, help="print the communication-volume metric")
    p.add_argument("--n", type=int, default=11520, help="number of latent cells")
    p.add_argument("--k", type=int, default=2048, help="codebook size (power of two)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None) is not None:
            at = argv.index(args.command) + 1
            tokens = _config_tokens(args.config, args.parser)
            args = parser.parse_args(argv[:at] + tokens + argv[at:])
        return args.run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
