"""Command-line surface: scene generation, codebook training, encode/decode,
channel simulation, metric sweeps, and the communication-volume formula.

Exit codes: 0 success, 2 usage error (bad flags or flag-level invariants),
3 data error (missing/corrupt files, pipeline failures).  The environment
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
from pathlib import Path

from . import metrics, pcio, scenegen, wire
from .channel import ChannelConfig, transmit
from .codec import DecodeConfig, decode, decode_vectors, encode
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
from .tolerance import FillPolicy, fit_fill_vector
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


def _parse_floats(text: str, n: int, what: str) -> tuple:
    parts = text.split(",")
    if len(parts) != n:
        raise UsageError(f"{what} needs {n} comma-separated values, got {len(parts)}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"{what}: {exc}") from exc


def _resolve_seed(seed: int) -> int:
    env = os.environ.get("QPC_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise UsageError(f"QPC_SEED must be an integer, got {env!r}") from exc
    return seed


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


def _grid_spec(args) -> VoxelGridSpec:
    preset = PRESETS[args.preset]
    if args.grid is not None:
        vals = _parse_floats(args.grid, 6, "--grid")
        cell = vals[:3]
        dims = tuple(int(v) for v in vals[3:])
        if any(v != int(v) for v in vals[3:]):
            raise UsageError("--grid dims must be integers")
    else:
        cell, dims = preset["cell"], preset["dims"]
    origin = _parse_floats(args.origin, 3, "--origin")
    try:
        return VoxelGridSpec(origin, cell, dims)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _patch_spec(args) -> PatchSpec:
    if args.dim_patch is not None:
        vals = _parse_floats(args.dim_patch, 2, "--dim-patch")
        if any(v != int(v) for v in vals):
            raise UsageError("--dim-patch values must be integers")
        p_h, p_w = (int(v) for v in vals)
    else:
        p_h, p_w = PRESETS[args.preset]["patch"]
    try:
        return PatchSpec(p_h, p_w)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _read_codebooks(paths):
    by_kind = {cb.kind: (cb, fill) for cb, fill in map(read_codebook, paths)}
    if set(by_kind) != {KIND_OCC, KIND_INT}:
        raise ValueError("need one occupancy codebook and one intensity codebook")
    return by_kind[KIND_OCC], by_kind[KIND_INT]


def _scene_files(directory) -> list:
    d = Path(directory)
    if not d.is_dir():
        raise ValueError(f"--scenes is not a directory: {directory}")
    files = sorted(p for p in d.iterdir() if p.suffix.lower() in (".qpcd", ".csv"))
    if not files:
        raise ValueError(f"no .qpcd or .csv scenes in {directory}")
    return files


def _fill_policy(name: str, fill_occ, fill_int) -> FillPolicy:
    if name == "empty":
        return FillPolicy.empty()
    if name == "learned_constant":
        if fill_occ is None or fill_int is None:
            raise ValueError("learned_constant fill requires codebooks with FILL blocks")
        return FillPolicy.learned_constant(fill_occ, fill_int)
    return FillPolicy.neighbor_copy(fill_occ, fill_int)


# --- commands -------------------------------------------------------------


def cmd_gen_scene(args) -> int:
    seed = _resolve_seed(args.seed)
    extent = _parse_floats(args.extent, 6, "--extent")
    try:
        cfg = scenegen.SceneConfig(
            seed=seed,
            extent=(extent[0:2], extent[2:4], extent[4:6]),
            n_vehicles=args.n_vehicles,
            ground_density=args.ground_density,
            surface_density=args.surface_density,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
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
    seed = _resolve_seed(args.seed)
    spec = _grid_spec(args)
    patch = _patch_spec(args)
    k = args.k if args.k is not None else PRESETS[args.preset]["k"]
    if k < 1:
        raise UsageError("--k must be >= 1")
    dim = patch.vector_dim(spec)
    clouds = map(pcio.read_cloud, _scene_files(args.scenes))
    occ_samples, int_samples = training_vectors(clouds, spec, patch)

    try:
        base = dict(
            k=k,
            dim=dim,
            dead_limit=args.dead_limit,
            ema_decay=args.ema_decay,
            refresh_period=args.refresh_period,
            reservoir_size=args.reservoir_size,
        )
        cfg_occ = QuantizerConfig(seed=derive_seed(seed, 0), **base)
        cfg_int = QuantizerConfig(seed=derive_seed(seed, 1), **base)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    cb_occ, cb_int = train_dual(occ_samples, int_samples, cfg_occ, cfg_int)
    fill_occ = fit_fill_vector(occ_samples)
    fill_int = fit_fill_vector(int_samples)
    _atomic(args.out_occ, lambda p: write_codebook(p, cb_occ, fill=fill_occ))
    _atomic(args.out_int, lambda p: write_codebook(p, cb_int, fill=fill_int))
    summary = ", ".join(
        f"{cb.kind} err {cb.trace.errors[-1]:.6g} "
        f"(dead {int((cb.usage == 0).sum())}, refreshes {len(cb.trace.refresh_iters)})"
        for cb in (cb_occ, cb_int)
    )
    print(f"trained K={k} D={dim} on {occ_samples.shape[0]} vectors: {summary}")
    return 0


def cmd_encode(args) -> int:
    spec = _grid_spec(args)
    patch = _patch_spec(args)
    cloud = pcio.read_cloud(args.infile)
    (cb_occ, _), (cb_int, _) = _read_codebooks(args.codebooks)
    pose = Pose(*_parse_floats(args.pose, 6, "--pose"))
    im = encode(cloud, spec, patch, cb_occ, cb_int)
    frame = wire.serialize(im, pose, agent_id=args.agent_id, frame_id=args.frame_id)
    _atomic(args.out, lambda p: write_frame(p, frame))
    print(f"wrote frame ({frame.total_nbytes} bytes, {im.h}x{im.w} cells) to {args.out}")
    return 0


def _decode_cfg(args, seed) -> DecodeConfig:
    try:
        return DecodeConfig(
            sigma=args.sigma,
            points_per_voxel=args.points_per_voxel,
            clip_to_voxel=not args.no_clip,
            seed=seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_decode(args) -> int:
    seed = _resolve_seed(args.seed)
    frame = read_frame(args.infile)
    (cb_occ, _), (cb_int, _) = _read_codebooks(args.codebooks)
    im, _mask = wire.deserialize(frame)
    cloud = decode(im, cb_occ, cb_int, _decode_cfg(args, seed))
    _atomic(args.out, lambda p: pcio.write_qpcd(p, cloud))
    print(f"decoded {len(cloud)} points to {args.out}")
    return 0


def cmd_simulate(args) -> int:
    seed = _resolve_seed(args.seed)
    if not 0.0 <= args.drop_rate <= 1.0:
        raise UsageError("--drop-rate must lie in [0, 1]")
    if args.trace_in and (args.drop_rate or args.latency_ms or args.jitter_ms):
        raise UsageError("--trace-in replays recorded packets; it takes no channel flags")
    frame = read_frame(args.infile)
    (cb_occ, fill_occ), (cb_int, fill_int) = _read_codebooks(args.codebooks)
    policy = _fill_policy(args.fill, fill_occ, fill_int)

    try:
        packets = wire.packetize(frame, args.mtu)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.trace_in:
        delivered = wire.read_packet_trace(args.trace_in)
        report = None
    else:
        cfg = ChannelConfig(
            drop_rate=args.drop_rate,
            latency_ms=args.latency_ms,
            jitter_ms=args.jitter_ms,
            seed=derive_seed(seed, 1),
        )
        delivered, report = transmit(packets, cfg)
    if args.trace_out:
        _atomic(args.trace_out, lambda p: wire.write_packet_trace(p, delivered))

    spec, patch = frame.spec, frame.patch
    occ_vec, int_vec, mask = wire.receive(delivered, spec, patch, cb_occ, cb_int, policy)
    cloud = decode_vectors(occ_vec, int_vec, spec, patch, _decode_cfg(args, derive_seed(seed, 2)))
    _atomic(args.out, lambda p: pcio.write_qpcd(p, cloud))
    if args.report:
        payload = {
            "cell_loss_rate": mask.cell_loss_rate,
            "cells_lost": mask.n_lost,
            "cells_total": mask.lost.size,
            "decoded_points": len(cloud),
            "drop_rate": args.drop_rate,
            "fill": args.fill,
            "mtu": args.mtu,
            "seed": seed,
        }
        if report is not None:
            payload["channel"] = report.to_json_dict()
        text = json.dumps(payload, indent=2, sort_keys=True)
        _atomic(args.report, lambda p: Path(p).write_text(text + "\n"))
    print(
        f"simulated drop_rate={args.drop_rate}: {mask.n_lost}/{mask.lost.size} cells lost, "
        f"{len(cloud)} points decoded"
    )
    return 0


def cmd_sweep(args) -> int:
    seed = _resolve_seed(args.seed)
    spec = _grid_spec(args)
    patch = _patch_spec(args)
    p_values = list(_parse_floats(args.p_list, len(args.p_list.split(",")), "--p-list"))
    if any(not 0.0 <= p <= 1.0 for p in p_values):
        raise UsageError("--p-list values must lie in [0, 1]")
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")

    files = _scene_files(args.scenes)
    scenes = [pcio.read_cloud(p) for p in files]
    dim = patch.vector_dim(spec)

    if args.codebooks:
        (cb_occ, fill_occ), (cb_int, fill_int) = _read_codebooks(args.codebooks)
        if cb_occ.dim != dim:
            raise ValueError(f"codebook dim {cb_occ.dim} != patch vector dim {dim}")
    else:
        occ_samples, int_samples = training_vectors(scenes, spec, patch)
        k = args.k if args.k is not None else PRESETS[args.preset]["k"]
        cb_occ, cb_int = train_dual(
            occ_samples, int_samples,
            QuantizerConfig(k=k, dim=dim, seed=derive_seed(seed, 100)),
            QuantizerConfig(k=k, dim=dim, seed=derive_seed(seed, 101)),
        )
        fill_occ = fit_fill_vector(occ_samples)
        fill_int = fit_fill_vector(int_samples)
    policy = _fill_policy(args.fill, fill_occ, fill_int)

    result = run_sweep(
        scenes,
        p_values,
        args.trials,
        cb_occ,
        cb_int,
        spec,
        patch,
        policy,
        decode_cfg=_decode_cfg(args, 0),
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
    if args.n < 1:
        raise UsageError("--n must be >= 1")
    try:
        value = comm_volume_log2_bytes(args.n, args.k)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
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
    p.add_argument("--mtu", type=int, default=1200)
    p.add_argument("--latency-ms", type=float, default=0.0)
    p.add_argument("--jitter-ms", type=float, default=0.0)
    p.add_argument(
        "--fill",
        choices=("empty", "learned_constant", "neighbor_copy"),
        default="learned_constant",
    )
    p.add_argument("--trace-out", default=None, help="dump delivered packets to a trace file")
    p.add_argument("--trace-in", default=None, help="replay delivered packets from a trace file")
    _add_decode_flags(p)

    p = add_command("sweep", cmd_sweep, help="drop-rate sweep over a scene directory")
    _add_common(p, grid=True)
    p.add_argument("--scenes", required=True)
    p.add_argument("--p-list", default="0,0.1,0.2,0.3,0.4")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--out-csv", default=None)
    p.add_argument("--out-jsonl", default=None)
    p.add_argument("--codebooks", nargs=2, default=None, metavar=("OCC", "INT"))
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--mtu", type=int, default=1200)
    p.add_argument(
        "--fill",
        choices=("empty", "learned_constant", "neighbor_copy"),
        default="learned_constant",
    )
    p.add_argument("--jobs", type=int, default=1)
    _add_decode_flags(p)

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
