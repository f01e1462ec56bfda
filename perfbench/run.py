"""Outside-in benchmark for qpcomm: closed loop, one caller, one process.

    python3 perfbench/run.py --workload reference-lossy --seed 3 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all          # every workload, each in a fresh process

The program is imported from ``src/`` next to this directory.  A run sets up
its inputs three times (``setup_s`` is the median), runs an untimed warm-up,
then times operations for about ``--seconds`` of operation time, and at
least until every distinct operation ran once.  Every operation's output is compared
with its golden; a mismatch or an exception counts as a failed operation.
With ``--trace 1`` half the time runs untraced and half traced, and the run
reports per-layer metrics instead of end-to-end ones.  The last line of
standard output is the result as one JSON object.
"""

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3


def _keep_freed_memory() -> bool:
    """Stop glibc from handing large freed blocks back to the kernel.

    By default every array above a few MB is mmapped and unmapped again, so
    each reference op faults in its gigabytes afresh: on a 2-vCPU VM that was
    1.5 s of system time per 6 s op and most of the run-to-run spread.  With
    freed memory kept, the timings measure the computation; allocation churn
    is not measured."""
    m_trim_threshold, m_mmap_threshold, int_max = -1, -3, 2**31 - 1
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return False
    return bool(libc.mallopt(m_mmap_threshold, int_max) and libc.mallopt(m_trim_threshold, int_max))


def pin_environment() -> dict:
    """Fix what the numbers depend on besides the program; call before numpy
    is imported.  BLAS threads are capped at 2 so runs on bigger machines
    compare with runs on a 2-core box."""
    threads = min(2, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return {"blas_threads": threads, "malloc_keeps_freed": _keep_freed_memory()}


def load_program():
    """Import qpcomm from this checkout's sources, never from elsewhere;
    returns the workloads module that drives it."""
    if not (SRC / "qpcomm" / "__init__.py").is_file():
        sys.exit(f"perfbench: no qpcomm sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qpcomm

    if Path(qpcomm.__file__).resolve().parent != SRC / "qpcomm":
        sys.exit(f"perfbench: qpcomm was imported from {qpcomm.__file__}, not {SRC}")
    import workloads

    return workloads


def environment(seed: int, pinned: dict) -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        **pinned,
        "commit": commit,
        "seed": seed,
    }


class Run:
    """One workload in one process: setup, warm-up, timed ops and checks."""

    def __init__(self, wl, pool: int, goldens: dict):
        self.wl = wl
        self.pool = pool
        self.golden = goldens.get(wl.name, {}).get(str(pool))
        self.problems = [] if self.golden else [f"no golden for {wl.name} input set {self.pool}"]
        self.attempted = self.failed = 0
        self.reports = []  # outputs of the first pass over every slot
        self.facts = {}
        self.st = None
        self.tracer = None

    def setup(self) -> float:
        times = []
        for _ in range(SETUP_REPEATS):
            self.st = None  # drop the previous copy before building the next
            t0 = time.perf_counter()
            self.st = self.wl.setup(self.pool)
            times.append(time.perf_counter() - t0)
        info = self.wl.check_setup(self.st)
        self.facts.update(info)
        if self.golden and info["setup_digest"] != self.golden["setup"]:
            self.problems.append("set-up output differs from its golden")
        if info.get("spot_mismatches"):
            self.problems.append(f"{info['spot_mismatches']} quantize indices differ from nearest()")
        spot = ", ".join(f"{k}={v}" for k, v in info.items() if k.startswith("spot_"))
        print(f"setup: {[round(t, 4) for t in times]} s; {spot}")
        return statistics.median(times)

    def op(self, slot: int, traced: bool = False) -> tuple[float, bool]:
        """Run and check one op; returns its time and whether it passed."""
        self.attempted += 1
        slot %= self.wl.slots
        ok, dt, info = False, None, None
        t0 = time.perf_counter()
        try:
            with self.tracer.active() if traced else contextlib.nullcontext():
                out = self.wl.op(self.st, slot)
            dt = time.perf_counter() - t0
            info = self.wl.check_op(self.st, out)
            ok = (self.golden is not None
                  and info["digest"] == self.golden["ops"][slot]
                  and not info.get("spot_mismatches"))
        except Exception:
            traceback.print_exc()
            dt = time.perf_counter() - t0 if dt is None else dt
        if not ok:
            self.failed += 1
        if info and len(self.reports) < self.wl.slots * len(info["reports"]):
            self.reports.extend(info["reports"])
            self.facts.update({k: v for k, v in info.items() if k not in ("digest", "reports")})
        print(f"op slot={slot} {'traced ' if traced else ''}{dt * 1e3:.1f} ms "
              f"{'ok' if ok else 'FAILED'}", flush=True)
        return dt, ok

    def measure(self, seconds: float, slot: int, min_slot: int, traced: bool = False):
        """Time ops from ``slot`` on, at least up to ``min_slot``, then while
        the next op is expected to end within ``seconds`` of op time.  Gives
        up after a bounded wall time if ops keep failing fast.  Returns the
        times of the ops that passed, and the next slot."""
        times, spent = [], 0.0
        start = time.perf_counter()
        while time.perf_counter() - start < 3 * seconds + 60:
            expected = statistics.median(times) if times else 0.0
            if slot >= min_slot and spent + expected > seconds:
                break
            dt, ok = self.op(slot, traced)
            spent += dt
            if ok:
                times.append(dt)
            slot += 1
        return times, slot

    def warmup(self) -> int:
        """Untimed warm-up; returns the first slot left to time."""
        warm = getattr(self.wl, "warmup", None)
        if warm is not None:
            warm(self.st)
            return 0
        self.op(0)
        return 1


def end_to_end(run: Run, setup_s: float, times: list) -> dict:
    wl = run.wl
    chamfers = [r.chamfer_m for r in run.reports if r.chamfer_m is not None]
    losses = [r.cell_loss_rate for r in run.reports]
    return {
        "setup_s": setup_s,
        "ops_per_s": wl.roundtrips_per_op * len(times) / sum(times) if times else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "chamfer_m.mean": statistics.fmean(chamfers) if chamfers else 0.0,
        "cell_loss_rate.mean": statistics.fmean(losses) if losses else 0.0,
        "frame_bytes": run.facts.get("frame_bytes", 0),
        "quant_mse": run.facts.get("quant_mse", 0.0),
    }


def run_one(wl, seed: int, pool: int, seconds: int, trace: bool, bench: dict, pinned: dict) -> int:
    name = wl.name
    print(f"perfbench workload={name} seed={seed} input_set={pool} "
          f"seconds={seconds} trace={int(trace)}")
    print("env " + " ".join(f"{k}={v}" for k, v in environment(seed, pinned).items()))
    goldens = json.loads((HERE / "goldens.json").read_text())
    run = Run(wl, pool, goldens)
    setup_s = run.setup()
    slot = run.warmup()
    if not trace:
        times, _ = run.measure(seconds, slot, wl.slots)
        values = end_to_end(run, setup_s, times)
        print(f"timed ops: {len(times)} ({wl.roundtrips_per_op} roundtrip(s) or trainings each)")
        _print_aliases(name, values, run, times)
        declared = bench["end_to_end"]
    else:
        import spans

        untraced, slot = run.measure(seconds / 2, slot, slot + 1)
        run.tracer = spans.Tracer()
        run.tracer.install()
        try:
            traced, _ = run.measure(seconds / 2, slot, slot + 1, traced=True)
        finally:
            run.tracer.uninstall()
        layer, consistent = spans.per_layer(run.tracer, untraced, traced)
        if not consistent:
            run.problems.append("span self times do not add up to their root span")
        values = layer
        declared = bench["per_layer"]
        print(f"untraced ops: {len(untraced)}, traced ops: {len(traced)}, "
              f"self times add up to the root span: {consistent}")
    if set(values) != {m["name"] for m in declared}:
        sys.exit(f"perfbench: metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for k, m in metrics.items():
        print(f"metric {k} {m['value']!r} {m['unit']}")
    for p in run.problems:
        print(f"PROBLEM {p}")
    print(f"failed_ratio {run.failed}/{run.attempted}")
    result = {
        "correct": not run.problems and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


def _print_aliases(name: str, values: dict, run: Run, times: list) -> None:
    """The end-to-end figures under the names the workload's users know,
    and the median op time, which is too noisy on a shared VM to gate on."""
    ms = statistics.median(times) * 1e3 / run.wl.roundtrips_per_op if times else 0.0
    if name == "train":
        print(f"alias train_s {ms / 1e3!r} s")
        print(f"alias train_err {values['quant_mse']!r} sq")
    else:
        print(f"alias roundtrips_per_s {values['ops_per_s']!r} 1/s")
        print(f"alias roundtrip_ms.p50 {ms!r} ms")
    ratio = run.failed / run.attempted if run.attempted else 0.0
    print(f"alias failed_ratio {ratio!r} ratio")


def run_all(names, seed: int, seconds: int, trace: bool) -> int:
    """Each workload in its own fresh process, so memory peaks and warm
    caches do not carry over."""
    summary = {}
    for name in names:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True,
        )
        print(done.stdout, end="", flush=True)
        lines = done.stdout.strip().splitlines()
        summary[name] = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    ok = all(r is not None and r["correct"] for r in summary.values())
    print(json.dumps({"correct": ok, "workloads": summary}))
    return 0 if ok else 1


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    sys.dont_write_bytecode = True
    pinned = pin_environment()
    workloads = load_program()
    if args.workload == "all":
        return run_all(list(workloads.WORKLOADS), args.seed, args.seconds, bool(args.trace))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)} or all")
    return run_one(workloads.WORKLOADS[args.workload], args.seed, args.seed % workloads.POOL,
                   args.seconds, bool(args.trace), bench, pinned)


if __name__ == "__main__":
    sys.exit(main())
