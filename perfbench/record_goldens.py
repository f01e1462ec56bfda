"""Record the goldens that ``run.py`` compares every output with.

    python3 perfbench/record_goldens.py [WORKLOAD ...]

For each named workload (default: all) and each of its input sets, runs the
set-up and every distinct op once and stores their digests in
``goldens.json``.  Record only from a program whose outputs are known good:
a later run fails every op whose output differs from what is stored here.
"""

import json
import statistics
import sys

import run


def record(wl, pools: int) -> dict:
    out = {}
    for pool in range(pools):
        st = wl.setup(pool)
        info = wl.check_setup(st)
        if info.get("spot_mismatches"):
            sys.exit(f"{wl.name} input set {pool}: quantize disagrees with nearest()")
        ops, chamfers, losses = [], [], []
        for slot in range(wl.slots):
            op_info = wl.check_op(st, wl.op(st, slot))
            if op_info.get("spot_mismatches"):
                sys.exit(f"{wl.name} input set {pool}: quantize disagrees with nearest()")
            ops.append(op_info["digest"])
            chamfers += [r.chamfer_m for r in op_info["reports"] if r.chamfer_m is not None]
            losses += [r.cell_loss_rate for r in op_info["reports"]]
        out[str(pool)] = {"setup": info["setup_digest"], "ops": ops}
        print(f"{wl.name} input set {pool}: chamfer_m.mean={statistics.fmean(chamfers):.6g} "
              f"cell_loss_rate.mean={statistics.fmean(losses):.6g}", flush=True)
    return out


if __name__ == "__main__":
    run.pin_environment()
    workloads = run.load_program()
    names = sys.argv[1:] or list(workloads.WORKLOADS)
    path = run.HERE / "goldens.json"
    goldens = json.loads(path.read_text()) if path.exists() else {}
    for name in names:
        goldens[name] = record(workloads.WORKLOADS[name], workloads.POOL)
        path.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
