"""vortexprop benchmark: one workload run, in fresh processes, outputs checked.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0

Run from any directory of a checkout that holds `src/vortexprop`.  The
workload runs in its own process (peak RSS is a lifetime high-water mark);
set-up time is sampled in that process and in one more, fresh process
after each pass, and reported as the median.  With --trace 0 the last line
of standard output holds the end-to-end metrics, with --trace 1 the
per-layer ones.  Run records and span files go to perfbench/_out/.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
WORKLOADS = ("figures", "scan", "exact")
CHILD_TIMEOUT_S = 150
# BLAS / OpenMP pools pinned to one thread: at most nproc, and the same on every box
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_LAYERS = ("lattice.build_ms", "hamiltonian.build_ms", "circuit.compile_ms")


def child(args) -> dict:
    """Run workload.py in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = {**os.environ, **THREADS}
    spawned = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned", repr(spawned)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "vortexprop" / "__init__.py").is_file():
        print(f"error: no vortexprop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        res = child(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups = res["setup_samples"]
    setup_s = statistics.median(s["setup_s"] for s in setups)
    if args.trace:
        metrics = dict(res["layers"])
        for k in SETUP_LAYERS:
            metrics[k] = statistics.median(s["setup_layers_ms"][k] for s in setups)
    else:
        metrics = {"wall_s": res["wall_s"], "setup_s": setup_s, "peak_rss_mb": res["peak_rss_mb"]}
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        print(f"error: measured {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 1
    fail_frac = res["failed"] / res["attempted"]
    record = {**res, "setup_s": setup_s, "fail_frac": fail_frac, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"record-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"# workload {args.workload}, seed {args.seed}, labels {' '.join(res['labels'])}")
    print("# " + ", ".join(f"{k} {v}" for k, v in res["record"].items() if k != "threads")
          + ", threads " + " ".join(f"{k}={v}" for k, v in res["record"]["threads"].items()))
    print(f"# passes {len(res['pass_walls_s'])} untraced, {len(res.get('traced_pass_walls_s', []))} "
          f"traced, ops {res['attempted']}, "
          f"fail_frac {fail_frac:.4g} ratio, max_err {res['max_err']:.3g} amplitude")
    for problem in res["problems"]:
        print(f"# FAILED {problem}")
    for k, v in metrics.items():
        print(f"{k:32s} {v:.6g} {units[k]}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


if __name__ == "__main__":
    sys.exit(main())
