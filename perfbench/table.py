"""Print the ROADMAP baseline table from traced benchmark runs.

    python3 perfbench/table.py [--seed 0] [--seconds 20]

Runs the `scan` and `figures` workloads with --trace 1 and prints, per
system: terms and gates per step, the median Trotter step (gate replay) and
the median `record_sample`, all in ms.  Step times come from `scan` where it
has the system, else from `figures`.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
COLUMNS = ("melon", "antimelon", "combined", "xxz-d0", "xxz-d2")


def traced(workload: str, seed: int, seconds: float) -> dict:
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        check=True, stdout=subprocess.DEVNULL,
    )
    return json.loads((HERE / "_out" / f"record-{workload}-s{seed}-t1.json").read_text())


def render(scan: dict, figures: dict) -> str:
    def cell(sid, key):
        for rec in (scan, figures):
            v = rec["systems"].get(sid, {}).get(key)
            if v is not None:
                return f"{v:.3g} ms"
        return "-"

    systems = {**figures["systems"], **scan["systems"]}
    cols = [c for c in COLUMNS if c in systems]
    head = [f"{c} (n={systems[c]['n']})" for c in cols]
    rows = [
        ["terms / gates per step"] + [f"{systems[c]['terms']} / {systems[c]['gates']}" for c in cols],
        ["Trotter step (gate replay), p50"] + [cell(c, "step_ms") for c in cols],
        ["`record_sample`, p50"] + [cell(c, "record_sample_ms") for c in cols],
    ]
    rec = scan["record"]
    lines = [
        f"Measured on {rec['nproc']} cores, Python {rec['python']}, numpy {rec['numpy']}, "
        f"scipy {rec['scipy']}, BLAS threads 1, seed {rec['seed']} "
        f"(perfbench traced runs of `scan` and `figures`; span overhead included).",
        "",
        "| layer | " + " | ".join(head) + " |",
        "| --- |" + " --- |" * len(cols),
    ]
    lines += ["| " + " | ".join(r) + " |" for r in rows]
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    args = p.parse_args(argv)
    print(render(traced("scan", args.seed, args.seconds), traced("figures", args.seed, args.seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
