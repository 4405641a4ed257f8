"""Run one benchmark workload in this fresh process and print its figures.

`run.py` starts this script once per benchmark run; between passes the
script starts itself again with --setup-only to sample set-up time.  It
imports vortexprop from the checkout's `src/` and times only the package's
public functions, from outside.  The last line of standard output is one
JSON object.

    python3 perfbench/workload.py --workload scan --seed 1 --seconds 20 --trace 0
"""
from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spans
from spans import GATE_KINDS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "_out"
MIB = float(1 << 20)


@dataclass(frozen=True)
class Op:
    """One call into vortexprop: execute_run, fidelity_scan or run_exact."""

    call: str
    system: str  # melon | antimelon | combined | xxz (n = 8)
    dt: float  # step, in units of T
    total: float  # simulated time, in units of T
    pitch: int = 1  # sample every `pitch` steps
    delta: float = 0.0  # XXZ anisotropy

    @property
    def sid(self) -> str:
        return f"xxz-d{self.delta:g}" if self.system == "xxz" else self.system

    @property
    def n_steps(self) -> int:
        return round(self.total / self.dt)


# Each workload keeps the dt, pitch and system mix of the runs it stands for,
# since those set the layer mix.  Simulated times are cut (figures and exact
# to 1/8 of `suite figures`, scan to 1/16 of `suite table1`) so that one pass
# takes about 1 s on 2 cores: a run's median is then taken over ~25 passes.
WORKLOADS = {
    # `simulate` / `suite figures`: sampling-heavy, the only one writing files
    "figures": (
        Op("execute_run", "melon", 1 / 300, 0.6, 20),
        Op("execute_run", "antimelon", 1 / 300, 0.6, 20),
        Op("execute_run", "combined", 1 / 10, 6.0, 2),
    ),
    # table1 / criteria 8 and 10: gate replay, one vdot per step
    "scan": (
        Op("fidelity_scan", "xxz", 1 / 10, 25.0, delta=0.0),
        Op("fidelity_scan", "xxz", 1 / 10, 25.0, delta=2.0),
        Op("fidelity_scan", "melon", 1 / 300, 0.5),
        Op("fidelity_scan", "combined", 1 / 10, 4.0),
    ),
    # exact-propagator oracle: sparse matrix and expm_multiply, no gate replay
    "exact": (
        Op("run_exact", "melon", 1 / 300, 0.6, 20),
        Op("run_exact", "antimelon", 1 / 300, 0.6, 20),
        Op("run_exact", "combined", 1 / 10, 6.0, 2),
    ),
}

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def n_sites(op: Op) -> int:
    return 13 if op.system == "combined" else 8


def draw_labels(ops, seed: int) -> list[str]:
    """One initial basis label per op, drawn from the seed.

    Labels hold n//2 or (n+1)//2 down spins, so the magnetisation sector
    (the work a sector kernel would do) has the same size for every seed.
    """
    rng = random.Random(seed)
    labels = []
    for op in ops:
        n = n_sites(op)
        bits = ["1"] * rng.choice((n // 2, (n + 1) // 2))
        bits += ["0"] * (n - len(bits))
        rng.shuffle(bits)
        labels.append("".join(bits))
    return labels


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

@dataclass
class System:
    spec: object
    h: object
    gates: dict[str, int]  # per-step gate counts by kind, at the op's dt
    nnz: int = 0


@dataclass
class Setup:
    systems: dict[str, System]
    layer_ms: dict[str, float]
    setup_s: float  # from `start` until ready to propagate


def set_up(ops, start: float | None = None) -> Setup:
    """Import vortexprop and build every system, Hamiltonian and step once.

    `start` is the time.monotonic() at which the process was started.
    """
    start = time.monotonic() if start is None else start
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import vortexprop  # noqa: F401  (the import is part of set-up)
    from vortexprop import circuit, hamiltonian, lattice

    if not Path(vortexprop.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"vortexprop imported from {vortexprop.__file__}, not {SRC}")
    ms = {"lattice.build_ms": 0.0, "hamiltonian.build_ms": 0.0,
          "circuit.compile_ms": 0.0, "hamiltonian.sparse_ms": 0.0}

    def timed(key, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        ms[key] += (time.perf_counter() - t0) * 1e3
        return out

    systems: dict[str, System] = {}
    for op in ops:
        if op.sid not in systems:
            kw = {"n": 8, "delta": op.delta} if op.system == "xxz" else {}
            spec = timed("lattice.build_ms", lattice.build_system, op.system, **kw)
            h = timed("hamiltonian.build_ms", hamiltonian.build_hamiltonian, spec)
            step = timed("circuit.compile_ms", circuit.compile_trotter_step, h, op.dt)
            gates = dict.fromkeys(GATE_KINDS, 0)
            for g in step.gates:
                gates[g.kind] += 1
            systems[op.sid] = System(spec, h, gates)
        if op.call == "run_exact" and not systems[op.sid].nnz:
            hs = timed("hamiltonian.sparse_ms", hamiltonian.sparse_matrix_of, systems[op.sid].h)
            systems[op.sid].nnz = int(hs.nnz)
    return Setup(systems, ms, time.monotonic() - start)


# ---------------------------------------------------------------------------
# ops and passes
# ---------------------------------------------------------------------------

@contextmanager
def seeded_label(runner, label: str):
    """execute_run takes no initial label, so hand it one through make_config."""
    make_config = runner.make_config

    def with_label(opts):
        config = make_config(opts)
        config.initial_label = label
        return config

    runner.make_config = with_label
    try:
        yield
    finally:
        runner.make_config = make_config


def call_op(op: Op, system: System, label: str, out_dir: Path | None):
    from vortexprop import evolve, runner

    if op.call == "execute_run":
        opts = runner.SimulateOptions(system=op.system, dt=op.dt, total=op.total,
                                      pitch=op.pitch, out=str(out_dir))
        with seeded_label(runner, label):
            return runner.execute_run(opts)
    config = evolve.RunConfig(
        system=system.spec, dt_over_T=op.dt,
        total_over_T=op.dt if op.call == "fidelity_scan" else op.total,
        sample_pitch=op.pitch, initial_label=label,
    )
    if op.call == "fidelity_scan":
        return evolve.fidelity_scan(config, op.total)
    return evolve.run_exact(config)


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.iterdir() if f.is_file())


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    max_err: float = 0.0
    problems: list[str] = field(default_factory=list)
    bytes_written: int = 0  # per pass, from the last pass


def run_pass(ops, setup: Setup, labels, refs: dict, tally: Tally, work: Path,
             recorder=None) -> float:
    """Run every op once; return the summed op wall time in s.

    Each op is timed alone.  Its check, and the first computation of its
    reference, run after the clock stops.
    """
    import checks

    wall = 0.0
    written = 0
    for slot, op in enumerate(ops):
        system = setup.systems[op.sid]
        out_dir = work / f"{slot}-{op.sid}" if op.call == "execute_run" else None
        if recorder is not None:
            recorder.current_slot = slot
        with recorder.span(op.call) if recorder is not None else nullcontext():
            t0 = time.perf_counter()
            output = call_op(op, system, labels[slot], out_dir)
            wall += time.perf_counter() - t0
        if slot not in refs:
            refs[slot] = checks.reference(op, system.h, labels[slot])
        verdict = checks.check(op, labels[slot], output, refs[slot], out_dir)
        tally.attempted += 1
        tally.failed += not verdict.ok
        tally.max_err = max(tally.max_err, verdict.max_err)
        tally.problems += [f"{op.call}[{op.sid}] {p}" for p in verdict.problems]
        if out_dir is not None:
            written += _dir_bytes(out_dir)
            shutil.rmtree(out_dir)
        del output
    tally.bytes_written = written
    return wall


def sample_setup(name: str) -> dict:
    """Set up `name` once in a fresh interpreter; return its set-up figures."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", "0",
           "--seconds", "0", "--setup-only", "--spawned"]
    spawned = time.monotonic()
    proc = subprocess.run(cmd + [repr(spawned)], capture_output=True, text=True, check=True,
                          timeout=60)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, setup: Setup) -> dict:
    """Timed passes until `seconds` are used; with `trace`, every other pass is traced.

    After each pass, outside the timed region, one more process samples
    set-up time, so set-up samples spread over the whole run like the passes.
    """
    import checks  # noqa: F401  (binds expm_multiply before any rebinding)

    ops = WORKLOADS[name]
    labels = draw_labels(ops, seed)
    recorder = spans.Recorder() if trace else None
    refs: dict = {}
    tally = Tally()
    walls, traced_walls, ranges = [], [], []
    setups = [{"setup_s": setup.setup_s, "setup_layers_ms": setup.layer_ms}]
    OUT.mkdir(exist_ok=True)
    begin = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=OUT, prefix="runs-") as tmp:
        while True:
            if trace and len(traced_walls) < len(walls):
                lo = len(recorder)
                with recorder.installed():
                    last = run_pass(ops, setup, labels, refs, tally, Path(tmp), recorder)
                traced_walls.append(last)
                ranges.append((lo, len(recorder)))
            else:
                last = run_pass(ops, setup, labels, refs, tally, Path(tmp))
                walls.append(last)
            setups.append(sample_setup(name))
            if time.perf_counter() - begin + last > seconds and (not trace or traced_walls):
                break
    out = {
        "workload": name,
        "seed": seed,
        "labels": labels,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "max_err": tally.max_err,
        "problems": tally.problems[:20],
        "pass_walls_s": walls,
        "wall_s": statistics.median(walls),
        "setup_samples": setups,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        out["traced_pass_walls_s"] = traced_walls
        out["layers"] = layer_metrics(ops, setup, recorder, ranges, tally)
        out["layers"]["trace.overhead_s"] = statistics.median(traced_walls) - out["wall_s"]
        out["systems"] = system_table(ops, setup, recorder)
        recorder.write(OUT / f"spans-{name}-s{seed}.npz")
    return out


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of the traced passes
# ---------------------------------------------------------------------------

def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(ops, setup: Setup, recorder, ranges, tally: Tally) -> dict:
    t = recorder.table()
    ids = {nm: i for i, nm in enumerate(recorder.names)}

    def pick(col, nm, lo=0, hi=None):
        return t[col][lo:hi][t["name"][lo:hi] == ids.get(nm, -1)]

    def per_pass(fn):
        return statistics.median(fn(lo, hi) for lo, hi in ranges)

    def count(nm):
        return per_pass(lambda lo, hi: len(pick("dur_ns", nm, lo, hi)))

    def total_ms(*nms):
        return per_pass(lambda lo, hi: sum(pick("dur_ns", nm, lo, hi).sum() for nm in nms) / 1e6)

    def durations(nm):
        return pick("dur_ns", nm)

    run_spans = ("run_trotter", "fidelity_scan", "run_exact")
    lo, hi = ranges[0]
    steps_by_slot = np.bincount(pick("slot", "apply_circuit", lo, hi), minlength=len(ops))
    samples_by_slot = np.bincount(pick("slot", "record_sample", lo, hi), minlength=len(ops))
    step_bytes = sum(
        int(steps_by_slot[s]) * sum(setup.systems[op.sid].gates.values()) * 2 * (16 << n_sites(op))
        for s, op in enumerate(ops)
    )
    m = {k: setup.layer_ms[k] for k in ("lattice.build_ms", "hamiltonian.build_ms", "circuit.compile_ms")}
    m["hamiltonian.terms"] = sum(len(setup.systems[op.sid].h.terms) for op in ops)
    gates = [setup.systems[op.sid].gates for op in ops]
    m["circuit.gates"] = sum(sum(g.values()) for g in gates)
    for kind in GATE_KINDS:
        m[f"circuit.gates.{kind}"] = sum(g[kind] for g in gates)
    steps = durations("apply_circuit") / 1e6
    m["statevector.steps"] = count("apply_circuit")
    m["statevector.step_ms.p50"] = _pct(steps, 50)
    m["statevector.step_ms.p99"] = _pct(steps, 99)
    for kind in GATE_KINDS:
        m[f"statevector.gate_us.{kind}"] = _pct(durations(f"apply_gate.{kind}") / 1e3, 50)
    m["statevector.step_bytes"] = step_bytes
    m["statevector.fidelity_us"] = _pct(durations("fidelity") / 1e3, 50)
    m["hamiltonian.sparse_ms"] = _pct(durations("sparse_matrix_of") / 1e6, 50)
    m["hamiltonian.nnz"] = sum(setup.systems[op.sid].nnz for op in ops if op.call == "run_exact")
    m["evolve.expm_calls"] = count("expm_multiply")
    m["evolve.expm_ms"] = total_ms("expm_multiply")
    m["evolve.self_s"] = per_pass(lambda lo, hi: sum(
        pick("self_ns", nm, lo, hi).sum() for nm in run_spans) / 1e9)
    m["evolve.states_held_mb"] = max(
        int(samples_by_slot[s]) * (16 << n_sites(op)) / MIB for s, op in enumerate(ops))
    samples = durations("record_sample") / 1e6
    m["observables.samples"] = count("record_sample")
    m["observables.expect_calls"] = count("expect_pauli")
    m["observables.sample_ms.p50"] = _pct(samples, 50)
    m["observables.sample_ms.p99"] = _pct(samples, 99)
    m["runner.write_ms"] = total_ms("write_samples_csv", "emit_plot_data")
    m["runner.bytes_written"] = tally.bytes_written
    m["check.max_err"] = tally.max_err
    return {k: float(v) for k, v in m.items()}


def system_table(ops, setup: Setup, recorder) -> dict:
    """Per system: terms and gates per step, step ms and record_sample ms (p50)."""
    t = recorder.table()
    ids = {nm: i for i, nm in enumerate(recorder.names)}
    out = {}
    for slot, op in enumerate(ops):
        sys_ = setup.systems[op.sid]
        in_slot = t["slot"] == slot
        step = t["dur_ns"][in_slot & (t["name"] == ids.get("apply_circuit", -1))] / 1e6
        sample = t["dur_ns"][in_slot & (t["name"] == ids.get("record_sample", -1))] / 1e6
        out[op.sid] = {
            "n": n_sites(op),
            "terms": len(sys_.h.terms),
            "gates": sum(sys_.gates.values()),
            "step_ms": _pct(step, 50) if len(step) else None,
            "record_sample_ms": _pct(sample, 50) if len(sample) else None,
        }
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_record(seed: int) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned", type=float, default=None,
                   help="time.monotonic() just before this process was started")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    setup = set_up(WORKLOADS[args.workload], args.spawned)
    if args.setup_only:
        out = {"setup_s": setup.setup_s, "setup_layers_ms": setup.layer_ms}
    else:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), setup)
        out["record"] = run_record(args.seed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
