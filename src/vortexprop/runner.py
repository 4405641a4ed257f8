"""Command-line driver and reproduction suites.

Every run writes a self-contained directory: manifest.json (config echo,
constants, Hamiltonian content hash), samples.csv, gnuplot-ready fig*.dat
files, and plot.gp.  All times in outputs are t/T; the fs value of T is
recorded once in the manifest.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import __version__
from .circuit import compile_trotter_step, dump_circuit
from .evolve import (
    RunConfig,
    RunResult,
    run_exact,
    run_trotter,
    semiclassical_period_scan,
)
from .hamiltonian import (
    CONSTANTS,
    dump_hamiltonian,
    hamiltonian_hash,
    period_from_constants,
)
from .lattice import SystemKind, build_system
from .observables import write_samples_csv
from .statevector import max_amplitude_diff

SUITE_NAMES = ("fig4", "fig5", "fig6", "table1", "convergence", "all")

_CONFIG_KEYS = ("system", "n", "delta", "dt", "total", "pitch", "chi",
                "threshold", "exact", "out", "dump_hamiltonian", "dump_circuit")


def parse_dt(text: str) -> float:
    """Accept a plain float or a fraction of T like '1/300'."""
    if "/" in text:
        return float(Fraction(text))
    return float(text)


@dataclass
class SimulateOptions:
    system: str = "melon"
    n: int = 8
    delta: float = 0.0
    dt: float = 1.0 / 300.0
    total: float = 4.0
    pitch: int = 20
    chi: float = 0.0
    threshold: float = 0.999
    exact: bool = False
    out: str | None = None
    dump_hamiltonian: bool = False
    dump_circuit: bool = False


def make_config(opts: SimulateOptions) -> RunConfig:
    kind = SystemKind(opts.system)
    if kind is SystemKind.XXZ:
        spec = build_system(kind, n=opts.n, delta=opts.delta, chi=opts.chi)
    else:
        spec = build_system(kind, chi=opts.chi)
    return RunConfig(
        system=spec,
        dt_over_T=opts.dt,
        total_over_T=opts.total,
        sample_pitch=opts.pitch,
        threshold=opts.threshold,
    )


def manifest_dict(opts: SimulateOptions, config: RunConfig, result: RunResult) -> dict:
    h = result.hamiltonian
    return {
        "package": {"name": "vortexprop", "version": __version__},
        "config": {
            "system": opts.system,
            "n": config.system.n_sites,
            "delta": config.system.delta,
            "dt_over_T": config.dt_over_T,
            "total_over_T": config.total_over_T,
            "pitch": config.sample_pitch,
            "chi": config.system.chi,
            "threshold": config.threshold,
            "exact": opts.exact,
            "initial_label": config.resolve_initial_label(),
            "tracked": list(result.tracked),
            "n_steps": config.n_steps,
        },
        "constants": {
            "t_hop_ev": CONSTANTS.t_hop_ev,
            "u_ev": CONSTANTS.u_ev,
            "j_ev": CONSTANTS.j_ev,
            "period_fs": period_from_constants(),
            "svinm_unit_j_per_t": CONSTANTS.svinm_unit_j_per_t,
            "hbar_ev_s": CONSTANTS.hbar_ev_s,
        },
        "hamiltonian_hash": hamiltonian_hash(h),
        "period_estimate": {
            "period_over_T": result.period.period_over_T,
            "threshold": result.period.threshold,
            "t_max_over_T": result.period.t_max_over_T,
            "lower_bound": result.period.lower_bound,
        },
    }


def emit_plot_data(result: RunResult, out_dir: Path) -> list[Path]:
    """Write fig4/fig5/fig6-style whitespace data files plus a gnuplot script."""
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    samples = result.samples
    fmt = lambda v: f"{v:.17g}"

    def write(name: str, header: list[str], rows) -> Path:
        path = out_dir / name
        with open(path, "w") as fh:
            fh.write("# " + " ".join(header) + "\n")
            for row in rows:
                fh.write(" ".join(fmt(v) for v in row) + "\n")
        written.append(path)
        return path

    if result.tracked:
        write(
            "fig4.dat",
            ["t_over_T"] + [f"amp_{lbl}" for lbl in result.tracked],
            ([s.time_over_T] + [s.amp_norms[lbl] for lbl in result.tracked] for s in samples),
        )
    else:
        print("note: no tracked labels, amplitude file omitted", file=sys.stderr)
    write(
        "fig5.dat",
        ["t_over_T"] + [f"mz_{lbl}" for lbl in result.site_labels],
        ([s.time_over_T] + list(s.m_z) for s in samples),
    )
    write(
        "fig6.dat",
        ["t_over_T", "magnetization", "svinm"],
        ([s.time_over_T, s.magnetization, s.svinm] for s in samples),
    )
    n_tracked, n_sites = len(result.tracked), len(result.site_labels)
    gp = [
        "set xlabel 't/T'",
        "set key outside",
        "set terminal pngcairo size 900,600",
    ]
    if result.tracked:
        gp += [
            "set output 'fig4.png'",
            "set ylabel '|amplitude|'",
            "plot " + ", ".join(
                f"'fig4.dat' using 1:{k + 2} with lines title '{lbl}'"
                for k, lbl in enumerate(result.tracked)
            ),
        ]
    gp += [
        "set output 'fig5.png'",
        "set ylabel 'M^z'",
        "plot " + ", ".join(
            f"'fig5.dat' using 1:{k + 2} with lines title '{lbl}'"
            for k, lbl in enumerate(result.site_labels)
        ),
        "set output 'fig6.png'",
        "set ylabel 'magnetization (units of J)'",
        "plot 'fig6.dat' using 1:2 with lines title 'M'",
    ]
    path = out_dir / "plot.gp"
    path.write_text("\n".join(gp) + "\n")
    written.append(path)
    return written


def execute_run(opts: SimulateOptions) -> RunResult:
    config = make_config(opts)
    result = run_exact(config) if opts.exact else run_trotter(config)
    out_dir = Path(opts.out) if opts.out else Path("runs") / opts.system
    out_dir.mkdir(parents=True, exist_ok=True)
    write_samples_csv(out_dir / "samples.csv", result.samples, result.site_labels, result.tracked)
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest_dict(opts, config, result), indent=2, sort_keys=True) + "\n"
    )
    if opts.dump_hamiltonian:
        (out_dir / "hamiltonian.json").write_text(dump_hamiltonian(result.hamiltonian) + "\n")
    if opts.dump_circuit:
        circuit = compile_trotter_step(result.hamiltonian, config.dt_over_T)
        (out_dir / "circuit.json").write_text(dump_circuit(circuit) + "\n")
    emit_plot_data(result, out_dir)
    return result


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def _figure_run_options(out_root: Path) -> list[SimulateOptions]:
    return [
        SimulateOptions(system="melon", dt=1 / 300, total=4.0, pitch=20,
                        out=str(out_root / "a")),
        SimulateOptions(system="antimelon", dt=1 / 300, total=4.0, pitch=20,
                        out=str(out_root / "b")),
        SimulateOptions(system="combined", dt=1 / 10, total=48.0, pitch=2,
                        out=str(out_root / "c")),
    ]


def suite_figures(out_root: Path, jobs: int = 1) -> list[RunResult]:
    opts = _figure_run_options(out_root)
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(execute_run, opts))
    return [execute_run(o) for o in opts]


def suite_table1(out_root: Path, jobs: int = 1) -> list[tuple[str, str]]:
    """Four semiclassical period estimates in the reference table layout.

    The melon and antimelon fidelity series coincide exactly (same
    Hamiltonian, globally flipped initial state), so the single-vortex row
    covers both.
    """
    scans = [
        ("XXZ,delta=0", SystemKind.XXZ, dict(n=8, delta=0.0), 1 / 10, 400.0),
        ("XXZ,delta=2", SystemKind.XXZ, dict(n=8, delta=2.0), 1 / 10, 400.0),
        ("(A),(B) single vortex", SystemKind.MELON, {}, 1 / 300, 8.0),
        ("(C) combined vortices", SystemKind.COMBINED, {}, 1 / 10, 60.0),
    ]

    def scan(entry):
        name, kind, kwargs, dt, t_max = entry
        spec = build_system(kind, **kwargs)
        config = RunConfig(system=spec, dt_over_T=dt, total_over_T=dt, sample_pitch=1)
        est = semiclassical_period_scan(config, t_max)
        return name, str(est)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(scan, scans))
    else:
        rows = [scan(e) for e in scans]
    out_root.mkdir(parents=True, exist_ok=True)
    width = max(len(name) for name, _ in rows)
    lines = [f"{'system':<{width}} period(T)"]
    lines += [f"{name:<{width}} {period}" for name, period in rows]
    text = "\n".join(lines)
    print(text)
    (out_root / "table1.txt").write_text(text + "\n")
    return rows


def suite_convergence(out_root: Path, jobs: int = 1) -> list[tuple[float, float]]:
    """Trotter-vs-exact error over 1T for the melon system, dt halving sweep."""
    spec = build_system(SystemKind.MELON)
    errors: list[tuple[float, float]] = []
    exact = run_exact(RunConfig(system=spec, dt_over_T=1.0, total_over_T=1.0, sample_pitch=1))
    psi_exact = exact.final_state
    for m in (75, 150, 300, 600):
        config = RunConfig(system=spec, dt_over_T=1.0 / m, total_over_T=1.0, sample_pitch=m)
        trotter = run_trotter(config)
        errors.append((1.0 / m, max_amplitude_diff(psi_exact, trotter.final_state)))
    out_root.mkdir(parents=True, exist_ok=True)
    lines = [f"{'dt/T':<10} {'max_amp_error':<14} ratio"]
    for i, (dt, err) in enumerate(errors):
        ratio = errors[i - 1][1] / err if i else float("nan")
        lines.append(f"{dt:<10.6f} {err:<14.6e} {ratio:.3f}")
    text = "\n".join(lines)
    print(text)
    (out_root / "convergence.txt").write_text(text + "\n")
    return errors


def run_suite(name: str, out_root: Path, jobs: int) -> None:
    if name in ("fig4", "fig5", "fig6", "all"):
        suite_figures(out_root / "figures", jobs)
    if name in ("table1", "all"):
        suite_table1(out_root / "table1", jobs)
    if name in ("convergence", "all"):
        suite_convergence(out_root / "convergence", jobs)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vortexprop",
        description="Exact statevector propagation of polaron-centered spin vortices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # no flag defaults: a key is in the namespace only when its flag was given,
    # so _merge_options can tell explicit flags from SimulateOptions defaults
    sim = sub.add_parser("simulate", help="run one system and write its artifacts",
                         argument_default=argparse.SUPPRESS)
    sim.add_argument("--system", choices=[k.value for k in SystemKind])
    sim.add_argument("--n", type=int, help="XXZ chain length")
    sim.add_argument("--delta", type=float, help="XXZ anisotropy")
    sim.add_argument("--dt", type=parse_dt, help="time step as a fraction of T, e.g. 1/300")
    sim.add_argument("--total", type=float, help="total time in units of T")
    sim.add_argument("--pitch", type=int, help="record every k steps")
    sim.add_argument("--chi", type=float, help="global spin-angle offset")
    sim.add_argument("--threshold", type=float, help="recurrence threshold")
    sim.add_argument("--exact", action="store_true", help="use the exact propagator")
    sim.add_argument("--out", help="output directory")
    sim.add_argument("--config", help="JSON file overriding defaults (flags win)")
    sim.add_argument("--dump-hamiltonian", action="store_true")
    sim.add_argument("--dump-circuit", action="store_true")

    ste = sub.add_parser("suite", help="run a reproduction suite")
    ste.add_argument("name", choices=SUITE_NAMES)
    ste.add_argument("--out", default="runs")
    ste.add_argument("--jobs", type=int,
                     default=int(os.environ.get("VORTEXPROP_JOBS", "1")))
    return parser


def _merge_options(args: argparse.Namespace) -> SimulateOptions:
    """Precedence: built-in defaults < config file < explicit flags."""
    opts = SimulateOptions()
    given = vars(args)
    if "config" in given:
        overrides = json.loads(Path(given["config"]).read_text())
        unknown = set(overrides) - set(_CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, val in overrides.items():
            setattr(opts, key, parse_dt(val) if key == "dt" and isinstance(val, str) else val)
    for key in _CONFIG_KEYS:
        if key in given:
            setattr(opts, key, given[key])
    return opts


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "simulate":
            opts = _merge_options(args)
            result = execute_run(opts)
            print(f"wrote {opts.out or Path('runs') / opts.system}: "
                  f"{len(result.samples)} samples, period {result.period}")
        elif args.command == "suite":
            run_suite(args.name, Path(args.out), max(1, args.jobs))
    except Exception as exc:  # CLI boundary: report and exit nonzero
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
