"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.

Criteria 4, 6 and 10 cover the recurrence runs: the long single-vortex
Trotter runs and the 13-site combined scan.  The paper reports a 4T
single-vortex period and a 48T combined period, but the model defined in the
README does not have them (see *Reproduction status* there): its levels mix
1, sqrt(5) and sqrt(17), so no time unit gives a revival.  These criteria
therefore check each run against a reference assembled in `oracles.py` from
the README's model rules, sharing no code with the program's lattice,
Hamiltonian, circuit or statevector paths, and print the paper target next to
the measured value:

* 4: `fidelity0` of the melon and antimelon runs equals the spectral closed
  form F(t) = |sum_j |c_j|^2 exp(-2i E_j t)|^2 at every sample.
* 6: every tracked |amplitude| equals the spectral reference at every
  sample, so the run and the reference agree on the mirror asymmetry
  about 2T.
* 10: the combined fidelity scan equals a replay of the frozen term order
  with exact exponentials of each term, maxima included.
"""
import math
from types import SimpleNamespace

import numpy as np
import pytest

from vortexprop.evolve import (
    RunConfig,
    fidelity_scan,
    run_exact,
    run_trotter,
)
from vortexprop.hamiltonian import CONSTANTS
from vortexprop.lattice import build_system
from vortexprop.observables import estimate_period
from vortexprop.runner import cli_main
from vortexprop.statevector import StateVector, apply_circuit, max_amplitude_diff

from oracles import (
    SpectralReference,
    check_amplitude_symmetry,
    check_class_degeneracy,
    dense_exponential,
    local_maxima,
    random_term,
    read_samples_csv,
    reference_trotter_scan,
    site_equivalence_classes,
)

PAPER_DT_AB = 1 / 300
PAPER_DT_C = 1 / 10


def report(criterion: int, ok: bool, detail: str) -> bool:
    print(f"criterion {criterion:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def paper_status(reproduced: bool) -> str:
    return "reproduced" if reproduced else "not reproduced by this model"


# Trotter error of a dt = T/300 run: criterion 3 measures the first-order
# amplitude error at 1.44e-3 per T, so a 4T run stays within 4 of those.
TROTTER_TOL_4T = 6e-3
# Two replays of the same product formula differ only by round-off.
ROUNDOFF_TOL = 1e-10


# ---------------------------------------------------------------------------
# shared runs
# ---------------------------------------------------------------------------

def figure_run(kind: str, propagate):
    """A figure suite run: 0-4T at dt = T/300 on one vortex, 0-48T at dt = T/10 on combined."""
    dt, total, pitch = (PAPER_DT_C, 48.0, 2) if kind == "combined" else (PAPER_DT_AB, 4.0, 20)
    return propagate(RunConfig(system=build_system(kind), dt_over_T=dt, total_over_T=total,
                               sample_pitch=pitch))


@pytest.fixture(scope="module")
def melon_run():
    return figure_run("melon", run_trotter)


@pytest.fixture(scope="module")
def antimelon_run():
    return figure_run("antimelon", run_trotter)


@pytest.fixture(scope="module")
def melon_exact_run():
    return figure_run("melon", run_exact)


@pytest.fixture(scope="module")
def antimelon_exact_run():
    return figure_run("antimelon", run_exact)


@pytest.fixture(scope="module")
def combined_run():
    return figure_run("combined", run_trotter)


@pytest.fixture(scope="module")
def combined_exact_run():
    return figure_run("combined", run_exact)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_constants():
    period = CONSTANTS.period_fs
    ok = abs(period - 40.50) <= 0.01
    assert report(1, ok, f"T = {period:.6f} fs (target 40.50 +/- 0.01)")


def test_criterion_02_circuit_correctness():
    from vortexprop.circuit import compile_pauli_exponential

    rng = np.random.default_rng(424242)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        term = random_term(n, rng)
        phi = float(rng.uniform(-math.pi, math.pi))
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        amps /= np.linalg.norm(amps)
        a = apply_circuit(StateVector(n, amps.copy()), compile_pauli_exponential(term, phi, n))
        b = StateVector(n, dense_exponential(term, phi, n) @ amps)
        worst = max(worst, max_amplitude_diff(a, b))
    ok = worst <= 1e-10
    assert report(2, ok, f"1000 random terms vs dense expm, max amplitude deviation "
                         f"{worst:.3e} (<= 1e-10)")


def test_criterion_03_trotter_convergence():
    spec = build_system("melon")
    exact = run_exact(RunConfig(system=spec, dt_over_T=1.0, total_over_T=1.0,
                                sample_pitch=1)).final_state
    errors = []
    for m in (75, 150, 300, 600):
        config = RunConfig(system=spec, dt_over_T=1.0 / m, total_over_T=1.0,
                           sample_pitch=m)
        errors.append(max_amplitude_diff(exact, run_trotter(config).final_state))
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    ok = all(1.7 <= r <= 2.3 for r in ratios)
    assert report(3, ok, f"error halving ratios {[f'{r:.3f}' for r in ratios]} (in [1.7, 2.3])")


def test_criterion_04_single_vortex_recurrence(melon_run, antimelon_run):
    worst, at_4t, reproduced = 0.0, [], True
    for kind, run in (("melon", melon_run), ("antimelon", antimelon_run)):
        assert math.isclose(run.samples[-1].time_over_T, 4.0)
        ref = SpectralReference(kind, run.config.resolve_initial_label())
        worst = max(worst, max(abs(s.fidelity0 - ref.fidelity(s.time_over_T))
                               for s in run.samples))
        at_4t.append(f"{kind} {run.samples[-1].fidelity0:.4f} "
                     f"(spectral {ref.fidelity(4.0):.4f})")
        reproduced = reproduced and ref.fidelity(4.0) >= 0.99
    ok = worst <= TROTTER_TOL_4T
    assert report(4, ok, f"fidelity0 vs spectral closed form over 0-4T: max deviation "
                         f"{worst:.2e} (<= {TROTTER_TOL_4T:g}); F(4T): {', '.join(at_4t)}; "
                         f"paper target F(4T) >= 0.99: {paper_status(reproduced)}")


def test_criterion_05_energy_invariance(melon_run, antimelon_run, combined_run,
                                        melon_exact_run, antimelon_exact_run,
                                        combined_exact_run):
    worst_exact = max(
        max(abs(s.energy) for s in run.samples)
        for run in (melon_exact_run, antimelon_exact_run, combined_exact_run)
    )
    worst_trotter = max(
        max(abs(s.energy) for s in run.samples)
        for run in (melon_run, antimelon_run, combined_run)
    )
    ok = worst_exact <= 1e-6 and worst_trotter <= 0.02
    assert report(5, ok, f"max |<H>|: exact {worst_exact:.2e} (<= 1e-6 J), "
                         f"trotter {worst_trotter:.2e} (<= 0.02 J)")


def test_criterion_06_amplitude_symmetry(melon_run):
    ref = SpectralReference("melon", melon_run.config.resolve_initial_label())
    ref_samples = [
        SimpleNamespace(time_over_T=s.time_over_T,
                        amp_norms={lbl: ref.amplitude_norm(s.time_over_T, lbl)
                                   for lbl in melon_run.tracked})
        for s in melon_run.samples
    ]
    worst = max(abs(s.amp_norms[lbl] - r.amp_norms[lbl])
                for s, r in zip(melon_run.samples, ref_samples) for lbl in melon_run.tracked)
    asym = check_amplitude_symmetry(melon_run.samples, 2.0)
    asym_ref = check_amplitude_symmetry(ref_samples, 2.0)
    # the asymmetry is a difference of two |amplitudes|, each within the tolerance
    ok = worst <= TROTTER_TOL_4T and abs(asym - asym_ref) <= 2 * TROTTER_TOL_4T
    assert report(6, ok, f"{len(melon_run.tracked)} tracked |amplitudes| vs spectral reference "
                         f"over 0-4T: max deviation {worst:.2e} (<= {TROTTER_TOL_4T:g}); "
                         f"asymmetry about 2T {asym:.4f} (spectral {asym_ref:.4f}); paper "
                         f"target asymmetry <= 0.02: {paper_status(asym_ref <= 0.02)}")


def test_criterion_07_combined_class_degeneracy(combined_exact_run):
    spec = build_system("combined")
    classes = site_equivalence_classes(spec)
    assert ("a", "c", "j", "l") in classes and ("d", "h", "i", "m") in classes
    spreads = check_class_degeneracy(
        combined_exact_run.samples, classes, spec.labels
    )
    worst = max(spreads.values())
    ok = worst <= 1e-6
    assert report(7, ok, f"exact-evolution class spread over 48T: {worst:.2e} (<= 1e-6), "
                         f"classes {[''.join(c) for c in classes]}")


def test_criterion_08_xxz_lower_bounds():
    flags = {}
    for delta in (0.0, 2.0):
        spec = build_system("xxz", n=8, delta=delta)
        config = RunConfig(system=spec, dt_over_T=PAPER_DT_C, total_over_T=PAPER_DT_C,
                           sample_pitch=1, threshold=0.999)
        series = fidelity_scan(config, 400.0)
        est = estimate_period(series, 0.999, 400.0)
        peak = max(f for _, f in series[1:])
        flags[delta] = (est.lower_bound, peak)
    ok = all(lb for lb, _ in flags.values())
    assert report(8, ok, "XXZ n=8 scans to 400T: " + ", ".join(
        f"delta={d:g} lower_bound={lb} (peak fid {pk:.3f})" for d, (lb, pk) in flags.items()
    ))


def test_criterion_09_determinism_roundtrip(tmp_path):
    args = ["simulate", "--system", "melon", "--dt", "1/60", "--total", "1",
            "--pitch", "10"]
    assert cli_main(args + ["--out", str(tmp_path / "r1")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "r2")]) == 0
    b1 = (tmp_path / "r1/samples.csv").read_bytes()
    b2 = (tmp_path / "r2/samples.csv").read_bytes()
    identical = b1 == b2
    header, rows = read_samples_csv(tmp_path / "r1/samples.csv")
    config = RunConfig(system=build_system("melon"), dt_over_T=1 / 60,
                       total_over_T=1.0, sample_pitch=10)
    result = run_trotter(config)
    exact_match = all(
        rows[i, 5] == result.samples[i].fidelity0
        and np.array_equal(rows[i, 6:14], np.array(result.samples[i].m_z))
        for i in range(len(result.samples))
    )
    ok = identical and exact_match
    assert report(9, ok, f"byte-identical CSV: {identical}, exact re-parse: {exact_match}")


def _recurrences(series):
    """Interior local maxima, the best one in [44T, 52T], and the best after 1T."""
    maxima = local_maxima(series)
    window = max((m for m in maxima if 44.0 <= m[0] <= 52.0), key=lambda m: m[1])
    best = max((m for m in maxima if m[0] > 1.0), key=lambda m: m[1])
    return maxima, window, best


def _same_points(a, b) -> bool:
    return len(a) == len(b) and all(
        ta == tb and abs(fa - fb) <= ROUNDOFF_TOL for (ta, fa), (tb, fb) in zip(a, b)
    )


def test_criterion_10_combined_recurrence_window():
    spec = build_system("combined")
    config = RunConfig(system=spec, dt_over_T=PAPER_DT_C, total_over_T=PAPER_DT_C,
                       sample_pitch=1, threshold=0.999)
    series = fidelity_scan(config, 60.0)
    reference = reference_trotter_scan("combined", config.resolve_initial_label(),
                                       PAPER_DT_C, 60.0)
    worst = max(abs(f - g) for (_, f), (_, g) in zip(series, reference))
    maxima, window, best = _recurrences(series)
    ref_maxima, ref_window, ref_best = _recurrences(reference)
    ok = (len(series) == len(reference) and worst <= ROUNDOFF_TOL
          and _same_points(maxima, ref_maxima)
          and _same_points([window, best], [ref_window, ref_best]))
    reproduced = ref_window[1] >= 0.999 * ref_best[1]
    assert report(10, ok, f"{len(series) - 1} steps vs exact-exponential replay of the frozen "
                          f"term order: max deviation {worst:.2e} (<= {ROUNDOFF_TOL:g}), "
                          f"{len(maxima)} local maxima (reference {len(ref_maxima)}); best in "
                          f"[44T, 52T] {window[1]:.4f} at {window[0]:.1f}T, best over scan "
                          f"{best[1]:.4f} at {best[0]:.1f}T; paper target: the best recurrence "
                          f"lies in [44T, 52T] (48T): {paper_status(reproduced)}")
