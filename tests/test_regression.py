"""Frozen dynamical values guarding the kernels against silent drift.

Each fidelity is checked against its pin, which the program produced itself,
and against an oracle from `oracles.py`: the spectral closed form for the exact
run, the exact-exponential replay of the frozen term order for the Trotter runs.
Each magnetization is checked against its pin and against sum_k <Z_k> of the
replay's last state.
"""
import numpy as np
import pytest

from vortexprop.evolve import RunConfig, run_exact, run_trotter
from vortexprop.lattice import build_system

from oracles import SpectralReference, reference_trotter_scan, reference_trotter_states


def _reference_magnetization(kind: str, label: str, dt_over_T: float, total_over_T: float):
    """sum_k <Z_k> = sum_j |psi_j|^2 (n - 2 popcount(j)) after the replay's last step."""
    *_, psi = reference_trotter_states(kind, label, dt_over_T, round(total_over_T / dt_over_T))
    up_minus_down = [len(label) - 2 * j.bit_count() for j in range(len(psi))]
    return float(np.abs(psi) ** 2 @ up_minus_down)


def test_melon_exact_fidelity_at_1T():
    config = RunConfig(system=build_system("melon"), dt_over_T=1.0,
                       total_over_T=1.0, sample_pitch=1)
    fid = run_exact(config).samples[-1].fidelity0
    assert fid == pytest.approx(0.006241849757569702, abs=1e-10)
    reference = SpectralReference("melon", config.resolve_initial_label()).fidelity(1.0)
    assert fid == pytest.approx(reference, abs=1e-10)


def test_melon_trotter_fidelity_at_4T():
    config = RunConfig(system=build_system("melon"), dt_over_T=1 / 300,
                       total_over_T=4.0, sample_pitch=1200)
    result = run_trotter(config)
    assert result.samples[-1].fidelity0 == pytest.approx(0.012127549609156752, abs=1e-9)
    reference = reference_trotter_scan("melon", config.resolve_initial_label(), 1 / 300, 4.0)
    assert result.samples[-1].fidelity0 == pytest.approx(reference[-1][1], abs=1e-9)
    assert result.samples[-1].magnetization == pytest.approx(3.780385600158392, abs=1e-8)
    reference = _reference_magnetization("melon", config.resolve_initial_label(), 1 / 300, 4.0)
    assert result.samples[-1].magnetization == pytest.approx(reference, abs=1e-8)


def test_combined_trotter_at_8T():
    config = RunConfig(system=build_system("combined"), dt_over_T=1 / 10,
                       total_over_T=8.0, sample_pitch=80)
    result = run_trotter(config)
    assert result.samples[-1].fidelity0 == pytest.approx(0.007632563118287942, abs=1e-9)
    reference = reference_trotter_scan("combined", config.resolve_initial_label(), 1 / 10, 8.0)
    assert result.samples[-1].fidelity0 == pytest.approx(reference[-1][1], abs=1e-9)
    assert result.samples[-1].magnetization == pytest.approx(1.2836953639486255, abs=1e-8)
    reference = _reference_magnetization("combined", config.resolve_initial_label(), 1 / 10, 8.0)
    assert result.samples[-1].magnetization == pytest.approx(reference, abs=1e-8)
