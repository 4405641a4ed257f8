"""Per-sample observables, recurrence estimation, and the run CSV format.

CSV column order (fixed): step, t_over_T, energy, magnetization,
svinm_physical, fidelity0, then m_z per site, m_x per site, m_y per site, then one |amp|
column per tracked basis label.  Values are written with 17 significant
digits so a re-parse reproduces the run exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hamiltonian import CONSTANTS
# expect_pauli stays bound here for perfbench/spans.py
from .statevector import (  # noqa: F401
    PauliKernel,
    StateVector,
    expect_pauli,
    fidelity,
    label_to_index,
)


@dataclass
class SampleRecord:
    step: int
    time_over_T: float
    amp_norms: dict[str, float]
    m_z: tuple[float, ...]
    m_x: tuple[float, ...]
    m_y: tuple[float, ...]
    magnetization: float
    svinm: float
    energy: float
    fidelity0: float


@dataclass(frozen=True)
class PeriodEstimate:
    period_over_T: float
    threshold: float
    t_max_over_T: float
    lower_bound: bool

    def __str__(self) -> str:
        if self.lower_bound:
            return f">= {self.t_max_over_T:g}"
        return f"{self.period_over_T:g}"


def site_moments_z(state: StateVector) -> np.ndarray:
    """<Z_k> for every site, computed from the probability vector."""
    pr = state.probabilities()
    out = np.empty(state.n_qubits)
    for k in range(state.n_qubits):
        p1 = pr.reshape(-1, 2, 1 << k)[:, 1, :].sum()
        out[k] = 1.0 - 2.0 * p1
    return out


def site_moments_xy(state: StateVector) -> tuple[np.ndarray, np.ndarray]:
    """(<X_k>, <Y_k>) for every site: 2 Re z_k and 2 Im z_k, z_k = sum conj(a0) a1.

    a0 and a1 are the amplitudes with bit k clear and set, paired across bit k.
    """
    z = np.empty(state.n_qubits, dtype=np.complex128)
    for k in range(state.n_qubits):
        v = state.amps.reshape(-1, 2, 1 << k)
        z[k] = np.vdot(v[:, 0, :], v[:, 1, :])
    return 2.0 * z.real, 2.0 * z.imag


def record_sample(
    state: StateVector,
    kernel: PauliKernel,
    tracked: Sequence[str],
    step: int,
    dt_over_T: float,
    reference: StateVector | None = None,
) -> SampleRecord:
    """Measure every tracked quantity on the current state.

    `kernel` is the run's precompiled Hamiltonian and gives the energy.
    `reference` is the initial state used for fidelity0; omit it to record
    fidelity against the state itself (= 1.0 at step 0).
    """
    mz = site_moments_z(state)
    mx, my = site_moments_xy(state)
    energy = kernel.expectation(state.amps)
    mag = float(mz.sum())
    amps = state.amps
    norms = {lbl: float(abs(amps[label_to_index(lbl)])) for lbl in tracked}
    fid0 = fidelity(reference, state) if reference is not None else 1.0
    return SampleRecord(
        step=step,
        time_over_T=step * dt_over_T,
        amp_norms=norms,
        m_z=tuple(mz),
        m_x=tuple(mx),
        m_y=tuple(my),
        magnetization=mag,
        svinm=mag * CONSTANTS.svinm_unit_j_per_t,
        energy=float(energy),
        fidelity0=float(fid0),
    )


def estimate_period(
    series: Sequence[tuple[float, float]],
    threshold: float,
    t_max_over_T: float,
) -> PeriodEstimate:
    """First recurrence of a fidelity series.

    Finds the smallest t > 0 where the series crosses `threshold` from below,
    then walks to the local maximum around the crossing.  Returns a
    lower-bound estimate at t_max if no crossing occurs.
    """
    if not len(series):
        raise ValueError("empty fidelity series")
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    times = [t for t, _ in series]
    fids = [f for _, f in series]
    for i in range(1, len(fids)):
        if fids[i] >= threshold and fids[i - 1] < threshold:
            j = i
            while j + 1 < len(fids) and fids[j + 1] >= fids[j]:
                j += 1
            return PeriodEstimate(times[j], threshold, t_max_over_T, lower_bound=False)
    return PeriodEstimate(t_max_over_T, threshold, t_max_over_T, lower_bound=True)


def local_maxima(series: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    """Interior local maxima of a sampled series, as (t, value) pairs."""
    out = []
    for i in range(1, len(series) - 1):
        if series[i][1] >= series[i - 1][1] and series[i][1] >= series[i + 1][1]:
            out.append(series[i])
    return out


def check_amplitude_symmetry(
    samples: Sequence[SampleRecord], center_over_T: float
) -> float:
    """Max |sqrt(p)| mismatch between mirror times around `center_over_T`.

    Requires uniformly sampled records covering [0, 2*center].
    """
    if len(samples) < 3:
        raise ValueError("need at least three samples")
    times = [s.time_over_T for s in samples]
    pitch = times[1] - times[0]
    ic = round(center_over_T / pitch)
    if ic >= len(samples) or not math.isclose(
        times[ic], center_over_T, rel_tol=0, abs_tol=pitch / 2
    ):
        raise ValueError(f"series has no sample at the center {center_over_T}")
    if times[-1] < 2 * center_over_T - pitch / 2:
        raise ValueError("series does not cover [0, 2*center]")
    reach = min(ic, len(samples) - 1 - ic)
    worst = 0.0
    for k in range(1, reach + 1):
        left, right = samples[ic - k].amp_norms, samples[ic + k].amp_norms
        for lbl, v in left.items():
            worst = max(worst, abs(v - right[lbl]))
    return worst


def check_class_degeneracy(
    samples: Sequence[SampleRecord],
    classes: Sequence[Sequence[str]],
    site_labels: Sequence[str],
) -> dict[tuple[str, ...], float]:
    """Max over time of the m_z spread inside each symmetry class."""
    index = {lbl: i for i, lbl in enumerate(site_labels)}
    out: dict[tuple[str, ...], float] = {}
    for cls in classes:
        try:
            ids = [index[lbl] for lbl in cls]
        except KeyError as exc:
            raise ValueError(f"unknown site label {exc.args[0]!r}") from exc
        spread = 0.0
        for s in samples:
            vals = [s.m_z[i] for i in ids]
            spread = max(spread, max(vals) - min(vals))
        out[tuple(cls)] = spread
    return out


def peak_magnetization_time(samples: Sequence[SampleRecord]) -> tuple[float, float]:
    """(t_over_T, magnetization) where |magnetization| is largest."""
    best = max(samples, key=lambda s: abs(s.magnetization))
    return best.time_over_T, best.magnetization


# ---------------------------------------------------------------------------
# CSV format
# ---------------------------------------------------------------------------

def csv_header(site_labels: Sequence[str], tracked: Sequence[str]) -> list[str]:
    cols = ["step", "t_over_T", "energy", "magnetization", "svinm_physical", "fidelity0"]
    cols += [f"mz_{s}" for s in site_labels]
    cols += [f"mx_{s}" for s in site_labels]
    cols += [f"my_{s}" for s in site_labels]
    cols += [f"amp_{lbl}" for lbl in tracked]
    return cols


def sample_row(s: SampleRecord, tracked: Sequence[str]) -> list[float]:
    row: list[float] = [s.step, s.time_over_T, s.energy, s.magnetization, s.svinm, s.fidelity0]
    row += list(s.m_z) + list(s.m_x) + list(s.m_y)
    row += [s.amp_norms[lbl] for lbl in tracked]
    return row


def write_samples_csv(
    path, samples: Sequence[SampleRecord], site_labels: Sequence[str], tracked: Sequence[str]
) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(csv_header(site_labels, tracked)) + "\n")
        for s in samples:
            cells = [str(s.step)] + [f"{v:.17g}" for v in sample_row(s, tracked)[1:]]
            fh.write(",".join(cells) + "\n")


def read_samples_csv(path) -> tuple[list[str], np.ndarray]:
    """Return (header, value matrix); floats round-trip exactly."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [[float(c) for c in line.rstrip("\n").split(",")] for line in fh if line.strip()]
    return header, np.array(rows)
