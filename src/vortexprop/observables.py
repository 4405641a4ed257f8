"""Per-sample observables, recurrence estimation, and the run CSV format.

CSV column order (fixed): step, t_over_T, energy, magnetization,
svinm_physical, fidelity0, then m_z per site, then one |amp| column per
tracked basis label.  Values are written with 17 significant digits so a
re-parse reproduces the run exactly.  There are no m_x or m_y columns: X_k
and Y_k flip the prod-Z parity that every term conserves, so <X_k> = <Y_k> = 0
on every state a run reaches from a basis state.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .hamiltonian import CONSTANTS
# expect_pauli and fidelity stay bound here for perfbench/spans.py
from .statevector import PauliKernel, expect_pauli, fidelity  # noqa: F401


@dataclass
class SampleRecord:
    step: int
    time_over_T: float
    amp_norms: dict[str, float]
    m_z: tuple[float, ...]
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


def site_moments_z(amps: np.ndarray, kernel: PauliKernel) -> np.ndarray:
    """<Z_k> for every site, from the probabilities over the kernel's basis states."""
    return kernel.z_signs @ (np.abs(amps) ** 2)


def record_sample(
    amps: np.ndarray,
    kernel: PauliKernel,
    positions: Mapping[str, int | None],
    step: int,
    dt_over_T: float,
    energy: float,
) -> SampleRecord:
    """Measure every tracked quantity but the energy, which `_run` measures, on the state.

    `amps` lie over the basis states of `kernel`, the run's precompiled
    Hamiltonian; `energy` is <psi|H|psi>.  `positions` maps each tracked
    label to where the kernel stores it, None outside the sector, where its
    norm reads 0.  fidelity0 is the weight on the kernel's start state.
    """
    mz = site_moments_z(amps, kernel)
    mag = float(mz.sum())
    norms = {lbl: 0.0 if pos is None else float(abs(amps[pos])) for lbl, pos in positions.items()}
    fid0 = float(abs(amps[kernel.position(kernel.start)]) ** 2)
    return SampleRecord(
        step=step,
        time_over_T=step * dt_over_T,
        amp_norms=norms,
        m_z=tuple(mz),
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


# ---------------------------------------------------------------------------
# CSV format
# ---------------------------------------------------------------------------

def csv_header(site_labels: Sequence[str], tracked: Sequence[str]) -> list[str]:
    cols = ["step", "t_over_T", "energy", "magnetization", "svinm_physical", "fidelity0"]
    cols += [f"mz_{s}" for s in site_labels]
    cols += [f"amp_{lbl}" for lbl in tracked]
    return cols


def write_samples_csv(
    path, samples: Sequence[SampleRecord], site_labels: Sequence[str], tracked: Sequence[str]
) -> list[list[str]]:
    """Write samples.csv and return its table: the header, then one row of cells per sample.

    Each value is formatted once, here; the figure files take their cells
    from this table (`runner.emit_plot_data`).
    """
    table = [csv_header(site_labels, tracked)]
    table += [[str(s.step)] + [f"{v:.17g}" for v in (
        s.time_over_T, s.energy, s.magnetization, s.svinm, s.fidelity0, *s.m_z,
        *(s.amp_norms[lbl] for lbl in tracked))] for s in samples]
    with open(path, "w", newline="") as fh:
        fh.writelines(",".join(row) + "\n" for row in table)
    return table
