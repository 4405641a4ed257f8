"""Independent references and the output checks behind `failed` and max_err.

No reference here runs vortexprop's propagation code.  Trotter ops are
replayed as exact term exponentials cos(a) I - i sin(a) P in the frozen term
order.  Exact ops use a dense eigendecomposition of `matrix_of` for the
8-site systems, and `expm_multiply` on a sparse matrix assembled here for the
13-site one.  The checks run outside the timed region.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import expm_multiply  # bound before any span rebinding

MAX_ERR = 1e-8  # largest amplitude or fidelity deviation from the reference
NORM_TOL = 1e-9  # | <psi|psi> - 1 | of the final state
PARITY_TOL = 1e-12  # weight outside the initial prod-Z sector
ENERGY_TOL = {"trotter": 0.02, "exact": 1e-6}  # J, as acceptance criterion 5
DENSE_MAX_N = 10  # above this the exact reference steps a sparse matrix


def pauli_action(n: int, factors) -> tuple[np.ndarray, np.ndarray]:
    """(idx, ph) with (P psi)[j] = ph[j] * psi[idx[j]] for the string `factors`."""
    i = np.arange(1 << n)
    flip = 0
    phase = np.ones(1 << n, dtype=complex)
    for site, axis in factors:
        bit = (i >> site) & 1
        if axis in ("X", "Y"):
            flip ^= 1 << site
        if axis == "Y":
            phase = phase * (1j * (1 - 2 * bit))  # Y|b> = i(1-2b)|1-b>
        elif axis == "Z":
            phase = phase * (1 - 2 * bit)
    idx = i ^ flip
    return idx, phase[idx]


def basis_state(label: str) -> np.ndarray:
    psi = np.zeros(1 << len(label), dtype=complex)
    psi[int(label, 2)] = 1.0
    return psi


def parity_leak(amps: np.ndarray, label: str) -> float:
    """Weight of `amps` outside the prod-Z parity sector of `label`."""
    n = len(label)
    idx = np.arange(1 << n)
    parity = np.zeros(1 << n, dtype=np.int64)
    for k in range(n):
        parity ^= (idx >> k) & 1
    wrong = parity != label.count("1") % 2
    return float(np.sum(np.abs(amps[wrong]) ** 2))


def initial_energy(h, label: str) -> float:
    """<label| H |label>: only terms without a flip contribute."""
    i0 = int(label, 2)
    e = 0.0
    for term in h.terms:
        idx, ph = pauli_action(h.n_sites, term.factors)
        if idx[i0] == i0:
            e += term.coeff * ph[i0].real
    return e


def _trotter_states(h, psi, dt, n_steps, every):
    a_of = 2.0 * dt  # one period carries phase 2 per unit coefficient
    terms = []
    for term in h.terms:
        idx, ph = pauli_action(h.n_sites, term.factors)
        a = a_of * term.coeff
        terms.append((idx, -1j * math.sin(a) * ph, math.cos(a)))
    yield 0, psi
    for step in range(1, n_steps + 1):
        for idx, sph, c in terms:
            psi = c * psi + sph * psi[idx]
        if step % every == 0:
            yield step, psi


def _exact_states(h, psi, dt, n_steps, every):
    n = h.n_sites
    if n <= DENSE_MAX_N:
        from vortexprop.hamiltonian import matrix_of

        energies, vecs = np.linalg.eigh(matrix_of(h))
        coeffs = vecs.conj().T @ psi
        for step in range(0, n_steps + 1, every):
            yield step, vecs @ (np.exp(-2j * step * dt * energies) * coeffs)
        return
    dim = 1 << n
    rows, cols, data = [], [], []
    for term in h.terms:
        idx, ph = pauli_action(n, term.factors)
        rows.append(np.arange(dim))
        cols.append(idx)
        data.append(term.coeff * ph)
    hs = coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=(dim, dim)
    ).tocsr()
    generator = -2j * every * dt * hs
    yield 0, psi
    for step in range(every, n_steps + 1, every):
        psi = expm_multiply(generator, psi)
        yield step, psi


@dataclass
class Reference:
    steps: list[int]  # sampled steps (every step for a scan)
    fidelity: np.ndarray  # |<psi0|psi>|^2 at each sampled step
    abs_amps: np.ndarray | None  # |amplitude| at each sample, runs only
    final: np.ndarray  # state at the last sampled step
    energy0: float


def reference(op, h, label: str) -> Reference:
    """The independent reference for one op on Hamiltonian `h` from `label`."""
    i0 = int(label, 2)
    every = 1 if op.call == "fidelity_scan" else op.pitch
    walk = _exact_states if op.call == "run_exact" else _trotter_states
    steps, fid, absamps = [], [], []
    psi = None
    for step, psi in walk(h, basis_state(label), op.dt, op.n_steps, every):
        steps.append(step)
        fid.append(abs(psi[i0]) ** 2)
        if op.call != "fidelity_scan":
            absamps.append(np.abs(psi))
    return Reference(
        steps, np.array(fid), np.array(absamps) if absamps else None, psi,
        initial_energy(h, label),
    )


@dataclass
class Verdict:
    max_err: float
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def _exceeds(value: float, limit: float) -> bool:
    return not value <= limit  # NaN exceeds every limit


def check(op, label: str, output, ref: Reference, out_dir: Path | None = None) -> Verdict:
    """Check one op's output against its reference and the invariants."""
    if op.call == "fidelity_scan":
        return _check_scan(op, output, ref)
    return _check_run(op, label, output, ref, out_dir)


def _check_scan(op, series, ref: Reference) -> Verdict:
    if len(series) != len(ref.steps):
        return Verdict(math.inf, [f"scan has {len(series)} points, want {len(ref.steps)}"])
    times = np.array([t for t, _ in series])
    fids = np.array([f for _, f in series])
    err = float(np.max(np.abs(fids - ref.fidelity)))
    v = Verdict(err)
    if _exceeds(float(np.max(np.abs(times - np.array(ref.steps) * op.dt))), 1e-9):
        v.problems.append("scan times off the step grid")
    if _exceeds(err, MAX_ERR):
        v.problems.append(f"fidelity deviates by {err:.3g}")
    return v


def _check_run(op, label: str, result, ref: Reference, out_dir: Path | None) -> Verdict:
    samples = result.samples
    if [s.step for s in samples] != ref.steps:
        return Verdict(math.inf, ["sampled steps differ from the reference"])
    amps = result.final_state.amps
    err = float(np.max(np.abs(amps - ref.final)))
    for k, s in enumerate(samples):
        err = max(err, abs(s.fidelity0 - ref.fidelity[k]))
        for lbl, v in s.amp_norms.items():
            err = max(err, abs(v - ref.abs_amps[k, int(lbl, 2)]))
    v = Verdict(err)
    if _exceeds(err, MAX_ERR):
        v.problems.append(f"state deviates by {err:.3g}")
    norm_drift = abs(float(np.vdot(amps, amps).real) - 1.0)
    if _exceeds(norm_drift, NORM_TOL):
        v.problems.append(f"norm drift {norm_drift:.3g}")
    leak = parity_leak(amps, label)
    if _exceeds(leak, PARITY_TOL):
        v.problems.append(f"parity leak {leak:.3g}")
    drift = max(abs(s.energy - ref.energy0) for s in samples)
    limit = ENERGY_TOL["exact" if op.call == "run_exact" else "trotter"]
    if _exceeds(drift, limit):
        v.problems.append(f"energy drift {drift:.3g} J")
    if out_dir is not None:
        v.problems += _check_files(out_dir, label, len(samples))
    return v


def _check_files(out_dir: Path, label: str, n_samples: int) -> list[str]:
    problems = []
    with open(out_dir / "samples.csv") as fh:
        rows = sum(1 for _ in fh)
    if rows != n_samples + 1:
        problems.append(f"samples.csv has {rows} lines, want {n_samples + 1}")
    manifest = json.loads((out_dir / "manifest.json").read_text())
    if manifest["config"]["initial_label"] != label:
        problems.append("manifest initial_label is not the drawn label")
    for name in ("fig4.dat", "fig5.dat", "fig6.dat", "plot.gp"):
        if not (out_dir / name).is_file():
            problems.append(f"{name} missing")
    return problems
