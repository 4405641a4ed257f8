"""Exact statevector backend: dense complex amplitudes with in-place kernels.

Site k maps to bit k of the basis index (little endian), so basis labels are
written most-significant site first: the rightmost character of a label is
site a.  Bit value 0 is an up spin, 1 a down spin.

Two kernels act on the amplitudes.  The gate kernels replay a compiled
circuit gate by gate; they are what the dumped circuit is checked with.  The
Pauli-term kernel applies each Hamiltonian term through its precompiled
action on the basis; Trotter stepping, expectations, the direct exponential
and the sparse matrix all go through it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuit import Circuit, Gate
from .hamiltonian import PauliAxis, PauliTerm

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class StateVector:
    """2^n complex amplitudes, exclusively owned by one evolution run."""

    __slots__ = ("n_qubits", "amps")

    def __init__(self, n_qubits: int, amps: np.ndarray | None = None):
        self.n_qubits = n_qubits
        if amps is None:
            amps = np.zeros(1 << n_qubits, dtype=np.complex128)
            amps[0] = 1.0
        else:
            amps = np.asarray(amps, dtype=np.complex128)
            if amps.shape != (1 << n_qubits,):
                raise ValueError(f"need {1 << n_qubits} amplitudes, got {amps.shape}")
        self.amps = amps

    def copy(self) -> "StateVector":
        return StateVector(self.n_qubits, self.amps.copy())

    def norm_sq(self) -> float:
        return float(np.real(np.vdot(self.amps, self.amps)))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2


def label_to_index(label: str) -> int:
    """Basis index of a 0/1 label written most-significant site first."""
    if not label or any(ch not in "01" for ch in label):
        raise ValueError(f"malformed basis label {label!r}")
    return int(label, 2)


def index_to_label(index: int, n_qubits: int) -> str:
    return format(index, f"0{n_qubits}b")


def init_basis_state(label: str) -> StateVector:
    """State with unit amplitude on the labeled basis state."""
    n = len(label)
    state = StateVector(n, np.zeros(1 << n, dtype=np.complex128))
    state.amps[label_to_index(label)] = 1.0
    return state


# ---------------------------------------------------------------------------
# gate kernels
# ---------------------------------------------------------------------------

def _apply_1q(amps: np.ndarray, q: int, u00, u01, u10, u11) -> None:
    v = amps.reshape(-1, 2, 1 << q)
    a0 = v[:, 0, :].copy()
    a1 = v[:, 1, :]
    v[:, 0, :] = u00 * a0 + u01 * a1
    v[:, 1, :] = u10 * a0 + u11 * a1


def _apply_cnot(amps: np.ndarray, control: int, target: int) -> None:
    hi, lo = max(control, target), min(control, target)
    # axis 1 is bit hi, axis 3 is bit lo
    v = amps.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    if control == hi:
        tmp = v[:, 1, :, 0, :].copy()
        v[:, 1, :, 0, :] = v[:, 1, :, 1, :]
        v[:, 1, :, 1, :] = tmp
    else:
        tmp = v[:, 0, :, 1, :].copy()
        v[:, 0, :, 1, :] = v[:, 1, :, 1, :]
        v[:, 1, :, 1, :] = tmp


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate in place and return the state."""
    for q in gate.qubits:
        if q >= state.n_qubits:
            raise IndexError(f"qubit {q} out of range for n={state.n_qubits}")
    amps = state.amps
    if gate.kind == "I":
        return state
    if gate.kind == "H":
        _apply_1q(amps, gate.qubits[0], _INV_SQRT2, _INV_SQRT2, _INV_SQRT2, -_INV_SQRT2)
    elif gate.kind == "RX":
        c, s = math.cos(gate.lam / 2), math.sin(gate.lam / 2)
        _apply_1q(amps, gate.qubits[0], c, -1j * s, -1j * s, c)
    elif gate.kind == "RZ":
        half = gate.lam / 2
        _apply_1q(amps, gate.qubits[0], np.exp(-1j * half), 0.0, 0.0, np.exp(1j * half))
    elif gate.kind == "CNOT":
        _apply_cnot(amps, gate.qubits[0], gate.qubits[1])
    else:
        raise ValueError(f"unknown gate kind {gate.kind!r}")
    return state


def apply_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    if circuit.n_qubits != state.n_qubits:
        raise ValueError("circuit and state sizes differ")
    for gate in circuit.gates:
        apply_gate(state, gate)
    return state


# ---------------------------------------------------------------------------
# Pauli-term kernel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TermAction:
    """Basis action of coeff * P: (P psi)[j] = factor * sign[j] * psi[gather[j]].

    gather is j ^ flip, None for a diagonal string (flip 0); sign is
    (-1)^popcount(j & mask) over the Y and Z sites, None when there are none.
    """
    coeff: float
    factor: complex  # i^#Y, times the sign the flip picks up on the Y/Z sites
    gather: np.ndarray | None
    sign: np.ndarray | None


class PauliKernel:
    """Pauli terms precompiled once into their permutation-plus-phase action.

    Terms with the same flip share one int32 gather and terms with the same
    Y/Z mask share one float sign vector (the XX and YY terms of a bond share
    the gather; XX terms need no sign).  One scratch buffer serves every
    call, so a kernel belongs to one run at a time.
    """

    def __init__(self, n_qubits: int, terms: Sequence[PauliTerm]):
        self.n_qubits = n_qubits
        dim = 1 << n_qubits
        idx = np.arange(dim, dtype=np.int32 if n_qubits < 32 else np.int64)
        gathers: dict[int, np.ndarray] = {}
        signs: dict[int, np.ndarray] = {}
        actions = []
        for term in terms:
            if term.support[-1] >= n_qubits:
                raise IndexError(f"term {term} outside {n_qubits} qubits")
            flip = mask = n_y = 0
            for site, axis in term.factors:
                if axis is not PauliAxis.Z:
                    flip |= 1 << site
                if axis is not PauliAxis.X:
                    mask |= 1 << site
                n_y += axis is PauliAxis.Y
            if flip and flip not in gathers:
                gathers[flip] = idx ^ idx.dtype.type(flip)
            if mask and mask not in signs:
                sign = np.ones(dim)
                for site in range(n_qubits):
                    if mask >> site & 1:
                        sign *= 1.0 - 2.0 * ((idx >> site) & 1)
                signs[mask] = sign
            factor = 1j ** n_y * (-1) ** bin(flip & mask).count("1")
            actions.append(TermAction(term.coeff, factor, gathers.get(flip), signs.get(mask)))
        self.terms: tuple[TermAction, ...] = tuple(actions)
        self._scratch = np.empty(dim, dtype=np.complex128)

    def _string(self, t: TermAction, amps: np.ndarray) -> np.ndarray:
        """Scratch <- (P amps) / factor."""
        out = self._scratch
        if t.gather is None:
            np.multiply(amps, t.sign, out=out)
            return out
        amps.take(t.gather, out=out, mode="clip")
        if t.sign is not None:
            out *= t.sign
        return out

    def step(self, amps: np.ndarray, phi: float) -> None:
        """Apply exp(-i phi coeff P) for every term in order, in place.

        exp(-i a P) = cos(a) I - i sin(a) P, since P squares to the identity.
        """
        for t in self.terms:
            a = phi * t.coeff
            p_amps = self._string(t, amps)
            p_amps *= -1j * math.sin(a) * t.factor
            amps *= math.cos(a)
            amps += p_amps

    def expectation(self, amps: np.ndarray) -> float:
        """sum_k coeff_k <psi|P_k|psi>, real for the Hermitian strings used here."""
        total = 0.0
        for t in self.terms:
            total += t.coeff * (t.factor * np.vdot(amps, self._string(t, amps))).real
        return total

    def sparse_matrix(self):
        """CSR matrix of sum_k coeff_k P_k, one entry per basis state and term."""
        from scipy.sparse import coo_matrix, csr_matrix

        dim = 1 << self.n_qubits
        if not self.terms:
            return csr_matrix((dim, dim), dtype=np.complex128)
        idx = np.arange(dim)
        cols, data = [], []
        for t in self.terms:
            cols.append(idx if t.gather is None else t.gather)
            value = t.coeff * t.factor
            data.append(np.full(dim, value) if t.sign is None else value * t.sign)
        return coo_matrix(
            (np.concatenate(data), (np.tile(idx, len(self.terms)), np.concatenate(cols))),
            shape=(dim, dim),
        ).tocsr()


def apply_pauli_exponential_direct(state: StateVector, term: PauliTerm, phi: float) -> StateVector:
    """Apply exp(-i phi coeff P) in place, without gate decomposition."""
    PauliKernel(state.n_qubits, (term,)).step(state.amps, phi)
    return state


def expect_pauli(state: StateVector, term: PauliTerm) -> float:
    """<psi| coeff P |psi>, real for the Hermitian strings used here."""
    return PauliKernel(state.n_qubits, (term,)).expectation(state.amps)


def fidelity(a: StateVector, b: StateVector) -> float:
    """Squared overlap |<a|b>|^2."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("state sizes differ")
    return float(abs(np.vdot(a.amps, b.amps)) ** 2)


def max_amplitude_diff(a: StateVector, b: StateVector) -> float:
    """Max |amp| deviation between two states after global-phase alignment.

    Both states align on the phase of the same reference index (the largest
    amplitude of `a`); exact ties between different indices would otherwise
    make independently chosen references disagree.
    """
    k = int(np.argmax(np.abs(a.amps)))
    ra, rb = a.amps[k], b.amps[k]
    if abs(rb) < 1e-12:  # b is far from a anyway; fall back to overlap phase
        ov = np.vdot(a.amps, b.amps)
        rb = ov if abs(ov) > 0 else 1.0
    aa = a.amps * (ra.conjugate() / abs(ra)) if abs(ra) else a.amps
    bb = b.amps * (rb.conjugate() / abs(rb))
    return float(np.max(np.abs(aa - bb)))


def snapshot_rows(state: StateVector) -> list[tuple[str, float, float, float]]:
    """(basis label, re, im, |amp|) rows for state dumps."""
    n = state.n_qubits
    return [
        (index_to_label(i, n), float(a.real), float(a.imag), float(abs(a)))
        for i, a in enumerate(state.amps)
    ]
