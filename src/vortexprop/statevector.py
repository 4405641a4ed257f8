"""Exact statevector backend: dense complex amplitudes with in-place kernels.

Site k maps to bit k of the basis index (little endian), so basis labels are
written most-significant site first: the rightmost character of a label is
site a.  Bit value 0 is an up spin, 1 a down spin.

Two kernels act on the amplitudes.  The gate kernels replay a compiled
circuit gate by gate; they are what the dumped circuit is checked with.  The
Pauli-term kernel fuses the Hamiltonian's terms into one precompiled op per
bond and stores only the prod-Z parity sector of a run's initial basis state;
Trotter stepping, expectations, the direct exponential and the sparse matrix
all go through it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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
    """Basis action of coeff * P: (P psi)[j] = factor * (-1)^popcount(j & mask) * psi[j ^ flip].

    flip holds the X and Y sites, mask the Y and Z sites.
    """
    coeff: float
    flip: int
    mask: int
    factor: complex  # i^#Y, times the sign the flip picks up on the Y/Z sites; real for even #Y


def _term_action(term: PauliTerm, n_qubits: int) -> TermAction:
    if term.support[-1] >= n_qubits:
        raise IndexError(f"term {term} outside {n_qubits} qubits")
    flip = mask = n_y = 0
    for site, axis in term.factors:
        if axis is not PauliAxis.Z:
            flip |= 1 << site
        if axis is not PauliAxis.X:
            mask |= 1 << site
        n_y += axis is PauliAxis.Y
    factor = (-1) ** (n_y // 2 + _odd(flip & mask)) * (1j if n_y & 1 else 1)
    return TermAction(term.coeff, flip, mask, factor)


def _odd(bits: int) -> int:
    """popcount(bits) mod 2."""
    return bin(bits).count("1") & 1


class PauliKernel:
    """Pauli terms precompiled once into one fused op per bond, on one parity sector.

    Built with the basis index `start` of a run's initial state, the kernel
    stores only the 2^(n-1) basis states of start's prod-Z parity: every term
    flips an even number of sites, so the other half stays exactly zero.  If
    some term flips an odd number of sites, or no start is given, it stores
    the full space.  `index` lists the stored basis states in ascending order;
    basis state i sits at position i >> shift.  Every method takes and returns
    amplitudes over `index`; `embed` gives the full 2^n state.

    A Trotter step fuses each maximal run of consecutive terms whose flips
    lie in {0, f} into one op psi <- alpha * psi + beta * psi[g], with one
    gather g over the pairs (j, j ^ f).  alpha and beta are the exact product
    of the run's exponentials in frozen order, so no commutation is assumed;
    they stay scalars where they are uniform (pure XX bonds).  The energy
    takes one gather per distinct flip.  One scratch buffer serves every call,
    so a kernel belongs to one run at a time.
    """

    def __init__(self, n_qubits: int, terms: Sequence[PauliTerm], start: int | None = None):
        self.n_qubits = n_qubits
        self.start = start
        self.terms = tuple(_term_action(term, n_qubits) for term in terms)
        itype = np.int32 if n_qubits < 32 else np.int64
        if start is None or any(_odd(t.flip) for t in self.terms):
            self.index, self.shift = np.arange(1 << n_qubits, dtype=itype), 0
        else:
            # bit 0 completes the parity of the upper bits, so i >> 1 is i's position
            half = np.arange(1 << (n_qubits - 1), dtype=itype)
            low = np.full_like(half, _odd(start))
            for site in range(n_qubits - 1):
                low ^= (half >> site) & 1
            self.index, self.shift = half << 1 | low, 1
        self._scratch = np.empty(len(self.index), dtype=np.complex128)
        self._gathers: dict[int, np.ndarray] = {}
        self._phi: float | None = None
        self._ops: list = []

    # -- basis states ------------------------------------------------------

    def position(self, i: int) -> int | None:
        """Where basis state i is stored, or None when it lies outside the sector."""
        pos = i >> self.shift
        return pos if self.index[pos] == i else None

    def basis(self, i: int) -> np.ndarray:
        """Amplitudes of basis state i, which must lie in the stored set."""
        amps = np.zeros(len(self.index), dtype=np.complex128)
        amps[self.position(i)] = 1.0
        return amps

    def embed(self, amps: np.ndarray) -> StateVector:
        """The full 2^n state, with exact zeros outside the stored set."""
        full = np.zeros(1 << self.n_qubits, dtype=np.complex128)
        full[self.index] = amps
        return StateVector(self.n_qubits, full)

    @cached_property
    def z_signs(self) -> np.ndarray:
        """<i|Z_k|i> = +-1 for site k (rows) and stored basis state i (columns)."""
        sites = np.arange(self.n_qubits)[:, None]
        return 1.0 - 2.0 * ((self.index[None, :] >> sites) & 1)

    # -- precompiled actions -----------------------------------------------

    def _sign(self, mask: int):
        """(-1)^popcount(i & mask) over the stored basis states; 1.0 for mask 0."""
        if not mask:
            return 1.0
        rows = [self.z_signs[k] for k in range(self.n_qubits) if mask >> k & 1]
        return math.prod(rows[1:], start=rows[0])

    def _gather(self, flip: int) -> np.ndarray:
        """Position of i ^ flip for every stored basis state i."""
        if flip not in self._gathers:
            self._gathers[flip] = (self.index ^ flip) >> self.shift
        return self._gathers[flip]

    @cached_property
    def _bonds(self) -> list:
        """(gather, w) per distinct flip: (H psi)[j] = sum of w[j] * psi[g[j]].

        The diagonal strings add up under gather None.  w is real when every
        string carries an even number of Y factors, as in these Hamiltonians.
        """
        weights: dict[int, object] = {}
        for t in self.terms:
            weights[t.flip] = weights.get(t.flip, 0.0) + t.coeff * t.factor * self._sign(t.mask)
        return [(self._gather(flip) if flip else None, w) for flip, w in weights.items()]

    def _fuse(self, phi: float) -> list:
        """(gather, alpha, beta) per maximal run of terms whose flips lie in {0, f}.

        On every pair (j, j ^ f) a string acts as the 2x2 matrix [[0, p], [q, 0]],
        or [[p, 0], [0, q]] when diagonal, with p = <j|P|j ^ flip> and q the same
        at j ^ f; exp(-i a P) = cos(a) I - i sin(a) P.  The run's product, row j,
        gives psi'[j] = alpha[j] psi[j] + beta[j] psi[j ^ f].
        """
        runs: list[list] = []
        for t in self.terms:
            if runs and (runs[-1][0] == 0 or t.flip in (0, runs[-1][0])):
                runs[-1][0] |= t.flip
                runs[-1][1].append(t)
            else:
                runs.append([t.flip, [t]])
        ops = []
        for flip, run in runs:
            m = None
            for t in run:
                c, s = math.cos(phi * t.coeff), -1j * math.sin(phi * t.coeff)
                p = t.factor * self._sign(t.mask)
                q = -p if _odd(flip & t.mask) else p
                e = (c, s * p, s * q, c) if t.flip else (c + s * p, 0.0, 0.0, c + s * q)
                m = e if m is None else (
                    e[0] * m[0] + e[1] * m[2], e[0] * m[1] + e[1] * m[3],
                    e[2] * m[0] + e[3] * m[2], e[2] * m[1] + e[3] * m[3],
                )
            ops.append((self._gather(flip) if flip else None, m[0], m[1]))
        return ops

    # -- kernels ---------------------------------------------------------------

    def step(self, amps: np.ndarray, phi: float) -> None:
        """Apply exp(-i phi coeff P) for every term in frozen order, in place.

        The fused ops are compiled on the first call and again only when phi
        changes.
        """
        if phi != self._phi:
            self._ops, self._phi = self._fuse(phi), phi
        moved = self._scratch
        for gather, alpha, beta in self._ops:
            if gather is None:  # a run of diagonal strings only
                amps *= alpha
                continue
            amps.take(gather, out=moved, mode="clip")
            moved *= beta
            amps *= alpha
            amps += moved

    def expectation(self, amps: np.ndarray) -> float:
        """sum_k coeff_k <psi|P_k|psi>, real for the Hermitian strings used here."""
        total = 0.0
        for gather, w in self._bonds:
            moved = amps if gather is None else amps.take(gather, out=self._scratch, mode="clip")
            total += np.vdot(amps, np.multiply(moved, w, out=self._scratch)).real
        return float(total)

    def sparse_matrix(self):
        """CSR matrix of sum_k coeff_k P_k over the stored basis states.

        One entry per stored basis state and distinct flip; real whenever
        every string carries an even number of Y factors.
        """
        from scipy.sparse import coo_matrix, csr_matrix

        dim = len(self.index)
        if not self._bonds:
            return csr_matrix((dim, dim))
        rows = np.arange(dim)
        cols = [rows if g is None else g for g, _ in self._bonds]
        data = [np.broadcast_to(w, (dim,)) for _, w in self._bonds]
        return coo_matrix(
            (np.concatenate(data), (np.tile(rows, len(cols)), np.concatenate(cols))),
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
