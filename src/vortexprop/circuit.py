"""Gate-level compilation of Pauli-string exponentials and Trotter steps.

A term exp(-i phi c P) compiles to the standard pattern: a basis-change gate
G_j on every X or Y support qubit (H for X, RX(pi/2) for Y; a Z factor needs
none), a CNOT ladder chaining consecutive support qubits, RZ(2 phi c) on the
last support qubit, the mirrored ladder, then the G_j daggers.  Qubits outside the support are
skipped entirely, so the ladder hops over them.  With the convention
RZ(lam) = diag(e^{-i lam/2}, e^{+i lam/2}) the compiled unitary equals
exp(-i phi c P) exactly.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .hamiltonian import Hamiltonian, PauliAxis, PauliTerm

HALF_PI = math.pi / 2


@dataclass(frozen=True)
class Gate:
    """One compiled gate, as `compile_pauli_exponential` builds it from a checked term.

    H, RX or RZ on one qubit, CNOT on (control, target); `lam` is the finite
    angle of RX and RZ, None for H and CNOT.  Nothing is checked here: the
    compiler is the only builder, and `apply_gate` refuses an unknown kind.
    """
    kind: str
    qubits: tuple[int, ...]
    lam: float | None = None


@dataclass
class Circuit:
    n_qubits: int
    gates: tuple[Gate, ...]


def basis_change_gate(axis: PauliAxis, qubit: int) -> tuple[Gate, Gate] | None:
    """Return (G_j, G_j^dagger) rotating the computational basis to `axis`.

    None for Z: the computational basis already is its eigenbasis.
    """
    if axis is PauliAxis.X:
        return Gate("H", (qubit,)), Gate("H", (qubit,))
    if axis is PauliAxis.Y:
        return Gate("RX", (qubit,), HALF_PI), Gate("RX", (qubit,), -HALF_PI)
    return None


def compile_pauli_exponential(term: PauliTerm, phi: float, n_qubits: int) -> Circuit:
    """Compile exp(-i phi coeff P) for the Pauli string P of `term` on n_qubits."""
    if not math.isfinite(phi):
        raise ValueError(f"non-finite angle {phi}")
    support = term.support
    pre, post = [], []
    for site, axis in term.factors:
        change = basis_change_gate(axis, site)
        if change is not None:
            pre.append(change[0])
            post.append(change[1])
    ladder = [Gate("CNOT", (support[k], support[k + 1])) for k in range(len(support) - 1)]
    rz = Gate("RZ", (support[-1],), 2.0 * phi * term.coeff)
    gates = pre + ladder + [rz] + ladder[::-1] + post[::-1]
    return Circuit(n_qubits=n_qubits, gates=tuple(gates))


def compile_trotter_step(h: Hamiltonian, dt_over_T: float) -> Circuit:
    """One depth-1 Trotter step over `h` in frozen term order.

    One period T carries dimensionless phase J*T/hbar = 2 per unit
    coefficient, so each term gets phi = 2 * dt_over_T.
    """
    if dt_over_T <= 0:
        raise ValueError(f"dt_over_T must be positive, got {dt_over_T}")
    gates: list[Gate] = []
    for term in h.terms:
        gates.extend(compile_pauli_exponential(term, 2.0 * dt_over_T, h.n_sites).gates)
    return Circuit(n_qubits=h.n_sites, gates=tuple(gates))


# ---------------------------------------------------------------------------
# dump format
# ---------------------------------------------------------------------------

def circuit_to_dict(c: Circuit) -> dict:
    gates = []
    for g in c.gates:
        entry: dict = {"g": g.kind, "q": list(g.qubits)}
        if g.lam is not None:
            entry["lambda"] = g.lam
        gates.append(entry)
    return {"n": c.n_qubits, "gates": gates}


def dump_circuit(c: Circuit) -> str:
    return json.dumps(circuit_to_dict(c), indent=2)
