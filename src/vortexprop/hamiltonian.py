"""Weighted Pauli-string Hamiltonians for the vortex systems and the XXZ chain.

Coefficients are stored in units of the exchange integral J; conversion to eV
happens only at the I/O boundary.  Term order is frozen (bond construction
order, X-term before Y-term before Z-term within a bond) because the depth-1
Trotter circuit depends on it.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .lattice import SystemKind, SystemSpec, bond_couplings

COEFF_CUTOFF = 1e-15  # terms with |coefficient| below this are left out of the Hamiltonian


class PauliAxis(str, Enum):
    X = "X"
    Y = "Y"
    Z = "Z"


@dataclass(frozen=True)
class PauliTerm:
    """Real coefficient times a sparse Pauli string, factors sorted by site."""
    coeff: float
    factors: tuple[tuple[int, PauliAxis], ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("empty Pauli term")
        if not math.isfinite(self.coeff):
            raise ValueError(f"non-finite coefficient {self.coeff}")
        sites = [s for s, _ in self.factors]
        if len(set(sites)) != len(sites):
            raise ValueError(f"repeated site in {self.factors}")
        if sites != sorted(sites):
            object.__setattr__(self, "factors", tuple(sorted(self.factors)))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(s for s, _ in self.factors)


@dataclass(frozen=True)
class Hamiltonian:
    n_sites: int
    terms: tuple[PauliTerm, ...]

    def __post_init__(self):
        for t in self.terms:
            if t.support and t.support[-1] >= self.n_sites:
                raise ValueError(f"term {t} outside {self.n_sites} sites")


@dataclass(frozen=True)
class PhysicalConstants:
    t_hop_ev: float = 0.13
    u_ev: float = 8 * 0.13
    hbar_ev_s: float = 6.582119569e-16
    period_fs: float = 40.5054
    svinm_unit_j_per_t: float = 3.5662e-3

    @property
    def j_ev(self) -> float:
        return 2 * self.t_hop_ev ** 2 / self.u_ev


CONSTANTS = PhysicalConstants()


def period_from_constants(constants: PhysicalConstants = CONSTANTS) -> float:
    """Recurrence time unit T = 2*hbar/J, in femtoseconds."""
    return 2 * constants.hbar_ev_s / constants.j_ev * 1e15


def build_vortex_hamiltonian(spec: SystemSpec) -> Hamiltonian:
    """Expand S_p.S_q over every bond of a vortex system.

    Each bond contributes its XX, YY and ZZ couplings (`bond_couplings`).
    With theta = pi/2 the ZZ coupling vanishes, so every emitted term is
    off-diagonal in the computational basis.
    """
    if spec.kind is SystemKind.XXZ:
        raise ValueError("use build_xxz_hamiltonian for the chain")
    terms: list[PauliTerm] = []
    for b in spec.bonds:
        for c, ax in zip(bond_couplings(spec, b), (PauliAxis.X, PauliAxis.Y, PauliAxis.Z)):
            if abs(c) >= COEFF_CUTOFF:
                terms.append(PauliTerm(c, ((b.p, ax), (b.q, ax))))
    return Hamiltonian(n_sites=spec.n_sites, terms=tuple(terms))


def build_xxz_hamiltonian(n: int, delta: float) -> Hamiltonian:
    """Open XXZ chain: X_i X_{i+1} + Y_i Y_{i+1} + delta Z_i Z_{i+1}."""
    if n < 2:
        raise ValueError(f"chain needs n >= 2, got {n}")
    terms: list[PauliTerm] = []
    for i in range(n - 1):
        terms.append(PauliTerm(1.0, ((i, PauliAxis.X), (i + 1, PauliAxis.X))))
        terms.append(PauliTerm(1.0, ((i, PauliAxis.Y), (i + 1, PauliAxis.Y))))
        if abs(delta) >= COEFF_CUTOFF:
            terms.append(PauliTerm(delta, ((i, PauliAxis.Z), (i + 1, PauliAxis.Z))))
    return Hamiltonian(n_sites=n, terms=tuple(terms))


def build_hamiltonian(spec: SystemSpec) -> Hamiltonian:
    if spec.kind is SystemKind.XXZ:
        return build_xxz_hamiltonian(spec.n_sites, spec.delta)
    return build_vortex_hamiltonian(spec)


_PAULI_MATS = {
    PauliAxis.X: np.array([[0, 1], [1, 0]], dtype=complex),
    PauliAxis.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    PauliAxis.Z: np.array([[1, 0], [0, -1]], dtype=complex),
}


def matrix_of(h: Hamiltonian) -> np.ndarray:
    """Dense matrix of `h` by Kronecker assembly (test oracle; n <= 13)."""
    if h.n_sites > 13:
        raise ValueError(f"dense assembly capped at 13 sites, got {h.n_sites}")
    dim = 1 << h.n_sites
    out = np.zeros((dim, dim), dtype=complex)
    eye = np.eye(2, dtype=complex)
    for term in h.terms:
        ops = dict(term.factors)
        m = np.array([[1.0 + 0j]])
        # site k occupies bit k, so it sits at kron position n-1-k
        for k in range(h.n_sites - 1, -1, -1):
            m = np.kron(m, _PAULI_MATS[ops[k]] if k in ops else eye)
        out += term.coeff * m
    return out


def sparse_matrix_of(h: Hamiltonian):
    """Sparse CSR matrix of `h` on the full space, from the precompiled term actions.

    Real when every string carries an even number of Y factors.
    """
    from .statevector import PauliKernel  # statevector imports this module

    return PauliKernel(h.n_sites, h.terms).sparse_matrix()


# ---------------------------------------------------------------------------
# dump format
# ---------------------------------------------------------------------------

def hamiltonian_to_list(h: Hamiltonian) -> list[dict]:
    return [
        {"coeff": t.coeff, "ops": [[s, ax.value] for s, ax in t.factors]}
        for t in h.terms
    ]


def hamiltonian_from_list(data: list[dict], n_sites: int | None = None) -> Hamiltonian:
    terms = tuple(
        PauliTerm(float(d["coeff"]), tuple((int(s), PauliAxis(a)) for s, a in d["ops"]))
        for d in data
    )
    if n_sites is None:
        if not terms:
            raise ValueError("an empty term list needs n_sites")
        n_sites = 1 + max(s for t in terms for s in t.support)
    return Hamiltonian(n_sites=n_sites, terms=terms)


def dump_hamiltonian(h: Hamiltonian) -> str:
    return json.dumps(hamiltonian_to_list(h), indent=2)


def hamiltonian_hash(h: Hamiltonian) -> str:
    """Content hash of the dump, recorded in run manifests."""
    return hashlib.sha256(dump_hamiltonian(h).encode()).hexdigest()
