import math

import numpy as np
import pytest

from vortexprop.circuit import (
    Circuit,
    Gate,
    basis_change_gate,
    circuit_from_dict,
    circuit_to_dict,
    compile_pauli_exponential,
    compile_trotter_step,
    gate_count,
)
from vortexprop.hamiltonian import (
    Hamiltonian,
    PauliAxis,
    PauliTerm,
    build_vortex_hamiltonian,
)
from vortexprop.lattice import build_system
from vortexprop.statevector import (
    StateVector,
    apply_circuit,
    apply_pauli_exponential_direct,
    max_amplitude_diff,
)

RNG = np.random.default_rng(20240817)

AXES = (PauliAxis.X, PauliAxis.Y, PauliAxis.Z)


def random_term(n, rng):
    k = int(rng.integers(1, n + 1))
    sites = sorted(rng.choice(n, size=k, replace=False).tolist())
    return PauliTerm(
        float(rng.uniform(-2, 2)),
        tuple((s, AXES[rng.integers(3)]) for s in sites),
    )


def random_state(n, rng):
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amps /= np.linalg.norm(amps)
    return StateVector(n, amps)


class TestBasisChange:
    def test_x_uses_hadamard(self):
        g, gd = basis_change_gate(PauliAxis.X, 0)
        assert g == Gate("H", (0,)) and gd == Gate("H", (0,))

    def test_y_uses_rx_quarter_turn(self):
        g, gd = basis_change_gate(PauliAxis.Y, 3)
        assert g == Gate("RX", (3,), math.pi / 2)
        assert gd == Gate("RX", (3,), -math.pi / 2)

    def test_z_needs_no_gate(self):
        assert basis_change_gate(PauliAxis.Z, 1) is None


class TestCompilePauliExponential:
    def test_single_z_is_one_rz(self):
        term = PauliTerm(1.0, ((0, PauliAxis.Z),))
        c = compile_pauli_exponential(term, 0.7)
        assert [g.kind for g in c.gates] == ["RZ"]
        rz = c.gates[0]
        assert rz.qubits == (0,) and rz.lam == pytest.approx(1.4)

    def test_x0y1_pattern(self):
        term = PauliTerm(1.0, ((0, PauliAxis.X), (1, PauliAxis.Y)))
        c = compile_pauli_exponential(term, 0.3, n_qubits=2)
        kinds = [(g.kind, g.qubits) for g in c.gates]
        assert kinds == [
            ("H", (0,)), ("RX", (1,)),
            ("CNOT", (0, 1)), ("RZ", (1,)), ("CNOT", (0, 1)),
            ("RX", (1,)), ("H", (0,)),
        ]
        assert c.gates[1].lam == pytest.approx(math.pi / 2)
        assert c.gates[3].lam == pytest.approx(0.6)
        assert c.gates[5].lam == pytest.approx(-math.pi / 2)

    def test_ladder_skips_absent_qubits(self):
        term = PauliTerm(1.0, ((0, PauliAxis.X), (2, PauliAxis.Y), (3, PauliAxis.Z)))
        c = compile_pauli_exponential(term, 0.1, n_qubits=4)
        cnots = [g.qubits for g in c.gates if g.kind == "CNOT"]
        assert cnots == [(0, 2), (2, 3), (2, 3), (0, 2)]
        assert not any(1 in g.qubits for g in c.gates)

    def test_gate_count_formula(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            term = random_term(6, rng)
            c = compile_pauli_exponential(term, 0.2, n_qubits=6)
            assert len(c) == gate_count(term)

    def test_rejects_bad_phi(self):
        with pytest.raises(ValueError):
            compile_pauli_exponential(PauliTerm(1.0, ((0, PauliAxis.X),)), float("inf"))


class TestCompiledUnitary:
    """The compiled circuit must equal exp(-i phi coeff P) exactly."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_direct_exponential(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        term = random_term(n, rng)
        phi = float(rng.uniform(-3, 3))
        psi = random_state(n, rng)
        via_circuit = apply_circuit(psi.copy(), compile_pauli_exponential(term, phi, n))
        via_direct = apply_pauli_exponential_direct(psi.copy(), term, phi)
        assert max_amplitude_diff(via_circuit, via_direct) < 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_dense_matrix_matches_scipy_expm(self, seed):
        # third, fully independent route: replay the circuit on every basis
        # vector and compare the matrix against scipy's expm
        from scipy.linalg import expm

        from vortexprop.hamiltonian import Hamiltonian, matrix_of

        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(1, 6))
        term = random_term(n, rng)
        phi = float(rng.uniform(-3, 3))
        circuit = compile_pauli_exponential(term, phi, n)
        dim = 1 << n
        u = np.empty((dim, dim), dtype=complex)
        for k in range(dim):
            basis = np.zeros(dim, dtype=complex)
            basis[k] = 1.0
            u[:, k] = apply_circuit(StateVector(n, basis), circuit).amps
        p = matrix_of(Hamiltonian(n, (term,))) / term.coeff
        ref = expm(-1j * phi * term.coeff * p)
        assert np.max(np.abs(u - ref)) < 1e-12

    def test_involution(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            term = random_term(n, rng)
            phi = float(rng.uniform(-2, 2))
            psi = random_state(n, rng)
            ref = psi.copy()
            apply_circuit(psi, compile_pauli_exponential(term, phi, n))
            apply_circuit(psi, compile_pauli_exponential(term, -phi, n))
            assert np.max(np.abs(psi.amps - ref.amps)) < 1e-12

    def test_additivity(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            term = random_term(n, rng)
            p1, p2 = rng.uniform(-2, 2, size=2)
            psi = random_state(n, rng)
            split = psi.copy()
            apply_circuit(split, compile_pauli_exponential(term, p1, n))
            apply_circuit(split, compile_pauli_exponential(term, p2, n))
            joint = psi.copy()
            apply_circuit(joint, compile_pauli_exponential(term, p1 + p2, n))
            assert np.max(np.abs(split.amps - joint.amps)) < 1e-12

    def test_norm_preserved(self):
        rng = np.random.default_rng(17)
        psi = random_state(5, rng)
        for _ in range(50):
            term = random_term(5, rng)
            apply_circuit(psi, compile_pauli_exponential(term, 0.4, 5))
        assert abs(psi.norm_sq() - 1.0) < 1e-10


class TestTrotterStep:
    def test_empty_hamiltonian(self):
        c = compile_trotter_step(Hamiltonian(3, ()), 0.1)
        assert len(c) == 0 and c.n_qubits == 3

    def test_single_term_equals_exponential(self):
        term = PauliTerm(0.5, ((0, PauliAxis.Y), (2, PauliAxis.Y)))
        h = Hamiltonian(3, (term,))
        step = compile_trotter_step(h, 0.05)
        alone = compile_pauli_exponential(term, 0.1, 3)
        assert step.gates == alone.gates

    def test_melon_gate_count(self):
        h = build_vortex_hamiltonian(build_system("melon"))
        step = compile_trotter_step(h, 1 / 300)
        assert len(step) == sum(gate_count(t) for t in h.terms)

    def test_rz_angle_convention(self):
        # phase per step: RZ angle = 2 * (2 * coeff * dt_over_T)
        term = PauliTerm(0.7, ((0, PauliAxis.Z),))
        step = compile_trotter_step(Hamiltonian(1, (term,)), 0.1)
        rz = next(g for g in step.gates if g.kind == "RZ")
        assert rz.lam == pytest.approx(2 * (2 * 0.7 * 0.1))

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            compile_trotter_step(Hamiltonian(1, (PauliTerm(1.0, ((0, PauliAxis.X),)),)), 0.0)


class TestDumpFormat:
    def test_round_trip(self):
        h = build_vortex_hamiltonian(build_system("melon"))
        c = compile_trotter_step(h, 1 / 300)
        d = circuit_to_dict(c)
        assert d["n"] == 8
        assert all(set(g) <= {"g", "q", "lambda"} for g in d["gates"])
        again = circuit_from_dict(d)
        assert again.gates == c.gates

    def test_lambda_omitted_for_fixed_gates(self):
        c = Circuit(2, (Gate("H", (0,)), Gate("CNOT", (0, 1))))
        d = circuit_to_dict(c)
        assert "lambda" not in d["gates"][0]

    def test_gate_validation(self):
        with pytest.raises(ValueError):
            Gate("CNOT", (1, 1))
        with pytest.raises(ValueError):
            Gate("SWAP", (0, 1))
        with pytest.raises(ValueError):
            Circuit(1, (Gate("H", (3,)),))
