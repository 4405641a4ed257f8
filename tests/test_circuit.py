import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexprop.circuit import (
    Circuit,
    Gate,
    basis_change_gate,
    circuit_to_dict,
    compile_pauli_exponential,
    compile_trotter_step,
)
from vortexprop.hamiltonian import (
    Hamiltonian,
    PauliAxis,
    PauliTerm,
    build_hamiltonian,
)
from vortexprop.lattice import build_system
from vortexprop.statevector import StateVector, apply_circuit, apply_gate, max_amplitude_diff

from oracles import circuit_from_dict, custom_geometries, dense_exponential, random_term


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
        c = compile_pauli_exponential(term, 0.7, 1)
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
        # 2 basis gates per X/Y factor, 2(|support| - 1) CNOTs and 1 RZ
        rng = np.random.default_rng(7)
        for _ in range(30):
            term = random_term(6, rng)
            c = compile_pauli_exponential(term, 0.2, n_qubits=6)
            n_xy = sum(axis is not PauliAxis.Z for _, axis in term.factors)
            assert len(c.gates) == 2 * n_xy + 2 * (len(term.support) - 1) + 1

    def test_rejects_bad_phi(self):
        with pytest.raises(ValueError):
            compile_pauli_exponential(PauliTerm(1.0, ((0, PauliAxis.X),)), float("inf"), 1)


class TestCompiledUnitary:
    """The compiled circuit must equal exp(-i phi coeff P) exactly."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_direct_exponential(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        term = random_term(n, rng)
        phi = float(rng.uniform(-3, 3))
        psi = random_state(n, rng)
        via_circuit = apply_circuit(StateVector(n, psi.amps.copy()),
                                    compile_pauli_exponential(term, phi, n))
        via_expm = StateVector(n, dense_exponential(term, phi, n) @ psi.amps)
        assert max_amplitude_diff(via_circuit, via_expm) < 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_dense_matrix_matches_scipy_expm(self, seed):
        # replay the circuit on every basis vector and compare the matrix
        # against scipy's expm
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
        assert np.max(np.abs(u - dense_exponential(term, phi, n))) < 1e-12

    def test_involution(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            term = random_term(n, rng)
            phi = float(rng.uniform(-2, 2))
            psi = random_state(n, rng)
            ref = psi.amps.copy()
            apply_circuit(psi, compile_pauli_exponential(term, phi, n))
            apply_circuit(psi, compile_pauli_exponential(term, -phi, n))
            assert np.max(np.abs(psi.amps - ref)) < 1e-12

    def test_additivity(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            term = random_term(n, rng)
            p1, p2 = rng.uniform(-2, 2, size=2)
            psi = random_state(n, rng)
            split = StateVector(n, psi.amps.copy())
            apply_circuit(split, compile_pauli_exponential(term, p1, n))
            apply_circuit(split, compile_pauli_exponential(term, p2, n))
            joint = StateVector(n, psi.amps.copy())
            apply_circuit(joint, compile_pauli_exponential(term, p1 + p2, n))
            assert np.max(np.abs(split.amps - joint.amps)) < 1e-12

    def test_norm_preserved(self):
        rng = np.random.default_rng(17)
        psi = random_state(5, rng)
        for _ in range(50):
            term = random_term(5, rng)
            apply_circuit(psi, compile_pauli_exponential(term, 0.4, 5))
        assert abs(np.vdot(psi.amps, psi.amps).real - 1.0) < 1e-10


class TestTrotterStep:
    def test_empty_hamiltonian(self):
        c = compile_trotter_step(Hamiltonian(3, ()), 0.1)
        assert len(c.gates) == 0 and c.n_qubits == 3

    def test_single_term_equals_exponential(self):
        term = PauliTerm(0.5, ((0, PauliAxis.Y), (2, PauliAxis.Y)))
        h = Hamiltonian(3, (term,))
        step = compile_trotter_step(h, 0.05)
        alone = compile_pauli_exponential(term, 0.1, 3)
        assert step.gates == alone.gates

    def test_melon_gate_count(self):
        # 7 gates per XX or YY term, 3 per ZZ term
        for spec, gates in ((build_system("melon"), 98), (build_system("combined"), 182),
                            (build_system("xxz", n=8, delta=2.0), 119)):
            assert len(compile_trotter_step(build_hamiltonian(spec), 1 / 300).gates) == gates

    def test_rz_angle_convention(self):
        # phase per step: RZ angle = 2 * (2 * coeff * dt_over_T)
        term = PauliTerm(0.7, ((0, PauliAxis.Z),))
        step = compile_trotter_step(Hamiltonian(1, (term,)), 0.1)
        rz = next(g for g in step.gates if g.kind == "RZ")
        assert rz.lam == pytest.approx(2 * (2 * 0.7 * 0.1))

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            compile_trotter_step(Hamiltonian(1, (PauliTerm(1.0, ((0, PauliAxis.X),)),)), 0.0)


def assert_well_formed(circuit: Circuit) -> None:
    """Each gate has its kind's qubit count, distinct integer qubits inside the
    circuit, and a finite float angle exactly when it is RX or RZ."""
    arity = {"H": 1, "RX": 1, "RZ": 1, "CNOT": 2}
    for g in circuit.gates:
        assert len(g.qubits) == arity[g.kind], g
        assert all(isinstance(q, int) and not isinstance(q, bool) and 0 <= q < circuit.n_qubits
                   for q in g.qubits), g
        assert len(set(g.qubits)) == len(g.qubits), g
        if g.kind in ("RX", "RZ"):
            assert isinstance(g.lam, float) and math.isfinite(g.lam), g
        else:
            assert g.lam is None, g


class TestCompiledCircuitsAreWellFormed:
    """Gate and Circuit check nothing: the compiler is their one builder in the
    program, so its output carries the contract that --dump-circuit writes."""

    @pytest.mark.parametrize("kind, kwargs", [
        *[(kind, {"chi": chi}) for kind in ("melon", "antimelon", "combined")
          for chi in (0.0, math.pi / 4)],
        ("xxz", {"n": 8, "delta": 0.0}), ("xxz", {"n": 8, "delta": 2.0}),
    ])
    def test_built_in_systems(self, kind, kwargs):
        h = build_hamiltonian(build_system(kind, **kwargs))
        step = compile_trotter_step(h, 1 / 10)
        assert len(step.gates) > 0
        assert_well_formed(step)

    @pytest.mark.parametrize("kind", ["melon", "antimelon", "combined"])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), dt=st.floats(min_value=1e-3, max_value=2.0))
    def test_custom_geometries(self, kind, data, dt):
        spec = data.draw(custom_geometries(kind))
        assert_well_formed(compile_trotter_step(build_hamiltonian(spec), dt))


class TestDumpFormat:
    def test_round_trip(self):
        h = build_hamiltonian(build_system("melon"))
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
        # the replay refuses what the compiler never builds: an unknown kind, a
        # qubit outside the state, a circuit of another size
        state = StateVector(2, np.array([1, 0, 0, 0]))
        for gate in (Gate("SWAP", (0, 1)), Gate("I", (0,))):
            with pytest.raises(ValueError, match="unknown gate kind"):
                apply_gate(state, gate)
        with pytest.raises(IndexError, match="qubit 3 out of range"):
            apply_gate(state, Gate("H", (3,)))
        with pytest.raises(ValueError, match="sizes differ"):
            apply_circuit(state, Circuit(3, ()))
