import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexprop.circuit import Gate, compile_pauli_exponential, compile_trotter_step
from vortexprop.hamiltonian import (
    Hamiltonian,
    PauliAxis,
    PauliTerm,
    build_hamiltonian,
    sparse_matrix_of,
)
from vortexprop.lattice import build_system
from vortexprop.statevector import (
    PauliKernel,
    StateVector,
    apply_circuit,
    apply_gate,
    apply_pauli_exponential_direct,
    expect_pauli,
    fidelity,
    index_to_label,
    init_basis_state,
    label_to_index,
    max_amplitude_diff,
    snapshot_rows,
)

INV_SQRT2 = 1 / math.sqrt(2)


class TestBasisLabels:
    def test_melon_initial_label(self):
        state = init_basis_state("10101010")
        idx = int(np.argmax(np.abs(state.amps)))
        assert idx == 0b10101010  # sites b, d, f, h carry the set bits
        assert state.amps[idx] == 1.0

    def test_single_qubit_zero(self):
        state = init_basis_state("0")
        assert np.allclose(state.amps, [1, 0])

    def test_combined_label(self):
        state = init_basis_state("0101010110101")
        assert state.n_qubits == 13
        assert state.amps[label_to_index("0101010110101")] == 1.0
        assert np.count_nonzero(state.amps) == 1

    def test_label_read_right_to_left(self):
        # rightmost character is site a = bit 0
        assert label_to_index("10") == 2
        assert label_to_index("01") == 1

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 14))
            label = "".join(rng.choice(["0", "1"], size=n))
            state = init_basis_state(label)
            assert index_to_label(int(np.argmax(np.abs(state.amps))), n) == label

    def test_malformed_labels(self):
        for bad in ("", "012", "1a0"):
            with pytest.raises(ValueError):
                init_basis_state(bad)


class TestGates:
    def test_hadamard_on_zero(self):
        state = apply_gate(init_basis_state("0"), Gate("H", (0,)))
        assert np.allclose(state.amps, [INV_SQRT2, INV_SQRT2])

    def test_cnot_flips_target(self):
        # |10...> with bit 0 set: control fires, bit 1 flips
        state = init_basis_state("0001")
        apply_gate(state, Gate("CNOT", (0, 1)))
        assert state.amps[0b0011] == 1.0

    def test_cnot_idle_when_control_clear(self):
        state = init_basis_state("0010")
        apply_gate(state, Gate("CNOT", (0, 2)))
        assert state.amps[0b0010] == 1.0

    def test_cnot_control_above_target(self):
        state = init_basis_state("100")
        apply_gate(state, Gate("CNOT", (2, 0)))
        assert state.amps[0b101] == 1.0

    def test_rz_phases(self):
        state = apply_gate(init_basis_state("0"), Gate("H", (0,)))
        apply_gate(state, Gate("RZ", (0,), math.pi))
        expected = np.array([np.exp(-1j * math.pi / 2), np.exp(1j * math.pi / 2)]) * INV_SQRT2
        assert np.allclose(state.amps, expected)

    def test_rx_rotation(self):
        state = apply_gate(init_basis_state("0"), Gate("RX", (0,), math.pi))
        assert np.allclose(state.amps, [0, -1j])

    def test_identity_noop(self):
        state = init_basis_state("01")
        before = state.amps.copy()
        apply_gate(state, Gate("I", (1,)))
        assert np.array_equal(state.amps, before)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            apply_gate(init_basis_state("0"), Gate("H", (5,)))

    def test_norm_preserved_per_gate(self):
        rng = np.random.default_rng(5)
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        state = StateVector(4, amps / np.linalg.norm(amps))
        for g in (Gate("H", (2,)), Gate("RX", (0,), 1.1), Gate("RZ", (3,), -0.7),
                  Gate("CNOT", (1, 3)), Gate("CNOT", (3, 0))):
            apply_gate(state, g)
            assert abs(state.norm_sq() - 1.0) < 1e-12


class TestDirectExponential:
    def test_xx_on_00(self):
        term = PauliTerm(1.0, ((0, PauliAxis.X), (1, PauliAxis.X)))
        state = apply_pauli_exponential_direct(init_basis_state("00"), term, 0.4)
        assert state.amps[0b00] == pytest.approx(math.cos(0.4))
        assert state.amps[0b11] == pytest.approx(-1j * math.sin(0.4))

    def test_z_on_one(self):
        term = PauliTerm(1.0, ((0, PauliAxis.Z),))
        state = apply_pauli_exponential_direct(init_basis_state("1"), term, 0.8)
        assert state.amps[1] == pytest.approx(np.exp(1j * 0.8))

    def test_matches_compiled_circuit(self):
        rng = np.random.default_rng(29)
        axes = (PauliAxis.X, PauliAxis.Y, PauliAxis.Z)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            k = int(rng.integers(1, n + 1))
            sites = sorted(rng.choice(n, size=k, replace=False).tolist())
            term = PauliTerm(float(rng.uniform(-2, 2)),
                             tuple((s, axes[rng.integers(3)]) for s in sites))
            phi = float(rng.uniform(-3, 3))
            amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            amps /= np.linalg.norm(amps)
            a = StateVector(n, amps.copy())
            b = StateVector(n, amps.copy())
            apply_circuit(a, compile_pauli_exponential(term, phi, n))
            apply_pauli_exponential_direct(b, term, phi)
            assert max_amplitude_diff(a, b) < 1e-10


class TestKernelInvariants:
    SYSTEMS = {kind: build_hamiltonian(build_system(kind, **kw)) for kind, kw in (
        ("melon", {}), ("xxz", {"n": 8, "delta": 2.0}))}

    @settings(max_examples=40, deadline=None)
    @given(label=st.text("01", min_size=8, max_size=8),
           kind=st.sampled_from(sorted(SYSTEMS)),
           phi=st.floats(min_value=-2.0, max_value=2.0))
    def test_step_keeps_norm_and_parity(self, label, kind, phi):
        h = self.SYSTEMS[kind]
        kernel = PauliKernel(h.n_sites, h.terms)
        state = init_basis_state(label)
        for _ in range(5):
            kernel.step(state.amps, phi)
        assert abs(state.norm_sq() - 1.0) < 1e-12
        # every term commutes with prod Z: the other sector keeps exact zeros
        parity = np.array([bin(i).count("1") % 2 for i in range(1 << h.n_sites)])
        leak = np.sum(state.probabilities()[parity != label.count("1") % 2])
        assert leak == 0.0


def _string(coeff, axes):
    """PauliTerm from one axis letter per site, I for an absent site."""
    return PauliTerm(coeff, tuple((k, PauliAxis(a)) for k, a in enumerate(axes) if a != "I"))


@st.composite
def term_lists(draw):
    """(n, terms) on n <= 6 qubits, in the shapes the fused kernel must get right.

    A term may be followed by a partner with the same flip (X0Z1 then Y0Z1
    anticommute); some strings are diagonal; with `even` every flip touches
    an even number of sites (the kernel then keeps one parity sector),
    otherwise odd flips force the full space.
    """
    n = draw(st.integers(1, 6))
    even = draw(st.booleans())
    coeffs = st.floats(min_value=-2.0, max_value=2.0)
    terms = []
    for _ in range(draw(st.integers(1, 5))):
        alphabet = draw(st.sampled_from(("IXYZ", "IZ")))
        axes = draw(st.lists(st.sampled_from(alphabet), min_size=n, max_size=n))
        flipped = [k for k, a in enumerate(axes) if a in "XY"]
        if even and len(flipped) % 2:
            axes[flipped[0]] = "Z"
        if set(axes) == {"I"}:
            axes[0] = "Z"
        terms.append(_string(draw(coeffs), axes))
        if draw(st.booleans()):
            partner = [draw(st.sampled_from("XY" if a in "XY" else "IZ")) for a in axes]
            if set(partner) != {"I"}:
                terms.append(_string(draw(coeffs), partner))
    return n, tuple(terms)


class TestFusedStep:
    @settings(max_examples=150, deadline=None)
    @given(case=term_lists(), bits=st.integers(0, 63), seed=st.integers(0, 2**32 - 1),
           dt=st.floats(min_value=0.01, max_value=1.0))
    def test_step_equals_circuit_replay(self, case, bits, seed, dt):
        n, terms = case
        h = Hamiltonian(n, terms)
        circuit = compile_trotter_step(h, dt)
        start = bits % (1 << n)
        kernel = PauliKernel(n, terms, start)
        odd = any(sum(a is not PauliAxis.Z for _, a in t.factors) % 2 for t in terms)
        assert len(kernel.index) == 1 << (n - (not odd))
        # from a basis state, on its parity sector (or the full space)
        psi = kernel.basis(start)
        replay = init_basis_state(index_to_label(start, n))
        # from a random state, on the full space
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        full = PauliKernel(n, terms)
        dense = StateVector(n, amps / np.linalg.norm(amps))
        dense_replay = dense.copy()
        for _ in range(3):
            kernel.step(psi, 2.0 * dt)
            apply_circuit(replay, circuit)
            full.step(dense.amps, 2.0 * dt)
            apply_circuit(dense_replay, circuit)
        assert np.max(np.abs(kernel.embed(psi).amps - replay.amps)) < 1e-12
        assert np.max(np.abs(dense.amps - dense_replay.amps)) < 1e-12


class TestParitySector:
    SYSTEMS = {name: build_hamiltonian(build_system(kind, **kw)) for name, kind, kw in (
        ("melon", "melon", {}), ("combined", "combined", {}),
        ("xxz-d2", "xxz", {"n": 8, "delta": 2.0}))}

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    @pytest.mark.parametrize("parity", [0, 1])
    def test_sector_matrix_is_real_and_restricts_the_full_one(self, name, parity):
        h = self.SYSTEMS[name]
        kernel = PauliKernel(h.n_sites, h.terms, start=parity)
        m = kernel.sparse_matrix()
        assert m.dtype == np.float64
        assert m.shape == (1 << (h.n_sites - 1),) * 2
        assert all(bin(i).count("1") % 2 == parity for i in kernel.index)
        full = sparse_matrix_of(h)[kernel.index][:, kernel.index]
        assert abs(m - full).max() == 0.0

    @settings(max_examples=30, deadline=None)
    @given(name=st.sampled_from(sorted(SYSTEMS)), start=st.integers(0, 2**13 - 1),
           seed=st.integers(0, 2**32 - 1))
    def test_energy_equals_sparse_matrix_expectation(self, name, start, seed):
        h = self.SYSTEMS[name]
        kernel = PauliKernel(h.n_sites, h.terms, start % (1 << h.n_sites))
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=len(kernel.index)) + 1j * rng.normal(size=len(kernel.index))
        amps /= np.linalg.norm(amps)
        psi = kernel.embed(amps).amps
        want = np.vdot(psi, sparse_matrix_of(h) @ psi).real
        assert abs(kernel.expectation(amps) - want) < 1e-12


class TestExpectation:
    def test_z_on_basis_states(self):
        zterm = PauliTerm(1.0, ((0, PauliAxis.Z),))
        assert expect_pauli(init_basis_state("0"), zterm) == pytest.approx(1.0)
        assert expect_pauli(init_basis_state("1"), zterm) == pytest.approx(-1.0)

    def test_z_on_plus(self):
        state = apply_gate(init_basis_state("0"), Gate("H", (0,)))
        assert expect_pauli(state, PauliTerm(1.0, ((0, PauliAxis.Z),))) == pytest.approx(0.0)

    def test_x_on_plus(self):
        state = apply_gate(init_basis_state("0"), Gate("H", (0,)))
        assert expect_pauli(state, PauliTerm(1.0, ((0, PauliAxis.X),))) == pytest.approx(1.0)

    def test_z_matches_bit_probability(self):
        rng = np.random.default_rng(31)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        state = StateVector(3, amps / np.linalg.norm(amps))
        for k in range(3):
            p1 = sum(abs(a) ** 2 for i, a in enumerate(state.amps) if (i >> k) & 1)
            z = expect_pauli(state, PauliTerm(1.0, ((k, PauliAxis.Z),)))
            assert z == pytest.approx(1 - 2 * p1)
            assert -1.0 <= z <= 1.0


class TestFidelity:
    def test_identical(self):
        s = init_basis_state("0101")
        assert fidelity(s, s) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert fidelity(init_basis_state("00"), init_basis_state("11")) == 0.0

    def test_half_overlap(self):
        plus = apply_gate(init_basis_state("0"), Gate("H", (0,)))
        assert fidelity(init_basis_state("0"), plus) == pytest.approx(0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(init_basis_state("0"), init_basis_state("00"))


def test_snapshot_rows():
    state = apply_gate(init_basis_state("00"), Gate("H", (1,)))
    rows = snapshot_rows(state)
    assert rows[0] == ("00", pytest.approx(INV_SQRT2), 0.0, pytest.approx(INV_SQRT2))
    assert rows[2][0] == "10"
    assert rows[2][3] == pytest.approx(INV_SQRT2)
