import itertools
import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from vortexprop import statevector
from vortexprop.circuit import Gate, compile_pauli_exponential, compile_trotter_step
from vortexprop.evolve import (
    RunConfig,
    default_initial_label,
    fidelity_scan,
    run_exact,
    run_trotter,
)
from vortexprop.hamiltonian import (
    Hamiltonian,
    PauliAxis,
    PauliTerm,
    build_hamiltonian,
    matrix_of,
    sparse_matrix_of,
)
from vortexprop.lattice import build_system, system_from_dict
from vortexprop.statevector import (
    PauliKernel,
    SiteBlocks,
    StateVector,
    apply_circuit,
    apply_gate,
    conserved_axes,
    expect_pauli,
    fidelity,
    index_to_label,
    label_to_index,
    max_amplitude_diff,
)

from oracles import (
    SpectralReference,
    all_site_blocks,
    block_states,
    butterfly_back_rotation,
    custom_geometries,
    dense_exponential,
    init_basis_state,
    random_term,
    reference_trotter_states,
)

INV_SQRT2 = 1 / math.sqrt(2)
# PauliKernel.advance takes the dense path on stored sets up to the cap; cap 0
# sends every set through the op loop
STEP_CAPS = (statevector.MAX_DENSE_STEP, 0)


@contextmanager
def step_cap(cap):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(statevector, "MAX_DENSE_STEP", cap)
        yield


@contextmanager
def eigh_dtypes():
    """The dtype of each matrix passed to np.linalg.eigh inside the `with` block, in order."""
    eigh, seen = np.linalg.eigh, []

    def spy(a, *args, **kwargs):
        seen.append(a.dtype)
        return eigh(a, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigh", spy)
        yield seen


def _sector(selection, n, start):
    """The basis states a kernel of that selection keeps from start, in ascending order."""
    key = {"magnetization": int.bit_count, "parity": lambda i: i.bit_count() % 2,
           "full space": lambda i: 0}[selection]
    return [i for i in range(1 << n) if key(i) == key(start)]


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
            assert abs(np.vdot(state.amps, state.amps).real - 1.0) < 1e-12


class TestDirectExponential:
    def test_xx_on_00(self):
        term = PauliTerm(1.0, ((0, PauliAxis.X), (1, PauliAxis.X)))
        state = init_basis_state("00")
        PauliKernel(2, (term,)).advance(state.amps, 0.4, 1)
        assert state.amps[0b00] == pytest.approx(math.cos(0.4))
        assert state.amps[0b11] == pytest.approx(-1j * math.sin(0.4))

    def test_z_on_one(self):
        term = PauliTerm(1.0, ((0, PauliAxis.Z),))
        state = init_basis_state("1")
        PauliKernel(1, (term,)).advance(state.amps, 0.8, 1)
        assert state.amps[1] == pytest.approx(np.exp(1j * 0.8))

    def test_matches_compiled_circuit(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            term = random_term(n, rng)
            phi = float(rng.uniform(-3, 3))
            amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            amps /= np.linalg.norm(amps)
            a = apply_circuit(StateVector(n, amps.copy()), compile_pauli_exponential(term, phi, n))
            b = StateVector(n, dense_exponential(term, phi, n) @ amps)
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
        parity = np.array([bin(i).count("1") % 2 for i in range(1 << h.n_sites)])
        for cap in STEP_CAPS:  # the full 256-state space steps densely, then by ops
            with step_cap(cap):
                kernel = PauliKernel(h.n_sites, h.terms)
                state = init_basis_state(label)
                for _ in range(5):
                    kernel.advance(state.amps, phi, 1)
            assert (kernel._dense is None) == (cap == 0)
            assert abs(np.vdot(state.amps, state.amps).real - 1.0) < 1e-12
            # every term commutes with prod Z: the other sector keeps exact zeros
            leak = np.sum(np.abs(state.amps[parity != label.count("1") % 2]) ** 2)
            assert leak == 0.0


def _string(coeff, axes):
    """PauliTerm from one axis letter per site, I for an absent site."""
    return PauliTerm(coeff, tuple((k, PauliAxis(a)) for k, a in enumerate(axes) if a != "I"))


@st.composite
def term_lists(draw, even=None):
    """(n, terms) on n <= 6 qubits, in the shapes the fused kernel must get right.

    A term may be followed by a partner with the same flip (X0Z1 then Y0Z1
    anticommute); some strings are diagonal; with `even` (drawn when not
    given) every flip touches an even number of sites (the kernel then keeps
    one parity sector), otherwise odd flips force the full space.
    """
    n = draw(st.integers(1, 6))
    even = draw(st.booleans()) if even is None else even
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


@st.composite
def planted_term_lists(draw, even_z: bool = True):
    """(n, terms, planted) with planted sites that carry one axis, X or Y, in every term.

    Other sites take any factor; every flip touches an even number of sites.
    With `even_z` every term has an even number of Z factors, so T = K X_free
    fixes its free-site string and the exact blocks take it.
    """
    n = draw(st.integers(2, 6))
    planted = draw(st.dictionaries(st.integers(0, n - 1), st.sampled_from("XY"), min_size=1))
    coeffs = st.floats(min_value=-2.0, max_value=2.0)
    terms = []
    for _ in range(draw(st.integers(1, 6))):
        axes = [draw(st.sampled_from("I" + planted.get(k, "XYZ"))) for k in range(n)]
        flipped = [k for k, a in enumerate(axes) if a in "XY"]
        if len(flipped) % 2:
            axes[flipped[0]] = "I" if flipped[0] in planted else "Z"
        zs = [k for k, a in enumerate(axes) if a == "Z"]
        if even_z and len(zs) % 2:
            axes[zs[0]] = "I"
        if set(axes) != {"I"}:
            terms.append(_string(draw(coeffs), axes))
    return n, tuple(terms), planted


class TestFusedStep:
    @settings(max_examples=150, deadline=None)
    @given(case=term_lists(), bits=st.integers(0, 63), seed=st.integers(0, 2**32 - 1),
           dt=st.floats(min_value=0.01, max_value=1.0))
    def test_step_equals_circuit_replay(self, case, bits, seed, dt):
        n, terms = case
        h = Hamiltonian(n, terms)
        circuit = compile_trotter_step(h, dt)
        start = bits % (1 << n)
        odd = any(sum(a is not PauliAxis.Z for _, a in t.factors) % 2 for t in terms)
        # from a basis state, on its parity sector (or the full space)
        replay = init_basis_state(index_to_label(start, n))
        # from a random state, on the full space
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        amps /= np.linalg.norm(amps)
        amps_replay = StateVector(n, amps.copy())
        for _ in range(3):
            apply_circuit(replay, circuit)
            apply_circuit(amps_replay, circuit)
        for cap in STEP_CAPS:
            with step_cap(cap):
                kernel = PauliKernel(n, terms, start)
                full = PauliKernel(n, terms)
                psi, rand = kernel.basis(start), amps.copy()
                for _ in range(3):
                    kernel.advance(psi, 2.0 * dt, 1)
                    full.advance(rand, 2.0 * dt, 1)
            assert (kernel.selection == "full space") == odd
            assert kernel.index.tolist() == _sector(kernel.selection, n, start)
            assert (kernel._dense is None) == (full._dense is None) == (cap == 0)
            assert np.max(np.abs(kernel.embed(psi).amps - replay.amps)) < 1e-12
            assert np.max(np.abs(rand - amps_replay.amps)) < 1e-12


class TestDenseStep:
    SYSTEMS = {name: build_hamiltonian(build_system(kind, **kw)) for name, kind, kw in (
        ("melon", "melon", {}), ("antimelon", "antimelon", {}),
        ("xxz", "xxz", {"n": 8}), ("xxz-d2", "xxz", {"n": 8, "delta": 2.0}))}

    @settings(max_examples=60, deadline=None)
    @given(case=st.one_of(term_lists(), st.sampled_from(sorted(SYSTEMS)).map(
               lambda name: (8, TestDenseStep.SYSTEMS[name].terms))),
           bits=st.integers(0, 255), seed=st.integers(0, 2**32 - 1),
           dt=st.floats(min_value=0.01, max_value=1.0))
    def test_dense_step_equals_op_loop(self, case, bits, seed, dt):
        n, terms = case
        start = bits % (1 << n)
        dim = len(PauliKernel(n, terms, start).index)
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        amps /= np.linalg.norm(amps)
        kernels, states = [], []
        for cap in STEP_CAPS:
            with step_cap(cap):
                kernel, psi = PauliKernel(n, terms, start), amps.copy()
                for k in range(50):  # a new phi halfway rebuilds the step
                    kernel.advance(psi, 2.0 * dt if k < 25 else dt, 1)
            kernels.append(kernel)
            states.append(psi)
        assert kernels[0]._dense is not None and kernels[1]._dense is None
        assert np.max(np.abs(states[0] - states[1])) < 1e-12

    def test_large_sectors_without_blocks_run_the_op_loop(self, monkeypatch):
        # combined at a generic chi: 4096 stored states and no conserved site, so
        # its runs step the z-basis fused ops, with unchanged arithmetic
        h = build_hamiltonian(build_system("combined", chi=0.3))
        start = label_to_index("0101010110101")
        kernel = PauliKernel(h.n_sites, h.terms, start)
        assert len(kernel.index) == 4096 > statevector.MAX_DENSE_STEP
        assert conserved_axes(h.terms, h.n_sites) == {}
        psi = kernel.basis(start)
        want, moved = psi.copy(), np.empty_like(psi)
        ops = statevector._fuse(kernel._rows, 0.2)
        for _ in range(20):
            kernel.advance(psi, 0.2, 1)
            for gather, alpha, beta in ops:  # the op loop, spelled out
                if gather is None:
                    want *= alpha
                    continue
                want.take(gather, out=moved, mode="clip")
                moved *= beta
                want *= alpha
                want += moved
        assert kernel._dense is None
        assert np.array_equal(psi, want)

        # at chi 0 combined conserves seven site Paulis: its runs step SiteBlocks
        def refuse(*args):
            raise AssertionError("z-basis step on combined")

        monkeypatch.setattr(PauliKernel, "_walk", refuse)  # every entry steps through _walk
        config = RunConfig(system=build_system("combined"), dt_over_T=1 / 10, total_over_T=0.4)
        assert run_trotter(config).propagator["kind"] == "blocks"
        assert len(fidelity_scan(config, 0.4)) == 5


class TestParitySector:
    SYSTEMS = {name: build_hamiltonian(build_system(kind, **kw)) for name, kind, kw in (
        ("melon", "melon", {}), ("combined", "combined", {}),
        ("xxz-d2", "xxz", {"n": 8, "delta": 2.0}))}

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    @pytest.mark.parametrize("parity", [0, 1])
    def test_sector_matrix_is_real_and_restricts_the_full_one(self, name, parity):
        # the XXZ chain keeps the start's magnetization sector: 28 or 56 states
        h, start = self.SYSTEMS[name], 0b1010 | parity
        kernel = PauliKernel(h.n_sites, h.terms, start)
        m = kernel.sparse_matrix()
        assert m.dtype == np.float64
        assert kernel.selection == ("magnetization" if name.startswith("xxz") else "parity")
        assert kernel.index.tolist() == _sector(kernel.selection, h.n_sites, start)
        assert m.shape == (len(kernel.index),) * 2
        full = sparse_matrix_of(h)[kernel.index][:, kernel.index]
        assert abs(m - full).max() == 0.0
        # neither a pair that leaves the sector nor one whose strings cancel is stored
        assert np.all(m.data != 0)

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

    @settings(max_examples=100, deadline=None)
    @given(case=term_lists(even=True), bits=st.integers(0, 63),
           seed=st.integers(0, 2**32 - 1))
    def test_random_strings_restrict_the_full_matrix(self, case, bits, seed):
        # complex phases too: strings with an odd number of Y factors
        n, terms = case
        h = Hamiltonian(n, terms)
        kernel = PauliKernel(n, terms, bits % (1 << n))
        assert kernel.selection != "full space"
        assert kernel.index.tolist() == _sector(kernel.selection, n, bits % (1 << n))
        m = kernel.sparse_matrix()
        assert abs(m - sparse_matrix_of(h)[kernel.index][:, kernel.index]).max() == 0.0
        dense = matrix_of(h)
        assert np.max(np.abs(m.toarray() - dense[np.ix_(kernel.index, kernel.index)])) < 1e-12
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=len(kernel.index)) + 1j * rng.normal(size=len(kernel.index))
        amps /= np.linalg.norm(amps)
        psi = kernel.embed(amps).amps
        assert abs(kernel.expectation(amps) - np.vdot(psi, dense @ psi).real) < 1e-12


class TestMagnetizationSector:
    """Where no site Pauli is conserved and each fused run flips by c XX directly
    followed by c YY on the same two sites, the kernel keeps start's popcount."""

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 10), delta=st.sampled_from([0.0, 1.0, 2.0]),
           bits=st.integers(0, 2**10 - 1), dt=st.floats(min_value=0.01, max_value=0.5))
    @example(n=10, delta=2.0, bits=0, dt=0.1)  # all up: one stored state
    @example(n=9, delta=1.0, bits=1 << 4, dt=0.1)  # one spin down
    def test_xxz_propagators_equal_the_full_space_references(self, n, delta, bits, dt):
        label = index_to_label(bits % (1 << n), n)
        start, chain = label_to_index(label), {"n": n, "delta": delta}
        spec = build_system("xxz", **chain)
        terms = build_hamiltonian(spec).terms
        want = list(reference_trotter_states("xxz", label, dt, 12, **chain))
        for cap in STEP_CAPS:
            with step_cap(cap):
                kernel = PauliKernel(n, terms, start)
                overlaps = kernel.scan(kernel.initial(), 2.0 * dt, 12)
                psi = kernel.initial()
                kernel.advance(psi, 2.0 * dt, 5)
                early = kernel.embed(psi).amps
                kernel.advance(psi, 2.0 * dt, 7)
            assert kernel.selection == "magnetization"
            assert len(kernel.index) == math.comb(n, label.count("1"))
            assert np.max(np.abs(overlaps[1:] - [w[start] for w in want])) < 1e-12
            assert np.max(np.abs(early - want[4])) < 1e-12
            assert np.max(np.abs(kernel.embed(psi).amps - want[11])) < 1e-12
        config = RunConfig(system=spec, dt_over_T=dt, total_over_T=4 * dt, sample_pitch=2,
                           initial_label=label)
        result, reference = run_exact(config), SpectralReference("xxz", label, **chain)
        assert result.propagator["kind"] == "expm"
        assert np.max(np.abs(result.final_state.amps - reference.state(4 * dt))) < 1e-12
        assert max(abs(s.fidelity0 - reference.fidelity(s.time_over_T))
                   for s in result.samples) < 1e-12

    @pytest.mark.parametrize("delta", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_pairs_that_leave_the_sector_weigh_exactly_zero(self, n, delta):
        spec = build_system("xxz", n=n, delta=delta)
        h = build_hamiltonian(spec)
        kernel = PauliKernel(n, h.terms, label_to_index(default_initial_label(spec)))
        down = kernel.start.bit_count()

        def leaving(flip):
            return np.array([(int(i) ^ flip).bit_count() != down for i in kernel.index])

        for flip, gather, w in kernel._bonds:
            if flip:  # a valid position, and w = c - c on equal spins
                assert 0 <= gather.min() and gather.max() < len(kernel.index)
                assert leaving(flip).any() and np.all(w[leaving(flip)] == 0.0)
        flips = [next(x for _, x, *_ in run if x) for run in statevector._runs(kernel._rows)]
        for phi in (0.2, -0.7, 1.9):
            ops = statevector._fuse(kernel._rows, phi)
            assert len(ops) == len(flips) == n - 1
            for flip, (_, _, beta) in zip(flips, ops):
                assert np.all(beta[leaving(flip)] == 0.0)
        # the sparse matrix holds no entry for a pair that leaves the sector
        m, full = kernel.sparse_matrix(), sparse_matrix_of(h)[kernel.index][:, kernel.index]
        assert m.nnz == full.nnz and abs(m - full).max() == 0.0

    @staticmethod
    def _cases():
        """(n, terms) by name: the XXZ chain of 6 sites and cases that keep the parity sector."""
        xxz = list(build_hamiltonian(build_system("xxz", n=6, delta=1.0)).terms)
        between, unequal = xxz.copy(), xxz.copy()
        between[1], between[2] = between[2], between[1]  # XX, ZZ, YY on the first bond
        unequal[4] = PauliTerm(np.nextafter(1.0, 2.0), unequal[4].factors)  # YY one ulp up
        vortex = {"melon": ("melon", 0.0), "antimelon": ("antimelon", 0.0),
                  "combined": ("combined", 0.0), "combined-chi-0.3": ("combined", 0.3)}
        cases = {name: build_hamiltonian(build_system(kind, chi=chi))
                 for name, (kind, chi) in vortex.items()}
        return {**{name: (h.n_sites, h.terms) for name, h in cases.items()},
                "xxz": (6, xxz), "diagonal-between": (6, between), "unequal": (6, unequal),
                "idle-site": (7, xxz)}  # site 6 is conserved as X

    @pytest.mark.parametrize("name", ["xxz", "melon", "antimelon", "combined",
                                      "combined-chi-0.3", "diagonal-between", "unequal",
                                      "idle-site"])
    def test_only_the_xxz_chain_drops_to_its_magnetization_sector(self, name):
        n, terms = self._cases()[name]
        start = label_to_index("0101010110101"[-n:])
        kernel = PauliKernel(n, terms, start)
        assert kernel.selection == ("magnetization" if name == "xxz" else "parity")
        assert kernel.index.tolist() == _sector(kernel.selection, n, start)

    @pytest.mark.parametrize("n, exact", [(3, False), (8, True), (9, False), (11, True)])
    def test_manifest_records_the_sector_size(self, tmp_path, n, exact):
        import json

        from vortexprop.runner import SimulateOptions, execute_run

        result = execute_run(SimulateOptions(system="xxz", n=n, delta=1.0, dt=0.1, total=0.2,
                                             pitch=1, exact=exact, out=str(tmp_path)))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        down = manifest["config"]["initial_label"].count("1")
        assert manifest["propagator"]["stored_states"] == math.comb(n, down)
        assert result.final_state.amps.shape == (1 << n,)


def _commutator_norm(term, site, axis):
    """max |[term, axis_site]| entry, on just the sites the two act on."""
    sites = sorted({*term.support, site})
    pos = {k: i for i, k in enumerate(sites)}
    t = matrix_of(Hamiltonian(len(sites), (
        PauliTerm(term.coeff, tuple((pos[k], a) for k, a in term.factors)),)))
    o = matrix_of(Hamiltonian(len(sites), (PauliTerm(1.0, ((pos[site], axis),)),)))
    return np.max(np.abs(t @ o - o @ t))


def _assert_block_states(blocks, n, terms):
    """`state` equals each kept block's own propagator (`block_states`) at three times."""
    psi0 = blocks.initial()
    for t in (0.7, -1.9, 4.3):
        assert np.max(np.abs(blocks.state(t) - block_states(n, terms, psi0, t))) < 1e-12


def _levels(energies, tol=1e-9):
    e = np.sort(np.ravel(energies))
    return 1 + int(np.count_nonzero(np.diff(e) > tol))


class TestConservedSites:
    SYSTEMS = {name: (build_system(kind, **kw), axes) for name, kind, kw, axes in (
        ("melon", "melon", {}, "bY dX fY hX"),
        ("antimelon", "antimelon", {}, "bY dX fY hX"),
        ("combined", "combined", {}, "bY dX fY hX iX kY mX"),
        ("melon-chi-pi/4", "melon", {"chi": math.pi / 4}, "aY cX eY gX"),
        ("xxz", "xxz", {"n": 8}, ""),
        ("xxz-d2", "xxz", {"n": 8, "delta": 2.0}, ""),
    )}

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_axis_sites_and_their_paulis(self, name):
        spec, want = self.SYSTEMS[name]
        terms = build_hamiltonian(spec).terms
        axes = conserved_axes(terms, spec.n_sites)
        assert " ".join(spec.labels[k] + a.value for k, a in axes.items()) == want
        for site, axis in axes.items():
            assert max(_commutator_norm(t, site, axis) for t in terms) == 0.0

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["melon", "antimelon", "combined"]),
           chi=st.floats(min_value=-2 * math.pi, max_value=2 * math.pi).filter(
               lambda c: abs(c / (math.pi / 4) - round(c / (math.pi / 4))) > 1e-6))
    def test_generic_chi_conserves_no_site(self, kind, chi):
        # every xi is a multiple of pi/4 plus chi, so no spin lies on an axis
        h = build_hamiltonian(build_system(kind, chi=chi))
        assert conserved_axes(h.terms, h.n_sites) == {}

    @settings(max_examples=100, deadline=None)
    @given(case=planted_term_lists(), bits=st.integers(0, 63),
           t=st.floats(min_value=-3.0, max_value=3.0))
    def test_random_strings_blocks_propagate_exactly(self, case, bits, t):
        from scipy.linalg import expm

        n, terms, planted = case
        axes = conserved_axes(terms, n)
        acted = {k for term in terms for k in term.support}
        # a site no term acts on is conserved as X, unless there is no term at all
        assert {k: a for k, a in axes.items() if k in planted or k not in acted} == {
            k: PauliAxis(planted.get(k, "X")) if k in acted else PauliAxis.X
            for k in range(n) if terms and (k in planted or k not in acted)}
        for site, axis in axes.items():
            assert max(_commutator_norm(term, site, axis) for term in terms) < 1e-12
        if not axes:
            return
        start = bits % (1 << n)
        kernel = PauliKernel(n, terms, start)
        blocks = SiteBlocks(kernel)
        want = expm(-1j * t * matrix_of(Hamiltonian(n, terms)))[:, start]
        assert np.max(np.abs(blocks.sector(blocks.state(t)) - want[kernel.index])) < 1e-12
        _assert_block_states(blocks, n, terms)


class TestSiteBlocks:
    @pytest.mark.parametrize("kind, shape, levels", [
        ("melon", (8, 16), 23), ("antimelon", (8, 16), 23), ("combined", (64, 64), 673)])
    def test_block_spectra(self, kind, shape, levels):
        # a block's energies are its orbit's levels, negated where eps = -1
        h = build_hamiltonian(build_system(kind))
        blocks = SiteBlocks(PauliKernel(h.n_sites, h.terms, 0))
        spectrum = blocks._spectrum
        energies = [spectrum.levels, -spectrum.levels[(spectrum.sign < 0).any(axis=(1, 2))]]
        want = np.linalg.eigvalsh(all_site_blocks(h.n_sites, h.terms))
        assert blocks.initial().shape[::-1] == shape  # (kept block, state)
        assert _levels(np.concatenate(energies)) == _levels(want) == levels

    @pytest.mark.parametrize("kind", ["melon", "antimelon"])
    @pytest.mark.parametrize("parity", [0, 1])
    def test_blocks_propagate_the_whole_sector(self, kind, parity):
        from scipy.linalg import expm

        h = build_hamiltonian(build_system(kind))
        kernel = PauliKernel(h.n_sites, h.terms, parity)
        blocks = SiteBlocks(kernel)
        sector = matrix_of(h)[np.ix_(kernel.index, kernel.index)]
        for t in (0.7, -1.9, 4.3):
            want = expm(-1j * t * sector)[:, kernel.position(parity)]
            assert np.max(np.abs(blocks.sector(blocks.state(t)) - want)) < 1e-12

    @pytest.mark.parametrize("kind, chi, diagonalised, kept", [
        ("melon", 0.0, 2, 8), ("antimelon", 0.0, 2, 8), ("combined", 0.0, 16, 64),
        ("melon", math.pi / 4, 4, 8), ("combined", math.pi / 4, 16, 32)],
        ids=["melon", "antimelon", "combined", "melon-chi-pi/4", "combined-chi-pi/4"])
    def test_one_block_per_orbit_is_diagonalised(self, kind, chi, diagonalised, kept):
        h = build_hamiltonian(build_system(kind, chi=chi))
        kernel = PauliKernel(h.n_sites, h.terms, 0)
        blocks = SiteBlocks(kernel)
        _assert_block_states(blocks, h.n_sites, h.terms)
        assert (blocks.diagonalised, blocks.initial().shape[1]) == (diagonalised, kept)

    # sites 0 and 1 free, 2, 3 and 4 conserved (X); the kept blocks are
    # (s2, s3) = ++, -+, +-, -- with s4 = +.  X0 weighs 0.5 (s2 + s3), zero
    # in blocks 1 and 2, which only Q = Y0 or Z0X1 relates (Z0Z1 weighs
    # 0.2 s2 + 0.6 s3): both anticommute with X0, so counting its zero weight
    # would split them.  Block 3 is Y0 block 0 Y0.
    CANCELLING = [(0.5, "XIXII"), (0.5, "XIIXI"), (0.4, "YYIII"), (0.3, "IXIIX"),
                  (0.2, "ZZXIX"), (0.6, "ZZIXX"), (0.7, "IIXXI")]
    # site 0 free, 1 and 2 conserved (X): block 1 = -Y0 block 0 Y0, and the
    # conserved-only string X1X2 forbids eps = +1
    NEGATED = [(1.0, "IXX"), (0.5, "YXI"), (0.3, "XIX")]
    # a free-site string with one Z factor, which T = K X_free does not fix
    ODD_Z = {
        # site 0 free with X, Y and Z: no K Q fixes the blocks
        "no-antiunitary": [(0.7, "XXI"), (0.4, "YXI"), (0.3, "ZII"), (0.5, "IXX")],
        # Y and Z on free site 0: only K Z_0 fixes the strings
        "z-antiunitary": [(0.7, "YXI"), (0.3, "ZII"), (0.5, "IXX")],
        # X0Y1, Z0Y1, Y0Y1 and X1 on free sites 0 and 1: only Q = Y_0 is odd where
        # the strings are, and (K Y_0)^2 = -1 allows no real form
        "kramers": [(0.7, "XYI"), (0.4, "ZYX"), (0.3, "YYI"), (0.5, "IXX")],
    }

    @pytest.mark.parametrize("strings, diagonalised", [(CANCELLING, 2), (NEGATED, 1)],
                             ids=["cancelling", "negated"])
    def test_hand_made_orbits(self, strings, diagonalised):
        from scipy.linalg import expm

        terms = tuple(_string(c, axes) for c, axes in strings)
        n = len(strings[0][1])
        kernel = PauliKernel(n, terms, 0)
        blocks = SiteBlocks(kernel)
        _assert_block_states(blocks, n, terms)
        assert blocks.diagonalised == diagonalised
        want = expm(-0.7j * matrix_of(Hamiltonian(n, terms)))[:, 0]
        assert np.max(np.abs(blocks.sector(blocks.state(0.7)) - want[kernel.index])) < 1e-12

    def test_strings_beyond_one_word(self):
        # sites 0-3 free, 4 and 5 conserved (X); 70 distinct free strings of an
        # even number of Z factors (of 135), each with X4 when it flips an odd
        # number of sites, so Z0Z1Z2Z3 would relate the two blocks, but the
        # last string carries X5 in place of X4: only its bit, in the second
        # 64-bit word, rules the relation out
        free = [s for s in itertools.product("IXYZ", repeat=4)
                if set(s) != {"I"} and s.count("Z") % 2 == 0][::-1][:70]
        assert sum(a in "XY" for a in free[-1]) % 2 == 1
        terms = tuple(_string(0.05 * (k + 1), "".join(s) + (
            "II" if sum(a in "XY" for a in s) % 2 == 0 else "IX" if k == 69 else "XI"))
            for k, s in enumerate(free))
        blocks = SiteBlocks(PauliKernel(6, terms, 0))
        _assert_block_states(blocks, 6, terms)
        assert (blocks.diagonalised, blocks.initial().shape[1]) == (2, 2)

    def test_negated_block_has_negated_energies(self):
        # one orbit of two kept blocks: block 1 has eps = -1, so its energies
        # are the orbit's levels negated, and it propagates with them
        terms = tuple(_string(c, axes) for c, axes in self.NEGATED)
        blocks = SiteBlocks(PauliKernel(3, terms, 0))
        spectrum = blocks._spectrum
        assert (spectrum.sign < 0).ravel().tolist() == [False, True]
        want = np.linalg.eigvalsh(all_site_blocks(3, terms))
        assert np.max(np.abs(want[0] - spectrum.levels[0])) < 1e-12
        assert np.max(np.abs(want[1] - np.sort(-spectrum.levels[0]))) < 1e-12
        assert not np.allclose(want[1], want[0])
        _assert_block_states(blocks, 3, terms)

    def test_refuses_terms_without_a_conserved_site_or_parity(self):
        h = build_hamiltonian(build_system("xxz", n=4))
        with pytest.raises(ValueError, match="no site Pauli"):
            SiteBlocks(PauliKernel(4, h.terms, 0))
        odd = (_string(1.0, "XX"), _string(0.5, "XI"))
        with pytest.raises(ValueError, match="odd number of sites"):
            SiteBlocks(PauliKernel(2, odd, 0))

    @pytest.mark.parametrize("name", sorted(ODD_Z))
    def test_odd_z_strings_refuse_the_exact_path_only(self, name):
        # the exact blocks need T = K X_free, so they refuse; the Trotter steps
        # on the same blocks need no T and still equal the op loop
        strings = self.ODD_Z[name]
        terms = tuple(_string(c, axes) for c, axes in strings)
        n = len(strings[0][1])
        with step_cap(0):
            kernel = PauliKernel(n, terms, 0)
            blocks = SiteBlocks(kernel)
            with pytest.raises(ValueError, match="odd number of Z factors"):
                blocks.state(0.7)
            psi, want = blocks.initial(), kernel.initial()
            blocks.advance(psi, 0.7, 20)
            kernel.advance(want, 0.7, 20)
        assert np.max(np.abs(blocks.sector(psi) - want)) < 1e-12

    def test_refuses_a_full_space_kernel(self):
        # a kernel built without a start stores all 2^n states, not one parity sector
        h = build_hamiltonian(build_system("melon"))
        with pytest.raises(ValueError, match="stores the full space"):
            SiteBlocks(PauliKernel(h.n_sites, h.terms))


def _block_case(name):
    """(n, terms) of a named system or hand-made string list."""
    if name in TestOrbitSampling.STRINGS:
        strings = TestOrbitSampling.STRINGS[name]
        return len(strings[0][1]), tuple(_string(c, axes) for c, axes in strings)
    kind, _, chi = name.partition("-chi-")
    h = build_hamiltonian(build_system(kind, chi=math.pi / 4 if chi else 0.0))
    return h.n_sites, h.terms


class TestOrbitSampling:
    STRINGS = {
        "negated": TestSiteBlocks.NEGATED,  # eps = -1
        "cancelling": TestSiteBlocks.CANCELLING,
        # every site conserved: blocks of one state each
        "no-free-site": [(1.0, "XX")],
    }
    NAMES = ["melon", "antimelon", "combined", "combined-chi-pi/4", *STRINGS]

    @pytest.mark.parametrize("name", NAMES)
    def test_sampling_per_orbit_equals_sampling_per_block(self, name):
        from scipy.linalg import expm

        n, terms = _block_case(name)
        rng = np.random.default_rng(53)
        starts = [0] if name in self.STRINGS else [0, *rng.integers(1 << n, size=2)]
        for start in starts:
            kernel = PauliKernel(n, terms, int(start))
            blocks = SiteBlocks(kernel)
            for t in rng.uniform(-5.0, 5.0, size=3):
                psi = blocks.state(t)
                assert np.max(np.abs(psi - block_states(n, terms, blocks.initial(), t))) < 1e-12
                if name in self.STRINGS:
                    want = expm(-1j * t * matrix_of(Hamiltonian(n, terms)))[:, int(start)]
                    assert np.max(np.abs(blocks.sector(psi) - want[kernel.index])) < 1e-12

    @pytest.mark.parametrize("name", NAMES)
    def test_eigh_is_real_where_an_antiunitary_allows_it(self, name):
        # T = K X_free fixes every string of an even number of Z factors on the
        # free sites: the vortex systems, whose terms are XX or YY, and the
        # hand-made negated, cancelling and no-free-site strings
        n, terms = _block_case(name)
        with eigh_dtypes() as seen:
            blocks = SiteBlocks(PauliKernel(n, terms, 0))
            held = [v for v in blocks._spectrum if isinstance(v, np.ndarray)]
        assert seen == [np.float64]
        # eigenvectors are held per orbit only: no per-block copy (combined: 64 x 64 x 64,
        # against 16 x 64 x 64); the two-term (free state, kept block) layout, 2 x dim x
        # kept, outgrows them only where few orbits hold many blocks
        dim, kept = blocks.initial().shape
        assert max(v.size for v in held) <= max(blocks.diagonalised * dim, 2 * kept) * dim
        # the eigh's own real eigenvectors O_r, not a complex copy of V_r = W O_r
        vectors = blocks._spectrum.vectors
        assert (vectors.shape, vectors.dtype) == ((blocks.diagonalised, dim, dim), np.float64)


def _exact_run(spec, start: int, dt: float):
    """One `run_exact` step of dt from basis state `start`: (propagator record, check).

    check() compares the final state, up to 10 sites, with expm of the dense
    matrix on the start's parity sector, to 1e-12.
    """
    from scipy.linalg import expm

    n = spec.n_sites
    config = RunConfig(system=spec, dt_over_T=dt, total_over_T=dt,
                       initial_label=index_to_label(start, n))
    result = run_exact(config)

    def check():
        if n <= 10:
            sector = [i for i in range(1 << n) if (i ^ start).bit_count() % 2 == 0]
            h = matrix_of(build_hamiltonian(spec))[np.ix_(sector, sector)]
            want = expm(-2j * dt * h)[:, sector.index(start)]
            assert np.max(np.abs(result.final_state.amps[sector] - want)) < 1e-12

    return result.propagator, check


class TestRealBlocks:
    """Every system the program builds whose exact runs take the blocks gets a real eigh.

    Its terms are XX, YY or ZZ, so T = K X_free fixes every free-site string.
    """

    @pytest.mark.parametrize("k", range(8))
    @pytest.mark.parametrize("kind", ["melon", "antimelon", "combined"])
    def test_built_in_systems(self, kind, k):
        spec = build_system(kind, chi=k * math.pi / 4)
        with eigh_dtypes() as seen:
            record, check = _exact_run(spec, label_to_index(default_initial_label(spec)), 0.37)
        assert (record["kind"], seen) == ("exact blocks", [np.float64])
        check()

    @pytest.mark.parametrize("kind", ["melon", "antimelon", "combined"])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), bits=st.integers(0, 2**14 - 1),
           dt=st.floats(min_value=0.01, max_value=2.5))
    def test_custom_geometries(self, kind, data, bits, dt):
        spec = data.draw(custom_geometries(kind))
        with eigh_dtypes() as seen:
            record, check = _exact_run(spec, bits % (1 << spec.n_sites), dt)
        assume(record["kind"] == "exact blocks")
        assert seen == [np.float64]
        check()

    def test_an_idle_site_is_conserved(self):
        # melon plus a site that no bond reaches: X there commutes with every term,
        # so the blocks keep melon's 16 states instead of doubling
        melon = build_system("melon")
        spec = system_from_dict({
            "kind": "melon", "holes": [list(h) for h in melon.holes],
            "winding": list(melon.winding),
            "sites": [{"label": s.label, "pos": list(s.pos)} for s in melon.sites]
            + [{"label": "z", "pos": [5, 5]}]})
        record, check = _exact_run(spec, label_to_index("0" + default_initial_label(melon)), 0.37)
        assert (record["kind"], record["block_states"]) == ("exact blocks", 16)
        assert record["conserved_sites"]["z"] == "X"
        check()

    def test_an_xxz_chain_with_an_idle_site(self):
        # the idle site is conserved, so the chain's XX, YY and ZZ strings go to
        # the blocks: the one built system whose blocks hold a ZZ string, which
        # T = K X_free fixes by its even number of Z factors
        spec = system_from_dict({
            "kind": "xxz", "holes": [], "delta": 1.0,
            "sites": [{"label": f"s{k}", "pos": [k, 0]} for k in range(6)]
            + [{"label": "z", "pos": [9, 9]}]})
        with eigh_dtypes() as seen:
            record, check = _exact_run(spec, label_to_index(default_initial_label(spec)), 0.37)
        assert (record["kind"], record["conserved_sites"], seen) == (
            "exact blocks", {"z": "X"}, [np.float64])
        check()


class TestBlockStep:
    COMBINED = build_hamiltonian(build_system("combined")).terms
    # sites 1 (Y), 3 and 4 (X) conserved, sites 0 and 2 free; a Y on a free
    # site gives complex phases
    CUSTOM = tuple(_string(c, axes) for c, axes in [
        (0.7, "XYIII"), (0.4, "ZIYXI"), (0.3, "IYIIX"), (0.5, "YIYII"), (0.2, "IIZXX"),
        (-0.6, "XYXXI")])

    @settings(max_examples=80, deadline=None)
    @given(case=st.one_of(planted_term_lists(even_z=False).map(lambda c: c[:2]),
                          st.just((13, COMBINED))),
           bits=st.integers(0, 2**13 - 1), dt=st.floats(min_value=0.01, max_value=1.0))
    def test_block_step_equals_the_op_loop(self, case, bits, dt):
        n, terms = case
        if not conserved_axes(terms, n):
            return
        start = bits % (1 << n)
        with step_cap(0):
            kernel = PauliKernel(n, terms, start)
            blocks = SiteBlocks(kernel)
            psi, want = blocks.initial(), kernel.initial()
            assert np.max(np.abs(blocks.sector(psi) - want)) < 1e-12
            for k in range(50):  # a new phi halfway rebuilds both steps' ops
                blocks.advance(psi, 2.0 * dt if k < 25 else dt, 1)
                kernel.advance(want, 2.0 * dt if k < 25 else dt, 1)
        assert kernel._dense is None
        assert np.max(np.abs(blocks.sector(psi) - want)) < 1e-12
        assert abs(blocks.overlap(psi) - kernel.overlap(want)) < 1e-12

    def test_combined_fuses_ten_ops(self):
        kernel = PauliKernel(13, self.COMBINED, label_to_index("0101010110101"))
        blocks = SiteBlocks(kernel)
        assert (len(self.COMBINED), kernel.ops_per_step, blocks.ops_per_step) == (26, 22, 10)
        psi = blocks.initial()
        blocks.advance(psi, 0.2, 1)
        assert len(blocks._ops) == 10
        assert "_spectrum" not in vars(blocks)  # Trotter steps never diagonalise

    @pytest.mark.parametrize("name", ["melon", "combined", "custom"])
    def test_back_rotation_equals_the_butterflies(self, name):
        terms = self.CUSTOM if name == "custom" else build_hamiltonian(build_system(name)).terms
        n = 5 if name == "custom" else 1 + max(t.support[-1] for t in terms)
        rng = np.random.default_rng(41)
        for _ in range(3):
            start = int(rng.integers(1 << n))
            blocks = SiteBlocks(PauliKernel(n, terms, start))
            shape = blocks.initial().shape
            psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            want = butterfly_back_rotation(n, terms, start, psi)
            assert np.max(np.abs(blocks.sector(psi) - want)) < 1e-12


class TestMultiStep:
    """`advance` and `scan` against single steps, on each propagator kind."""

    # kind -> (system, its build_system options, the step cap under which runs take that kind)
    KINDS = {"dense": ("melon", {}, statevector.MAX_DENSE_STEP),
             "ops": ("melon", {"chi": 0.3}, 0),
             "blocks": ("combined", {}, statevector.MAX_DENSE_STEP)}

    def _propagator(self, kind):
        name, options, _ = self.KINDS[kind]
        spec = build_system(name, **options)
        h = build_hamiltonian(spec)
        kernel = PauliKernel(h.n_sites, h.terms, label_to_index(default_initial_label(spec)))
        return SiteBlocks(kernel) if kind == "blocks" else kernel

    def _random_state(self, prop, seed):
        shape = prop.initial().shape
        rng = np.random.default_rng(seed)
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 20])
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_advance_equals_single_steps(self, kind, k):
        with step_cap(self.KINDS[kind][2]):
            prop = self._propagator(kind)
            psi = self._random_state(prop, k)
            want = psi.copy()
            for _ in range(k):
                prop.advance(want, 0.3, 1)
            scratch = prop._scratch
            prop.advance(psi, 0.3, k)
        assert (prop._dense is not None) is (kind == "dense")
        assert np.max(np.abs(psi - want)) <= 1e-14
        # the result sits in the caller's array, for odd and even k, and not in the scratch
        assert prop._scratch is scratch and not np.shares_memory(psi, scratch)
        scratch[...] = np.nan
        assert np.max(np.abs(psi - want)) <= 1e-14

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_scan_reads_the_overlap_after_each_step(self, kind):
        with step_cap(self.KINDS[kind][2]):
            prop = self._propagator(kind)
            psi = self._random_state(prop, 7)
            want, overlaps = psi.copy(), [prop.overlap(psi)]
            for _ in range(21):
                prop.advance(want, 0.3, 1)
                overlaps.append(prop.overlap(want))
            got = prop.scan(psi, 0.3, 21)
        assert np.max(np.abs(got - overlaps)) <= 1e-14
        assert np.max(np.abs(psi - want)) <= 1e-14  # the last step lands in the caller's array

    @pytest.mark.parametrize("steps", [0, 1, 2, 151])
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_fidelity_scan_equals_the_sampled_run(self, kind, steps):
        name, options, cap = self.KINDS[kind]
        config = RunConfig(system=build_system(name, **options), dt_over_T=1 / 10,
                           total_over_T=max(steps, 1) / 10)
        with step_cap(cap):
            series = fidelity_scan(config, steps / 10)
            result = run_trotter(config)
        assert result.propagator["kind"] == kind
        if steps == 0:
            assert series == [(0.0, 1.0)]
            return
        assert [t for t, _ in series] == [s.time_over_T for s in result.samples]
        assert max(abs(f - s.fidelity0) for (_, f), s in zip(series, result.samples)) <= 1e-14


def _check_block_energy(n, terms, start, rng):
    """SiteBlocks' energy and weighted norm of a random block array equal the z-basis ones."""
    kernel = PauliKernel(n, terms, start)
    blocks = SiteBlocks(kernel)
    shape = blocks.initial().shape
    psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    psi /= np.linalg.norm(blocks.sector(psi))
    z = blocks.sector(psi)
    assert abs(blocks.expectation(psi) - kernel.expectation(z)) < 1e-12
    norms = np.sum(np.abs(psi) ** 2, axis=0)  # per kept block
    assert abs(np.sum(blocks._weight * norms) - np.vdot(z, z).real) < 1e-12


class TestBlockEnergy:
    SYSTEMS = {name: build_hamiltonian(build_system(kind, chi=chi)) for name, kind, chi in (
        ("melon", "melon", 0.0), ("antimelon", "antimelon", 0.0),
        ("combined", "combined", 0.0), ("melon-chi-pi/4", "melon", math.pi / 4),
        ("combined-chi-pi/4", "combined", math.pi / 4))}

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_block_energy_equals_the_z_basis_energy(self, name):
        h = self.SYSTEMS[name]
        rng = np.random.default_rng(47)
        for start in rng.integers(1 << h.n_sites, size=3):
            _check_block_energy(h.n_sites, h.terms, int(start), rng)

    @settings(max_examples=100, deadline=None)
    @given(case=planted_term_lists(even_z=False), bits=st.integers(0, 63),
           seed=st.integers(0, 2**32 - 1))
    def test_planted_block_energy_equals_the_z_basis_energy(self, case, bits, seed):
        n, terms, _ = case  # Y-conserved sites too, and Z on the free sites
        if conserved_axes(terms, n):
            _check_block_energy(n, terms, bits % (1 << n), np.random.default_rng(seed))


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

