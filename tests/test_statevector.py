import itertools
import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexprop import statevector
from vortexprop.circuit import Gate, compile_pauli_exponential, compile_trotter_step
from vortexprop.evolve import RunConfig, fidelity_scan, run_trotter
from vortexprop.hamiltonian import (
    Hamiltonian,
    PauliAxis,
    PauliTerm,
    build_hamiltonian,
    matrix_of,
    sparse_matrix_of,
)
from vortexprop.lattice import build_system
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
    all_site_blocks,
    butterfly_back_rotation,
    dense_exponential,
    init_basis_state,
    random_term,
)

INV_SQRT2 = 1 / math.sqrt(2)
# PauliKernel.step takes the dense path on stored sets up to the cap; cap 0
# sends every set through the op loop
STEP_CAPS = (statevector.MAX_DENSE_STEP, 0)


@contextmanager
def step_cap(cap):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(statevector, "MAX_DENSE_STEP", cap)
        yield


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
        PauliKernel(2, (term,)).step(state.amps, 0.4)
        assert state.amps[0b00] == pytest.approx(math.cos(0.4))
        assert state.amps[0b11] == pytest.approx(-1j * math.sin(0.4))

    def test_z_on_one(self):
        term = PauliTerm(1.0, ((0, PauliAxis.Z),))
        state = init_basis_state("1")
        PauliKernel(1, (term,)).step(state.amps, 0.8)
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
                    kernel.step(state.amps, phi)
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
def planted_term_lists(draw):
    """(n, terms, planted) with planted sites that carry one axis, X or Y, in every term.

    Other sites take any factor; every flip touches an even number of sites.
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
                    kernel.step(psi, 2.0 * dt)
                    full.step(rand, 2.0 * dt)
            assert len(kernel.index) == 1 << (n - (not odd))
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
                    kernel.step(psi, 2.0 * dt if k < 25 else dt)
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
        assert conserved_axes(h.terms) == {}
        psi = kernel.basis(start)
        want, moved = psi.copy(), np.empty_like(psi)
        ops = statevector._fuse(kernel._rows, 0.2)
        for _ in range(20):
            kernel.step(psi, 0.2)
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

        monkeypatch.setattr(PauliKernel, "step", refuse)
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

    @settings(max_examples=100, deadline=None)
    @given(case=term_lists(even=True), bits=st.integers(0, 63),
           seed=st.integers(0, 2**32 - 1))
    def test_random_strings_restrict_the_full_matrix(self, case, bits, seed):
        # complex phases too: strings with an odd number of Y factors
        n, terms = case
        h = Hamiltonian(n, terms)
        kernel = PauliKernel(n, terms, bits % (1 << n))
        assert len(kernel.index) == 1 << (n - 1)
        m = kernel.sparse_matrix()
        assert abs(m - sparse_matrix_of(h)[kernel.index][:, kernel.index]).max() == 0.0
        dense = matrix_of(h)
        assert np.max(np.abs(m.toarray() - dense[np.ix_(kernel.index, kernel.index)])) < 1e-12
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=len(kernel.index)) + 1j * rng.normal(size=len(kernel.index))
        amps /= np.linalg.norm(amps)
        psi = kernel.embed(amps).amps
        assert abs(kernel.expectation(amps) - np.vdot(psi, dense @ psi).real) < 1e-12


def _commutator_norm(term, site, axis):
    """max |[term, axis_site]| entry, on just the sites the two act on."""
    sites = sorted({*term.support, site})
    pos = {k: i for i, k in enumerate(sites)}
    t = matrix_of(Hamiltonian(len(sites), (
        PauliTerm(term.coeff, tuple((pos[k], a) for k, a in term.factors)),)))
    o = matrix_of(Hamiltonian(len(sites), (PauliTerm(1.0, ((pos[site], axis),)),)))
    return np.max(np.abs(t @ o - o @ t))


def _assert_eigenpairs(blocks, n, terms):
    """Each block of the oracle has the energies and unitary vectors of `blocks`."""
    want = all_site_blocks(n, terms)
    assert blocks.vectors.shape == want.shape
    eye = np.eye(want.shape[-1])
    for h_b, e_b, v_b in zip(want, blocks.energies, blocks.vectors):
        assert np.linalg.norm(h_b @ v_b - v_b * e_b) <= 1e-12
        assert np.linalg.norm(v_b.conj().T @ v_b - eye) <= 1e-12


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
        axes = conserved_axes(terms)
        assert " ".join(spec.labels[k] + a.value for k, a in axes.items()) == want
        for site, axis in axes.items():
            assert max(_commutator_norm(t, site, axis) for t in terms) == 0.0

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["melon", "antimelon", "combined"]),
           chi=st.floats(min_value=-2 * math.pi, max_value=2 * math.pi).filter(
               lambda c: abs(c / (math.pi / 4) - round(c / (math.pi / 4))) > 1e-6))
    def test_generic_chi_conserves_no_site(self, kind, chi):
        # every xi is a multiple of pi/4 plus chi, so no spin lies on an axis
        assert conserved_axes(build_hamiltonian(build_system(kind, chi=chi)).terms) == {}

    @settings(max_examples=100, deadline=None)
    @given(case=planted_term_lists(), bits=st.integers(0, 63),
           t=st.floats(min_value=-3.0, max_value=3.0))
    def test_random_strings_blocks_propagate_exactly(self, case, bits, t):
        from scipy.linalg import expm

        n, terms, planted = case
        axes = conserved_axes(terms)
        acted = {k for term in terms for k in term.support}
        assert {k: a for k, a in axes.items() if k in planted} == {
            k: PauliAxis(a) for k, a in planted.items() if k in acted}
        for site, axis in axes.items():
            assert max(_commutator_norm(term, site, axis) for term in terms) < 1e-12
        if not axes:
            return
        start = bits % (1 << n)
        kernel = PauliKernel(n, terms, start)
        blocks = SiteBlocks(kernel)
        want = expm(-1j * t * matrix_of(Hamiltonian(n, terms)))[:, start]
        assert np.max(np.abs(blocks.state(t) - want[kernel.index])) < 1e-12
        _assert_eigenpairs(blocks, n, terms)


class TestSiteBlocks:
    @pytest.mark.parametrize("kind, shape, levels", [
        ("melon", (8, 16), 23), ("antimelon", (8, 16), 23), ("combined", (64, 64), 673)])
    def test_block_spectra(self, kind, shape, levels):
        h = build_hamiltonian(build_system(kind))
        kernel = PauliKernel(h.n_sites, h.terms, 0)
        blocks = SiteBlocks(kernel)
        assert blocks.energies.shape == shape
        assert _levels(blocks.energies) == levels

    @pytest.mark.parametrize("kind", ["melon", "antimelon"])
    @pytest.mark.parametrize("parity", [0, 1])
    def test_block_spectrum_is_the_sector_spectrum(self, kind, parity):
        h = build_hamiltonian(build_system(kind))
        kernel = PauliKernel(h.n_sites, h.terms, parity)
        blocks = SiteBlocks(kernel)
        sector = matrix_of(h)[np.ix_(kernel.index, kernel.index)]
        want = np.linalg.eigvalsh(sector)
        assert np.max(np.abs(np.sort(blocks.energies.ravel()) - want)) < 1e-12

    @pytest.mark.parametrize("kind, chi, diagonalised, kept", [
        ("melon", 0.0, 2, 8), ("antimelon", 0.0, 2, 8), ("combined", 0.0, 16, 64),
        ("melon", math.pi / 4, 4, 8), ("combined", math.pi / 4, 16, 32)],
        ids=["melon", "antimelon", "combined", "melon-chi-pi/4", "combined-chi-pi/4"])
    def test_one_block_per_orbit_is_diagonalised(self, kind, chi, diagonalised, kept):
        h = build_hamiltonian(build_system(kind, chi=chi))
        kernel = PauliKernel(h.n_sites, h.terms, 0)
        blocks = SiteBlocks(kernel)
        _assert_eigenpairs(blocks, h.n_sites, h.terms)
        assert (blocks.diagonalised, len(blocks.energies)) == (diagonalised, kept)

    # sites 0 and 1 free, 2, 3 and 4 conserved (X); the kept blocks are
    # (s2, s3) = ++, -+, +-, -- with s4 = +.  X0 weighs 0.5 (s2 + s3), zero
    # in blocks 1 and 2, which only Q = Y0 relates (Z0 weighs 0.6 s2): Y0
    # anticommutes with X0, so counting its zero weight would split them.
    # Block 3 is Y0 block 0 Y0.
    CANCELLING = [(0.5, "XIXII"), (0.5, "XIIXI"), (0.4, "YYIII"), (0.3, "IXIIX"),
                  (0.2, "IZXXI"), (0.6, "ZIXIX"), (0.7, "IIXXI")]
    # site 0 free, 1 and 2 conserved (X): block 1 = -Z0 block 0 Z0, and the
    # conserved-only string X1X2 forbids eps = +1
    NEGATED = [(1.0, "IXX"), (0.5, "ZXX"), (0.3, "XIX")]

    @pytest.mark.parametrize("strings, diagonalised", [(CANCELLING, 2), (NEGATED, 1)],
                             ids=["cancelling", "negated"])
    def test_hand_made_orbits(self, strings, diagonalised):
        from scipy.linalg import expm

        terms = tuple(_string(c, axes) for c, axes in strings)
        n = len(strings[0][1])
        kernel = PauliKernel(n, terms, 0)
        blocks = SiteBlocks(kernel)
        _assert_eigenpairs(blocks, n, terms)
        assert blocks.diagonalised == diagonalised
        want = expm(-0.7j * matrix_of(Hamiltonian(n, terms)))[:, 0]
        assert np.max(np.abs(blocks.state(0.7) - want[kernel.index])) < 1e-12

    def test_strings_beyond_one_word(self):
        # sites 0-3 free, 4 and 5 conserved (X); 70 distinct free strings, each
        # with X4 when it flips an odd number of sites, so Z0Z1Z2Z3 would relate
        # the two blocks, but the last string carries X5 in place of X4: only
        # its bit, in the second 64-bit word, rules the relation out
        free = [s for s in itertools.product("IXYZ", repeat=4) if set(s) != {"I"}][::3][:70]
        assert sum(a in "XY" for a in free[-1]) % 2 == 1
        terms = tuple(_string(0.05 * (k + 1), "".join(s) + (
            "II" if sum(a in "XY" for a in s) % 2 == 0 else "IX" if k == 69 else "XI"))
            for k, s in enumerate(free))
        blocks = SiteBlocks(PauliKernel(6, terms, 0))
        _assert_eigenpairs(blocks, 6, terms)
        assert (blocks.diagonalised, len(blocks.energies)) == (2, 2)

    def test_negated_block_has_negated_energies(self):
        terms = tuple(_string(c, axes) for c, axes in self.NEGATED)
        blocks = SiteBlocks(PauliKernel(3, terms, 0))
        assert np.array_equal(blocks.energies[1], -blocks.energies[0])
        assert blocks.energies[1][0] > blocks.energies[1][1]  # descending

    def test_refuses_terms_without_a_conserved_site_or_parity(self):
        h = build_hamiltonian(build_system("xxz", n=4))
        with pytest.raises(ValueError, match="no site Pauli"):
            SiteBlocks(PauliKernel(4, h.terms, 0))
        odd = (_string(1.0, "XX"), _string(0.5, "XI"))
        with pytest.raises(ValueError, match="odd number of sites"):
            SiteBlocks(PauliKernel(2, odd, 0))

    def test_refuses_a_full_space_kernel(self):
        # a kernel built without a start stores all 2^n states, not one parity sector
        h = build_hamiltonian(build_system("melon"))
        with pytest.raises(ValueError, match="stores the full space"):
            SiteBlocks(PauliKernel(h.n_sites, h.terms))


class TestBlockStep:
    COMBINED = build_hamiltonian(build_system("combined")).terms
    # sites 1 (Y), 3 and 4 (X) conserved, sites 0 and 2 free; a Y on a free
    # site gives complex phases
    CUSTOM = tuple(_string(c, axes) for c, axes in [
        (0.7, "XYIII"), (0.4, "ZIYXI"), (0.3, "IYIIX"), (0.5, "YIYII"), (0.2, "IIZXX"),
        (-0.6, "XYXXI")])

    @settings(max_examples=80, deadline=None)
    @given(case=st.one_of(planted_term_lists().map(lambda c: c[:2]),
                          st.just((13, COMBINED))),
           bits=st.integers(0, 2**13 - 1), dt=st.floats(min_value=0.01, max_value=1.0))
    def test_block_step_equals_the_op_loop(self, case, bits, dt):
        n, terms = case
        if not conserved_axes(terms):
            return
        start = bits % (1 << n)
        with step_cap(0):
            kernel = PauliKernel(n, terms, start)
            blocks = SiteBlocks(kernel)
            psi, want = blocks.initial(), kernel.initial()
            assert np.max(np.abs(blocks.sector(psi) - want)) < 1e-12
            for k in range(50):  # a new phi halfway rebuilds both steps' ops
                blocks.step(psi, 2.0 * dt if k < 25 else dt)
                kernel.step(want, 2.0 * dt if k < 25 else dt)
        assert kernel._dense is None
        assert np.max(np.abs(blocks.sector(psi) - want)) < 1e-12
        assert abs(blocks.overlap(psi) - kernel.overlap(want)) < 1e-12

    def test_combined_fuses_ten_ops(self):
        kernel = PauliKernel(13, self.COMBINED, label_to_index("0101010110101"))
        blocks = SiteBlocks(kernel)
        assert (len(self.COMBINED), kernel.ops_per_step, blocks.ops_per_step) == (26, 22, 10)
        psi = blocks.initial()
        blocks.step(psi, 0.2)
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

