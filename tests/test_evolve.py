import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexprop import evolve
from vortexprop.evolve import (
    MAX_HELD_BYTES,
    TRACK_TOP_K,
    RunConfig,
    _resolve_tracked,
    default_initial_label,
    fidelity_scan,
    run_exact,
    run_trotter,
)
from vortexprop.circuit import compile_trotter_step
from vortexprop.hamiltonian import (
    Hamiltonian,
    PauliAxis,
    PauliTerm,
    build_hamiltonian,
    matrix_of,
    sparse_matrix_of,
)
from vortexprop.lattice import build_system, system_from_dict
from vortexprop.observables import estimate_period
from vortexprop.statevector import apply_circuit, conserved_axes, fidelity

from oracles import (
    check_class_degeneracy,
    custom_geometries,
    init_basis_state,
    site_equivalence_classes,
    system_to_dict,
)


class TestRunConfig:
    def test_rejects_fractional_step_count(self):
        spec = build_system("melon")
        with pytest.raises(ValueError):
            RunConfig(system=spec, dt_over_T=0.3, total_over_T=1.0)

    def test_rejects_bad_pitch_and_dt(self):
        spec = build_system("melon")
        with pytest.raises(ValueError):
            RunConfig(system=spec, dt_over_T=-0.1, total_over_T=1.0)
        with pytest.raises(ValueError):
            RunConfig(system=spec, dt_over_T=0.1, total_over_T=1.0, sample_pitch=0)

    @pytest.mark.parametrize("dt, total, message", [
        (math.inf, 4.0, "dt_over_T=inf must be finite and positive"),
        (math.nan, 4.0, "dt_over_T=nan must be finite and positive"),
        (0.0, 1.0, "dt_over_T=0.0 must be finite and positive"),
        (0.1, -1.0, "total_over_T=-1.0 must be finite and non-negative"),
        (0.1, math.inf, "total_over_T=inf must be finite and non-negative"),
        (0.1, math.nan, "total_over_T=nan must be finite and non-negative"),
    ])
    def test_rejects_bad_time_grid(self, dt, total, message):
        with pytest.raises(ValueError, match=message):
            RunConfig(system=build_system("melon"), dt_over_T=dt, total_over_T=total)

    @pytest.mark.parametrize("threshold", [1.5, 0.0, 1.0, math.nan])
    def test_rejects_threshold_outside_unit_interval(self, threshold):
        # refused when the config is built, not after the whole propagation
        with pytest.raises(ValueError, match=r"threshold must be in \(0, 1\)"):
            RunConfig(system=build_system("combined"), dt_over_T=0.1, total_over_T=48.0,
                      threshold=threshold)

    def test_step_guard(self):
        spec = build_system("melon")
        with pytest.raises(ValueError):
            RunConfig(system=spec, dt_over_T=1e-9, total_over_T=100.0)

    def test_held_state_guard_refuses_at_construction(self):
        # 10^6 pitch-1 samples of the 4096-amplitude combined sector: 65.5 GB
        spec = build_system("combined")
        with pytest.raises(ValueError, match=f"over the {MAX_HELD_BYTES} byte guard"):
            RunConfig(system=spec, dt_over_T=1 / 10, total_over_T=100000.0, sample_pitch=1)
        # the same steps at a coarser pitch, and a 400T pitch-1 run (0.26 GB), pass
        RunConfig(system=spec, dt_over_T=1 / 10, total_over_T=100000.0, sample_pitch=1000)
        RunConfig(system=spec, dt_over_T=1 / 10, total_over_T=400.0, sample_pitch=1)

    def test_held_state_guard_counts_the_kernel(self):
        # 3 samples of the 2^23-state XXZ sector hold 384 MiB, but the kernel's
        # z-signs, gathers, phases and fused ops add about 1.2 KB per state
        with pytest.raises(ValueError, match=f"over the {MAX_HELD_BYTES} byte guard"):
            RunConfig(system=build_system("xxz", n=24), dt_over_T=1 / 10, total_over_T=0.2)

    def test_held_state_guard_covers_the_op_loop_peak(self, monkeypatch):
        # combined at chi = 0.3 conserves no site, so its run steps the z-basis op
        # loop on 4096 stored states: the count must reach the run's traced peak,
        # the energy's weight per bond included
        config = RunConfig(system=build_system("combined", chi=0.3), dt_over_T=1 / 10,
                           total_over_T=0.2, sample_pitch=1)
        run_trotter(config)  # warm-up
        tracemalloc.start()
        try:
            result = run_trotter(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.propagator["kind"] == "ops"
        monkeypatch.setattr(evolve, "MAX_HELD_BYTES", peak - 1)
        with pytest.raises(ValueError, match=f"over the {peak - 1} byte guard"):
            replace(config)

    def test_rejects_wrong_initial_length(self):
        spec = build_system("melon")
        config = RunConfig(system=spec, dt_over_T=0.5, total_over_T=1.0,
                           initial_label="010")
        with pytest.raises(ValueError):
            config.resolve_initial_label()

    def test_rejects_an_empty_initial_label(self):
        # only a missing label (None) takes the Neel default; "" is a label of length 0
        config = RunConfig(system=build_system("melon"), dt_over_T=0.5, total_over_T=1.0,
                           initial_label="")
        with pytest.raises(ValueError, match="initial label length 0 != 8 sites"):
            config.resolve_initial_label()


class TestDefaultInitialLabels:
    def test_vortex_labels(self):
        assert default_initial_label(build_system("melon")) == "10101010"
        assert default_initial_label(build_system("antimelon")) == "01010101"

    def test_combined_label_is_neel(self):
        spec = build_system("combined")
        label = default_initial_label(spec)
        assert len(label) == 13
        bits = {s.label: label[::-1][s.index] for s in spec.sites}
        for s in spec.sites:
            assert int(bits[s.label]) == (s.pos[0] + s.pos[1]) % 2

    def test_xxz_neel(self):
        assert default_initial_label(build_system("xxz", n=6)) == "101010"

    @pytest.mark.parametrize("kind", ["melon", "antimelon", "combined"])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), dt=st.floats(min_value=0.01, max_value=0.5))
    def test_custom_geometries_start_from_their_neel_state(self, kind, data, dt):
        # any kind and size of lattice: one bit per site, (x + y) mod 2, the
        # complement on antimelon; a run needs no initial_label
        spec = data.draw(custom_geometries(kind))
        label = default_initial_label(spec)
        assert len(label) == spec.n_sites
        flip = int(kind == "antimelon")
        assert [int(c) for c in reversed(label)] == [
            (s.pos[0] + s.pos[1] + flip) % 2 for s in spec.sites]
        result = run_trotter(RunConfig(spec, dt, dt))
        assert result.config.resolve_initial_label() == label
        assert [s.step for s in result.samples] == [0, 1]

    @pytest.mark.parametrize("kind, want", [("melon", "101010"), ("antimelon", "010101")])
    def test_six_site_ring_runs_without_a_label(self, kind, want):
        # a 6-site ring round one hole: both propagators start from its Neel state
        # (an 8-character per-kind default would not fit)
        ring = [[0, 0], [1, 0], [2, 0], [2, 1], [2, 2], [1, 2]]
        spec = system_from_dict({"kind": kind, "holes": [[1, 1]], "winding": [1],
                                 "sites": [{"label": f"s{k}", "pos": pos}
                                           for k, pos in enumerate(ring)]})
        assert default_initial_label(spec) == want
        for run in (run_trotter, run_exact):
            result = run(RunConfig(spec, 0.1, 0.5))
            assert result.config.resolve_initial_label() == want
            assert result.samples[0].fidelity0 == pytest.approx(1.0)
            assert len(result.samples) == 6


class TestRunTrotter:
    def test_zero_steps_single_sample(self):
        spec = build_system("melon")
        config = RunConfig(system=spec, dt_over_T=0.5, total_over_T=0.0)
        result = run_trotter(config)
        assert len(result.samples) == 1
        assert result.samples[0].fidelity0 == 1.0
        assert result.samples[0].step == 0

    def test_sample_cadence(self):
        spec = build_system("melon")
        config = RunConfig(system=spec, dt_over_T=1 / 300, total_over_T=1.0,
                           sample_pitch=20)
        result = run_trotter(config)
        assert [s.step for s in result.samples] == list(range(0, 301, 20))
        assert result.samples[-1].time_over_T == pytest.approx(1.0)

    def test_figure_run_shape(self):
        # the canonical single-vortex configuration: 1200 steps, 61 samples
        config = RunConfig(system=build_system("melon"), dt_over_T=1 / 300,
                           total_over_T=4.0, sample_pitch=20)
        assert config.n_steps == 1200
        result = run_trotter(config)
        assert len(result.samples) == 61

    def test_norm_conserved(self):
        spec = build_system("combined")
        config = RunConfig(system=spec, dt_over_T=1 / 10, total_over_T=2.0,
                           sample_pitch=4)
        result = run_trotter(config)
        assert abs(np.vdot(result.final_state.amps, result.final_state.amps).real - 1.0) < 1e-10

    def test_default_tracking_rule(self):
        spec = build_system("melon")
        config = RunConfig(system=spec, dt_over_T=1 / 60, total_over_T=1.0,
                           sample_pitch=10)
        result = run_trotter(config)
        assert result.tracked[:4] == ("10101010", "01010101", "00000000", "11111111")
        assert len(result.tracked) == 4 + TRACK_TOP_K == 12
        assert len(set(result.tracked)) == 12

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 8), data=st.data())
    def test_tracked_labels_follow_the_stable_order_of_all_rounded_peaks(self, n, data):
        # peaks equal to 9 digits tie and go in basis order, as in a stable sort of all 2^n
        values = [0.0, 0.25, 0.5, 0.5 + 1e-12, 0.7, 1.0]
        peaks = np.array(data.draw(st.lists(st.sampled_from(values), min_size=1 << n,
                                            max_size=1 << n)))
        initial = data.draw(st.text("01", min_size=n, max_size=n))
        fixed = (initial, initial.translate(str.maketrans("01", "10")), "0" * n, "1" * n)
        rounded = np.round(peaks, 9)
        labels = [format(i, f"0{n}b") for i in sorted(range(1 << n), key=lambda i: -rounded[i])]
        extra = [label for label in labels if label not in fixed][:TRACK_TOP_K]
        assert _resolve_tracked(initial, peaks, n) == tuple(dict.fromkeys(fixed)) + tuple(extra)

    def test_deterministic(self):
        spec = build_system("melon")
        config = RunConfig(system=spec, dt_over_T=1 / 30, total_over_T=1.0, sample_pitch=6)
        a, b = run_trotter(config), run_trotter(config)
        assert np.array_equal(a.final_state.amps, b.final_state.amps)
        for ra, rb in zip(a.samples, b.samples):
            assert ra == rb

    @pytest.mark.parametrize("kind, kwargs, refine", [
        ("melon", {}, 1),
        ("combined", {}, 1),
        ("xxz", {"n": 8, "delta": 2.0}, 1),  # diagonal ZZ terms
        ("melon", {}, 2),
        ("xxz", {"n": 8, "delta": 2.0}, 2),
    ])
    def test_kernel_step_equals_circuit_replay(self, kind, kwargs, refine):
        # the dumped circuit is the compiled artifact; stepping must equal it.
        # Each case runs to 5T, at dt = T/10 or at the finer dt = T/20.
        spec = build_system(kind, **kwargs)
        dt, n_steps = 1 / (10 * refine), 50 * refine
        config = RunConfig(system=spec, dt_over_T=dt, total_over_T=n_steps * dt,
                           sample_pitch=n_steps)
        circuit = compile_trotter_step(build_hamiltonian(spec), dt)
        psi0 = init_basis_state(config.resolve_initial_label())
        replay = init_basis_state(config.resolve_initial_label())
        for _ in range(n_steps):
            apply_circuit(replay, circuit)
        run = run_trotter(config).final_state
        assert np.max(np.abs(run.amps - replay.amps)) < 1e-12
        scan = fidelity_scan(config, n_steps * dt)
        assert scan[-1][1] == pytest.approx(fidelity(psi0, replay), abs=1e-12)

    @pytest.mark.parametrize("label, total, pitch", [
        (None, 6.0, 2),  # the figures run, cut to 6T
        ("1100101011000", 6.1, 4),  # 61 steps: the final state is one step past a sample
    ])
    def test_combined_blocks_match_the_op_loop(self, monkeypatch, label, total, pitch):
        from vortexprop import evolve

        config = RunConfig(system=build_system("combined"), dt_over_T=1 / 10,
                           total_over_T=total, sample_pitch=pitch, initial_label=label)
        blocks, scan = run_trotter(config), fidelity_scan(config, total)
        monkeypatch.setattr(evolve, "MAX_BLOCK_DIM", 0)  # no room for the back-rotation
        ops, want = run_trotter(config), fidelity_scan(config, total)
        assert (blocks.propagator["kind"], ops.propagator["kind"]) == ("blocks", "ops")
        assert (blocks.propagator["ops_per_step"], ops.propagator["ops_per_step"]) == (10, 22)
        assert blocks.tracked == ops.tracked
        assert len(blocks.samples) == len(ops.samples)
        for a, b in zip(blocks.samples, ops.samples):
            assert (a.step, a.time_over_T) == (b.step, b.time_over_T)
            assert abs(a.fidelity0 - b.fidelity0) < 1e-12
            assert abs(a.energy - b.energy) < 1e-12
            assert np.max(np.abs(np.subtract(a.m_z, b.m_z))) < 1e-12
            assert max(abs(a.amp_norms[lbl] - b.amp_norms[lbl]) for lbl in a.amp_norms) < 1e-12
        assert np.max(np.abs(blocks.final_state.amps - ops.final_state.amps)) < 1e-12
        assert [t for t, _ in scan] == [t for t, _ in want]
        assert max(abs(f - g) for (_, f), (_, g) in zip(scan, want)) < 1e-12

    def test_total_past_the_last_pitch_matches_circuit_replay(self):
        # 50 steps at pitch 7: samples at 0, 7, ..., 49, then one more step
        spec = build_system("xxz", n=8, delta=2.0)
        config = RunConfig(system=spec, dt_over_T=1 / 10, total_over_T=5.0, sample_pitch=7)
        circuit = compile_trotter_step(build_hamiltonian(spec), 1 / 10)
        psi0 = init_basis_state(config.resolve_initial_label())
        replay, fids = init_basis_state(config.resolve_initial_label()), [1.0]
        for _ in range(config.n_steps):
            apply_circuit(replay, circuit)
            fids.append(fidelity(psi0, replay))
        result = run_trotter(config)
        assert [s.step for s in result.samples] == list(range(0, 50, 7))
        for sample in result.samples:
            assert sample.fidelity0 == pytest.approx(fids[sample.step], abs=1e-12)
        assert np.max(np.abs(result.final_state.amps - replay.amps)) < 1e-12


class TestRunExact:
    def test_first_sample_matches_trotter(self):
        spec = build_system("melon")
        config = RunConfig(system=spec, dt_over_T=1 / 20, total_over_T=0.5, sample_pitch=2)
        t = run_trotter(config).samples[0]
        e = run_exact(config).samples[0]
        # the labels past the fixed four follow each run's peak amplitudes
        assert replace(t, amp_norms={}) == replace(e, amp_norms={})
        for label in ("10101010", "01010101"):
            assert t.amp_norms[label] == e.amp_norms[label]

    def test_two_site_closed_form(self):
        # H = XX + YY acts as 2*sigma_x on span{|01>, |10>}:
        # |01> evolves to cos(4 tau)|01> - i sin(4 tau)|10>
        spec = build_system("xxz", n=2)
        config = RunConfig(system=spec, dt_over_T=0.05, total_over_T=0.3,
                           sample_pitch=1, initial_label="01")
        result = run_exact(config)
        for rec in result.samples:
            tau = rec.time_over_T
            assert rec.amp_norms["01"] == pytest.approx(abs(math.cos(4 * tau)), abs=1e-10)
            assert rec.amp_norms["10"] == pytest.approx(abs(math.sin(4 * tau)), abs=1e-10)

    def test_energy_conserved_to_machine_precision(self):
        spec = build_system("xxz", n=5, delta=2.0)
        config = RunConfig(system=spec, dt_over_T=1 / 10, total_over_T=2.0, sample_pitch=2)
        result = run_exact(config)
        e0 = result.samples[0].energy
        assert all(abs(s.energy - e0) < 1e-10 for s in result.samples)

    @pytest.mark.parametrize("propagate, kind", [(run_trotter, "blocks"),
                                                 (run_exact, "exact blocks")])
    @pytest.mark.parametrize("zz", [0.0, 0.3], ids=["combined", "combined+ZaZc"])
    def test_sample_energy_is_the_z_basis_expectation(self, monkeypatch, propagate, kind, zz):
        # the run measures the energy on the blocks; Z_a Z_c (a and c are free
        # sites) gives the basis states a nonzero energy, which Trotter steps move
        from vortexprop import evolve
        from vortexprop.observables import record_sample

        def with_zz(spec):
            h = build_hamiltonian(spec)
            zaz = PauliTerm(zz, ((0, PauliAxis.Z), (2, PauliAxis.Z)))
            return Hamiltonian(h.n_sites, h.terms + (zaz,)) if zz else h

        errors = []

        def spy(amps, kernel, positions, step, dt_over_T, energy):
            errors.append(abs(energy - kernel.expectation(amps)))
            return record_sample(amps, kernel, positions, step, dt_over_T, energy)

        monkeypatch.setattr(evolve, "build_hamiltonian", with_zz)
        monkeypatch.setattr(evolve, "record_sample", spy)
        config = RunConfig(system=build_system("combined"), dt_over_T=1 / 10,
                           total_over_T=3.0, sample_pitch=2)
        result = propagate(config)
        assert result.propagator["kind"] == kind
        assert len(errors) == len(result.samples) == 16
        assert max(errors) < 1e-12
        assert result.samples[0].energy == pytest.approx(zz, abs=1e-12)

    def test_size_guard(self):
        # a 14-site parity sector is as large as the full 13-site space; 15 is
        # refused.  The half-filled chain keeps its C(14, 7) = 3432 states.
        with pytest.raises(ValueError, match="capped at 14 sites"):
            run_exact(RunConfig(system=build_system("xxz", n=15), dt_over_T=0.5,
                                total_over_T=0.5))
        result = run_exact(RunConfig(system=build_system("xxz", n=14), dt_over_T=0.5,
                                     total_over_T=0.5))
        assert result.propagator["stored_states"] == 3432
        assert len(result.samples) == 2
        assert np.linalg.norm(result.final_state.amps) == pytest.approx(1.0, abs=1e-12)


def _exact_reference(config):
    """Sector states at every sample and at the total time: dense eigh of
    matrix_of on 8 sites, test-side sector expm_multiply above."""
    from scipy.sparse.linalg import expm_multiply

    h = build_hamiltonian(config.system)
    start = int(config.resolve_initial_label(), 2)
    index = np.array([i for i in range(1 << h.n_sites) if bin(i ^ start).count("1") % 2 == 0])
    psi = np.zeros(len(index), dtype=complex)
    psi[np.searchsorted(index, start)] = 1.0
    dt, pitch, n_steps = config.dt_over_T, config.sample_pitch, config.n_steps
    taus = [k * dt for k in range(0, n_steps + 1, pitch)]
    if h.n_sites <= 8:
        energies, vectors = np.linalg.eigh(matrix_of(h)[np.ix_(index, index)])
        coeffs = vectors.conj().T @ psi

        def at(tau):
            return vectors @ (np.exp(-2j * tau * energies) * coeffs)

        return index, [at(tau) for tau in taus], at(n_steps * dt)
    sector = sparse_matrix_of(h)[index][:, index]
    states = [psi]
    for _ in taus[1:]:
        states.append(expm_multiply(-2j * pitch * dt * sector, states[-1]))
    rest = n_steps % pitch
    final = expm_multiply(-2j * rest * dt * sector, states[-1]) if rest else states[-1]
    return index, states, final


class TestBlockPropagation:
    @pytest.mark.parametrize("kind, chi, label, dt, total, pitch", [
        ("melon", 0.0, None, 1 / 300, 4.0, 20),
        ("melon", 0.0, "11001010", 1 / 10, 6.0, 3),
        ("antimelon", 0.0, None, 1 / 300, 4.0, 20),
        ("combined", 0.0, None, 1 / 10, 4.0, 2),
        ("combined", 0.0, "1100101011000", 1 / 10, 2.0, 1),
        ("melon", math.pi / 4, None, 1 / 10, 6.0, 2),
        ("melon", 0.3, None, 1 / 10, 6.0, 2),  # no conserved site: sector expm_multiply
        # 31 steps: 7 whole pitches, then 3 more steps to the final state
        ("melon", 0.0, None, 1 / 10, 3.1, 4),
        ("melon", 0.3, None, 1 / 10, 3.1, 4),
    ])
    def test_run_exact_matches_an_independent_propagator(self, kind, chi, label, dt, total,
                                                         pitch):
        config = RunConfig(system=build_system(kind, chi=chi), dt_over_T=dt,
                           total_over_T=total, sample_pitch=pitch, initial_label=label)
        result = run_exact(config)
        index, states, final = _exact_reference(config)
        start = int(config.resolve_initial_label(), 2)
        assert len(result.samples) == len(states)
        for sample, psi in zip(result.samples, states):
            full = np.zeros(1 << config.system.n_sites, dtype=complex)
            full[index] = psi
            assert abs(sample.fidelity0 - abs(full[start]) ** 2) < 1e-12
            assert max(abs(v - abs(full[int(lbl, 2)])) for lbl, v in sample.amp_norms.items()) \
                < 1e-12
        full = np.zeros(1 << config.system.n_sites, dtype=complex)
        full[index] = final
        assert np.max(np.abs(result.final_state.amps - full)) < 1e-12

    def test_conserved_sites_skip_expm_multiply(self, monkeypatch):
        import scipy.sparse.linalg

        from vortexprop import evolve, statevector

        def refuse(*args, **kwargs):
            raise AssertionError("expm_multiply called")

        expm_multiply = scipy.sparse.linalg.expm_multiply
        monkeypatch.setattr(scipy.sparse.linalg, "expm_multiply", refuse)

        def run(spec):
            return run_exact(RunConfig(system=spec, dt_over_T=1 / 10, total_over_T=0.4,
                                       sample_pitch=2))

        for kind in ("melon", "antimelon", "combined"):
            assert len(run(build_system(kind)).samples) == 3
        assert len(run(build_system("melon", chi=math.pi / 4)).samples) == 3
        for spec in (build_system("xxz", n=8), build_system("melon", chi=0.3)):
            with pytest.raises(AssertionError, match="expm_multiply called"):
                run(spec)
        # melon's blocks hold 16 states, so a limit of 8 sends it back to expm_multiply
        monkeypatch.setattr(evolve, "MAX_BLOCK_DIM", 8)
        with pytest.raises(AssertionError, match="expm_multiply called"):
            run(build_system("melon"))
        # while its back-rotation matrices hold 8 states: without the dense step,
        # its Trotter runs still take the blocks
        monkeypatch.setattr(statevector, "MAX_DENSE_STEP", 0)
        monkeypatch.setattr(scipy.sparse.linalg, "expm_multiply", expm_multiply)
        config = RunConfig(system=build_system("melon"), dt_over_T=1 / 10, total_over_T=0.4,
                           sample_pitch=2)
        assert run_trotter(config).propagator["kind"] == "blocks"
        assert run_exact(config).propagator["kind"] == "expm"

    def test_back_rotation_cap_sends_many_conserved_sites_elsewhere(self):
        # eleven spins on a line beside one hole all point along x: XX bonds
        # only, so every site is conserved and the back-rotation matrices
        # would be 1024 x 1024, over MAX_BLOCK_DIM; commuting terms make the
        # Trotter steps exact
        spec = system_from_dict({"kind": "melon", "holes": [[0, 0]], "winding": [1], "sites": [
            {"label": chr(ord("a") + k), "pos": [k + 1, 0]} for k in range(11)]})
        assert len(conserved_axes(build_hamiltonian(spec).terms, spec.n_sites)) == 11
        config = RunConfig(system=spec, dt_over_T=1 / 10, total_over_T=0.4, sample_pitch=2,
                           initial_label="10110100101")
        exact, trotter = run_exact(config), run_trotter(config)
        assert (exact.propagator["kind"], trotter.propagator["kind"]) == ("expm", "ops")
        assert np.max(np.abs(exact.final_state.amps - trotter.final_state.amps)) < 1e-12


class TestEnergyDrift:
    def test_halving_dt_at_least_halves_drift(self):
        # XXZ carries diagonal terms, so the Trotter energy drift is nonzero
        spec = build_system("xxz", n=6, delta=2.0)
        drifts = []
        for m in (20, 40):
            config = RunConfig(system=spec, dt_over_T=1 / m, total_over_T=1.0,
                               sample_pitch=2)
            samples = run_trotter(config).samples
            e0 = samples[0].energy
            drifts.append(max(abs(s.energy - e0) for s in samples))
        assert drifts[0] > 1e-6  # the test is vacuous if drift is zero
        assert drifts[0] / drifts[1] >= 1.7


class TestDuality:
    def test_melon_antimelon_mirror(self):
        # same Hamiltonian, globally flipped initial state: m_z negates sitewise
        ca = RunConfig(system=build_system("melon"), dt_over_T=1 / 30,
                       total_over_T=1.0, sample_pitch=5)
        cb = RunConfig(system=build_system("antimelon"), dt_over_T=1 / 30,
                       total_over_T=1.0, sample_pitch=5)
        ra, rb = run_trotter(ca), run_trotter(cb)
        for sa, sb in zip(ra.samples, rb.samples):
            assert np.allclose(sa.m_z, [-v for v in sb.m_z], atol=1e-10)

    def test_fidelity_series_coincide(self):
        # the global-flip symmetry makes the two scans identical, which is why
        # the period table reports a single single-vortex row
        series = []
        for kind in ("melon", "antimelon"):
            config = RunConfig(system=build_system(kind), dt_over_T=1 / 20,
                               total_over_T=1 / 20, sample_pitch=1)
            series.append([f for _, f in fidelity_scan(config, 1.0)])
        assert series[0] == pytest.approx(series[1], abs=1e-12)

    def test_class_curves_degenerate_in_both(self):
        for kind in ("melon", "antimelon"):
            spec = build_system(kind)
            classes = site_equivalence_classes(spec)
            config = RunConfig(system=spec, dt_over_T=1 / 30, total_over_T=1.0,
                               sample_pitch=5)
            result = run_exact(config)
            spreads = check_class_degeneracy(result.samples, classes, spec.labels)
            assert max(spreads.values()) < 1e-10


class TestInvariantProperties:
    # random basis labels and chi; 1T runs at dt = T/10 keep each example cheap
    LABELS = st.text("01", min_size=8, max_size=8)
    CHIS = st.floats(min_value=0.0, max_value=2 * math.pi)
    VORTICES = st.sampled_from(["melon", "antimelon"])

    @staticmethod
    def series(kind, label, chi=0.0, run=run_trotter):
        config = RunConfig(system=build_system(kind, chi=chi), dt_over_T=1 / 10,
                           total_over_T=1.0, sample_pitch=2, initial_label=label)
        return run(config).samples

    @settings(max_examples=25, deadline=None)
    @given(kind=VORTICES, label=LABELS, chi=CHIS)
    def test_global_flip_keeps_fidelity_series(self, kind, label, chi):
        flipped = "".join("1" if c == "0" else "0" for c in label)
        a, b = (self.series(kind, lbl, chi) for lbl in (label, flipped))
        assert [s.fidelity0 for s in a] == pytest.approx([s.fidelity0 for s in b], abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(label=LABELS)
    def test_melon_antimelon_series_equal_at_zero_chi(self, label):
        a, b = (self.series(kind, label) for kind in ("melon", "antimelon"))
        assert [s.fidelity0 for s in a] == pytest.approx([s.fidelity0 for s in b], abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(kind=VORTICES, label=LABELS, chi=CHIS)
    def test_exact_energy_stays_zero(self, kind, label, chi):
        # in-plane spins leave only XX/YY terms, so <H> = 0 on every basis state
        # and the exact propagator conserves it
        samples = self.series(kind, label, chi, run=run_exact)
        assert max(abs(s.energy) for s in samples) <= 1e-12


    @settings(max_examples=20, deadline=None)
    @given(kind=st.sampled_from(["melon", "xxz"]), label=LABELS, exact=st.booleans())
    def test_runs_stay_in_the_start_parity_sector(self, kind, label, exact):
        # every term flips two sites, so the other prod-Z sector holds exact zeros
        kwargs = {"n": 8, "delta": 2.0} if kind == "xxz" else {}
        config = RunConfig(system=build_system(kind, **kwargs), dt_over_T=1 / 10,
                           total_over_T=1.0, sample_pitch=2, initial_label=label)
        final = (run_exact if exact else run_trotter)(config).final_state.amps
        parity = np.array([bin(i).count("1") % 2 for i in range(1 << 8)])
        assert np.all(final[parity != label.count("1") % 2] == 0.0)
        assert abs(np.vdot(final, final).real - 1.0) < 1e-12


class TestScans:
    def test_two_site_recurrence(self):
        # fidelity of |01> under XX+YY is cos^2(4 tau): period pi/4 in units of T
        spec = build_system("xxz", n=2)
        config = RunConfig(system=spec, dt_over_T=0.005, total_over_T=0.005,
                           sample_pitch=1, initial_label="01", threshold=0.999)
        est = estimate_period(fidelity_scan(config, 1.0), config.threshold, 1.0)
        assert not est.lower_bound
        assert est.period_over_T == pytest.approx(math.pi / 4, abs=0.005)

    def test_no_recurrence_flags_lower_bound(self):
        spec = build_system("xxz", n=6, delta=2.0)
        config = RunConfig(system=spec, dt_over_T=1 / 10, total_over_T=0.1,
                           sample_pitch=1, threshold=0.999)
        est = estimate_period(fidelity_scan(config, 20.0), config.threshold, 20.0)
        assert est.lower_bound
        assert est.period_over_T == 20.0

    def test_scan_rejects_fractional_step_count(self):
        spec = build_system("melon")
        config = RunConfig(system=spec, dt_over_T=0.3, total_over_T=0.3, sample_pitch=1)
        with pytest.raises(ValueError, match="t_max_over_T"):
            fidelity_scan(config, 1.0)
        assert len(fidelity_scan(config, 0.9)) == 4

    @pytest.mark.parametrize("t_max", [-0.3, math.inf, math.nan])
    def test_scan_rejects_bad_t_max(self, t_max):
        config = RunConfig(system=build_system("melon"), dt_over_T=0.3, total_over_T=0.3)
        with pytest.raises(ValueError, match=f"t_max_over_T={t_max} must be finite"):
            fidelity_scan(config, t_max)

    def test_scan_series_shape(self):
        spec = build_system("melon")
        config = RunConfig(system=spec, dt_over_T=0.1, total_over_T=0.1, sample_pitch=1)
        series = fidelity_scan(config, 2.0)
        assert len(series) == 21
        assert series[0] == (0.0, 1.0)


def test_chi_bounds_the_exact_fidelity_at_4T():
    # the README's chi claim: the best melon F(4T) is about 0.30, near
    # chi = 0.18 pi and 0.32 pi, against 0.0121 at the default chi = 0
    def fidelity_at_4T(chi):
        config = RunConfig(system=build_system("melon", chi=chi), dt_over_T=4.0, total_over_T=4.0)
        return run_exact(config).samples[-1].fidelity0

    assert fidelity_at_4T(0.18 * math.pi) > 0.29
    assert fidelity_at_4T(0.32 * math.pi) > 0.29
    assert max(fidelity_at_4T(chi) for chi in np.linspace(0, math.pi / 2, 31)) <= 0.30
    assert fidelity_at_4T(0.0) == pytest.approx(0.0121, abs=5e-5)


def test_rotated_geometry_is_a_relabeling(tmp_path):
    # loading a quarter-turn of the built-in layout through the system file
    # format permutes the sites but leaves the dynamics identical
    base = build_system("melon")
    d = system_to_dict(base)
    for s in d["sites"]:
        x, y = s["pos"]
        s["pos"] = [1 - (y - 1), 1 + (x - 1)]
    d["holes"] = [[1, 1]]
    rotated = system_from_dict(d)
    assert rotated != base
    assert site_equivalence_classes(rotated) == site_equivalence_classes(base)
    for spec in (base, rotated):
        config = RunConfig(system=spec, dt_over_T=1 / 30, total_over_T=1.0,
                           sample_pitch=30)
        fids = [s.fidelity0 for s in run_trotter(config).samples]
        if spec is base:
            reference = fids
        else:
            assert fids == pytest.approx(reference, abs=1e-12)
