import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexprop.evolve import (
    TRACK_TOP_K,
    RunConfig,
    default_initial_label,
    fidelity_scan,
    geometry_sweep,
    run_exact,
    run_trotter,
    semiclassical_period_scan,
)
from vortexprop.circuit import compile_trotter_step
from vortexprop.hamiltonian import build_hamiltonian
from vortexprop.lattice import build_system, site_equivalence_classes
from vortexprop.observables import check_class_degeneracy
from vortexprop.statevector import (
    apply_circuit,
    fidelity,
    init_basis_state,
    max_amplitude_diff,
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

    def test_step_guard(self):
        spec = build_system("melon")
        with pytest.raises(ValueError):
            RunConfig(system=spec, dt_over_T=1e-9, total_over_T=100.0)

    def test_rejects_wrong_initial_length(self):
        spec = build_system("melon")
        config = RunConfig(system=spec, dt_over_T=0.5, total_over_T=1.0,
                           initial_label="010")
        with pytest.raises(ValueError):
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
        assert abs(result.final_state.norm_sq() - 1.0) < 1e-10

    def test_default_tracking_rule(self):
        spec = build_system("melon")
        config = RunConfig(system=spec, dt_over_T=1 / 60, total_over_T=1.0,
                           sample_pitch=10)
        result = run_trotter(config)
        assert result.tracked[:4] == ("10101010", "01010101", "00000000", "11111111")
        assert len(result.tracked) == 4 + TRACK_TOP_K == 12
        assert len(set(result.tracked)) == 12

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
        replay = psi0.copy()
        for _ in range(n_steps):
            apply_circuit(replay, circuit)
        run = run_trotter(config).final_state
        assert np.max(np.abs(run.amps - replay.amps)) < 1e-12
        scan = fidelity_scan(config, n_steps * dt)
        assert scan[-1][1] == pytest.approx(fidelity(psi0, replay), abs=1e-12)


class TestRunExact:
    def test_first_sample_matches_trotter(self):
        spec = build_system("melon")
        config = RunConfig(system=spec, dt_over_T=1 / 20, total_over_T=0.5, sample_pitch=2,
                           tracked=("10101010", "01010101"))
        t = run_trotter(config).samples[0]
        e = run_exact(config).samples[0]
        assert t == e

    def test_two_site_closed_form(self):
        # H = XX + YY acts as 2*sigma_x on span{|01>, |10>}:
        # |01> evolves to cos(4 tau)|01> - i sin(4 tau)|10>
        spec = build_system("xxz", n=2)
        config = RunConfig(system=spec, dt_over_T=0.05, total_over_T=0.3,
                           sample_pitch=1, initial_label="01",
                           tracked=("01", "10"))
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

    def test_trotter_error_shrinks_linearly(self):
        spec = build_system("melon")
        exact = run_exact(RunConfig(system=spec, dt_over_T=1.0, total_over_T=1.0,
                                    sample_pitch=1)).final_state
        errs = []
        for m in (40, 80):
            config = RunConfig(system=spec, dt_over_T=1 / m, total_over_T=1.0,
                               sample_pitch=m)
            errs.append(max_amplitude_diff(exact, run_trotter(config).final_state))
        assert 1.7 <= errs[0] / errs[1] <= 2.3

    def test_size_guard(self):
        spec = build_system("xxz", n=14)
        config = RunConfig(system=spec, dt_over_T=0.5, total_over_T=0.5)
        with pytest.raises(ValueError):
            run_exact(config)


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
            spreads = check_class_degeneracy(result.samples, classes, result.site_labels)
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
        # theta = pi/2 leaves only XX/YY terms, so <H> = 0 on every basis state
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
        est = semiclassical_period_scan(config, 1.0)
        assert not est.lower_bound
        assert est.period_over_T == pytest.approx(math.pi / 4, abs=0.005)

    def test_no_recurrence_flags_lower_bound(self):
        spec = build_system("xxz", n=6, delta=2.0)
        config = RunConfig(system=spec, dt_over_T=1 / 10, total_over_T=0.1,
                           sample_pitch=1, threshold=0.999)
        est = semiclassical_period_scan(config, 20.0)
        assert est.lower_bound
        assert est.period_over_T == 20.0

    def test_scan_rejects_fractional_step_count(self):
        spec = build_system("melon")
        config = RunConfig(system=spec, dt_over_T=0.3, total_over_T=0.3, sample_pitch=1)
        with pytest.raises(ValueError, match="t_max_over_T"):
            fidelity_scan(config, 1.0)
        assert len(fidelity_scan(config, 0.9)) == 4

    def test_scan_series_shape(self):
        spec = build_system("melon")
        config = RunConfig(system=spec, dt_over_T=0.1, total_over_T=0.1, sample_pitch=1)
        series = fidelity_scan(config, 2.0)
        assert len(series) == 21
        assert series[0] == (0.0, 1.0)


def test_geometry_sweep_reports_fidelity_per_chi():
    out = geometry_sweep("melon", [0.0, 0.3], dt_over_T=1 / 20, total_over_T=1.0)
    assert [chi for chi, _ in out] == [0.0, 0.3]
    assert all(0.0 <= f <= 1.0 for _, f in out)
    # chi genuinely changes the dynamics
    assert abs(out[0][1] - out[1][1]) > 1e-6


def test_rotated_geometry_is_a_relabeling(tmp_path):
    # loading a quarter-turn of the built-in layout through the system file
    # format permutes the sites but leaves the dynamics identical
    from vortexprop.lattice import system_from_dict, system_to_dict

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
