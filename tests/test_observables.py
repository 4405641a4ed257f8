import math

import numpy as np
import pytest

from vortexprop.evolve import RunConfig, run_exact, run_trotter
from vortexprop.hamiltonian import build_hamiltonian
from vortexprop.lattice import build_system
from vortexprop.observables import (
    SampleRecord,
    csv_header,
    estimate_period,
    record_sample,
    write_samples_csv,
)
from vortexprop.statevector import PauliKernel, index_to_label, label_to_index

from oracles import (
    check_amplitude_symmetry,
    check_class_degeneracy,
    local_maxima,
    read_samples_csv,
    site_equivalence_classes,
)


def make_record(t, norms=None, m_z=(0.0,), mag=0.0):
    return SampleRecord(
        step=0, time_over_T=t, amp_norms=norms or {}, m_z=m_z,
        magnetization=mag, svinm=0.0, energy=0.0, fidelity0=1.0,
    )


class TestRecordSample:
    def setup_method(self):
        self.spec = build_system("melon")
        h = build_hamiltonian(self.spec)
        self.kernel = PauliKernel(h.n_sites, h.terms, label_to_index("10101010"))
        self.psi0 = self.kernel.basis(self.kernel.start)

    def test_initial_moments_alternate(self):
        rec = record_sample(self.psi0, self.kernel, {"10101010": self.kernel.position(0b10101010)},
                            0, 1 / 300, self.kernel.expectation(self.psi0))
        assert rec.m_z == pytest.approx((1, -1, 1, -1, 1, -1, 1, -1))
        assert rec.magnetization == pytest.approx(0.0)
        assert rec.fidelity0 == 1.0
        assert rec.amp_norms["10101010"] == 1.0

    def test_initial_energy_zero(self):
        rec = record_sample(self.psi0, self.kernel, {}, 0, 1 / 300,
                            self.kernel.expectation(self.psi0))
        assert abs(rec.energy) < 1e-12

    def test_tracked_label_outside_the_sector_reads_zero(self):
        assert self.kernel.position(0b10101011) is None
        rec = record_sample(self.psi0, self.kernel, {"10101011": None}, 0, 1 / 300,
                            self.kernel.expectation(self.psi0))
        assert rec.amp_norms["10101011"] == 0.0

    def test_svinm_scales_magnetization(self):
        config = RunConfig(system=self.spec, dt_over_T=1 / 50, total_over_T=0.2,
                           sample_pitch=10)
        for rec in run_trotter(config).samples:
            assert rec.svinm == pytest.approx(rec.magnetization * 3.5662e-3)

    def test_site_moments_match_pauli_expectations(self):
        import numpy as np
        from vortexprop.hamiltonian import PauliAxis, PauliTerm
        from vortexprop.observables import site_moments_z
        from vortexprop.statevector import StateVector, expect_pauli

        rng = np.random.default_rng(41)
        amps = rng.normal(size=32) + 1j * rng.normal(size=32)
        state = StateVector(5, amps / np.linalg.norm(amps))
        via_probs = site_moments_z(state.amps, PauliKernel(5, ()))
        via_pauli = [expect_pauli(state, PauliTerm(1.0, ((k, PauliAxis.Z),)))
                     for k in range(5)]
        assert via_probs == pytest.approx(via_pauli, abs=1e-12)
        # on a parity sector the same moments come from half the amplitudes
        kernel = PauliKernel(5, (PauliTerm(1.0, ((0, PauliAxis.X), (3, PauliAxis.Y))),), 0b00110)
        sector = kernel.embed(kernel.basis(0b00110) * 0.6 + kernel.basis(0b10100) * 0.8j)
        want = [expect_pauli(sector, PauliTerm(1.0, ((k, PauliAxis.Z),))) for k in range(5)]
        got = site_moments_z(sector.amps[kernel.index], kernel)
        assert got == pytest.approx(want, abs=1e-12)

    def test_tracked_norms_square_sum_to_one(self):
        # the default rule tracks every basis state of a 3-site chain, which
        # captures all probability
        spec = build_system("xxz", n=3, delta=0.5)
        config = RunConfig(system=spec, dt_over_T=1 / 20, total_over_T=0.5, sample_pitch=2)
        result = run_trotter(config)
        assert sorted(result.tracked) == [index_to_label(i, 3) for i in range(8)]
        for rec in result.samples:
            assert sum(v * v for v in rec.amp_norms.values()) == pytest.approx(1.0, abs=1e-10)


class TestEstimatePeriod:
    def test_synthetic_two_level(self):
        period = 3.7
        ts = np.arange(0, 8, 0.01)
        series = [(t, math.cos(math.pi * t / period) ** 2) for t in ts]
        est = estimate_period(series, 0.999, 8.0)
        assert not est.lower_bound
        assert abs(est.period_over_T - period) <= 0.01

    def test_lower_bound_flag(self):
        series = [(t, 0.3) for t in np.arange(0, 5, 0.1)]
        est = estimate_period(series, 0.999, 5.0)
        assert est.lower_bound
        assert est.period_over_T == 5.0
        assert str(est) == ">= 5"

    def test_initial_plateau_not_a_recurrence(self):
        # fidelity starts at 1 and decays; the t=0 samples must not count
        series = [(0.0, 1.0), (0.1, 0.9995), (0.2, 0.5), (0.3, 0.2)]
        est = estimate_period(series, 0.999, 0.3)
        assert est.lower_bound

    def test_refines_to_local_maximum(self):
        series = [(0.0, 1.0), (1.0, 0.1), (2.0, 0.9992), (3.0, 0.9997), (4.0, 0.95)]
        est = estimate_period(series, 0.999, 4.0)
        assert est.period_over_T == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_period([], 0.999, 1.0)
        with pytest.raises(ValueError):
            estimate_period([(0, 1.0)], 1.5, 1.0)


def test_local_maxima():
    series = [(0, 1.0), (1, 0.2), (2, 0.8), (3, 0.3), (4, 0.9), (5, 0.1)]
    assert local_maxima(series) == [(2, 0.8), (4, 0.9)]


class TestAmplitudeSymmetry:
    def test_constant_series_symmetric(self):
        samples = [make_record(t, {"00": 0.5}) for t in np.arange(0, 4.1, 0.5)]
        assert check_amplitude_symmetry(samples, 2.0) == 0.0

    def test_single_perturbation_measured(self):
        samples = [make_record(t, {"00": 0.5}) for t in np.arange(0, 4.1, 0.5)]
        samples[1].amp_norms["00"] += 0.125  # mirror partner of index 7
        assert check_amplitude_symmetry(samples, 2.0) == pytest.approx(0.125)

    def test_palindromic_series_exactly_symmetric(self):
        values = [0.1, 0.4, 0.9, 0.4, 0.1]
        samples = [make_record(t, {"0": v}) for t, v in zip(np.arange(0, 2.1, 0.5), values)]
        assert check_amplitude_symmetry(samples, 1.0) == 0.0

    def test_insufficient_coverage(self):
        samples = [make_record(t, {"0": 0.1}) for t in (0.0, 0.5)]
        with pytest.raises(ValueError):
            check_amplitude_symmetry(samples, 2.0)
        # enough samples for the center but the series stops short of 2*center
        samples = [make_record(t, {"0": 0.1}) for t in np.arange(0, 3.1, 0.5)]
        with pytest.raises(ValueError):
            check_amplitude_symmetry(samples, 2.0)
        # center beyond the sampled range
        with pytest.raises(ValueError):
            check_amplitude_symmetry(samples, 9.0)


class TestClassDegeneracy:
    def test_singleton_class_zero(self):
        samples = [make_record(t, m_z=(0.3, -0.2)) for t in (0.0, 1.0)]
        out = check_class_degeneracy(samples, [("a",)], ["a", "b"])
        assert out[("a",)] == 0.0

    def test_spread_measured(self):
        samples = [make_record(0.0, m_z=(0.5, 0.1)), make_record(1.0, m_z=(0.4, 0.4))]
        out = check_class_degeneracy(samples, [("a", "b")], ["a", "b"])
        assert out[("a", "b")] == pytest.approx(0.4)

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            check_class_degeneracy([make_record(0.0)], [("z",)], ["a"])

    def test_melon_vertex_class_degenerate(self):
        # exact under the exact propagator; the fixed Trotter term order breaks
        # the lattice symmetry only at O(dt^2)
        spec = build_system("melon")
        classes = site_equivalence_classes(spec)
        config = RunConfig(system=spec, dt_over_T=1 / 60, total_over_T=1.0, sample_pitch=6)
        result = run_exact(config)
        spreads = check_class_degeneracy(result.samples, classes, spec.labels)
        assert max(spreads.values()) < 1e-10
        trotter = run_trotter(config)
        spreads = check_class_degeneracy(trotter.samples, classes, spec.labels)
        assert max(spreads.values()) < 0.05


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        spec = build_system("melon")
        config = RunConfig(system=spec, dt_over_T=1 / 30, total_over_T=0.5, sample_pitch=3)
        result = run_trotter(config)
        path = tmp_path / "samples.csv"
        write_samples_csv(path, result.samples, spec.labels, result.tracked)
        header, rows = read_samples_csv(path)
        assert header == csv_header(spec.labels, result.tracked)
        assert rows.shape == (len(result.samples), len(header))
        for i, rec in enumerate(result.samples):
            assert rows[i, 0] == rec.step
            assert rows[i, 2] == rec.energy  # exact, 17 significant digits
            assert rows[i, 5] == rec.fidelity0
            got_mz = rows[i, 6:14]
            assert np.array_equal(got_mz, np.array(rec.m_z))

    def test_column_order(self):
        header = csv_header(["a", "b"], ["00", "11"])
        assert header == [
            "step", "t_over_T", "energy", "magnetization", "svinm_physical", "fidelity0",
            "mz_a", "mz_b", "amp_00", "amp_11",
        ]
