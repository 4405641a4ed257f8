import math

import numpy as np
import pytest

from vortexprop.hamiltonian import (
    CONSTANTS,
    Hamiltonian,
    PauliAxis,
    PauliTerm,
    PhysicalConstants,
    build_vortex_hamiltonian,
    build_xxz_hamiltonian,
    dump_hamiltonian,
    hamiltonian_from_list,
    hamiltonian_hash,
    hamiltonian_to_list,
    matrix_of,
    period_from_constants,
    sparse_matrix_of,
)
from vortexprop.lattice import BondKind, build_system


class TestConstants:
    def test_j_from_t_and_u(self):
        assert CONSTANTS.j_ev == pytest.approx(0.0325, abs=1e-15)
        assert CONSTANTS.u_ev == pytest.approx(8 * 0.13)

    def test_period_matches_reported_value(self):
        # 2 hbar / J = 2 * 6.582119569e-16 / 0.0325 s = 40.505 fs
        assert period_from_constants() == pytest.approx(40.5054, abs=0.001)
        assert abs(period_from_constants() - CONSTANTS.period_fs) / CONSTANTS.period_fs < 1e-4

    def test_period_scales_inversely_with_j(self):
        doubled = PhysicalConstants(t_hop_ev=CONSTANTS.t_hop_ev * math.sqrt(2))
        assert period_from_constants(doubled) == pytest.approx(period_from_constants() / 2)


class TestPauliTerm:
    def test_factors_sorted(self):
        t = PauliTerm(1.0, ((3, PauliAxis.X), (0, PauliAxis.Y)))
        assert t.support == (0, 3)

    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(ValueError):
            PauliTerm(1.0, ())
        with pytest.raises(ValueError):
            PauliTerm(1.0, ((0, PauliAxis.X), (0, PauliAxis.Y)))
        with pytest.raises(ValueError):
            PauliTerm(float("nan"), ((0, PauliAxis.X),))

    def test_hamiltonian_bounds_check(self):
        with pytest.raises(ValueError):
            Hamiltonian(2, (PauliTerm(1.0, ((5, PauliAxis.X),)),))


class TestXXZBuilder:
    def test_two_site_xx(self):
        h = build_xxz_hamiltonian(2, 0.0)
        assert [(t.coeff, t.factors) for t in h.terms] == [
            (1.0, ((0, PauliAxis.X), (1, PauliAxis.X))),
            (1.0, ((0, PauliAxis.Y), (1, PauliAxis.Y))),
        ]

    def test_two_site_with_anisotropy(self):
        h = build_xxz_hamiltonian(2, 2.0)
        assert h.terms[-1] == PauliTerm(2.0, ((0, PauliAxis.Z), (1, PauliAxis.Z)))
        assert len(h.terms) == 3

    def test_eight_site_term_count(self):
        assert len(build_xxz_hamiltonian(8, 0.0).terms) == 14
        assert len(build_xxz_hamiltonian(8, 2.0).terms) == 21

    def test_rejects_short_chain(self):
        with pytest.raises(ValueError):
            build_xxz_hamiltonian(1, 0.0)


class TestVortexBuilder:
    def test_aligned_bond_single_xx_term(self):
        # xi_p = xi_q = 0 at theta = pi/2 leaves only the XX term
        import dataclasses
        from vortexprop.lattice import SpinAngles
        melon = build_system("melon")
        angles = SpinAngles(xi=(0.0,) * 8, theta=(math.pi / 2,) * 8)
        aligned = dataclasses.replace(melon, angles=angles)
        h = build_vortex_hamiltonian(aligned)
        assert all(ax is PauliAxis.X for t in h.terms for _, ax in t.factors)
        assert all(t.coeff == pytest.approx(1.0) for t in h.terms)
        assert len(h.terms) == len(melon.bonds)

    def test_orthogonal_bond_drops_out(self):
        import dataclasses
        from vortexprop.lattice import SpinAngles
        melon = build_system("melon")
        # alternate 0 / pi/2: cos or sin vanishes on every pair
        xi = tuple((i % 2) * math.pi / 2 for i in range(8))
        h = build_vortex_hamiltonian(
            dataclasses.replace(melon, angles=SpinAngles(xi=xi, theta=(math.pi / 2,) * 8))
        )
        pos = {s.index: s.pos for s in melon.sites}
        for t in h.terms:
            p, q = t.support
            assert (p + q) % 2 == 0 or abs(t.coeff) < 1e-12

    def test_melon_terms_match_independent_trig(self):
        # oracle: recompute every bond coupling straight from positions
        spec = build_system("melon")
        h = build_vortex_hamiltonian(spec)
        pos = [s.pos for s in spec.sites]
        hx, hy = spec.holes[0].pos
        expected = []
        for b in spec.bonds:
            xp = math.atan2(pos[b.p][1] - hy, pos[b.p][0] - hx)
            xq = math.atan2(pos[b.q][1] - hy, pos[b.q][0] - hx)
            cx = math.cos(xp) * math.cos(xq)
            cy = math.sin(xp) * math.sin(xq)
            if abs(cx) >= 1e-15:
                expected.append((cx, ((b.p, "X"), (b.q, "X"))))
            if abs(cy) >= 1e-15:
                expected.append((cy, ((b.p, "Y"), (b.q, "Y"))))
        got = [(t.coeff, tuple((s, a.value) for s, a in t.factors)) for t in h.terms]
        assert len(got) == len(expected) == 14
        for (ce, fe), (cg, fg) in zip(expected, got):
            assert fe == fg
            assert cg == pytest.approx(ce, abs=1e-14)

    def test_term_order_exchange_first_x_before_y(self):
        spec = build_system("combined")
        h = build_vortex_hamiltonian(spec)
        kinds = {(b.p, b.q): b.kind for b in spec.bonds}
        seen_super = False
        prev = None
        for t in h.terms:
            pair = t.support
            kind = kinds[pair]
            if kind is BondKind.SUPEREXCHANGE:
                seen_super = True
            else:
                assert not seen_super, "exchange term after a superexchange term"
            if prev == pair:
                axes = [a for _, a in t.factors]
                assert axes[0] is not PauliAxis.X  # second term of a bond is Y or Z
            prev = pair

    def test_rejects_xxz_kind(self):
        with pytest.raises(ValueError):
            build_vortex_hamiltonian(build_system("xxz", n=4))


class TestMatrixOf:
    def test_single_x(self):
        h = Hamiltonian(1, (PauliTerm(1.0, ((0, PauliAxis.X),)),))
        assert np.allclose(matrix_of(h), [[0, 1], [1, 0]])

    def test_zz_diagonal(self):
        h = Hamiltonian(2, (PauliTerm(1.0, ((0, PauliAxis.Z), (1, PauliAxis.Z))),))
        assert np.allclose(matrix_of(h), np.diag([1, -1, -1, 1]))

    def test_bit_order_little_endian(self):
        # Z on site 0 alternates sign with the least significant bit
        h = Hamiltonian(2, (PauliTerm(1.0, ((0, PauliAxis.Z),)),))
        assert np.allclose(np.diag(matrix_of(h)), [1, -1, 1, -1])

    @pytest.mark.parametrize("kind", ["melon", "antimelon", "combined"])
    def test_vortex_diagonal_exactly_zero(self, kind):
        h = build_vortex_hamiltonian(build_system(kind))
        if h.n_sites > 10:
            m = sparse_matrix_of(h)
            assert np.max(np.abs(m.diagonal())) == 0.0
        else:
            assert np.max(np.abs(np.diag(matrix_of(h)))) == 0.0

    @pytest.mark.parametrize("builder", [
        lambda: build_vortex_hamiltonian(build_system("melon")),
        lambda: build_xxz_hamiltonian(5, 2.0),
        lambda: build_vortex_hamiltonian(build_system("melon", chi=0.37)),
    ])
    def test_hermitian(self, builder):
        m = matrix_of(builder())
        assert np.max(np.abs(m - m.conj().T)) == 0.0

    def test_sparse_matches_dense(self):
        h = build_vortex_hamiltonian(build_system("melon"))
        assert np.max(np.abs(sparse_matrix_of(h).toarray() - matrix_of(h))) < 1e-14

    def test_sparse_matches_dense_on_mixed_strings(self):
        # single Y factors and X/Y/Z mixtures exercise every phase of the action
        rng = np.random.default_rng(17)
        axes = (PauliAxis.X, PauliAxis.Y, PauliAxis.Z)
        terms = []
        for _ in range(30):
            sites = sorted(rng.choice(5, size=int(rng.integers(1, 6)), replace=False).tolist())
            terms.append(PauliTerm(float(rng.uniform(-2, 2)),
                                   tuple((s, axes[rng.integers(3)]) for s in sites)))
        h = Hamiltonian(5, tuple(terms))
        assert np.max(np.abs(sparse_matrix_of(h).toarray() - matrix_of(h))) < 1e-14

    def test_size_guard(self):
        h = Hamiltonian(14, (PauliTerm(1.0, ((0, PauliAxis.X),)),))
        with pytest.raises(ValueError):
            matrix_of(h)

    def test_spectrum_invariant_under_quarter_turn_chi(self):
        # global chi shifts by multiples of pi/2 are unitarily equivalent
        # (lattice relabeling plus a quarter-turn spin rotation); generic chi
        # changes the spectrum, see the decisions notes
        base = np.linalg.eigvalsh(matrix_of(build_vortex_hamiltonian(build_system("melon"))))
        for chi in (math.pi / 2, math.pi, 3 * math.pi / 2):
            ev = np.linalg.eigvalsh(
                matrix_of(build_vortex_hamiltonian(build_system("melon", chi=chi)))
            )
            assert np.max(np.abs(ev - base)) < 1e-10

    @pytest.mark.parametrize("chi", [0.23, 1.01])
    def test_chi_sweep_domain_reduction(self, chi):
        # fid-relevant spectra repeat every pi/2 in chi and mirror under
        # chi -> -chi, so a sweep over [0, pi/2) covers the whole family
        def spectrum(c):
            return np.linalg.eigvalsh(
                matrix_of(build_vortex_hamiltonian(build_system("melon", chi=c)))
            )

        base = spectrum(chi)
        assert np.max(np.abs(spectrum(chi + math.pi / 2) - base)) < 1e-10
        assert np.max(np.abs(spectrum(-chi) - base)) < 1e-10


class TestDumpFormat:
    def test_list_round_trip(self):
        h = build_vortex_hamiltonian(build_system("melon"))
        data = hamiltonian_to_list(h)
        assert isinstance(data, list)
        assert set(data[0]) == {"coeff", "ops"}
        again = hamiltonian_from_list(data, n_sites=h.n_sites)
        assert again == h

    def test_infers_site_count(self):
        h = build_xxz_hamiltonian(4, 0.5)
        assert hamiltonian_from_list(hamiltonian_to_list(h)).n_sites == 4

    def test_empty_list_needs_site_count(self):
        with pytest.raises(ValueError, match="n_sites"):
            hamiltonian_from_list([])
        h = hamiltonian_from_list([], n_sites=3)
        assert h.terms == ()
        assert sparse_matrix_of(h).nnz == 0

    def test_hash_stable(self):
        h = build_vortex_hamiltonian(build_system("melon"))
        assert hamiltonian_hash(h) == hamiltonian_hash(h)
        assert hamiltonian_hash(h) != hamiltonian_hash(build_xxz_hamiltonian(8, 0.0))
        assert len(dump_hamiltonian(h)) > 0
