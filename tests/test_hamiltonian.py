import dataclasses
import math

import numpy as np
import pytest

from vortexprop.hamiltonian import (
    CONSTANTS,
    Hamiltonian,
    PauliAxis,
    PauliTerm,
    PhysicalConstants,
    build_hamiltonian,
    dump_hamiltonian,
    hamiltonian_hash,
    hamiltonian_to_list,
    matrix_of,
    sparse_matrix_of,
)
from vortexprop.lattice import BondKind, build_system

from oracles import hamiltonian_from_list, random_term


class TestConstants:
    def test_j_from_t_and_u(self):
        assert CONSTANTS.j_ev == pytest.approx(0.0325, abs=1e-15)
        assert CONSTANTS.u_ev == pytest.approx(8 * 0.13)

    def test_period_matches_reported_value(self):
        # 2 hbar / J = 2 * 6.582119569e-16 / 0.0325 s = 40.505 fs
        assert CONSTANTS.period_fs == pytest.approx(40.5054, abs=0.001)

    def test_period_scales_inversely_with_j(self):
        doubled = PhysicalConstants(t_hop_ev=CONSTANTS.t_hop_ev * math.sqrt(2))
        assert doubled.period_fs == pytest.approx(CONSTANTS.period_fs / 2)


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
        h = build_hamiltonian(build_system("xxz", n=2))
        assert [(t.coeff, t.factors) for t in h.terms] == [
            (1.0, ((0, PauliAxis.X), (1, PauliAxis.X))),
            (1.0, ((0, PauliAxis.Y), (1, PauliAxis.Y))),
        ]

    def test_two_site_with_anisotropy(self):
        h = build_hamiltonian(build_system("xxz", n=2, delta=2.0))
        assert h.terms[-1] == PauliTerm(2.0, ((0, PauliAxis.Z), (1, PauliAxis.Z)))
        assert len(h.terms) == 3

    def test_eight_site_term_count(self):
        assert len(build_hamiltonian(build_system("xxz", n=8)).terms) == 14
        assert len(build_hamiltonian(build_system("xxz", n=8, delta=2.0)).terms) == 21

    def test_rejects_short_chain(self):
        with pytest.raises(ValueError):
            build_system("xxz", n=1)


class TestVortexBuilder:
    def test_aligned_bond_single_xx_term(self):
        # xi_p = xi_q = 0 leaves only the XX term
        melon = build_system("melon")
        h = build_hamiltonian(dataclasses.replace(melon, xi=(0.0,) * 8))
        assert all(ax is PauliAxis.X for t in h.terms for _, ax in t.factors)
        assert all(t.coeff == pytest.approx(1.0) for t in h.terms)
        assert len(h.terms) == len(melon.bonds)

    def test_orthogonal_bond_drops_out(self):
        melon = build_system("melon")
        # alternate 0 / pi/2: cos or sin vanishes on every pair
        xi = tuple((i % 2) * math.pi / 2 for i in range(8))
        h = build_hamiltonian(dataclasses.replace(melon, xi=xi))
        for t in h.terms:
            p, q = t.support
            assert (p + q) % 2 == 0 or abs(t.coeff) < 1e-12

    def test_term_order_exchange_first_x_before_y(self):
        spec = build_system("combined")
        h = build_hamiltonian(spec)
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


# winding per hole, written out here rather than read from the spec
_WINDING = {"melon": (1,), "antimelon": (-1,), "combined": (1, -1)}


@pytest.mark.parametrize("kind, kwargs, n_terms", [
    pytest.param("melon", {}, 14, id="melon"),
    pytest.param("antimelon", {}, 14, id="antimelon"),
    pytest.param("combined", {}, 26, id="combined"),
    pytest.param("melon", {"chi": 0.3}, 32, id="melon-chi0.3"),
    pytest.param("antimelon", {"chi": 0.3}, 32, id="antimelon-chi0.3"),
    pytest.param("combined", {"chi": 0.3}, 60, id="combined-chi0.3"),
    pytest.param("xxz", {"n": 8, "delta": 0.0}, 14, id="xxz-delta0"),
    pytest.param("xxz", {"n": 8, "delta": 2.0}, 21, id="xxz-delta2"),
])
def test_terms_match_independent_couplings(kind, kwargs, n_terms):
    # oracle: recompute every bond coupling straight from positions, the
    # nearest hole (ties to the lower index) and its winding
    spec = build_system(kind, **kwargs)
    pos = [s.pos for s in spec.sites]
    holes = [h.pos for h in spec.holes]
    chi = kwargs.get("chi", 0.0)

    def xi(p):
        x, y = pos[p]
        d2 = [(x - hx) ** 2 + (y - hy) ** 2 for hx, hy in holes]
        k = min(range(len(holes)), key=lambda i: (d2[i], i))
        return _WINDING[kind][k] * math.atan2(y - holes[k][1], x - holes[k][0]) + chi

    expected = []
    for b in spec.bonds:
        if kind == "xxz":
            cs = (1.0, 1.0, kwargs["delta"])
        else:
            xp, xq = xi(b.p), xi(b.q)
            cs = (math.cos(xp) * math.cos(xq), math.sin(xp) * math.sin(xq), 0.0)
        for c, ax in zip(cs, "XYZ"):
            if abs(c) >= 1e-15:
                expected.append((c, ((b.p, ax), (b.q, ax))))
    got = [(t.coeff, tuple((s, a.value) for s, a in t.factors))
           for t in build_hamiltonian(spec).terms]
    assert len(got) == len(expected) == n_terms
    for (ce, fe), (cg, fg) in zip(expected, got):
        assert fe == fg
        assert cg == pytest.approx(ce, abs=1e-14)


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
        h = build_hamiltonian(build_system(kind))
        if h.n_sites > 10:
            m = sparse_matrix_of(h)
            assert np.max(np.abs(m.diagonal())) == 0.0
        else:
            assert np.max(np.abs(np.diag(matrix_of(h)))) == 0.0

    @pytest.mark.parametrize("builder", [
        lambda: build_hamiltonian(build_system("melon")),
        lambda: build_hamiltonian(build_system("xxz", n=5, delta=2.0)),
        lambda: build_hamiltonian(build_system("melon", chi=0.37)),
    ])
    def test_hermitian(self, builder):
        m = matrix_of(builder())
        assert np.max(np.abs(m - m.conj().T)) == 0.0

    def test_sparse_matches_dense(self):
        h = build_hamiltonian(build_system("melon"))
        assert np.max(np.abs(sparse_matrix_of(h).toarray() - matrix_of(h))) < 1e-14

    def test_sparse_matches_dense_on_mixed_strings(self):
        # single Y factors and X/Y/Z mixtures exercise every phase of the action
        rng = np.random.default_rng(17)
        h = Hamiltonian(5, tuple(random_term(5, rng) for _ in range(30)))
        assert np.max(np.abs(sparse_matrix_of(h).toarray() - matrix_of(h))) < 1e-14

    def test_size_guard(self):
        h = Hamiltonian(14, (PauliTerm(1.0, ((0, PauliAxis.X),)),))
        with pytest.raises(ValueError):
            matrix_of(h)

    def test_spectrum_invariant_under_quarter_turn_chi(self):
        # global chi shifts by multiples of pi/2 are unitarily equivalent
        # (lattice relabeling plus a quarter-turn spin rotation); generic chi
        # changes the spectrum, see the decisions notes
        base = np.linalg.eigvalsh(matrix_of(build_hamiltonian(build_system("melon"))))
        for chi in (math.pi / 2, math.pi, 3 * math.pi / 2):
            ev = np.linalg.eigvalsh(
                matrix_of(build_hamiltonian(build_system("melon", chi=chi)))
            )
            assert np.max(np.abs(ev - base)) < 1e-10

    @pytest.mark.parametrize("chi", [0.23, 1.01])
    def test_chi_sweep_domain_reduction(self, chi):
        # fid-relevant spectra repeat every pi/2 in chi and mirror under
        # chi -> -chi, so a sweep over [0, pi/2) covers the whole family
        def spectrum(c):
            return np.linalg.eigvalsh(
                matrix_of(build_hamiltonian(build_system("melon", chi=c)))
            )

        base = spectrum(chi)
        assert np.max(np.abs(spectrum(chi + math.pi / 2) - base)) < 1e-10
        assert np.max(np.abs(spectrum(-chi) - base)) < 1e-10


class TestDumpFormat:
    def test_list_round_trip(self):
        h = build_hamiltonian(build_system("melon"))
        data = hamiltonian_to_list(h)
        assert isinstance(data, list)
        assert set(data[0]) == {"coeff", "ops"}
        again = hamiltonian_from_list(data, n_sites=h.n_sites)
        assert again == h

    def test_infers_site_count(self):
        h = build_hamiltonian(build_system("xxz", n=4, delta=0.5))
        assert hamiltonian_from_list(hamiltonian_to_list(h)).n_sites == 4

    def test_empty_list_needs_site_count(self):
        h = hamiltonian_from_list([], n_sites=3)
        assert h.terms == ()
        assert sparse_matrix_of(h).nnz == 0

    def test_rejects_negative_site(self):
        # it would build a 0-site Hamiltonian that no kernel can act on
        with pytest.raises(ValueError, match="negative site"):
            PauliTerm(1.0, ((-1, PauliAxis.X),))

    def test_hash_stable(self):
        h = build_hamiltonian(build_system("melon"))
        assert hamiltonian_hash(h) == hamiltonian_hash(h)
        assert hamiltonian_hash(h) != hamiltonian_hash(build_hamiltonian(build_system("xxz", n=8)))
        assert len(dump_hamiltonian(h)) > 0
