import json
import math
import re

import pytest

from vortexprop.lattice import BondKind, build_system, load_system, system_from_dict

from oracles import dump_system, point_symmetries, site_equivalence_classes, system_to_dict

TWO_PI = 2 * math.pi


def bond_pairs(spec, kind):
    return [(b.p, b.q) for b in spec.bonds if b.kind is kind]


class TestBuildSystem:
    def test_melon_counts(self):
        spec = build_system("melon")
        assert spec.n_sites == 8
        assert len(spec.holes) == 1
        assert spec.labels == tuple("abcdefgh")
        assert len(bond_pairs(spec, BondKind.EXCHANGE)) == 8
        assert len(bond_pairs(spec, BondKind.SUPEREXCHANGE)) == 8

    def test_melon_ring_is_closed(self):
        spec = build_system("melon")
        ring = bond_pairs(spec, BondKind.EXCHANGE)
        # every site touches exactly two exchange bonds
        degree = {i: 0 for i in range(8)}
        for p, q in ring:
            degree[p] += 1
            degree[q] += 1
        assert all(d == 2 for d in degree.values())

    def test_combined_counts(self):
        spec = build_system("combined")
        assert spec.n_sites == 13
        assert len(spec.holes) == 2
        assert spec.labels == tuple("abcdefghijklm")
        assert spec.sites[5].label == "f"
        # f sits at the geometric center of the 3x5 footprint
        xs = [s.pos[0] for s in spec.sites]
        ys = [s.pos[1] for s in spec.sites]
        center = ((min(xs) + max(xs)) / 2, (min(ys) + max(ys)) / 2)
        assert spec.sites[5].pos == center

    def test_indices_dense_and_labels_unique(self):
        for kind in ("melon", "antimelon", "combined"):
            spec = build_system(kind)
            assert len({s.pos for s in spec.sites}) == spec.n_sites
            assert len(set(spec.labels)) == spec.n_sites

    def test_holes_are_not_sites(self):
        for kind in ("melon", "antimelon", "combined"):
            spec = build_system(kind)
            positions = {s.pos for s in spec.sites}
            assert all(h not in positions for h in spec.holes)

    def test_xxz_minimal_chain(self):
        spec = build_system("xxz", n=2)
        assert spec.labels == ("a", "b")
        assert [(b.p, b.q, b.kind) for b in spec.bonds] == [(0, 1, BondKind.EXCHANGE)]
        assert spec.holes == ()

    def test_xxz_chain_bonds(self):
        spec = build_system("xxz", n=8, delta=2.0)
        assert bond_pairs(spec, BondKind.EXCHANGE) == [(i, i + 1) for i in range(7)]
        assert bond_pairs(spec, BondKind.SUPEREXCHANGE) == []
        assert spec.delta == 2.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            build_system("hexagon")
        with pytest.raises(ValueError):
            build_system("xxz", n=1)
        with pytest.raises(ValueError):
            build_system("xxz")

    def test_bond_distances(self):
        for kind in ("melon", "combined"):
            spec = build_system(kind)
            pos = [s.pos for s in spec.sites]
            holes = set(spec.holes)
            for b in spec.bonds:
                dx = pos[b.q][0] - pos[b.p][0]
                dy = pos[b.q][1] - pos[b.p][1]
                d2 = dx * dx + dy * dy
                if b.kind is BondKind.EXCHANGE:
                    assert d2 == 1
                else:
                    mid = ((pos[b.p][0] + pos[b.q][0]) / 2, (pos[b.p][1] + pos[b.q][1]) / 2)
                    assert d2 == 2 or mid in holes

    def test_across_hole_pairs_melon(self):
        spec = build_system("melon")
        sup = bond_pairs(spec, BondKind.SUPEREXCHANGE)
        # the four opposite-site pairs through the hole
        for pair in [(0, 4), (1, 5), (2, 6), (3, 7)]:
            assert pair in sup

    def test_deterministic_construction(self):
        assert build_system("combined") == build_system("combined")


class TestAngles:
    def test_melon_site_due_east_has_zero_xi(self):
        spec = build_system("melon")
        east = next(k for k, s in enumerate(spec.sites) if s.pos == (2, 1))
        assert spec.xi[east] == 0.0

    def test_antimelon_site_due_north(self):
        spec = build_system("antimelon")
        north = next(k for k, s in enumerate(spec.sites) if s.pos == (1, 2))
        assert spec.xi[north] == pytest.approx(-math.pi / 2)

    def test_melon_xi_values_cover_eighths(self):
        # independent enumeration of atan2 over the 8 perimeter offsets
        spec = build_system("melon")
        expected = sorted(
            math.atan2(y - 1, x - 1) % TWO_PI for (x, y) in (s.pos for s in spec.sites)
        )
        assert expected == pytest.approx([k * math.pi / 4 for k in range(8)])
        got = sorted(x % TWO_PI for x in spec.xi)
        assert got == pytest.approx(expected)

    def test_xxz_angles_zero(self):
        spec = build_system("xxz", n=4)
        assert spec.xi == (0.0,) * 4

    def test_chi_shifts_all_angles(self):
        base = build_system("melon")
        shifted = build_system("melon", chi=0.7)
        for a, b in zip(base.xi, shifted.xi):
            assert b - a == pytest.approx(0.7)

    def test_rotation_equivariance(self):
        # rotating the lattice by pi/2 about the core shifts every xi by w*pi/2
        for kind, w in (("melon", 1), ("antimelon", -1)):
            spec = build_system(kind)
            xi = {s.pos: v for s, v in zip(spec.sites, spec.xi)}
            for (x, y), v in xi.items():
                rx, ry = 1 - (y - 1), 1 + (x - 1)
                delta = (xi[(rx, ry)] - v - w * math.pi / 2) % TWO_PI
                assert min(delta, TWO_PI - delta) == pytest.approx(0.0, abs=1e-12)

    def test_combined_shared_sites_take_first_core(self):
        spec = build_system("combined")
        by_label = {s.label: i for i, s in enumerate(spec.sites)}
        # f is equidistant from both holes; tie-break assigns the first (w=+1)
        assert spec.xi[by_label["f"]] == pytest.approx(math.pi / 2)


class TestEquivalenceClasses:
    def test_melon_rotation_orbits(self):
        classes = site_equivalence_classes(build_system("melon"))
        assert classes == [("a", "c", "e", "g"), ("b", "d", "f", "h")]

    def test_combined_classes(self):
        # the README's five classes, exactly
        classes = site_equivalence_classes(build_system("combined"))
        assert classes == [("a", "c", "j", "l"), ("b", "k"), ("d", "h", "i", "m"),
                           ("e", "g"), ("f",)]

    def test_xxz_unsupported(self):
        with pytest.raises(ValueError):
            site_equivalence_classes(build_system("xxz", n=4))

    @pytest.mark.parametrize("chi", [0.0, 0.3, math.pi / 4])
    @pytest.mark.parametrize("kind", ["melon", "antimelon", "combined"])
    def test_point_symmetries_form_a_group(self, kind, chi):
        # site_equivalence_classes reads each site's images as its orbit,
        # which holds only for a group: identity, compositions and inverses
        spec = build_system(kind, chi=chi)
        perms = point_symmetries(spec)
        group = set(perms)
        assert len(group) == len(perms)
        assert tuple(range(spec.n_sites)) in group
        for g in perms:
            assert tuple(sorted(range(spec.n_sites), key=g.__getitem__)) in group
            for h in perms:
                assert tuple(g[h[i]] for i in range(spec.n_sites)) in group

    def test_bond_list_symmetric_under_point_group(self):
        for kind in ("melon", "antimelon", "combined"):
            spec = build_system(kind)
            bond_set = {(b.p, b.q, b.kind) for b in spec.bonds}
            perms = point_symmetries(spec)
            assert len(perms) >= 2  # identity plus at least one nontrivial op
            for perm in perms:
                mapped = {(*sorted((perm[p], perm[q])), k) for p, q, k in bond_set}
                assert mapped == bond_set


class TestSystemFileFormat:
    @pytest.mark.parametrize("key, value", [
        ("chi", True), ("chi", "0.5"), ("delta", "2"), ("delta", False), ("chi", None)])
    def test_rejects_parameters_that_are_not_numbers(self, key, value):
        d = system_to_dict(build_system("xxz", n=4) if key == "delta" else build_system("melon"))
        d[key] = value
        with pytest.raises(ValueError, match=f"system key '{key}' must be a number, got {value!r}"):
            system_from_dict(d)

    def test_round_trip_bit_identical(self):
        for spec in [build_system(k) for k in ("melon", "antimelon", "combined")] + [
            build_system("melon", chi=0.3), build_system("xxz", n=8, delta=2.0),
        ]:
            text = dump_system(spec)
            again = load_system(text)
            assert again == spec
            assert dump_system(again) == text

    def test_dict_fields(self):
        d = system_to_dict(build_system("combined"))
        assert set(d) == {"kind", "sites", "holes", "winding", "chi", "delta"}
        assert d["winding"] == [1, -1]

    def test_rejects_hole_on_site(self):
        d = system_to_dict(build_system("melon"))
        d["holes"] = [[0, 0]]
        with pytest.raises(ValueError):
            system_from_dict(d)

    def test_rejects_duplicate_labels(self):
        d = system_to_dict(build_system("melon"))
        d["sites"][1]["label"] = "a"
        with pytest.raises(ValueError):
            system_from_dict(d)

    def test_rejects_duplicate_positions(self):
        d = system_to_dict(build_system("melon"))
        d["sites"][1]["pos"] = [0, 0]
        with pytest.raises(ValueError, match="site positions must be unique"):
            system_from_dict(d)

    def test_rejects_fewer_than_two_sites(self):
        with pytest.raises(ValueError, match="at least 2 sites, got 0"):
            system_from_dict({"kind": "melon", "sites": [], "holes": []})
        d = system_to_dict(build_system("xxz", n=2))
        d["sites"] = d["sites"][:1]
        with pytest.raises(ValueError, match="at least 2 sites, got 1"):
            system_from_dict(d)
        with pytest.raises(ValueError, match="at least 2 sites, got 1"):
            build_system("xxz", n=1)

    def test_rejects_holes_on_chain(self):
        # a hole between a and c would add an a-c superexchange bond
        d = {"kind": "xxz", "sites": [{"label": "a", "pos": [0, 0]},
                                      {"label": "c", "pos": [2, 0]}],
             "holes": [[1, 0]], "winding": [1]}
        with pytest.raises(ValueError, match="the XXZ chain takes no holes"):
            system_from_dict(d)

    def test_rejects_winding_count_mismatch(self):
        d = system_to_dict(build_system("combined"))
        d["winding"] = [1]
        with pytest.raises(ValueError):
            system_from_dict(d)
        # windings on a system without holes would round-trip unused
        d = system_to_dict(build_system("xxz", n=4))
        d["winding"] = [1, -1, 1]
        with pytest.raises(ValueError, match="0 holes, 3 windings"):
            system_from_dict(d)

    @pytest.mark.parametrize("kind, winding, bad", [
        ("melon", [0.5], 0), ("melon", [2], 0), ("melon", [True], 0), ("antimelon", [-1.0], 0),
        ("melon", [0], 0), ("combined", [1, -2], 1)])
    def test_rejects_winding_other_than_plus_or_minus_one(self, kind, winding, bad):
        # a hole is a meron (+1) or an antimeron (-1); other windings form no vortex
        d = system_to_dict(build_system(kind))
        d["winding"] = winding
        hole = re.escape(str(tuple(d["holes"][bad])))
        with pytest.raises(ValueError, match=f"hole {hole} has winding"):
            system_from_dict(d)

    @pytest.mark.parametrize("site, hole", [
        ([0.5, 0], [1, 1]), ([0, 0.0], [1, 1]), ([True, 0], [1, 1]), ([0, 0, 0], [1, 1]),
        ([0, 0], [1.5, 1]), ([0, 0], [1])])
    def test_rejects_non_integer_coordinates(self, site, hole):
        # bonds are found at exact integer distances
        d = system_to_dict(build_system("melon"))
        d["sites"][0]["pos"], d["holes"] = site, [hole]
        with pytest.raises(ValueError, match="position .* must be two integers"):
            system_from_dict(d)

    def test_custom_geometry_loads(self):
        d = {
            "kind": "melon",
            "sites": [{"label": l, "pos": p} for l, p in zip(
                "abcdefgh",
                [[0, 0], [1, 0], [2, 0], [2, 1], [2, 2], [1, 2], [0, 2], [0, 1]],
            )],
            "holes": [[1, 1]],
            "winding": [1],
            "chi": 0.25,
            "delta": 0.0,
        }
        spec = system_from_dict(json.loads(json.dumps(d)))
        assert spec.chi == 0.25
        assert len(spec.bonds) == 16


class TestNonFiniteParameters:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_build_refuses(self, value):
        with pytest.raises(ValueError, match=f"chi={value} must be finite"):
            build_system("melon", chi=value)
        with pytest.raises(ValueError, match=f"delta={value} must be finite"):
            build_system("xxz", n=4, delta=value)

    def test_loader_refuses_nan(self):
        d = system_to_dict(build_system("combined"))
        d["chi"] = math.nan
        with pytest.raises(ValueError, match="chi=nan must be finite"):
            system_from_dict(d)
        text = dump_system(build_system("xxz", n=4)).replace('"delta": 0.0', '"delta": NaN')
        with pytest.raises(ValueError, match="delta=nan must be finite"):
            load_system(text)


class TestIgnoredParameters:
    def test_build_refuses_chi_on_chain(self):
        with pytest.raises(ValueError, match="chi=0.5 has no effect on the XXZ chain"):
            build_system("xxz", n=4, chi=0.5)

    @pytest.mark.parametrize("kind", ["melon", "antimelon", "combined"])
    def test_build_refuses_delta_on_vortex(self, kind):
        with pytest.raises(ValueError, match=f"delta=2.0 has no effect on the {kind} system"):
            build_system(kind, delta=2.0)

    def test_loader_refuses_chi_on_chain(self):
        d = system_to_dict(build_system("xxz", n=4))
        d["chi"] = 0.5
        with pytest.raises(ValueError, match="XXZ chain"):
            system_from_dict(d)

    def test_loader_refuses_delta_on_vortex(self):
        d = system_to_dict(build_system("combined"))
        d["delta"] = 1.0
        with pytest.raises(ValueError, match="combined system"):
            load_system(json.dumps(d))

    @pytest.mark.parametrize("kind", ["melon", "antimelon", "combined"])
    def test_build_refuses_n_on_vortex(self, kind):
        with pytest.raises(ValueError, match=f"n=5 has no effect on the {kind} system"):
            build_system(kind, n=5)

    def test_loader_refuses_chi_without_holes(self):
        d = system_to_dict(build_system("melon"))
        d["holes"], d["winding"], d["chi"] = [], [], 0.7
        message = "chi=0.7 has no effect on the melon system without holes"
        with pytest.raises(ValueError, match=message):
            system_from_dict(d)
        with pytest.raises(ValueError, match=message):
            load_system(json.dumps(d))
        d["chi"] = 0.0
        assert system_from_dict(d).xi == (0.0,) * 8
