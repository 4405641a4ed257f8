"""Site geometry, hole placement, bonds, spin angles and bond couplings.

Geometry convention (config-overridable through the JSON system format):

* A single vortex is the 8 perimeter sites of a 3x3 square block with the
  center removed as the hole.  Labels a..h sweep the perimeter
  counterclockwise starting from the lower-left corner, so the hole sits at
  (1, 1) and site a at (0, 0).
* The combined system stacks two such blocks vertically so they share one
  perimeter edge; the 13 distinct sites keep the a..h labels of the lower
  block and continue i..m over the new perimeter sites of the upper block in
  the same sweep order.  The shared edge midpoint is site f = (1, 2), the
  geometric center of the 3x5 footprint.
* The XXZ chain is an open line of N sites with no holes.

Spin angles: every spin lies in the XY plane at azimuth
xi_p = w * atan2(y_p - y_h, x_p - x_h) + chi, measured from the nearest hole
h with winding w.  Sites equidistant from two holes take the lower-indexed
hole (this covers the shared edge of the combined system, including f).

Symmetry: the square point-group operations that map sites, holes, bond kinds
and couplings (up to a global XX <-> YY swap) onto themselves form a group, so
a site's set of images under them is its orbit, i.e. its equivalence class.

Every system, the chain included, reaches its Hamiltonian through one path:
`build_system` or `system_from_dict` -> `bond_couplings` per bond ->
`hamiltonian.build_hamiltonian`.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

_LABELS = "abcdefghijklmnopqrstuvwxyz"

# winding per hole: meron +1, antimeron -1
_VORTEX_WINDING = {"melon": (1,), "antimelon": (-1,), "combined": (1, -1)}


class SystemKind(str, Enum):
    MELON = "melon"
    ANTIMELON = "antimelon"
    COMBINED = "combined"
    XXZ = "xxz"


class BondKind(str, Enum):
    EXCHANGE = "exchange"
    SUPEREXCHANGE = "superexchange"


@dataclass(frozen=True)
class Site:
    label: str
    index: int
    pos: tuple[int, int]


@dataclass(frozen=True)
class Hole:
    pos: tuple[int, int]


@dataclass(frozen=True)
class Bond:
    p: int
    q: int
    kind: BondKind


@dataclass(frozen=True)
class SystemSpec:
    kind: SystemKind
    sites: tuple[Site, ...]
    holes: tuple[Hole, ...]
    bonds: tuple[Bond, ...]
    xi: tuple[float, ...]  # in-plane spin angle per site
    winding: tuple[int, ...]
    chi: float = 0.0
    delta: float = 0.0

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.sites)


def _block_perimeter(x0: int, y0: int) -> list[tuple[int, int]]:
    """Perimeter of a 3x3 block, counterclockwise from the lower-left corner."""
    return [
        (x0, y0), (x0 + 1, y0), (x0 + 2, y0), (x0 + 2, y0 + 1),
        (x0 + 2, y0 + 2), (x0 + 1, y0 + 2), (x0, y0 + 2), (x0, y0 + 1),
    ]


def _vortex_positions(kind: SystemKind) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    if kind in (SystemKind.MELON, SystemKind.ANTIMELON):
        return _block_perimeter(0, 0), [(1, 1)]
    positions = _block_perimeter(0, 0)
    for p in _block_perimeter(0, 2):
        if p not in positions:
            positions.append(p)
    return positions, [(1, 1), (1, 3)]


def _enumerate_bonds(
    positions: Sequence[tuple[int, int]], holes: Sequence[tuple[int, int]]
) -> list[Bond]:
    """Exchange bonds at squared distance 1, then superexchange bonds at
    squared distance 2 or straddling a hole; each kind in (p, q) order."""
    doubled_holes = {(2 * hx, 2 * hy) for hx, hy in holes}
    exchange, superex = [], []
    for p, (xp, yp) in enumerate(positions):
        for q in range(p + 1, len(positions)):
            xq, yq = positions[q]
            d2 = (xq - xp) ** 2 + (yq - yp) ** 2
            if d2 == 1:
                exchange.append(Bond(p, q, BondKind.EXCHANGE))
            if d2 == 2 or (xp + xq, yp + yq) in doubled_holes:
                superex.append(Bond(p, q, BondKind.SUPEREXCHANGE))
    return exchange + superex


def _xi(
    positions: Sequence[tuple[int, int]],
    holes: Sequence[tuple[int, int]],
    winding: Sequence[int],
    chi: float,
) -> tuple[float, ...]:
    if not holes:
        return (0.0,) * len(positions)
    xi = []
    for x, y in positions:
        d2 = [(x - hx) ** 2 + (y - hy) ** 2 for hx, hy in holes]
        k = d2.index(min(d2))  # ties resolve to the lower-indexed hole
        hx, hy = holes[k]
        xi.append(winding[k] * math.atan2(y - hy, x - hx) + chi)
    return tuple(xi)


def bond_couplings(spec: SystemSpec, bond: Bond) -> tuple[float, float, float]:
    """(XX, YY, ZZ) couplings of S_p.S_q on one bond (p, q), in units of J.

    XXZ chain: (1, 1, delta).  Vortex systems, with both spins in the XY
    plane: (cos xi_p cos xi_q, sin xi_p sin xi_q, 0).
    """
    if spec.kind is SystemKind.XXZ:
        return (1.0, 1.0, spec.delta)
    xp, xq = spec.xi[bond.p], spec.xi[bond.q]
    return (math.cos(xp) * math.cos(xq), math.sin(xp) * math.sin(xq), 0.0)


def _make_spec(
    kind: SystemKind,
    labels: Sequence[str],
    positions: Sequence[tuple[int, int]],
    holes: Sequence[tuple[int, int]],
    winding: tuple[int, ...],
    chi: float,
    delta: float,
) -> SystemSpec:
    """Assemble a SystemSpec; bonds and spin angles follow from the geometry.

    Refuses a non-finite chi or delta, fewer than two sites, and holes on the
    XXZ chain (its couplings ignore them).  Refuses a parameter the system
    would ignore: chi on the XXZ chain or on a system without holes (neither
    has spin angles) and delta on a vortex kind (it has no ZZ coupling).
    """
    for name, value in (("chi", chi), ("delta", delta)):
        if not math.isfinite(value):
            raise ValueError(f"{name}={value} must be finite")
    if len(positions) < 2:
        raise ValueError(f"a system needs at least 2 sites, got {len(positions)}")
    if kind is SystemKind.XXZ and holes:
        raise ValueError("the XXZ chain takes no holes")
    if chi != 0.0 and (kind is SystemKind.XXZ or not holes):
        system = "XXZ chain" if kind is SystemKind.XXZ else f"{kind.value} system without holes"
        raise ValueError(f"chi={chi} has no effect on the {system}")
    if kind is not SystemKind.XXZ and delta != 0.0:
        raise ValueError(f"delta={delta} has no effect on the {kind.value} system")
    return SystemSpec(
        kind=kind,
        sites=tuple(Site(lbl, i, pos) for i, (lbl, pos) in enumerate(zip(labels, positions))),
        holes=tuple(Hole(p) for p in holes),
        bonds=tuple(_enumerate_bonds(positions, holes)),
        xi=_xi(positions, holes, winding, chi),
        winding=winding,
        chi=chi,
        delta=delta,
    )


def build_system(
    kind: SystemKind | str,
    n: int | None = None,
    delta: float = 0.0,
    chi: float = 0.0,
) -> SystemSpec:
    """Build one of the four systems with bonds and spin angles populated.

    For XXZ, `n` (2 to 26) and `delta` select the chain; the vortex systems
    have a fixed size and refuse an `n` and a nonzero `delta`.  `chi` is the
    global phase added to every xi_p; the chain refuses a nonzero `chi`.
    """
    kind = SystemKind(kind)
    if kind is SystemKind.XXZ:
        if n is None or n > len(_LABELS):
            raise ValueError(f"XXZ chain needs n from 2 to {len(_LABELS)}, got {n}")
        positions = [(k, 0) for k in range(n)]
        holes: list[tuple[int, int]] = []
        winding: tuple[int, ...] = ()
    else:
        if n is not None:
            raise ValueError(f"n={n} has no effect on the {kind.value} system")
        positions, holes = _vortex_positions(kind)
        winding = _VORTEX_WINDING[kind.value]
    return _make_spec(kind, _LABELS, positions, holes, winding, chi, delta)


# ---------------------------------------------------------------------------
# point-group symmetry analysis
# ---------------------------------------------------------------------------

# the 8 operations of the square point group, as 2x2 integer matrices
_POINT_GROUP = [
    ((1, 0), (0, 1)), ((0, -1), (1, 0)), ((-1, 0), (0, -1)), ((0, 1), (-1, 0)),
    ((-1, 0), (0, 1)), ((1, 0), (0, -1)), ((0, 1), (1, 0)), ((0, -1), (-1, 0)),
]
COUPLING_TOL = 1e-9  # bond couplings that agree this closely count as equal


def _transform(pos: tuple[int, int], mat, c2: tuple[int, int]) -> tuple[int, int]:
    # act about the centroid in doubled coordinates, where it stays integral;
    # an odd coordinate is off the lattice and matches no doubled site or hole
    u, v = 2 * pos[0] - c2[0], 2 * pos[1] - c2[1]
    return (mat[0][0] * u + mat[0][1] * v + c2[0], mat[1][0] * u + mat[1][1] * v + c2[1])


def _matches(image: dict, bonds: dict) -> bool:
    """Same bonds, same kinds, and (XX, YY) couplings equal within COUPLING_TOL."""
    return image.keys() == bonds.keys() and all(
        image[k][0] is kind and max(abs(image[k][1] - xx), abs(image[k][2] - yy)) <= COUPLING_TOL
        for k, (kind, xx, yy) in bonds.items()
    )


def point_symmetries(spec: SystemSpec) -> list[tuple[int, ...]]:
    """Site permutations induced by square point-group operations that preserve
    sites, holes, bonds, and the bond coupling pattern.

    An operation that swaps every bond's XX and YY couplings simultaneously is
    accepted: a quarter-turn spin rotation about z restores the Hamiltonian, so
    the permutation still acts as a dynamical symmetry on z-basis observables.
    """
    positions = [s.pos for s in spec.sites]
    pos_index = {(2 * x, 2 * y): i for i, (x, y) in enumerate(positions)}
    holes = {(2 * h.pos[0], 2 * h.pos[1]) for h in spec.holes}
    c2 = (round(2 * sum(x for x, _ in positions) / len(positions)),
          round(2 * sum(y for _, y in positions) / len(positions)))
    bonds = {(b.p, b.q): (b.kind, *bond_couplings(spec, b)[:2]) for b in spec.bonds}
    swapped = {k: (kind, yy, xx) for k, (kind, xx, yy) in bonds.items()}

    perms = []
    for mat in _POINT_GROUP:
        images = [_transform(p, mat, c2) for p in positions]
        if not all(im in pos_index for im in images):
            continue
        if {_transform(h.pos, mat, c2) for h in spec.holes} != holes:
            continue
        perm = tuple(pos_index[im] for im in images)
        image = {tuple(sorted((perm[p], perm[q]))): c for (p, q), c in bonds.items()}
        if _matches(image, bonds) or _matches(image, swapped):
            perms.append(perm)
    return perms


def site_equivalence_classes(spec: SystemSpec) -> list[tuple[str, ...]]:
    """Orbits of the site labels under the valid point symmetries of `spec`."""
    if spec.kind is SystemKind.XXZ:
        raise ValueError("equivalence classes are defined for the vortex systems only")
    labels, perms = spec.labels, point_symmetries(spec)
    return sorted({tuple(sorted({labels[g[i]] for g in perms})) for i in range(len(labels))})


# ---------------------------------------------------------------------------
# system file format
# ---------------------------------------------------------------------------

def system_to_dict(spec: SystemSpec) -> dict:
    return {
        "kind": spec.kind.value,
        "sites": [{"label": s.label, "pos": [s.pos[0], s.pos[1]]} for s in spec.sites],
        "holes": [[h.pos[0], h.pos[1]] for h in spec.holes],
        "winding": list(spec.winding),
        "chi": spec.chi,
        "delta": spec.delta,
    }


def system_from_dict(data: dict) -> SystemSpec:
    """Rebuild a SystemSpec from the JSON system format.

    Bonds and angles are recomputed from the geometry, so a dumped built-in
    system reloads bit-identically.
    """
    positions = [tuple(s["pos"]) for s in data["sites"]]
    labels = [s["label"] for s in data["sites"]]
    if len(set(labels)) != len(labels):
        raise ValueError("site labels must be unique")
    if len(set(positions)) != len(positions):
        raise ValueError("site positions must be unique")
    holes = [tuple(h) for h in data["holes"]]
    for h in holes:
        if h in positions:
            raise ValueError(f"hole {h} coincides with a site")
    winding = tuple(data.get("winding", []))
    if holes and len(winding) != len(holes):
        raise ValueError("need one winding number per hole")
    return _make_spec(SystemKind(data["kind"]), labels, positions, holes, winding,
                      float(data.get("chi", 0.0)), float(data.get("delta", 0.0)))


def dump_system(spec: SystemSpec) -> str:
    return json.dumps(system_to_dict(spec), indent=2, sort_keys=True)


def load_system(text: str) -> SystemSpec:
    return system_from_dict(json.loads(text))
