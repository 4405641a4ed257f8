"""Site geometry, hole placement, bonds, spin angles and bond couplings.

Geometry convention (custom geometries load through `load_system`, in the JSON
system format):

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

Every system, the chain included, reaches its Hamiltonian through one path:
`build_system` or `system_from_dict` -> `bond_couplings` per bond ->
`hamiltonian.build_hamiltonian`.
"""
from __future__ import annotations

import json
import math
import numbers
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
    pos: tuple[int, int]


@dataclass(frozen=True)
class Bond:
    p: int
    q: int
    kind: BondKind


@dataclass(frozen=True)
class SystemSpec:
    """One system: its sites, holes, bonds and spin angles.

    A site's index (its bit in a basis index, its `p` or `q` in a bond, its
    entry in `xi`) is its place in `sites`; `holes` holds the holes' (x, y)
    positions.
    """
    kind: SystemKind
    sites: tuple[Site, ...]
    holes: tuple[tuple[int, int], ...]
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
        sites=tuple(Site(lbl, pos) for lbl, pos in zip(labels, positions)),
        holes=tuple(holes),
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
# system file format
# ---------------------------------------------------------------------------

def _point(coords, what: str) -> tuple[int, int]:
    if len(coords) != 2 or not all(type(c) is int for c in coords):
        raise ValueError(f"{what} position {coords} must be two integers")
    return tuple(coords)


def _number(data: dict, key: str) -> float:
    value = data.get(key, 0.0)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"system key {key!r} must be a number, got {value!r}")
    return float(value)


def system_from_dict(data: dict) -> SystemSpec:
    """Rebuild a SystemSpec from the JSON system format.

    Bonds and angles are recomputed from the geometry, so a built-in system
    written in this format reloads bit-identically.  Bonds are found at exact integer
    distances, so every coordinate must be an integer.
    """
    positions = [_point(s["pos"], "site") for s in data["sites"]]
    labels = [s["label"] for s in data["sites"]]
    if len(set(labels)) != len(labels):
        raise ValueError("site labels must be unique")
    if len(set(positions)) != len(positions):
        raise ValueError("site positions must be unique")
    holes = [_point(h, "hole") for h in data["holes"]]
    for h in holes:
        if h in positions:
            raise ValueError(f"hole {h} coincides with a site")
    winding = tuple(data.get("winding", []))
    if len(winding) != len(holes):
        raise ValueError(f"need one winding number per hole: {len(holes)} holes, "
                         f"{len(winding)} windings")
    for h, w in zip(holes, winding):
        if type(w) is not int or w not in (1, -1):
            raise ValueError(f"hole {h} has winding {w!r}; a hole winds +1 (meron) "
                             f"or -1 (antimeron)")
    return _make_spec(SystemKind(data["kind"]), labels, positions, holes, winding,
                      _number(data, "chi"), _number(data, "delta"))


def load_system(text: str) -> SystemSpec:
    return system_from_dict(json.loads(text))
