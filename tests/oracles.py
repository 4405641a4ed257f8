"""Reference code that the tests compare the program against, the random
Pauli terms and geometries they feed both, and the readers of the program's
dumps; the program does not import it.

`SpectralReference` and `reference_trotter_scan` are built from the README's
model rules alone, sharing no code with the program's lattice, Hamiltonian,
circuit or statevector paths.  The dumps (Hamiltonian list, circuit, samples
CSV, system file) are the program's interface; only the round-trip tests read
them back.
"""
from __future__ import annotations

import json
import math
from typing import Sequence

import numpy as np
from hypothesis import strategies as st
from scipy.linalg import expm

from vortexprop.circuit import Circuit, Gate
from vortexprop.hamiltonian import Hamiltonian, PauliAxis, PauliTerm, matrix_of
from vortexprop.lattice import SystemKind, SystemSpec, bond_couplings, system_from_dict
from vortexprop.statevector import StateVector, conserved_axes, label_to_index


def init_basis_state(label: str) -> StateVector:
    """State with unit amplitude on the labeled basis state."""
    n = len(label)
    state = StateVector(n, np.zeros(1 << n, dtype=np.complex128))
    state.amps[label_to_index(label)] = 1.0
    return state


def dense_exponential(term: PauliTerm, phi: float, n: int) -> np.ndarray:
    """exp(-i phi coeff P) on n qubits, from scipy's expm of the dense matrix."""
    return expm(-1j * phi * matrix_of(Hamiltonian(n, (term,))))


def random_term(n: int, rng: np.random.Generator) -> PauliTerm:
    """A string on 1 to n of n sites with random axes, coefficient in [-2, 2)."""
    k = int(rng.integers(1, n + 1))
    sites = sorted(rng.choice(n, size=k, replace=False).tolist())
    return PauliTerm(float(rng.uniform(-2, 2)),
                     tuple((s, tuple(PauliAxis)[rng.integers(3)]) for s in sites))


@st.composite
def custom_geometries(draw, kind: str = "melon"):
    """A `kind` system from `system_from_dict`: random sites and 1 or 2 holes on a grid of
    up to 4 x 4, windings +-1, chi in {0, pi/4, pi/2}; at most 14 sites, as `run_exact`."""
    width, height = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    cells = draw(st.permutations([[x, y] for x in range(width) for y in range(height)]))
    n_holes = draw(st.integers(1, 2))
    n_sites = draw(st.integers(2, min(14, len(cells) - n_holes)))
    return system_from_dict({
        "kind": kind,
        "holes": cells[:n_holes],
        "winding": draw(st.lists(st.sampled_from([1, -1]), min_size=n_holes, max_size=n_holes)),
        "sites": [{"label": f"s{k}", "pos": pos}
                  for k, pos in enumerate(cells[n_holes:n_holes + n_sites])],
        "chi": draw(st.sampled_from([0.0, math.pi / 4, math.pi / 2])),
    })


def all_site_blocks(n: int, terms: Sequence[PauliTerm]) -> np.ndarray:
    """Every one of the 2^(m-1) blocks H_s that `SiteBlocks` keeps, each built in full.

    With each conserved site rotated to z, a term is its string on the free
    sites (a dense `matrix_of`, the identity when empty) times the Z signs of
    its conserved sites in s: bit j of s for the j-th lowest conserved site,
    top bit 0.
    """
    axes = conserved_axes(terms, n)
    sites = list(axes)
    free = [k for k in range(n) if k not in axes]
    dim = 1 << len(free)
    blocks = np.zeros((1 << (len(sites) - 1), dim, dim), dtype=np.complex128)
    for term in terms:
        string = tuple((free.index(k), a) for k, a in term.factors if k not in axes)
        mat = (matrix_of(Hamiltonian(len(free), (PauliTerm(1.0, string),))) if string
               else np.eye(dim))
        for s in range(len(blocks)):
            sign = math.prod(1 - 2 * ((s >> j) & 1) for j, site in enumerate(sites)
                             if site in term.support)
            blocks[s] += term.coeff * sign * mat
    return blocks


def block_states(n: int, terms: Sequence[PauliTerm], psi0: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t H_s) applied to column s of a (free state, kept block) array, for every s.

    H_s is the block of `all_site_blocks`, diagonalised whole as a complex
    Hermitian matrix, one eigh per block: no orbit, antiunitary or real basis
    of `SiteBlocks` is used.
    """
    energies, vectors = np.linalg.eigh(all_site_blocks(n, terms))
    coeffs = np.einsum("sji,js->si", vectors.conj(), psi0) * np.exp(-1j * t * energies)
    return np.einsum("sij,sj->is", vectors, coeffs)


# rotation taking a conserved site's axis to z, as in `SiteBlocks`
_TO_Z = {PauliAxis.X: np.array([[1, 1], [1, -1]]) / math.sqrt(2),
         PauliAxis.Y: np.array([[1, -1j], [1j, -1]]) / math.sqrt(2)}


def butterfly_back_rotation(n: int, terms: Sequence[PauliTerm], start: int,
                            psi: np.ndarray) -> np.ndarray:
    """z-basis amplitudes, over start's prod-Z parity sector in ascending order, of a
    (free state, kept block) array of `SiteBlocks`, one butterfly per conserved site.

    The start is |f0> in every rotated block s, with amplitude a[s] = prod_j
    R_j[s_j, b_j] for the start's conserved bits b; block s^ (the complement
    of s) is a[s^] (-1)^popcount(f0) / a[s] times D times block s, D the
    prod Z of the free sites.  The 2^m blocks are laid out with the free
    bits low and the conserved bits high, and each conserved site is
    rotated back to z in turn.
    """
    axes = conserved_axes(terms, n)
    sites = list(axes)
    free = [k for k in range(n) if k not in axes]
    n_free, n_kept = psi.shape
    f = np.arange(n_free)
    parity = np.array([(-1.0) ** bin(j).count("1") for j in f])
    s = np.arange(2 * n_kept)
    amp = np.ones(len(s), dtype=complex)
    for j, site in enumerate(sites):
        amp *= _TO_Z[axes[site]][(s >> j) & 1, (start >> site) & 1]
    f0 = sum(((start >> site) & 1) << bit for bit, site in enumerate(free))
    ratio = amp[::-1][:n_kept] * parity[f0] / amp[:n_kept]
    blocks = np.concatenate([psi.T, (ratio[:, None] * parity * psi.T)[::-1]])
    amps = blocks.reshape(-1).copy()
    for j, site in enumerate(sites):
        v = amps.reshape(-1, 2, 1 << (len(free) + j))
        v[:] = np.einsum("ab,ibk->iak", _TO_Z[axes[site]], v)
    sector = [i for i in range(1 << n) if bin(i).count("1") % 2 == bin(start).count("1") % 2]
    where = [sum(((i >> site) & 1) << bit for bit, site in enumerate(free + sites))
             for i in sector]
    return amps[where]


# ---------------------------------------------------------------------------
# point-group symmetry analysis
# ---------------------------------------------------------------------------
# The square point-group operations that map sites, holes, bond kinds and
# couplings (up to a global XX <-> YY swap) onto themselves form a group, so
# a site's set of images under them is its orbit, i.e. its equivalence class.

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
# series diagnostics
# ---------------------------------------------------------------------------

def local_maxima(series: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    """Interior local maxima of a sampled series, as (t, value) pairs."""
    out = []
    for i in range(1, len(series) - 1):
        if series[i][1] >= series[i - 1][1] and series[i][1] >= series[i + 1][1]:
            out.append(series[i])
    return out


def check_amplitude_symmetry(samples: Sequence, center_over_T: float) -> float:
    """Max |sqrt(p)| mismatch between mirror times around `center_over_T`.

    Takes records with `time_over_T` and `amp_norms`, uniformly sampled and
    covering [0, 2*center].
    """
    if len(samples) < 3:
        raise ValueError("need at least three samples")
    times = [s.time_over_T for s in samples]
    pitch = times[1] - times[0]
    ic = round(center_over_T / pitch)
    if ic >= len(samples) or not math.isclose(
        times[ic], center_over_T, rel_tol=0, abs_tol=pitch / 2
    ):
        raise ValueError(f"series has no sample at the center {center_over_T}")
    if times[-1] < 2 * center_over_T - pitch / 2:
        raise ValueError("series does not cover [0, 2*center]")
    reach = min(ic, len(samples) - 1 - ic)
    worst = 0.0
    for k in range(1, reach + 1):
        left, right = samples[ic - k].amp_norms, samples[ic + k].amp_norms
        for lbl, v in left.items():
            worst = max(worst, abs(v - right[lbl]))
    return worst


def check_class_degeneracy(
    samples: Sequence,
    classes: Sequence[Sequence[str]],
    site_labels: Sequence[str],
) -> dict[tuple[str, ...], float]:
    """Max over time of the m_z spread inside each symmetry class."""
    index = {lbl: i for i, lbl in enumerate(site_labels)}
    out: dict[tuple[str, ...], float] = {}
    for cls in classes:
        try:
            ids = [index[lbl] for lbl in cls]
        except KeyError as exc:
            raise ValueError(f"unknown site label {exc.args[0]!r}") from exc
        spread = 0.0
        for s in samples:
            vals = [s.m_z[i] for i in ids]
            spread = max(spread, max(vals) - min(vals))
        out[tuple(cls)] = spread
    return out


# ---------------------------------------------------------------------------
# independent reference
# ---------------------------------------------------------------------------
# Assembled from the README's model rules alone: site and hole positions,
# exchange (distance 1) and superexchange (distance sqrt(2), plus the opposite
# pairs across each hole) bonds, angles from the nearest hole (ties to the
# lower-indexed hole), XX and YY couplings, and the frozen term order of the
# hamiltonian module (exchange bonds, then superexchange bonds, each in
# (p, q) order; XX before YY).  Site k is bit k of the basis index, so
# int(label, 2) is the index of a label.

_BLOCK = [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (1, 2), (0, 2), (0, 1)]
_REF_GEOMETRY = {  # positions, holes, winding per hole
    "melon": (_BLOCK, [(1, 1)], [1]),
    "antimelon": (_BLOCK, [(1, 1)], [-1]),
    "combined": (_BLOCK + [(2, 3), (2, 4), (1, 4), (0, 4), (0, 3)],
                 [(1, 1), (1, 3)], [1, -1]),
}


def reference_terms(kind: str, n: int = 8,
                    delta: float = 0.0) -> tuple[int, list[tuple[float, int, int, str]]]:
    """Site count and frozen-order (coeff, p, q, axis) bond terms of `kind`.

    The XXZ chain of n sites has the bonds (k, k + 1), each with X_p X_q +
    Y_p Y_q + delta Z_p Z_q (no ZZ term at delta 0).
    """
    if kind == "xxz":
        return n, [(c, k, k + 1, axis) for k in range(n - 1)
                   for c, axis in ((1.0, "X"), (1.0, "Y"), (delta, "Z")) if c]
    pos, holes, winding = _REF_GEOMETRY[kind]
    n = len(pos)
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]

    def dist2(p, q):
        return (pos[p][0] - pos[q][0]) ** 2 + (pos[p][1] - pos[q][1]) ** 2

    across_hole = {(p, q) for p, q in pairs for hx, hy in holes
                   if pos[p][0] + pos[q][0] == 2 * hx and pos[p][1] + pos[q][1] == 2 * hy}
    bonds = ([pq for pq in pairs if dist2(*pq) == 1]
             + sorted({pq for pq in pairs if dist2(*pq) == 2} | across_hole))
    xi = []
    for x, y in pos:
        k = min(range(len(holes)),
                key=lambda k: (x - holes[k][0]) ** 2 + (y - holes[k][1]) ** 2)
        xi.append(winding[k] * math.atan2(y - holes[k][1], x - holes[k][0]))
    terms = []
    for p, q in bonds:
        terms.append((math.cos(xi[p]) * math.cos(xi[q]), p, q, "X"))
        terms.append((math.sin(xi[p]) * math.sin(xi[q]), p, q, "Y"))
    return n, terms


def _bond_string(n: int, p: int, q: int, axis: str) -> tuple[np.ndarray, np.ndarray]:
    """(flipped index, sign) with X_pX_q, Y_pY_q or Z_pZ_q |i> = sign[i] |flipped[i]>.

    Y|b> = i(-1)^b |1-b>, so Y_pY_q gives -1 on equal bits and +1 otherwise.
    Flipping both bits keeps their equality, so sign[i] = sign[flipped[i]].
    Z_pZ_q flips nothing and gives +1 on equal bits, -1 otherwise.
    """
    idx = np.arange(1 << n)
    flipped = idx ^ ((1 << p) | (1 << q))
    if axis == "X":
        return flipped, np.ones(1 << n)
    equal = ((idx >> p) & 1) == ((idx >> q) & 1)
    if axis == "Z":
        return idx, np.where(equal, 1.0, -1.0)
    return flipped, np.where(equal, -1.0, 1.0)


class SpectralReference:
    """Exact evolution exp(-2i t H) of a basis state from a dense eigh of H.

    `chain` takes the XXZ chain's n and delta (see `reference_terms`).
    """

    def __init__(self, kind: str, label: str, **chain):
        n, terms = reference_terms(kind, **chain)
        h = np.zeros((1 << n, 1 << n))
        for coeff, p, q, axis in terms:
            flipped, sign = _bond_string(n, p, q, axis)
            h[flipped, np.arange(1 << n)] += coeff * sign
        self.energies, self.vectors = np.linalg.eigh(h)
        self.weights = self.vectors[int(label, 2)]  # <j|psi0>, real

    def fidelity(self, t_over_T: float) -> float:
        phases = np.exp(-2j * self.energies * t_over_T)
        return float(abs(np.sum(self.weights ** 2 * phases)) ** 2)

    def amplitude_norm(self, t_over_T: float, label: str) -> float:
        phases = np.exp(-2j * self.energies * t_over_T)
        return float(abs(self.vectors[int(label, 2)] @ (self.weights * phases)))

    def state(self, t_over_T: float) -> np.ndarray:
        """All 2^n amplitudes at t."""
        return self.vectors @ (self.weights * np.exp(-2j * self.energies * t_over_T))


def reference_trotter_states(kind: str, label: str, dt_over_T: float, n_steps: int, **chain):
    """Yield the full state after each of n_steps product-formula steps, one exact
    exponential per term in frozen order: exp(-i a P) = cos(a) I - i sin(a) P,
    a = 2 dt c.  `chain` takes the XXZ chain's n and delta."""
    n, terms = reference_terms(kind, **chain)
    factors = []
    for coeff, p, q, axis in terms:
        flipped, sign = _bond_string(n, p, q, axis)
        a = 2.0 * dt_over_T * coeff
        factors.append((math.cos(a), -1j * math.sin(a) * sign, flipped))
    psi = np.zeros(1 << n, dtype=complex)
    psi[int(label, 2)] = 1.0
    for _ in range(n_steps):
        for cos_a, minus_i_sin_sign, flipped in factors:
            psi = cos_a * psi + minus_i_sin_sign * psi[flipped]
        yield psi


def reference_trotter_scan(kind: str, label: str, dt_over_T: float,
                           t_max_over_T: float) -> list[tuple[float, float]]:
    """Fidelity after every step of `reference_trotter_states`."""
    start = int(label, 2)
    states = reference_trotter_states(kind, label, dt_over_T, round(t_max_over_T / dt_over_T))
    return [(0.0, 1.0)] + [(step * dt_over_T, float(abs(psi[start]) ** 2))
                           for step, psi in enumerate(states, 1)]


# ---------------------------------------------------------------------------
# readers of the dumps, and the system file writer
# ---------------------------------------------------------------------------

def _term_from_entry(d) -> PauliTerm:
    """One {"coeff": real, "ops": [[site, axis], ...]} entry of a Hamiltonian dump."""
    return PauliTerm(float(d["coeff"]), tuple((s, PauliAxis(a)) for s, a in d["ops"]))


def hamiltonian_from_list(data: list[dict], n_sites: int | None = None) -> Hamiltonian:
    """The Hamiltonian of a `hamiltonian_to_list` dump; n_sites defaults to one past its top site."""
    terms = tuple(_term_from_entry(d) for d in data)
    if n_sites is None:
        n_sites = 1 + max(s for t in terms for s in t.support)
    return Hamiltonian(n_sites=n_sites, terms=terms)


def circuit_from_dict(data: dict) -> Circuit:
    """The circuit of a `circuit_to_dict` dump."""
    gates = tuple(Gate(d["g"], tuple(d["q"]), d.get("lambda")) for d in data["gates"])
    return Circuit(n_qubits=data["n"], gates=gates)


def read_samples_csv(path) -> tuple[list[str], np.ndarray]:
    """(header, value matrix) of a samples CSV; its 17-digit floats read back exactly."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [[float(c) for c in line.rstrip("\n").split(",")] for line in fh if line.strip()]
    return header, np.array(rows)


def system_to_dict(spec: SystemSpec) -> dict:
    """`spec` in the JSON system format that `lattice.system_from_dict` reads."""
    return {
        "kind": spec.kind.value,
        "sites": [{"label": s.label, "pos": [s.pos[0], s.pos[1]]} for s in spec.sites],
        "holes": [[h.pos[0], h.pos[1]] for h in spec.holes],
        "winding": list(spec.winding),
        "chi": spec.chi,
        "delta": spec.delta,
    }


def dump_system(spec: SystemSpec) -> str:
    return json.dumps(system_to_dict(spec), indent=2, sort_keys=True)
