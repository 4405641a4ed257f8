"""Exact statevector backend: dense complex amplitudes with in-place kernels.

Site k maps to bit k of the basis index (little endian), so basis labels are
written most-significant site first: the rightmost character of a label is
site a.  Bit value 0 is an up spin, 1 a down spin.

Two kernels act on the amplitudes.  The gate kernels replay a compiled
circuit gate by gate; they are what the dumped circuit is checked with.  The
Pauli-term kernel encodes each term once as (coeff, x bits, z bits), fuses
the terms into one precompiled op per bond and stores only the sector of a
run's initial basis state that the step conserves: its magnetization sector
on the XXZ chain, else its prod-Z parity sector.  Trotter stepping, the
energy and the sparse matrix all go through it.  On a sector of at most
MAX_DENSE_STEP states (the 8-site systems, half-filled XXZ chains up to 10
sites) the step is one dense matvec, since there a few numpy calls per op
cost more than the arithmetic; larger sectors run the ops.  A run or a scan takes all
its steps between two samples in one loop.

`SiteBlocks` splits the kernel's strings by the site Paulis that commute
with all of them, rotated to z.  It propagates a Trotter state on the
blocks with the kernel's stepping loop, whose ops there gather whole rows
of blocks and are fewer (10 against 22 on the 4096 states of the combined
system).
It also propagates exactly in the blocks' eigenbases, diagonalising one
block per orbit of the Pauli strings on the free sites, as a real matrix
since the antiunitary K X_free commutes with every block.  It holds the
eigh's real eigenvectors and rebuilds each sample with one real matrix
product per orbit, then one signed two-term gather, which applies the real
basis and maps each orbit's rows onto its blocks.  Both leave the state on
the blocks, where the energy is measured; `sector` takes it back to z with
one matrix product per free-parity half.  One function (`_string_rows`)
builds every string's gather and phase, for the kernel's rows, the blocks'
rows and the blocks' matrices; `evolve._propagation` picks the propagator
of a run.
"""
from __future__ import annotations

import math
from functools import cached_property, reduce
from typing import NamedTuple, Sequence

import numpy as np

from .circuit import Circuit, Gate
from .hamiltonian import PauliAxis, PauliTerm

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class StateVector:
    """2^n complex amplitudes, exclusively owned by one evolution run."""

    __slots__ = ("n_qubits", "amps")

    def __init__(self, n_qubits: int, amps: np.ndarray):
        amps = np.asarray(amps, dtype=np.complex128)
        if amps.shape != (1 << n_qubits,):
            raise ValueError(f"need {1 << n_qubits} amplitudes, got {amps.shape}")
        self.n_qubits = n_qubits
        self.amps = amps


def label_to_index(label: str) -> int:
    """Basis index of a 0/1 label written most-significant site first."""
    if not label or any(ch not in "01" for ch in label):
        raise ValueError(f"malformed basis label {label!r}")
    return int(label, 2)


def index_to_label(index: int, n_qubits: int) -> str:
    return format(index, f"0{n_qubits}b")


# ---------------------------------------------------------------------------
# gate kernels
# ---------------------------------------------------------------------------

def _apply_1q(amps: np.ndarray, q: int, u00, u01, u10, u11) -> None:
    v = amps.reshape(-1, 2, 1 << q)
    a0 = v[:, 0, :].copy()
    a1 = v[:, 1, :]
    v[:, 0, :] = u00 * a0 + u01 * a1
    v[:, 1, :] = u10 * a0 + u11 * a1


def _apply_cnot(amps: np.ndarray, control: int, target: int) -> None:
    i = np.arange(len(amps))
    amps[:] = amps[i ^ (((i >> control) & 1) << target)]


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate in place and return the state."""
    for q in gate.qubits:
        if q >= state.n_qubits:
            raise IndexError(f"qubit {q} out of range for n={state.n_qubits}")
    amps = state.amps
    if gate.kind == "H":
        _apply_1q(amps, gate.qubits[0], _INV_SQRT2, _INV_SQRT2, _INV_SQRT2, -_INV_SQRT2)
    elif gate.kind == "RX":
        c, s = math.cos(gate.lam / 2), math.sin(gate.lam / 2)
        _apply_1q(amps, gate.qubits[0], c, -1j * s, -1j * s, c)
    elif gate.kind == "RZ":
        half = gate.lam / 2
        _apply_1q(amps, gate.qubits[0], np.exp(-1j * half), 0.0, 0.0, np.exp(1j * half))
    elif gate.kind == "CNOT":
        _apply_cnot(amps, gate.qubits[0], gate.qubits[1])
    else:
        raise ValueError(f"unknown gate kind {gate.kind!r}")
    return state


def apply_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    if circuit.n_qubits != state.n_qubits:
        raise ValueError("circuit and state sizes differ")
    for gate in circuit.gates:
        apply_gate(state, gate)
    return state


# ---------------------------------------------------------------------------
# Pauli-term kernel
# ---------------------------------------------------------------------------

# Largest stored set whose Trotter step is applied as one dense matrix.  On
# 2 cores and one BLAS thread, from the Neel state of XXZ chains at delta 0
# and 2, a step inside `advance` takes 5-9 us at 126 states (op loop 18-34
# us; 8 against 61 us on melon's 128) and 21-29 us at 252 (op loop 25-44
# us), but 157-168 us at 462 (op loop 48-58 us) and 640-690 us at 924 (op
# loop 54-67 us): its dim^2 work outgrows the op loop's few passes over dim
# per op.  The matrix costs 0.9-1.7 ms to build at 126 states and 4.2-6 ms
# at 252 (op loop 0.4-1.2 ms), paid back there after 200-400 steps.
MAX_DENSE_STEP = 256


def _apply_ops(ops: list, amps: np.ndarray, moved: np.ndarray, axis: int = -1) -> None:
    """Apply fused ops (gather, alpha, beta) to amps in place, gathering along `axis`.

    Each op is amps <- alpha * amps + beta * amps[gather], the gather taken
    along `axis`; alpha and beta broadcast against amps.  `moved` is scratch
    of amps' shape.
    """
    for gather, alpha, beta in ops:
        if gather is None:  # a run of diagonal strings only
            amps *= alpha
            continue
        amps.take(gather, axis=axis, out=moved, mode="clip")
        moved *= beta
        amps *= alpha
        amps += moved


def _popcounts(n_bits: int) -> np.ndarray:
    """popcount(b) for b = 0, 1, ..., 2^n_bits - 1."""
    counts = np.zeros(1, dtype=np.uint8)
    for _ in range(n_bits):  # setting the next bit up adds one
        counts = np.concatenate([counts, counts + 1])
    return counts


def _signs(n_bits: int) -> np.ndarray:
    """(-1)^popcount(b) for b = 0, 1, ..., 2^n_bits - 1, as floats."""
    return 1.0 - 2.0 * (_popcounts(n_bits) & 1)


def _string_rows(strings, states: np.ndarray, at: np.ndarray) -> list:
    """(coeff, flip, gather, phase) per string (coeff, x bits, z bits), in order.

    P|j ^ x> = phase[j] |j> over the basis states j in `states` (their bits, j
    stored at position at[j]): flip is x, gather the flat positions at[j ^ x]
    (one array per distinct flip, None for a diagonal string), and phase =
    (-i)^popcount(x & z) (-1)^popcount(j & z), shaped like `states`, or the
    scalar 1.0 when z = 0.  A j ^ x outside the stored set must have a valid
    position in `at`.  The kernel's rows and the blocks' rows and matrices
    all come from here.
    """
    gathers = {x: at[states ^ x].ravel() for _, x, _ in strings if x}
    signs = _signs(max((z.bit_length() for _, _, z in strings), default=0))
    return [(coeff, x, gathers.get(x),
             (1, -1j, -1, 1j)[(x & z).bit_count() % 4] * signs[states & z] if z else 1.0)
            for coeff, x, z in strings]


def _runs(items):
    """Yield each maximal run of consecutive items whose flips (item[1]) lie in {0, f}.

    An item is a row (coeff, flip, gather, phase) (see `_string_rows`) or a
    string (coeff, x bits, z bits); a diagonal one joins the run around it.
    """
    flip, run = 0, []
    for item in items:
        if item[1] and flip and item[1] != flip:
            yield run
            flip, run = 0, []
        flip = flip or item[1]
        run.append(item)
    if run:
        yield run


def _conserves_z(strings) -> bool:
    """Whether each run's (`_runs`) flipping strings are c XX, then c YY on the same sites.

    Each run is then exp(-i phi c (XX + YY)) times diagonal exponentials, all
    conserving sum_k Z_k.  On two equal spins XX and YY act as 1 and -1, so
    the fused beta and the bond weight there are c - c = 0.
    """
    for run in _runs(strings):
        flips = [k for k, (_, x, _) in enumerate(run) if x]
        if not flips:
            continue
        c, x, z = run[flips[0]]
        if (flips != [flips[0], flips[0] + 1] or x.bit_count() != 2 or z
                or run[flips[1]] != (c, x, x)):
            return False
    return True


def _fuse(rows, phi: float) -> list:
    """(gather, alpha, beta) per run of rows (see `_runs`), the exact product in row order.

    Row (coeff, flip, gather, phase) is the term coeff * P with (P psi)[j] =
    phase[j] psi[gather[j]]; coeff and phase are scalars or arrays that
    broadcast against the state, the phase indexed along the gathered axis 0.
    On every pair (j, j ^ f) a string acts as the 2x2 matrix [[0, p], [q, 0]],
    or [[p, 0], [0, q]] when diagonal, with p = phase[j] and q = phase[j ^ f];
    exp(-i a P) = cos(a) I - i sin(a) P.  The run's product, row j, gives
    psi'[j] = alpha[j] psi[j] + beta[j] psi[j ^ f].
    """
    ops = []
    for run in _runs(rows):
        gather, m = next((g for _, x, g, _ in run if x), None), None
        for coeff, flip, _, p in run:
            c, s = np.cos(phi * coeff), -1j * np.sin(phi * coeff)
            q = p if gather is None or np.ndim(p) == 0 else p[gather]
            e = (c, s * p, s * q, c) if flip else (c + s * p, 0.0, 0.0, c + s * q)
            m = e if m is None else (
                e[0] * m[0] + e[1] * m[2], e[0] * m[1] + e[1] * m[3],
                e[2] * m[0] + e[3] * m[2], e[2] * m[1] + e[3] * m[3],
            )
        ops.append((gather, m[0], m[1]))
    return ops


class _FusedSteps:
    """Trotter stepping through the fused ops of `_rows`, shared by both propagators.

    A subclass sets `_rows`, `_scratch` (of the stepped array's shape) and
    `overlap`.  Every entry runs k steps through `_walk`, the one loop: the
    ops are compiled on its first call and again only when phi changes, and
    a `dense` propagator then runs them once on the identity and steps by
    one matvec, alternating between the caller's array and `_scratch`, so
    the state is copied back at most once per call.  `advance` steps in
    place, and `scan` reads <start|psi> after each step.  The ops and the
    energy gather along axis 0 (rows of the blocks' array); a column stands
    for `_weight` times its norm and energy.
    """

    _weight = 1.0
    _phi: float | None = None
    _dense: np.ndarray | None = None  # U^T of the step at _phi, if dense
    dense = False

    @property
    def ops_per_step(self) -> int:
        """How many fused ops a step runs (or, when dense, multiplies into its matrix)."""
        return sum(1 for _ in _runs(self._rows))

    def _walk(self, amps: np.ndarray, phi: float, k: int):
        """Yield the array that holds each of k steps from amps; amps holds the last at the end.

        A step applies exp(-i phi coeff P) for every term in frozen order.  A
        dense step yields `_scratch` on every other step, so each array is
        read before the next step, and the generator must run to its end.
        """
        if phi != self._phi:
            self._ops, self._phi = _fuse(self._rows, phi), phi
            self._dense = None
            if self.dense:
                eye = np.eye(len(amps), dtype=np.complex128)
                _apply_ops(self._ops, eye, np.empty_like(eye))
                self._dense = eye  # row r is the step applied to basis state r: U^T
        if self._dense is None:
            ops, moved = self._ops, self._scratch
            for _ in range(k):
                _apply_ops(ops, amps, moved, axis=0)
                yield amps
            return
        now, then, u = amps, self._scratch, self._dense
        for _ in range(k):
            np.dot(now, u, out=then)  # as np.matmul, with less overhead per call
            now, then = then, now
            yield now
        if now is not amps:
            amps[:] = now

    def advance(self, amps: np.ndarray, phi: float, k: int) -> None:
        """Apply k Trotter steps of phi to amps, in place."""
        for _ in self._walk(amps, phi, k):
            pass

    def scan(self, amps: np.ndarray, phi: float, n: int) -> np.ndarray:
        """<start|psi_k> for k = 0, ..., n, stepping amps in place to psi_n."""
        overlap = self.overlap
        return np.array([overlap(amps)] + [overlap(now) for now in self._walk(amps, phi, n)])

    @cached_property
    def _bonds(self) -> list:
        """(f, g, w) per distinct flip f: (H psi)[j] = sum of w[j] * psi[g[j]], times `_weight`.

        The diagonal strings add up under f = 0 and gather None.  w is real
        when every string carries an even number of Y factors, as in these
        Hamiltonians.
        """
        weights: dict[int, tuple] = {}
        for coeff, flip, gather, phase in self._rows:
            w = weights[flip][1] if flip in weights else 0.0
            weights[flip] = (gather, w + coeff * phase)
        return [(flip, gather, w * self._weight) for flip, (gather, w) in weights.items()]

    def expectation(self, amps: np.ndarray) -> float:
        """<psi|H|psi> of an array as `advance` takes it, real for the Hermitian strings here."""
        total = 0.0
        for _, gather, w in self._bonds:
            moved = amps if gather is None else amps.take(gather, 0, self._scratch, "clip")
            total += np.vdot(amps, np.multiply(moved, w, out=self._scratch)).real
        return float(total)


class PauliKernel(_FusedSteps):
    """Pauli terms precompiled once into one fused op per bond, on one sector.

    Built with the basis index `start` of a run's initial state, the kernel
    stores only start's sector (`selection`).  Where every term flips an
    even number of sites, that is start's prod-Z parity, 2^(n-1) states
    (`parity`).  Where no site Pauli is conserved (`SiteBlocks` needs the
    parity sector) and every fused run conserves sum_k Z_k (`_conserves_z`:
    the XXZ chain), it is the C(n, k) states of start's popcount k
    (`magnetization`).  If some term flips an odd number of sites, or no
    start is given, it is the full space.  `index` lists the stored basis
    states in ascending order, and one lookup over all 2^n gives their
    positions.  A gather to a state outside the sector points at position
    0, where the fused beta and the bond weight are exactly 0.0, and
    `sparse_matrix` leaves it out.  Every method takes and returns
    amplitudes over `index`; `embed` gives the full 2^n state.

    Each term coeff * P is encoded once as a string (coeff, x bits, z bits),
    x holding the X and Y sites and z the Y and Z sites, and built on first
    use into a row (coeff, flip, gather, phase) by `_string_rows`.  The step,
    the energy and the sparse matrix all read these rows; a run on
    `SiteBlocks` never builds them.

    A Trotter step fuses each maximal run of consecutive terms whose flips
    lie in {0, f} into one op psi <- alpha * psi + beta * psi[g], with the
    gather g of f (`_fuse`).  alpha and beta are the exact product of the
    run's exponentials in frozen order, so no commutation is assumed; they
    stay scalars where they are uniform (pure XX bonds).  When at most
    MAX_DENSE_STEP states are stored (`dense`), the ops are run once on the
    identity, which gives the step's matrix, and every step is one matvec.
    The energy takes one gather per distinct flip.  One scratch buffer
    serves every call, so a kernel belongs to one run at a time.

    `initial`, `advance`, `scan`, `overlap` and `sector` make the kernel a
    Trotter propagator of its start state, as `SiteBlocks` is on the rotated
    blocks.
    """

    def __init__(self, n_qubits: int, terms: Sequence[PauliTerm], start: int | None = None):
        for term in terms:
            if term.support[-1] >= n_qubits:
                raise IndexError(f"term {term} outside {n_qubits} qubits")
        self.n_qubits = n_qubits
        self.start = start
        self.conserved = conserved_axes(terms, n_qubits)  # site Paulis every term commutes with
        self.strings = [(t.coeff, sum(1 << k for k, a in t.factors if a is not PauliAxis.Z),
                         sum(1 << k for k, a in t.factors if a is not PauliAxis.X)) for t in terms]
        every = np.arange(1 << n_qubits, dtype=np.int32 if n_qubits < 32 else np.int64)
        counts = _popcounts(n_qubits)
        if start is None or any(x.bit_count() & 1 for _, x, _ in self.strings):
            self.selection, self.index = "full space", every
        elif not self.conserved and _conserves_z(self.strings):
            self.selection, self.index = "magnetization", every[counts == counts[start]]
        else:
            self.selection, self.index = "parity", every[(counts ^ counts[start]) & 1 == 0]
        # position of each basis state; one outside the stored set points at position 0
        self._at = np.zeros_like(every)
        self._at[self.index] = np.arange(len(self.index))
        self._scratch = np.empty(len(self.index), dtype=np.complex128)
        self._start_at = None if start is None else self._at[start]

    # -- basis states ------------------------------------------------------

    def position(self, i: int) -> int | None:
        """Where basis state i is stored, or None when it lies outside the stored set."""
        pos = self._at[i]
        return pos if self.index[pos] == i else None

    def basis(self, i: int) -> np.ndarray:
        """Amplitudes of basis state i, which must lie in the stored set."""
        amps = np.zeros(len(self.index), dtype=np.complex128)
        amps[self.position(i)] = 1.0
        return amps

    def embed(self, amps: np.ndarray) -> StateVector:
        """The full 2^n state, with exact zeros outside the stored set."""
        full = np.zeros(1 << self.n_qubits, dtype=np.complex128)
        full[self.index] = amps
        return StateVector(self.n_qubits, full)

    @cached_property
    def z_signs(self) -> np.ndarray:
        """<i|Z_k|i> = +-1 for site k (rows) and stored basis state i (columns)."""
        sites = np.arange(self.n_qubits)[:, None]
        return 1.0 - 2.0 * ((self.index[None, :] >> sites) & 1)

    # -- precompiled actions -------------------------------------------------

    @cached_property
    def _rows(self) -> list:
        """(coeff, flip, gather, phase) per term, in frozen order (`_string_rows`)."""
        return _string_rows(self.strings, self.index, self._at)

    # -- Trotter propagation ---------------------------------------------------

    @property
    def dense(self) -> bool:
        """Whether a step is one dense matvec: at most MAX_DENSE_STEP stored states."""
        return len(self.index) <= MAX_DENSE_STEP

    def initial(self) -> np.ndarray:
        """The start basis state, as `advance` takes it."""
        return self.basis(self.start)

    def overlap(self, amps: np.ndarray) -> complex:
        """<start|psi>; the start always lies in the stored set."""
        return amps[self._start_at]

    def sector(self, amps: np.ndarray) -> np.ndarray:
        """Amplitudes over `index`: a copy of the stepped ones."""
        return amps.copy()

    # -- H itself ----------------------------------------------------------------

    def sparse_matrix(self):
        """CSR matrix of sum_k coeff_k P_k over the stored basis states.

        One entry per stored basis state and distinct flip whose partner is
        stored too; real whenever every string carries an even number of Y
        factors.
        """
        from scipy.sparse import coo_matrix, csr_matrix

        dim = len(self.index)
        if not self._bonds:
            return csr_matrix((dim, dim))
        every, rows, cols, data = np.arange(dim), [], [], []
        for f, g, w in self._bonds:
            g = every if g is None else g
            keep = np.flatnonzero(self.index[g] == self.index ^ f)  # its partner is stored
            rows.append(keep)
            cols.append(g[keep])
            data.append(np.broadcast_to(w, (dim,))[keep])
        return coo_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(dim, dim),
        ).tocsr()


# ---------------------------------------------------------------------------
# conserved site Paulis and the blocks they split the terms into
# ---------------------------------------------------------------------------

# self-inverse rotation taking each conserved axis to Z: H X H = Z, R Y R = Z
_TO_Z = {
    PauliAxis.X: np.array([[1, 1], [1, -1]]) * _INV_SQRT2,
    PauliAxis.Y: np.array([[1, -1j], [1j, -1]]) * _INV_SQRT2,
}


def conserved_axes(terms: Sequence[PauliTerm], n_qubits: int) -> dict[int, PauliAxis]:
    """Sites of n_qubits whose every factor has one axis, X or Y, mapped to that axis.

    That Pauli commutes with every term, so with H and with each term's
    exponential.  A site no term acts on maps to X; without terms there is
    nothing to split, and no site is returned.
    """
    seen: list[set[PauliAxis]] = [set() for _ in range(n_qubits)]
    for term in terms:
        for site, axis in term.factors:
            seen[site].add(axis)
    return {site: next(iter(axes), PauliAxis.X) for site, axes in enumerate(seen)
            if terms and len(axes) < 2 and PauliAxis.Z not in axes}


def _orbits(weights: np.ndarray, strings: Sequence[tuple[int, int]], parity: np.ndarray):
    """Sort the blocks into orbits of H_b = eps Q H_r Q, Q a Pauli string on the free sites.

    weights[k, b] is the weight of free string k in block b, strings[k] its
    (x bits, z bits), and parity[j] = (-1)^popcount(j) over the free basis
    states.  Q = Z^qz X^qx (up to a phase) gives Q P_k Q = -P_k exactly when
    popcount(qx & z_k) + popcount(qz & x_k) is odd, so the relation holds when
    w_k(b) = eps (-1)^[Q anticommutes with k] w_k(r) for every string k of
    nonzero weight; the empty string commutes with every Q and so fixes eps.
    Related blocks sum the same terms in the same order, so their |w| agree
    exactly and only blocks of equal |w| are compared.  Returns the
    representatives (the first block of each orbit) and, per block, the
    position of its representative among them, eps, qx and qz; eps = +1 is
    tried first, and the identity before any other Q.
    """
    n_strings, n_blocks = weights.shape
    dim = len(parity)
    qx, qz = np.arange(dim * dim) % dim, np.arange(dim * dim) // dim
    # bit k % 64 of word k // 64 in column q: Q anticommutes with string k
    shift = (np.arange(n_strings) % 64).astype(np.uint64)
    anti = np.zeros(((n_strings + 63) // 64, dim * dim), dtype=np.uint64)
    for k, (x, z) in enumerate(strings):
        anti[k // 64] |= (parity[(qx & z) ^ (qz & x)] < 0).astype(np.uint64) << shift[k]
    one_at = np.uint64(1) << shift

    def pack(bits: np.ndarray) -> np.ndarray:  # the words of a bit per string
        return np.add.reduceat(np.where(bits, one_at, 0), np.arange(0, n_strings, 64))[:, None]

    def relation(b: int, r: int, care: np.ndarray):
        flipped = pack(weights[:, b] != weights[:, r])  # 0 == -0, so only where w != 0
        for sign, want in ((1.0, flipped), (-1.0, flipped ^ care)):
            hit = np.flatnonzero(((anti & care) == want).all(axis=0))
            if len(hit):
                return sign, hit[0]
        return None

    reps: list[int] = []
    slot, pauli = np.zeros(n_blocks, dtype=int), np.zeros(n_blocks, dtype=int)
    eps = np.ones(n_blocks)
    groups: dict[bytes, list] = {}  # |w| -> (r, care) per representative so far
    for b in range(n_blocks):
        members = groups.setdefault(np.abs(weights[:, b]).tobytes(), [])
        for r, care in members:
            found = relation(b, r, care)
            if found is not None:
                slot[b], (eps[b], pauli[b]) = slot[r], found
                break
        else:
            slot[b] = len(reps)
            reps.append(b)
            members.append((b, pack(weights[:, b] != 0)))
    return reps, slot, eps, qx[pauli], qz[pauli]


def _pack(bits, sites: Sequence[int]):
    """The bits at `sites` of an int or integer array, packed in that order from bit 0."""
    # bits & 0 starts the sum, so no sites give a zero of bits' own type
    return sum((((bits >> site) & 1) << j for j, site in enumerate(sites)), bits & 0)


def _real_basis(parity: np.ndarray) -> tuple:
    """(a, b, r^2) of the unitary W with columns W[:, k] = (a_k e_k + b_k e_{k ^ tx}) / r.

    tx holds every free bit, so X^tx is X_free: (X^tx v)[k] = v[k ^ tx].  S =
    diag(s), s_k = parity[k & 1], anticommutes with it.  With d_k = 1 where
    s_k = +1 and i where s_k = -1, W = (S + X^tx) D / sqrt2: a = d s and b =
    d, all of unit modulus.  d_k^2 = s_k gives X^tx conj(W[:, k]) = W[:, k],
    so W^dagger H W is real for every H that T = K X_free commutes with.
    Without a free site tx = 0, a = b = 1 and r^2 = 4, so W = I.
    """
    s = parity[np.arange(len(parity)) & 1]
    d = np.where(s > 0, 1.0, 1j)
    return d * s, d, 2.0 if len(parity) > 1 else 4.0


def _blocks_in(rows: list, a: np.ndarray, b: np.ndarray, norm: float) -> np.ndarray:
    """W^dagger H_r W per orbit r, real, for the W (a, b, r^2 = norm) of `_real_basis`.

    `rows` are the free strings' (weights per orbit, flip, gather, phase) over
    the free basis states (`_string_rows`), each fixed by T = K X_free.  As
    <p|W^dagger P = (conj(a_p) phase[p] <p ^ x| + conj(b_p) phase[p ^ tx]
    <p ^ x ^ tx|) / r, row p of W^dagger P W has entries in columns p ^ x and
    p ^ x ^ tx alone: two row gathers per string, then one assignment of
    their sums per column flip.  r^2 times an entry is a sum of products of
    unit phases, exact, and so is the division by r^2 = 2, or 4 without a
    free site (`norm`); the imaginary parts are exactly 0 and are dropped.
    """
    diag, tx = np.arange(len(a)), len(a) - 1
    flips = np.array([x for _, x, *_ in rows])
    phase = np.empty((len(rows), len(diag)), dtype=np.complex128)
    for row, (*_, p) in zip(phase, rows):
        row[:] = p
    ap, bp = a.conj() * phase, b.conj() * phase[:, diag ^ tx]
    cols = diag ^ flips[:, None]
    entries = np.concatenate([ap * a[cols] + bp * b[cols],
                              ap * b[cols ^ tx] + bp * a[cols ^ tx]]).real
    moves, which = np.unique(np.concatenate([flips, flips ^ tx]), return_inverse=True)
    weight = np.array([w for w, *_ in rows] * 2).T / norm  # (orbit, entry row)
    blocks = np.zeros((len(weight), len(diag), len(diag)))
    share = (which == np.arange(len(moves))[:, None]) * weight[:, None]  # (orbit, flip, entry row)
    blocks[:, diag, diag ^ moves[:, None]] = share @ entries
    return blocks


class _Spectrum(NamedTuple):
    """`SiteBlocks._spectrum`: a real eigenbasis per orbit and the layout `state` samples it in."""

    levels: np.ndarray  # (orbit, level): each representative's energies, ascending
    vectors: np.ndarray  # (orbit, state, level): O_r, real, with V_r = W O_r
    coeffs: np.ndarray  # (orbit, level, member): <V_b|start>, conjugated where eps = -1
    sign: np.ndarray  # (orbit, 1, member): eps = +-1.0; padding members are +1, of coeffs 0
    mix: np.ndarray  # (2, free state j, kept block b): V_b[j] = mix[0] O_r[g] + mix[1] O_r[g ^ tx]
    take: np.ndarray  # (2, j, b): rows g = j ^ qx_b and g ^ tx, as flat (orbit, state, member)


class SiteBlocks(_FusedSteps):
    """Propagation of one basis state on the blocks of the conserved site Paulis.

    A view of a run's kernel, which must store one prod-Z parity sector: the
    qubit count, the stored basis states `index`, the start state, the
    conserved sites and the terms' strings all come from it.  Each string is
    packed onto the free sites (x bits, z bits), and acts in a block as
    <f|P|f ^ x> = (-i)^popcount(x & z) (-1)^popcount(f & z), the kernel's
    phase on the free basis states (`_string_rows`).

    Rotating each conserved site to z (H for X, (Y + Z)/sqrt2 for Y) turns a
    term into its string on the free sites times the Z signs of its conserved
    sites.  In that basis H = sum_s |s><s| (x) H_s over the 2^m bit patterns s
    of the conserved sites (bit j for the j-th lowest, 0 for +1).  Every term
    commutes with prod Z, which maps s to its complement s^, and acts on
    block s^ as D times its action on block s times D, with D the prod Z of
    the free sites.  Only the 2^(m-1) blocks with the top conserved bit 0 are
    kept.  The rotated start state is one free basis state f0 in every block,
    with amplitude low[s] in s and high[s] in s^, so block s^ of every state
    propagated from it, by H or by Trotter steps, stays the fixed multiple
    high[s] parity[f0] / low[s] of D times block s.  Such a state is held as a
    (free state f, kept block s) array, which holds the whole sector.

    Trotter steps (`initial`, `advance`, `scan`, `overlap`, `sector`, as on
    the kernel): each term is a row of the kernel's kind on that array, its
    phase the one above and its coefficient the term's weight per block s,
    and the rows go through the kernel's stepping loop, whose ops gather
    whole rows of blocks.  A term on conserved sites only is diagonal and
    joins the run around it, and terms flipping the same free sites share
    an op: combined's 26 terms make 10 ops, against 22 in the z basis.  The
    start's amplitudes low and high come from its column of the rotation.
    `overlap` reads <start|psi> off row f0 alone; `sector` takes a state
    back to z with one matrix product per free-parity half, then a gather to
    the amplitudes over `index`.  Their matrices and the gather (`_back`,
    from the full rotation) are built on the first sample, so a scan never
    builds them.
    `expectation` measures the array itself, column s weighed by `_weight[s]`
    = 1 + |high[s] / low[s]|^2: block s^ holds |ratio[s]|^2 times the norm
    and the energy of block s.

    Exact propagation (`state`) diagonalises the blocks on first use.  Block
    s^ is D times block s, so it shares its eigenbasis up to D.  Pauli
    strings on the free sites relate more of the kept blocks: where H_s =
    eps Q H_r Q (see `_orbits`), block s has energies eps E_r and
    eigenvectors Q V_r, Q acting as the signed permutation (Q v)[j] =
    (-1)^popcount(qz & j) v[j ^ qx].  Only one block per orbit is
    diagonalised, in one batched eigh (`diagonalised` counts them: 16 of
    combined's 64, 2 of melon's 8).

    The antiunitary T = K X_free fixes every free string with an even number
    of Z factors, as every XX, YY or ZZ bond leaves, so the representatives
    are built as real matrices in a T-invariant basis W (`_real_basis`,
    `_blocks_in`) and the eigh is real: V_r = W O_r, of which only the real
    O_r is held; an odd number of Z factors is refused here, not on the
    Trotter steps.  `state(t)` takes exp(-i t E) once per orbit, conjugated
    where eps = -1, multiplies O_r into its members' start coefficients
    (held padded, (orbit, level, member)) in one real batched GEMM
    (combined: 16 products of 64 x 64 by 64 x 8 reals, not 64 complex
    matvecs), and lays the products out as the (free state, kept block)
    array with one signed two-term gather: row j of V_b = Q_b W O_r is rows
    g = j ^ qx_b and g ^ tx of O_r, each times one phase that holds W's
    entry and Q_b's sign.  The start coefficients read row f0 the same way.
    """

    def __init__(self, kernel: PauliKernel):
        axes = kernel.conserved
        if not axes:
            raise ValueError("no site Pauli commutes with every term")
        if kernel.selection != "parity":
            raise ValueError("the kernel stores the full space: it has no start, or a term "
                             "flips an odd number of sites, so prod Z is not conserved")
        sites = list(axes)
        free = [k for k in range(kernel.n_qubits) if k not in axes]
        self._kernel, self._sites, self._free_sites = kernel, sites, free
        kept = np.arange(1 << (len(sites) - 1))  # block s; its complement is 2^m - 1 - s
        mirror = 2 * len(kept) - 1 - kept
        # (weight per kept block, x bits, z bits on the free sites): a conserved
        # site's Pauli, X or Y, sets its x bit and turns into Z, of sign
        # (-1)^bit j of s for the j-th conserved site
        coeff, x, z = (np.array(v) for v in zip(*kernel.strings))
        weights = coeff[:, None] * _signs(len(sites) - 1)[kept & _pack(x, sites)[:, None]]
        self._strings = list(zip(weights, _pack(x, free).tolist(), _pack(z, free).tolist()))
        self._free = np.arange(1 << len(free))
        self._parity = parity = _signs(len(free))  # (-1)^popcount(f): D's diagonal

        # column b of rot[c, s] = prod_j R_j[c_j, s_j], the rotation of the conserved
        # sites (`_back`): each R_j is its own inverse, so the start's conserved bits b
        # give the start's amplitude in every block
        column = reduce(np.kron, [_TO_Z[axes[site]][:, (kernel.start >> site) & 1]
                                  for site in reversed(sites)])
        self._f0 = _pack(kernel.start, free)
        self._low, high = column[kept], column[mirror]
        self._ratio = ratio = high * parity[self._f0] / self._low  # block s^ over D block s
        self._weight = 1 + np.abs(ratio) ** 2  # block s and its mirror, per unit of block s
        self._bra = self._low.conj() + np.abs(high) ** 2 / self._low  # <start| on row f0
        self._scratch = np.empty((len(self._free), len(kept)), dtype=np.complex128)

    # -- Trotter propagation -------------------------------------------------

    @cached_property
    def _rows(self) -> list:
        """The kernel's (coeff, flip, gather, phase) rows on the block array, in frozen order.

        coeff is the term's weight per kept block (the last axis); phase is a
        column over the free states, the scalar 1.0 for a string with no Y or
        Z on the free sites; gather is a row gather, one per distinct flip.
        """
        return _string_rows(self._strings, self._free[:, None], self._free)

    def initial(self) -> np.ndarray:
        """The rotated start state: low[s] at free state f0 of every kept block s."""
        psi = np.zeros_like(self._scratch)
        psi[self._f0] = self._low
        return psi

    def overlap(self, psi: np.ndarray) -> complex:
        """<start|psi>: row f0 of the kept blocks, with the mirror blocks folded into the bra."""
        return self._bra @ psi[self._f0]

    def sector(self, psi: np.ndarray) -> np.ndarray:
        """Amplitudes over the kernel's `index` of a (free state, kept block) array."""
        halves, where = self._back
        out = np.empty(psi.shape, dtype=np.complex128)
        for f, back in halves:
            out[f] = psi[f] @ back
        return out.reshape(-1)[where]

    @cached_property
    def _back(self) -> tuple:
        """(halves, where) of `sector`, built on its first call: a scan never samples.

        Amplitude (f, c) in z is sum_s (rot[c, s] + parity[f] ratio[s] rot[c, s^])
        psi[f, s], nonzero only where c completes the sector's parity: one half of
        the c per sign of parity[f].  halves holds (free states of that half, matrix
        (s, place of c)) per half; where gathers the result into `index` order.
        """
        kernel, sites = self._kernel, self._sites
        rot = reduce(np.kron, [_TO_Z[kernel.conserved[site]] for site in reversed(sites)])
        kept = np.arange(len(self._low))
        mirror = 2 * len(kept) - 1 - kept
        c_odd = _signs(len(sites)) < 0
        odd_start = kernel.start.bit_count() & 1
        rank = np.zeros(len(rot), dtype=np.intp)  # c's place among the c of its parity
        halves = []
        for sign, f_half in ((1.0, self._parity > 0), (-1.0, self._parity < 0)):
            c = np.flatnonzero(c_odd == odd_start ^ (sign < 0))
            rank[c] = np.arange(len(c))
            back = rot[c[:, None], kept] + sign * self._ratio * rot[c[:, None], mirror]
            halves.append((np.flatnonzero(f_half), back.T))
        where = _pack(kernel.index, self._free_sites) * len(kept) + rank[
            _pack(kernel.index, sites)]
        return halves, where

    # -- exact propagation ---------------------------------------------------

    @cached_property
    def _spectrum(self) -> _Spectrum:
        """One real eigenbasis O_r per orbit, and the layout `state` samples it in.

        Nothing else is held: a block's energies are eps times its orbit's
        `levels`, and its eigenvectors Q W O_r, whose row j is `mix[0, j]`
        times row g = j ^ qx of O_r plus `mix[1, j]` times row g ^ tx, found
        at `take` in the (orbit, state, member) layout of `state`'s product;
        the start coefficients read their row f0 the same way.  T = K X_free
        fixes a string X^x Z^z when popcount(z & ~x), its number of Z
        factors, is even: K negates each Y, X_free each Y or Z.  A free
        string of nonzero weight with an odd number is refused.
        """
        weights: dict[tuple, np.ndarray] = {}  # (x bits, z bits) on the free sites -> weights
        for w, x, z in self._strings:
            weights[x, z] = weights.get((x, z), 0.0) + w
        odd = [(x, z) for (x, z), w in weights.items() if w.any() and (z & ~x).bit_count() & 1]
        if odd:
            raise ValueError(f"{len(odd)} free-site strings have an odd number of Z factors, "
                             "so T = K X_free does not make the blocks real")
        diag, parity = self._free, self._parity
        reps, slot, eps, qx, qz = _orbits(np.array(list(weights.values())), list(weights), parity)
        a, b, norm = _real_basis(parity)
        rows = _string_rows([(w[reps], *xz) for xz, w in weights.items()], diag, diag)
        levels, vectors = np.linalg.eigh(_blocks_in(rows, a, b, norm))

        # block b's vectors are V_b = Q_b W O_r: (Q_b v)[j] = (-1)^popcount(qz_b & j) v[g],
        # g = j ^ qx_b, and (W v)[g] = (a_g v[g] + b_(g ^ tx) v[g ^ tx]) / r
        g = diag[:, None] ^ qx
        pair = np.array([g, g ^ (len(diag) - 1)])  # rows g and g ^ tx of O_r
        mix = parity[qz & diag[:, None]] * (np.array([a[g], b[pair[1]]]) / math.sqrt(norm))
        # start coefficients low[b] conj(V_b[f0]) at (orbit, level, place among its members)
        member = np.tril(slot[:, None] == slot, -1).sum(axis=1)  # earlier blocks of its orbit
        row = (mix[:, self._f0, :, None] * vectors[slot, pair[:, self._f0]]).sum(axis=0)
        coeffs = np.zeros((len(reps), len(diag), member.max() + 1), dtype=np.complex128)
        coeffs[slot, :, member] = self._low[:, None] * row.conj()
        sign = np.ones((len(reps), 1, coeffs.shape[2]))
        sign[slot, 0, member] = eps
        coeffs.imag *= sign  # conj(c) where eps = -1
        take = (slot * len(diag) + pair) * coeffs.shape[2] + member
        return _Spectrum(levels, vectors, coeffs, sign, mix, take)

    @property
    def diagonalised(self) -> int:
        """How many blocks the eigh diagonalised: one per orbit."""
        return len(self._spectrum.levels)

    def state(self, t: float) -> np.ndarray:
        """exp(-i t H) applied to the start state, as a (free state, kept block) array.

        O_r is real, so one real GEMM takes it into the phased coefficients,
        read as (real, imaginary) pairs.  Each block's rows g and g ^ tx of
        that (orbit, state, member) product are then gathered (`take`) and
        weighed by `mix`, W's entry times Q_b's sign.
        """
        spectrum = self._spectrum
        # where eps = -1 coeffs hold conj(c), and negating the imaginary part conjugates:
        # conj(exp(-i t E) conj(c)) = exp(-i t eps E) c
        phased = np.exp(-1j * t * spectrum.levels)[..., None] * spectrum.coeffs
        phased.imag *= spectrum.sign
        y = np.matmul(spectrum.vectors, phased.view(np.float64)).view(np.complex128)
        psi = spectrum.mix[0] * y.take(spectrum.take[0])
        psi += spectrum.mix[1] * y.take(spectrum.take[1])
        return psi


def expect_pauli(state: StateVector, term: PauliTerm) -> float:
    """<psi| coeff P |psi>, real for the Hermitian strings used here."""
    return PauliKernel(state.n_qubits, (term,)).expectation(state.amps)


def fidelity(a: StateVector, b: StateVector) -> float:
    """Squared overlap |<a|b>|^2."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("state sizes differ")
    return float(abs(np.vdot(a.amps, b.amps)) ** 2)


def max_amplitude_diff(a: StateVector, b: StateVector) -> float:
    """Max |amp| deviation between two states after global-phase alignment.

    Both states align on the phase of the same reference index (the largest
    amplitude of `a`); exact ties between different indices would otherwise
    make independently chosen references disagree.
    """
    k = int(np.argmax(np.abs(a.amps)))
    ra, rb = a.amps[k], b.amps[k]
    if abs(rb) < 1e-12:  # b is far from a anyway; fall back to overlap phase
        ov = np.vdot(a.amps, b.amps)
        rb = ov if abs(ov) > 0 else 1.0
    aa = a.amps * (ra.conjugate() / abs(ra)) if abs(ra) else a.amps
    bb = b.amps * (rb.conjugate() / abs(rb))
    return float(np.max(np.abs(aa - bb)))

