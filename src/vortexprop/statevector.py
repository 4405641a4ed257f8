"""Exact statevector backend: dense complex amplitudes with in-place kernels.

Site k maps to bit k of the basis index (little endian), so basis labels are
written most-significant site first: the rightmost character of a label is
site a.  Bit value 0 is an up spin, 1 a down spin.

Two kernels act on the amplitudes.  The gate kernels replay a compiled
circuit gate by gate; they are what the dumped circuit is checked with.  The
Pauli-term kernel encodes each term once as (coeff, x bits, z bits), fuses
the terms into one precompiled op per bond and stores only the prod-Z
parity sector of a run's initial basis state; Trotter stepping,
expectations and the sparse matrix all go through it.  On a sector of at
most MAX_DENSE_STEP states (the 8-site systems, XXZ chains up to 9 sites)
the step is one dense matvec, since there a few numpy calls per op cost more
than the arithmetic; larger sectors run the ops.

`SiteBlocks` splits the kernel's strings by the site Paulis that commute
with all of them, rotated to z.  It propagates a Trotter state on the
blocks with the kernel's step, whose ops there gather whole rows of blocks
and are fewer (10 against 22 on the 4096 states of the combined system),
and takes it back to z with one matrix product per free-parity half.  It
also propagates exactly in the blocks' eigenbases, diagonalising one block
per orbit of the Pauli strings on the free sites and mapping that block's
eigenbasis onto the others.  One function (`_string_rows`) builds every
string's gather and phase, for the kernel's rows, the blocks' rows and the
blocks' matrices; `evolve._propagation` picks the propagator of a run.
"""
from __future__ import annotations

import math
from functools import cached_property, reduce
from typing import Sequence

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

    def copy(self) -> "StateVector":
        return StateVector(self.n_qubits, self.amps.copy())


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
# and 2, the matvec takes 7-10 us at 128 states (op loop 16-29 us; 58 us on
# melon) and 21-29 us at 256 (op loop 23-38 us), but 190 us at 512 (op loop
# 55 us) and 800 us at 1024 (op loop 85 us): its dim^2 work outgrows the op
# loop's few passes over dim per op.  Building the matrix costs 1.3 ms at
# 128 states and 5 ms at 256.
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


def _signs(n_bits: int) -> np.ndarray:
    """(-1)^popcount(b) for b = 0, 1, ..., 2^n_bits - 1, as floats."""
    signs = np.ones(1)
    for _ in range(n_bits):  # setting the next bit up flips the sign
        signs = np.concatenate([signs, -signs])
    return signs


def _string_rows(strings, states: np.ndarray, shift: int = 0) -> list:
    """(coeff, flip, gather, phase) per string (coeff, x bits, z bits), in order.

    P|j ^ x> = phase[j] |j> over the basis states j in `states` (their bits, j
    stored at position j >> shift): flip is x, gather the flat positions of
    j ^ x (one array per distinct flip, None for a diagonal string), and
    phase = (-i)^popcount(x & z) (-1)^popcount(j & z), shaped like `states`,
    or the scalar 1.0 when z = 0.  The kernel's rows and the blocks' rows and
    matrices all come from here.
    """
    gathers = {x: ((states ^ x) >> shift).ravel() for _, x, _ in strings if x}
    signs = _signs(max((z.bit_length() for _, _, z in strings), default=0))
    return [(coeff, x, gathers.get(x),
             (1, -1j, -1, 1j)[(x & z).bit_count() % 4] * signs[states & z] if z else 1.0)
            for coeff, x, z in strings]


def _runs(rows):
    """Yield (gather of f, rows) per maximal run of consecutive rows whose flips lie in {0, f}.

    A row is (coeff, flip, gather, phase) (see `_string_rows`), with one
    gather array per distinct flip, so equal flips share it; a run's gather
    stays None while every row is diagonal.
    """
    gather, run = None, []
    for row in rows:
        if run and not (row[2] is None or gather is None or row[2] is gather):
            yield gather, run
            gather, run = None, []
        gather = row[2] if gather is None else gather
        run.append(row)
    if run:
        yield gather, run


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
    for gather, run in _runs(rows):
        m = None
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

    A subclass sets `_rows` and `_scratch` (of the stepped array's shape).
    The ops are compiled on the first `step` and again only when phi
    changes; a `dense` propagator then runs them once on the identity and
    steps by one matvec.  The ops gather along axis 0: the kernel's flat
    amplitudes, or whole rows of the blocks' array.
    """

    _phi: float | None = None
    _dense: np.ndarray | None = None  # U^T of the step at _phi, if dense
    dense = False

    @property
    def ops_per_step(self) -> int:
        """How many fused ops a step runs (or, when dense, multiplies into its matrix)."""
        return sum(1 for _ in _runs(self._rows))

    def step(self, amps: np.ndarray, phi: float) -> None:
        """Apply exp(-i phi coeff P) for every term in frozen order, in place."""
        if phi != self._phi:
            self._ops, self._phi = _fuse(self._rows, phi), phi
            self._dense = None
            if self.dense:
                eye = np.eye(len(amps), dtype=np.complex128)
                _apply_ops(self._ops, eye, np.empty_like(eye))
                self._dense = eye  # row r is the step applied to basis state r: U^T
        if self._dense is None:
            _apply_ops(self._ops, amps, self._scratch, axis=0)
        else:
            np.matmul(amps, self._dense, out=self._scratch)
            amps[:] = self._scratch


class PauliKernel(_FusedSteps):
    """Pauli terms precompiled once into one fused op per bond, on one parity sector.

    Built with the basis index `start` of a run's initial state, the kernel
    stores only the 2^(n-1) basis states of start's prod-Z parity: every term
    flips an even number of sites, so the other half stays exactly zero.  If
    some term flips an odd number of sites, or no start is given, it stores
    the full space.  `index` lists the stored basis states in ascending order;
    basis state i sits at position i >> shift.  Every method takes and returns
    amplitudes over `index`; `embed` gives the full 2^n state.

    Each term coeff * P is encoded once as a string (coeff, x bits, z bits),
    x holding the X and Y sites and z the Y and Z sites, and built on first
    use into a row (coeff, flip, gather, phase) by `_string_rows`.  The step,
    the energy and the sparse matrix all read these rows; a run stepped by
    `SiteBlocks` builds them only for its samples' energies.

    A Trotter step fuses each maximal run of consecutive terms whose flips
    lie in {0, f} into one op psi <- alpha * psi + beta * psi[g], with the
    gather g of f (`_fuse`).  alpha and beta are the exact product of the
    run's exponentials in frozen order, so no commutation is assumed; they
    stay scalars where they are uniform (pure XX bonds).  When at most
    MAX_DENSE_STEP states are stored (`dense`), the ops are run once on the
    identity, which gives the step's matrix, and every step is one matvec.
    The energy takes one gather per distinct flip.  One scratch buffer
    serves every call, so a kernel belongs to one run at a time.

    `initial`, `step`, `overlap` and `sector` make the kernel a Trotter
    propagator of its start state, as `SiteBlocks` is on the rotated blocks.
    """

    def __init__(self, n_qubits: int, terms: Sequence[PauliTerm], start: int | None = None):
        for term in terms:
            if term.support[-1] >= n_qubits:
                raise IndexError(f"term {term} outside {n_qubits} qubits")
        self.n_qubits = n_qubits
        self.start = start
        self.conserved = conserved_axes(terms)  # the site Paulis every term commutes with
        self.strings = [(t.coeff, sum(1 << k for k, a in t.factors if a is not PauliAxis.Z),
                         sum(1 << k for k, a in t.factors if a is not PauliAxis.X)) for t in terms]
        itype = np.int32 if n_qubits < 32 else np.int64
        if start is None or any(x.bit_count() & 1 for _, x, _ in self.strings):
            self.index, self.shift = np.arange(1 << n_qubits, dtype=itype), 0
        else:
            # bit 0 completes the parity of the upper bits, so i >> 1 is i's position
            half = np.arange(1 << (n_qubits - 1), dtype=itype)
            low = (_signs(n_qubits - 1) < 0).astype(itype) ^ (start.bit_count() & 1)
            self.index, self.shift = half << 1 | low, 1
        self._scratch = np.empty(len(self.index), dtype=np.complex128)

    # -- basis states ------------------------------------------------------

    def position(self, i: int) -> int | None:
        """Where basis state i is stored, or None when it lies outside the sector."""
        pos = i >> self.shift
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
        return _string_rows(self.strings, self.index, self.shift)

    @cached_property
    def _bonds(self) -> list:
        """(gather, w) per distinct flip: (H psi)[j] = sum of w[j] * psi[g[j]].

        The diagonal strings add up under gather None.  w is real when every
        string carries an even number of Y factors, as in these Hamiltonians.
        """
        weights: dict[int, tuple] = {}
        for coeff, flip, gather, phase in self._rows:
            w = weights[flip][1] if flip in weights else 0.0
            weights[flip] = (gather, w + coeff * phase)
        return list(weights.values())

    # -- Trotter propagation ---------------------------------------------------

    @property
    def dense(self) -> bool:
        """Whether `step` is one dense matvec: at most MAX_DENSE_STEP stored states."""
        return len(self.index) <= MAX_DENSE_STEP

    def initial(self) -> np.ndarray:
        """The start basis state, as `step` takes it."""
        return self.basis(self.start)

    def overlap(self, amps: np.ndarray) -> complex:
        """<start|psi>; the start always lies in the stored set."""
        return amps[self.start >> self.shift]

    def sector(self, amps: np.ndarray) -> np.ndarray:
        """Amplitudes over `index`: the stepped ones themselves."""
        return amps

    # -- H itself ----------------------------------------------------------------

    def expectation(self, amps: np.ndarray) -> float:
        """sum_k coeff_k <psi|P_k|psi>, real for the Hermitian strings used here."""
        total = 0.0
        for gather, w in self._bonds:
            moved = amps if gather is None else amps.take(gather, out=self._scratch, mode="clip")
            total += np.vdot(amps, np.multiply(moved, w, out=self._scratch)).real
        return float(total)

    def sparse_matrix(self):
        """CSR matrix of sum_k coeff_k P_k over the stored basis states.

        One entry per stored basis state and distinct flip; real whenever
        every string carries an even number of Y factors.
        """
        from scipy.sparse import coo_matrix, csr_matrix

        dim = len(self.index)
        if not self._bonds:
            return csr_matrix((dim, dim))
        rows = np.arange(dim)
        cols = [rows if g is None else g for g, _ in self._bonds]
        data = [np.broadcast_to(w, (dim,)) for _, w in self._bonds]
        return coo_matrix(
            (np.concatenate(data), (np.tile(rows, len(cols)), np.concatenate(cols))),
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


def conserved_axes(terms: Sequence[PauliTerm]) -> dict[int, PauliAxis]:
    """Sites whose every factor has one axis, X or Y, mapped to that axis.

    That Pauli commutes with every term, so with H and with each term's
    exponential.  Sites no term acts on are left out.
    """
    seen: dict[int, set[PauliAxis]] = {}
    for term in terms:
        for site, axis in term.factors:
            seen.setdefault(site, set()).add(axis)
    return {site: axis for site, (axis, *rest) in sorted(seen.items())
            if not rest and axis is not PauliAxis.Z}


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

    Trotter steps (`initial`, `step`, `overlap`, `sector`, as on the kernel):
    each term is a row of the kernel's kind on that array, its phase the one
    above and its coefficient the term's weight per block s, and the rows go
    through the kernel's `step`, whose ops gather whole rows of blocks.
    A term on conserved sites only is diagonal and joins the run around it,
    and terms flipping the same free sites share an op: combined's 26 terms
    make 10 ops, against 22 in the z basis.  `overlap` reads <start|psi> off
    row f0 alone; `sector` takes a state back to z with one matrix product
    per free-parity half, then a gather to the amplitudes over `index`.

    Exact propagation (`state`) diagonalises the blocks on first use.  The
    block s^ shares `energies[s]` and has eigenvectors D `vectors[s]`.
    Pauli strings on the free sites relate more of the kept blocks: where
    H_s = eps Q H_r Q (see `_orbits`), block s has energies eps E_r and
    eigenvectors Q V_r, Q acting as the signed permutation
    (Q v)[j] = (-1)^popcount(qz & j) v[j ^ qx].  Only one block per orbit is
    diagonalised, in one batched eigh (`diagonalised` counts them: 16 of
    combined's 64, 2 of melon's 8); the others are filled in from it.  A row
    of `energies` is therefore ascending, or descending where eps = -1.
    `state(t)` takes one phase multiply, one batched matvec and `sector`.
    """

    def __init__(self, kernel: PauliKernel):
        axes = kernel.conserved
        if not axes:
            raise ValueError("no site Pauli commutes with every term")
        if not kernel.shift:
            raise ValueError("the kernel stores the full space: it has no start, or a term "
                             "flips an odd number of sites, so prod Z is not conserved")
        sites = list(axes)
        free = [k for k in range(kernel.n_qubits) if k not in axes]
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

        # rot[c, s] = prod_j R_j[c_j, s_j], the rotation of the conserved sites;
        # each R_j is its own inverse, so the start's conserved bits b give column b
        rot = reduce(np.kron, [_TO_Z[axis] for axis in reversed(axes.values())])
        b = _pack(kernel.start, sites)
        self._f0 = _pack(kernel.start, free)
        self._low, high = rot[kept, b], rot[mirror, b]
        ratio = high * parity[self._f0] / self._low  # block s^ over D block s
        self._bra = self._low.conj() + np.abs(high) ** 2 / self._low  # <start| on row f0

        # back to z: amplitude (f, c) = sum_s (rot[c, s] + parity[f] ratio[s] rot[c, s^])
        # psi[f, s], nonzero only where c completes the sector's parity: one half
        # of the c per sign of parity[f]
        c_odd = _signs(len(sites)) < 0
        odd_start = kernel.start.bit_count() & 1
        rank = np.zeros(len(rot), dtype=np.intp)  # c's place among the c of its parity
        self._halves = []  # (free states of one parity, matrix (s, place of c))
        for sign, f_half in ((1.0, parity > 0), (-1.0, parity < 0)):
            c = np.flatnonzero(c_odd == odd_start ^ (sign < 0))
            rank[c] = np.arange(len(c))
            back = rot[c[:, None], kept] + sign * ratio * rot[c[:, None], mirror]
            self._halves.append((np.flatnonzero(f_half), back.T))
        self._where = _pack(kernel.index, free) * len(kept) + rank[_pack(kernel.index, sites)]
        self._scratch = np.empty((len(self._free), len(kept)), dtype=np.complex128)

    # -- Trotter propagation -------------------------------------------------

    @cached_property
    def _rows(self) -> list:
        """The kernel's (coeff, flip, gather, phase) rows on the block array, in frozen order.

        coeff is the term's weight per kept block (the last axis); phase is a
        column over the free states, the scalar 1.0 for a string with no Y or
        Z on the free sites; gather is a row gather, one per distinct flip.
        """
        return _string_rows(self._strings, self._free[:, None])

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
        out = np.empty(psi.shape, dtype=np.complex128)
        for f, back in self._halves:
            out[f] = psi[f] @ back
        return out.reshape(-1)[self._where]

    # -- exact propagation ---------------------------------------------------

    @cached_property
    def _spectrum(self) -> tuple:
        """(energies, vectors, blocks diagonalised, start coefficients); see the class doc."""
        weights: dict[tuple, np.ndarray] = {}  # (x bits, z bits) on the free sites -> weights
        for w, x, z in self._strings:
            weights[x, z] = weights.get((x, z), 0.0) + w
        diag, parity = self._free, self._parity
        reps, slot, eps, qx, qz = _orbits(np.array(list(weights.values())), list(weights), parity)
        blocks = np.zeros((len(reps), len(diag), len(diag)), dtype=np.complex128)
        for w, _, gather, phase in _string_rows([(w, *xz) for xz, w in weights.items()], diag):
            blocks[:, diag, diag if gather is None else gather] += w[reps, None] * phase
        energies, vectors = np.linalg.eigh(blocks)
        del blocks  # freed before the gather allocates every block's vectors
        energies = eps[:, None] * energies[slot]
        vectors = vectors[slot[:, None], diag ^ qx[:, None]]  # row j of V_r is row j ^ qx
        vectors *= parity[qz[:, None] & diag][..., None]
        coeffs = self._low[:, None] * vectors[:, self._f0, :].conj()
        return energies, vectors, len(reps), coeffs

    @property
    def energies(self) -> np.ndarray:
        """Eigenvalues of each kept block, one row per block."""
        return self._spectrum[0]

    @property
    def vectors(self) -> np.ndarray:
        """Eigenvectors of each kept block, in its columns."""
        return self._spectrum[1]

    @property
    def diagonalised(self) -> int:
        """How many blocks the eigh diagonalised: one per orbit."""
        return self._spectrum[2]

    def state(self, t: float) -> np.ndarray:
        """exp(-i t H) applied to the start state, over `index`."""
        energies, vectors, _, coeffs = self._spectrum
        phased = np.exp(-1j * t * energies) * coeffs
        return self.sector(np.matmul(vectors, phased[..., None])[..., 0].T)


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

