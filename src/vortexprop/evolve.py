"""Time propagation: depth-1 Trotter stepping plus the exact-propagator oracle.

One period T corresponds to dimensionless phase J*T/hbar = 2 per unit
coefficient, so evolving by tau (in units of T) applies exp(-2i tau H) with H
in units of J.  The Trotter path applies the terms' exponentials as fused
ops, in the frozen term order of the compiled step circuit, which it equals
to round-off.  One rule (`_propagation`) picks where they run:

- on a sector of at most `MAX_DENSE_STEP` = 256 states (the 8-site systems,
  half-filled XXZ chains up to 10 sites) the kernel multiplies the step out
  into one dense matrix once per run and each step is one matvec, since its
  per-op numpy calls cost more than the arithmetic there;
- on larger sectors where some site Pauli commutes with every term (the
  combined system's 4096 states), on the blocks of `SiteBlocks`, rotated back
  to z only for a sample; a scan reads the fidelity off the blocks;
- elsewhere (half-filled XXZ chains of 11 or more sites, a generic chi) the
  kernel's op loop in the z basis.

A run takes the steps between two samples in one `advance` call, and a
scan reads <start|psi> after every step inside the stepping loop (`scan`).

The exact path is the validation oracle, picked by the same rule: where
some site Pauli commutes with every term it propagates the dense eigenbases
of the blocks that split H (`SiteBlocks`, which diagonalises one block per
orbit of the free-site Pauli strings, as a real matrix since the antiunitary
K X_free commutes with every block, and rebuilds each sample with one matrix
product per orbit), and elsewhere it steps the sparse sector matrix
with `expm_multiply`, both to machine precision.  Both paths propagate only the
sector of the initial basis state that `PauliKernel` stores: its
magnetization sector on the XXZ chain, else its prod-Z parity sector; final
states are embedded back into the full space.  A run records which
propagator it used (`RunResult.propagator`, written to the manifest).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# compile_trotter_step, sparse_matrix_of, apply_circuit and fidelity stay bound
# here for perfbench/spans.py
from .circuit import compile_trotter_step  # noqa: F401
from .hamiltonian import Hamiltonian, build_hamiltonian, sparse_matrix_of  # noqa: F401
from .lattice import SystemKind, SystemSpec
from .observables import PeriodEstimate, SampleRecord, estimate_period, record_sample
from .statevector import (  # noqa: F401
    PauliKernel,
    SiteBlocks,
    StateVector,
    apply_circuit,
    fidelity,
    index_to_label,
    label_to_index,
)

MAX_STEPS = 10_000_000
# Largest block run_exact diagonalises.  On 2 cores and one BLAS thread, the
# batched real eigh (SiteBlocks' form under K X_free) of 16 blocks of 256
# states takes 0.11 s, as long as 10 expm_multiply samples of a 13-site
# sector (11 ms per 0.2 T on 4096 states); 8 blocks of 512 take 0.26 s and 4
# of 1024 take 1.1 s, 100 samples.  These are the worst case, no two blocks
# related; SiteBlocks diagonalises one block per orbit, which on the built-in
# systems is a quarter or half of them.  The same cap bounds the 2^(m-1) rows
# and columns of the two back-rotation matrices of m conserved sites, on the
# Trotter and the exact path alike.
MAX_BLOCK_DIM = 256
MAX_HELD_BYTES = 1 << 30  # a run's sampled sector states and kernel working set, at their peak
TRACK_TOP_K = 8  # labels tracked beyond the four fixed ones, by peak |amplitude|


def _whole_steps(total_over_T: float, dt_over_T: float, what: str = "total_over_T") -> int:
    """Number of dt steps in `total`; it must be whole (to 1e-9) and within MAX_STEPS.

    dt must be finite and positive, and `total` finite and non-negative.
    """
    if not 0.0 < dt_over_T < math.inf:
        raise ValueError(f"dt_over_T={dt_over_T} must be finite and positive")
    if not 0.0 <= total_over_T < math.inf:
        raise ValueError(f"{what}={total_over_T} must be finite and non-negative")
    steps = total_over_T / dt_over_T
    if steps > MAX_STEPS:  # first: round() raises OverflowError on an inf
        raise ValueError(f"{what}={total_over_T} in steps of dt_over_T={dt_over_T} "
                         f"exceeds the {MAX_STEPS} step guard")
    if abs(steps - round(steps)) > 1e-9:
        raise ValueError(
            f"{what}={total_over_T} is not an integer number of dt_over_T={dt_over_T} steps"
        )
    return round(steps)


def default_initial_label(spec: SystemSpec) -> str:
    """The Neel state of the system's lattice, as a basis label (most-significant site first).

    Bit k is (x_k + y_k) mod 2 of site k's position, for every kind and size:
    melon `10101010`, combined `1010110101010`, the XXZ chain `...1010`.  The
    antimelon kind takes the complement (`01010101`), the globally flipped
    start whose series equals melon's.  On combined the pattern realizes the
    reported symmetry classes exactly (sites a, c, j, l start and stay
    degenerate).
    """
    label = "".join(str((s.pos[0] + s.pos[1]) % 2) for s in reversed(spec.sites))
    return _flip_label(label) if spec.kind is SystemKind.ANTIMELON else label


def _flip_label(label: str) -> str:
    return "".join("1" if c == "0" else "0" for c in label)


@dataclass
class RunConfig:
    system: SystemSpec
    dt_over_T: float
    total_over_T: float
    sample_pitch: int = 1
    threshold: float = 0.999
    initial_label: str | None = None

    def __post_init__(self):
        if self.sample_pitch < 1:
            raise ValueError("sample_pitch must be >= 1")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must be in (0, 1), got {self.threshold}")
        samples = _whole_steps(self.total_over_T, self.dt_over_T) // self.sample_pitch + 1
        n = self.system.n_sites
        # bytes per state of the 2^(n-1) parity sector, an upper bound where the
        # kernel keeps the smaller magnetization sector (the XXZ chain): 16 per
        # sample (complex128); the kernel's z-signs (8 per site); per bond a
        # gather (4), a YY phase (8), a fused op's alpha and beta (32) and the
        # energy's weight (8); and 13 states of scratch, start, full-space
        # embed, position lookup and peak search (208).  Against the peak that
        # tracemalloc traces in a run of 3 or 21 samples at dt = T/10 (after a
        # warm-up run), the count is 1.004 to 1.005 times it on combined at
        # chi = 0.3 (the z-basis op loop on 4096 states, 199 to 202 bytes per
        # state beyond the other terms), and 2.1 to 2.4 times it on XXZ chains
        # of 14 to 18 sites.
        # The block step (SiteBlocks) holds its alpha and beta in place of the
        # kernel's, within the same 32 per bond, since a bond's terms flip the
        # same free sites and so share an op.  Its rows hold a column over the
        # free states and a row over the blocks per term, and its two
        # back-rotation matrices at most 2 * 16 * MAX_BLOCK_DIM^2 bytes (2 MiB).
        held = (16 * samples + 8 * n + 52 * len(self.system.bonds) + 208) << (n - 1)
        if held > MAX_HELD_BYTES:
            raise ValueError(f"{samples} samples and the kernel would hold {held} bytes, "
                             f"over the {MAX_HELD_BYTES} byte guard")

    @property
    def n_steps(self) -> int:
        return round(self.total_over_T / self.dt_over_T)

    def resolve_initial_label(self) -> str:
        label = self.initial_label
        if label is None:
            label = default_initial_label(self.system)
        if len(label) != self.system.n_sites:
            raise ValueError(
                f"initial label length {len(label)} != {self.system.n_sites} sites"
            )
        return label


@dataclass
class RunResult:
    """What a run found; its site labels are `config.system.labels`."""
    config: RunConfig
    samples: list[SampleRecord]
    period: PeriodEstimate
    final_state: StateVector
    tracked: tuple[str, ...]
    propagator: dict  # kind, stored states, ops per step, conserved sites, block eighs
    health: dict  # the largest |<psi|psi> - 1| and |E - E_0| over the samples
    hamiltonian: Hamiltonian = field(repr=False)


def _resolve_tracked(initial: str, peak_norm: np.ndarray, n: int) -> tuple[str, ...]:
    """The initial label, its flip, all-up and all-down, then the TRACK_TOP_K
    other labels of largest peak |amplitude|.

    Peaks equal to 1e-9 count as tied and go in basis order, so symmetry
    partners that differ only at round-off are picked the same way by every
    propagator.
    """
    fixed = [initial, _flip_label(initial), "0" * n, "1" * n]
    seen = set(fixed)
    # the first len(fixed) + TRACK_TOP_K of the stable order hold every label
    # picked: select them, with every tie of the last, before sorting
    keys = -np.round(peak_norm, 9)
    top = min(len(keys), len(fixed) + TRACK_TOP_K)
    picked = np.flatnonzero(keys <= np.partition(keys, top - 1)[top - 1])
    order = picked[np.argsort(keys[picked], kind="stable")]
    extra: list[str] = []
    for idx in order:
        lbl = index_to_label(int(idx), n)
        if lbl not in seen:
            extra.append(lbl)
            seen.add(lbl)
        if len(extra) >= TRACK_TOP_K:
            break
    return tuple(dict.fromkeys(fixed)) + tuple(extra)


def _propagation(config: RunConfig, exact: bool = False) -> tuple[
        Hamiltonian, PauliKernel, PauliKernel | SiteBlocks, dict]:
    """(Hamiltonian, kernel, propagator, manifest record) of a run, by one rule.

    The kernel holds the initial state's sector.  `SiteBlocks` needs a
    conserved site Pauli, which makes it a parity sector here (every term is
    a two-site bond, and the kernel picks the magnetization sector only when
    no site is conserved), and, for m conserved sites, back-rotation
    matrices of 2^(m-1) <= MAX_BLOCK_DIM rows; exact runs also
    diagonalise its blocks of 2^(n-m) states, under the same cap.  Trotter
    runs step a dense kernel by one matvec (`dense`), else the blocks
    (`blocks`), else the kernel's op loop (`ops`).  Exact runs take the
    blocks' eigenbases (`exact blocks`), else `expm_multiply` on the
    kernel's sparse matrix (`expm`).  An `exact blocks` record adds the
    states per block and the blocks diagonalised (one per orbit), so the
    blocks are diagonalised here.  The record is deterministic.
    """
    h = build_hamiltonian(config.system)
    kernel = PauliKernel(h.n_sites, h.terms, label_to_index(config.resolve_initial_label()))
    m = len(kernel.conserved)
    blocks = m and max(1 << (m - 1), 1 << (h.n_sites - m) if exact else 0) <= MAX_BLOCK_DIM
    if exact:
        kind = "exact blocks" if blocks else "expm"
    else:
        kind = "dense" if kernel.dense else "blocks" if blocks else "ops"
    prop = SiteBlocks(kernel) if kind.endswith("blocks") else kernel
    labels = config.system.labels
    record = {
        "kind": kind,
        "stored_states": len(kernel.index),
        "ops_per_step": None if exact else prop.ops_per_step,
        "conserved_sites": {labels[k]: axis.value for k, axis in kernel.conserved.items()},
    }
    if kind == "exact blocks":
        record.update(block_states=1 << (h.n_sites - m), diagonalised=prop.diagonalised)
    return h, kernel, prop, record


def _run(config: RunConfig, h: Hamiltonian, kernel: PauliKernel, prop: PauliKernel | SiteBlocks,
         state_at, propagator: dict) -> RunResult:
    """Sample every pitch, then estimate the period from the fidelity series.

    `state_at(step)` returns prop's own array `step` steps of dt in, for
    steps that never decrease; step 0 is `prop.initial()`.  A sample's energy
    is `prop.expectation` of it; only its z amplitudes (`prop.sector`) are
    held, until the tracked labels are resolved from the peak norms.  The
    final state is the last sample's, or `state_at(n_steps)`'s if the total is
    not a whole number of pitches.  `propagator` describes prop.
    """
    n_steps, n = config.n_steps, config.system.n_sites
    steps = range(0, n_steps + 1, config.sample_pitch)
    states = [(0, prop.expectation(prop.initial()), kernel.basis(kernel.start))] + [
        (k, prop.expectation(psi := state_at(k)), prop.sector(psi)) for k in steps[1:]]
    final = states[-1][2] if steps[-1] == n_steps else prop.sector(state_at(n_steps))
    peak = np.zeros(len(kernel.index))
    for *_, st in states:
        np.maximum(peak, np.abs(st), out=peak)
    full_peak = np.zeros(1 << n)
    full_peak[kernel.index] = peak
    tracked = _resolve_tracked(config.resolve_initial_label(), full_peak, n)
    positions = {label: kernel.position(label_to_index(label)) for label in tracked}
    samples = [record_sample(st, kernel, positions, k, config.dt_over_T, energy)
               for k, energy, st in states]
    period = estimate_period(
        [(s.time_over_T, s.fidelity0) for s in samples], config.threshold, config.total_over_T
    )
    health = {"max_norm_drift": float(max(abs(np.vdot(st, st).real - 1) for *_, st in states)),
              "max_energy_drift": max(abs(s.energy - samples[0].energy) for s in samples)}
    return RunResult(config, samples, period, kernel.embed(final), tracked, propagator,
                     health, h)


def _stepwise(psi: np.ndarray, forward):
    """state_at for a propagator that carries one state on from psi, k steps by forward(psi, k)."""
    last = 0

    def state_at(step: int) -> np.ndarray:
        nonlocal psi, last
        psi, last = forward(psi, step - last), step
        return psi

    return state_at


def run_trotter(config: RunConfig) -> RunResult:
    """Propagate with repeated first-order Trotter steps, sampling every pitch."""
    h, kernel, prop, record = _propagation(config)
    phi = 2.0 * config.dt_over_T

    def forward(psi: np.ndarray, k: int) -> np.ndarray:
        prop.advance(psi, phi, k)
        return psi

    return _run(config, h, kernel, prop, _stepwise(prop.initial(), forward), record)


def run_exact(config: RunConfig) -> RunResult:
    """Propagate with the exact propagator, sampled at the Trotter sample times.

    Where some site Pauli commutes with every term, each sample is rebuilt
    from the start state's coefficients in the eigenbasis of the blocks of
    `SiteBlocks`.  Otherwise, or when a block or the back-rotation matrices
    would exceed MAX_BLOCK_DIM states, `expm_multiply` steps the sparse
    sector matrix.
    """
    if config.system.n_sites > 14:  # a 14-site sector is as large as the 13-site space
        raise ValueError("exact propagation capped at 14 sites")
    h, kernel, prop, record = _propagation(config, exact=True)
    dt = config.dt_over_T
    if prop is not kernel:
        return _run(config, h, kernel, prop, lambda step: prop.state(2.0 * step * dt), record)

    from scipy.sparse.linalg import expm_multiply

    hs = kernel.sparse_matrix()  # on the sector only; real for these Hamiltonians

    def forward(psi: np.ndarray, k: int) -> np.ndarray:
        return expm_multiply(-2j * (k * dt) * hs, psi)

    return _run(config, h, kernel, prop, _stepwise(prop.initial(), forward), record)


def fidelity_scan(config: RunConfig, t_max_over_T: float) -> list[tuple[float, float]]:
    """Fidelity against the initial state after every single Trotter step.

    This is the semiclassical scheme: each output statevector feeds back as
    the next input, so the propagator is built once and applied repeatedly.
    The initial state is a basis state, so the fidelity is |<start|psi>|^2,
    read inside the propagator's stepping loop (`scan`).
    """
    n_steps = _whole_steps(t_max_over_T, config.dt_over_T, "t_max_over_T")
    prop = _propagation(config)[2]
    overlaps = prop.scan(prop.initial(), 2.0 * config.dt_over_T, n_steps)[1:]
    # |<start|psi>| ** 2 as a Python float: np.hypot rounds as abs(complex) does
    return [(0.0, 1.0)] + [(step * config.dt_over_T, f ** 2) for step, f in enumerate(
        np.hypot(overlaps.real, overlaps.imag).tolist(), 1)]

