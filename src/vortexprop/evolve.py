"""Time propagation: depth-1 Trotter stepping plus the exact-propagator oracle.

One period T corresponds to dimensionless phase J*T/hbar = 2 per unit
coefficient, so evolving by tau (in units of T) applies exp(-2i tau H) with H
in units of J.  The Trotter path applies the terms' exponentials through the
fused Pauli-term kernel, in the frozen term order of the compiled step
circuit, which it equals to round-off; the exact path applies the sparse
propagator to machine precision and serves as the validation oracle.  Both
propagate only the prod-Z parity sector of the initial basis state (see
`PauliKernel`); final states are embedded back into the full space.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# compile_trotter_step, sparse_matrix_of, apply_circuit and fidelity stay bound
# here for perfbench/spans.py
from .circuit import compile_trotter_step  # noqa: F401
from .hamiltonian import Hamiltonian, build_hamiltonian, sparse_matrix_of  # noqa: F401
from .lattice import SystemKind, SystemSpec, build_system
from .observables import PeriodEstimate, SampleRecord, estimate_period, record_sample
from .statevector import (  # noqa: F401
    PauliKernel,
    StateVector,
    apply_circuit,
    fidelity,
    label_to_index,
)

MAX_STEPS = 10_000_000
TRACK_TOP_K = 8  # labels tracked beyond the four fixed ones, by peak |amplitude|


def _whole_steps(total_over_T: float, dt_over_T: float, what: str = "total_over_T") -> int:
    """Number of dt steps in `total`; it must be whole (to 1e-9) and within MAX_STEPS."""
    steps = total_over_T / dt_over_T
    if abs(steps - round(steps)) > 1e-9:
        raise ValueError(
            f"{what}={total_over_T} is not an integer number of dt_over_T={dt_over_T} steps"
        )
    if round(steps) > MAX_STEPS:
        raise ValueError(f"{round(steps)} steps exceeds the {MAX_STEPS} step guard")
    return round(steps)


def default_initial_label(spec: SystemSpec) -> str:
    """Initial basis label per system kind (labels read most-significant first).

    Every default is the Neel state of its lattice.  For the combined system
    this is the sublattice-parity pattern; it realizes the reported symmetry
    classes exactly (sites a, c, j, l start and stay degenerate).
    """
    if spec.kind is SystemKind.MELON:
        return "10101010"
    if spec.kind is SystemKind.ANTIMELON:
        return "01010101"
    bits = [(s.pos[0] + s.pos[1]) % 2 for s in spec.sites]
    return "".join(str(b) for b in reversed(bits))


def _flip_label(label: str) -> str:
    return "".join("1" if c == "0" else "0" for c in label)


@dataclass
class RunConfig:
    system: SystemSpec
    dt_over_T: float
    total_over_T: float
    sample_pitch: int = 1
    tracked: tuple[str, ...] | None = None  # None resolves the default tracking rule
    threshold: float = 0.999
    initial_label: str | None = None

    def __post_init__(self):
        if self.dt_over_T <= 0:
            raise ValueError("dt_over_T must be positive")
        if self.sample_pitch < 1:
            raise ValueError("sample_pitch must be >= 1")
        _whole_steps(self.total_over_T, self.dt_over_T)

    @property
    def n_steps(self) -> int:
        return round(self.total_over_T / self.dt_over_T)

    def resolve_initial_label(self) -> str:
        label = self.initial_label or default_initial_label(self.system)
        if len(label) != self.system.n_sites:
            raise ValueError(
                f"initial label length {len(label)} != {self.system.n_sites} sites"
            )
        return label


@dataclass
class RunResult:
    config: RunConfig
    samples: list[SampleRecord]
    period: PeriodEstimate
    final_state: StateVector
    site_labels: tuple[str, ...]
    tracked: tuple[str, ...]
    hamiltonian: Hamiltonian | None = field(repr=False, default=None)

    def fidelity_series(self) -> list[tuple[float, float]]:
        return [(s.time_over_T, s.fidelity0) for s in self.samples]


def _resolve_tracked(
    config: RunConfig, initial: str, peak_norm: np.ndarray, n: int
) -> tuple[str, ...]:
    from .statevector import index_to_label

    if config.tracked is not None:
        return tuple(config.tracked)
    fixed = [initial, _flip_label(initial), "0" * n, "1" * n]
    seen = set(fixed)
    order = np.argsort(-peak_norm, kind="stable")
    extra: list[str] = []
    for idx in order:
        lbl = index_to_label(int(idx), n)
        if lbl not in seen:
            extra.append(lbl)
            seen.add(lbl)
        if len(extra) >= TRACK_TOP_K:
            break
    return tuple(dict.fromkeys(fixed)) + tuple(extra)


def _kernel(config: RunConfig) -> tuple[Hamiltonian, PauliKernel]:
    """The run's Hamiltonian and its kernel on the initial state's parity sector."""
    h = build_hamiltonian(config.system)
    start = label_to_index(config.resolve_initial_label())
    return h, PauliKernel(h.n_sites, h.terms, start)


def _run(
    config: RunConfig,
    h: Hamiltonian,
    kernel: PauliKernel,
    advance: Callable[[np.ndarray, int], np.ndarray],
) -> RunResult:
    """Sample every pitch, then estimate the period from the fidelity series.

    `advance(psi, k)` returns the kernel's sector amplitudes k steps of dt
    later.  Every sampled state is held until the tracked labels are resolved
    from the peak amplitude norms; the unsampled remainder is advanced to the
    total time.
    """
    spec = config.system
    pitch, n_steps = config.sample_pitch, config.n_steps
    psi = kernel.basis(kernel.start)
    states = [(0, psi.copy())]
    step = 0
    while step + pitch <= n_steps:
        psi = advance(psi, pitch)
        step += pitch
        states.append((step, psi.copy()))
    if step < n_steps:
        psi = advance(psi, n_steps - step)
    n = spec.n_sites
    peak = np.zeros(len(kernel.index))
    for _, st in states:
        np.maximum(peak, np.abs(st), out=peak)
    full_peak = np.zeros(1 << n)
    full_peak[kernel.index] = peak
    tracked = _resolve_tracked(config, config.resolve_initial_label(), full_peak, n)
    samples = [record_sample(st, kernel, tracked, k, config.dt_over_T) for k, st in states]
    period = estimate_period(
        [(s.time_over_T, s.fidelity0) for s in samples], config.threshold, config.total_over_T
    )
    return RunResult(config, samples, period, kernel.embed(psi), spec.labels, tracked, h)


def run_trotter(config: RunConfig) -> RunResult:
    """Propagate with repeated first-order Trotter steps, sampling every pitch."""
    h, kernel = _kernel(config)
    phi = 2.0 * config.dt_over_T

    def advance(psi: np.ndarray, k: int) -> np.ndarray:
        for _ in range(k):
            kernel.step(psi, phi)
        return psi

    return _run(config, h, kernel, advance)


def run_exact(config: RunConfig) -> RunResult:
    """Propagate with the exact propagator, sampled at the Trotter sample times."""
    from scipy.sparse.linalg import expm_multiply

    if config.system.n_sites > 13:
        raise ValueError("exact propagation capped at 13 sites")
    h, kernel = _kernel(config)
    hs = kernel.sparse_matrix()  # on the sector only; real for these Hamiltonians
    pitch, dt = config.sample_pitch, config.dt_over_T
    sampled = -2j * (pitch * dt) * hs

    def advance(psi: np.ndarray, k: int) -> np.ndarray:
        generator = sampled if k == pitch else -2j * k * dt * hs
        return expm_multiply(generator, psi)

    return _run(config, h, kernel, advance)


def fidelity_scan(config: RunConfig, t_max_over_T: float) -> list[tuple[float, float]]:
    """Fidelity against the initial state after every single Trotter step.

    This is the semiclassical scheme: each output statevector feeds back as
    the next input, so the propagator is built once and applied repeatedly.
    The initial state is a basis state, so the fidelity is the weight on it.
    """
    n_steps = _whole_steps(t_max_over_T, config.dt_over_T, "t_max_over_T")
    _, kernel = _kernel(config)
    psi = kernel.basis(kernel.start)
    r0 = kernel.position(kernel.start)
    phi = 2.0 * config.dt_over_T
    series = [(0.0, 1.0)]
    for step in range(1, n_steps + 1):
        kernel.step(psi, phi)
        series.append((step * config.dt_over_T, float(abs(psi[r0]) ** 2)))
    return series


def semiclassical_period_scan(config: RunConfig, t_max_over_T: float) -> PeriodEstimate:
    """Period estimate from the single-step feedback scan up to t_max."""
    series = fidelity_scan(config, t_max_over_T)
    return estimate_period(series, config.threshold, t_max_over_T)


def geometry_sweep(
    kind: SystemKind | str,
    chis: "np.ndarray | list[float]",
    dt_over_T: float = 1.0 / 300.0,
    total_over_T: float = 4.0,
) -> list[tuple[float, float]]:
    """Fidelity at t = total for each candidate global angle chi.

    The lattice rotations and reflections of the declared layout are
    relabelings with no dynamical effect, so chi is the one geometry knob
    that changes the evolution; this sweep implements the layout search
    behind the single-vortex recurrence target.
    """
    out = []
    for chi in chis:
        spec = build_system(kind, chi=float(chi))
        config = RunConfig(
            system=spec, dt_over_T=dt_over_T, total_over_T=total_over_T,
            sample_pitch=max(1, round(total_over_T / dt_over_T)),
        )
        result = run_trotter(config)
        out.append((float(chi), result.samples[-1].fidelity0))
    return out
