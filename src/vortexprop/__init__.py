"""Statevector propagation of spin-vortex systems centered on small polarons.

Builds the vortex lattices and their Pauli-string Hamiltonians, compiles
depth-1 Trotter circuits, propagates exact statevectors, and records the
amplitude, moment, magnetization, and recurrence observables, with an XXZ
chain as the integrable baseline.
"""
from .circuit import (
    Circuit,
    Gate,
    basis_change_gate,
    compile_pauli_exponential,
    compile_trotter_step,
)
from .evolve import (
    RunConfig,
    RunResult,
    default_initial_label,
    fidelity_scan,
    geometry_sweep,
    run_exact,
    run_trotter,
    semiclassical_period_scan,
)
from .hamiltonian import (
    CONSTANTS,
    Hamiltonian,
    PauliAxis,
    PauliTerm,
    PhysicalConstants,
    build_vortex_hamiltonian,
    build_xxz_hamiltonian,
    matrix_of,
    period_from_constants,
)
from .lattice import (
    Bond,
    BondKind,
    Hole,
    Site,
    SpinAngles,
    SystemKind,
    SystemSpec,
    assign_angles,
    build_system,
    site_equivalence_classes,
)
from .observables import (
    PeriodEstimate,
    SampleRecord,
    check_amplitude_symmetry,
    check_class_degeneracy,
    estimate_period,
    local_maxima,
    read_samples_csv,
    record_sample,
    write_samples_csv,
)
from .statevector import (
    PauliKernel,
    StateVector,
    apply_circuit,
    apply_gate,
    apply_pauli_exponential_direct,
    expect_pauli,
    fidelity,
    index_to_label,
    init_basis_state,
    label_to_index,
)

__version__ = "0.1.0"
