"""Statevector propagation of spin-vortex systems centered on small polarons.

Builds the vortex lattices and their Pauli-string Hamiltonians, compiles
depth-1 Trotter circuits, propagates exact statevectors, and records the
amplitude, moment, magnetization, and recurrence observables, with an XXZ
chain as the integrable baseline.  Import from the modules, for example
`vortexprop.lattice.load_system`; the package exports only `__version__`.
"""
__version__ = "0.1.0"
