"""Span recording for the traced benchmark run.

Spans are recorded by rebinding, for the duration of a traced pass, the
public names each vortexprop caller looks up at call time.  The program's
code is not changed.  Spans live in flat arrays (name id, parent span, op
slot, start and end in ns) and are written out once, when the run ends.
"""
from __future__ import annotations

import importlib
import json
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

GATE_KINDS = ("H", "RX", "RZ", "CNOT", "I")

# (module, name looked up there at call time); the span takes the name
TARGETS = (
    ("vortexprop.statevector", "apply_gate"),  # called by apply_circuit
    ("vortexprop.evolve", "apply_circuit"),
    ("vortexprop.evolve", "record_sample"),
    ("vortexprop.evolve", "fidelity"),
    ("vortexprop.observables", "fidelity"),
    ("vortexprop.observables", "expect_pauli"),
    ("scipy.sparse.linalg", "expm_multiply"),  # imported inside run_exact
    ("vortexprop.evolve", "build_hamiltonian"),
    ("vortexprop.evolve", "compile_trotter_step"),
    ("vortexprop.evolve", "sparse_matrix_of"),
    ("vortexprop.runner", "run_trotter"),
    ("vortexprop.runner", "write_samples_csv"),
    ("vortexprop.runner", "emit_plot_data"),
)


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.slot = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.current_slot = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self) -> int:
        return len(self.name)

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.slot.append(self.current_slot)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(i)

    def _wrap(self, fn, name: str):
        if name == "apply_gate":
            ids = {k: self.name_id(f"apply_gate.{k}") for k in GATE_KINDS}
            nid_of = lambda args: ids[args[1].kind]
        else:
            nid = self.name_id(name)
            nid_of = lambda args: nid
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            i = open_(nid_of(args))
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)

        return traced

    @contextmanager
    def installed(self):
        """Rebind every target to a span-recording wrapper, then restore it."""
        saved = []
        try:
            for module_name, attr in TARGETS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, attr))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def table(self) -> dict[str, np.ndarray]:
        """Arrays over all spans: name, parent, slot, dur_ns and self_ns."""
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": parent,
            "slot": np.frombuffer(self.slot, dtype=np.int32),
            "dur_ns": dur,
            "self_ns": dur - child,
        }

    def write(self, path: Path) -> None:
        np.savez_compressed(
            path,
            names=np.array(json.dumps(self.names)),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            slot=np.frombuffer(self.slot, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )
