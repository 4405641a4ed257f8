"""Checks on the repository's tooling that the program's own tests can see."""
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_span_target_resolves():
    # the traced benchmark run (perfbench/run.py --trace 1) rebinds each
    # (module, name) pair and fails on the first one that is missing
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [(m, name) for m, name in spans.TARGETS
               if not callable(getattr(importlib.import_module(m), name, None))]
    assert len(spans.TARGETS) > 0
    assert missing == []
