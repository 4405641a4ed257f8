"""Checks on the repository's tooling that the program's own tests can see."""
import argparse
import ast
import importlib
import importlib.util
import re
from pathlib import Path

from vortexprop.runner import _CONFIG_KEYS, SUITE_NAMES, build_parser

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
README = (ROOT / "README.md").read_text()


def _span_targets() -> tuple:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


def test_every_span_target_resolves():
    # the traced benchmark run (perfbench/run.py --trace 1) rebinds each
    # (module, name) pair and fails on the first one that is missing
    targets = _span_targets()
    missing = [(m, name) for m, name in targets
               if not callable(getattr(importlib.import_module(m), name, None))]
    assert len(targets) > 0
    assert missing == []


def test_unused_imports_are_span_targets():
    # a name a module imports and never uses is only a re-export for the spans;
    # once perfbench/spans.py stops binding it, it must go
    unused = set()
    for path in sorted((ROOT / "src" / "vortexprop").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__" for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused |= {(f"vortexprop.{path.stem}", name) for name in imported - used}
    assert unused - set(_span_targets()) == set()


def test_readme_lists_every_simulate_flag():
    # the README's "Flags:" paragraph names every `simulate` option and no other
    paragraph = README[README.index("Flags:"):].split("\n\n")[0]
    documented = set(re.findall(r"`(--[a-z][a-z-]*)", paragraph))
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {opt for action in sub.choices["simulate"]._actions
               for opt in action.option_strings if opt.startswith("--") and opt != "--help"}
    assert documented == options


def test_every_config_key_has_a_flag():
    # a --config value is checked with the flag of the same dest
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    dests = [a.dest for a in sub.choices["simulate"]._actions]
    assert sorted(set(dests) - {"help", "config"}) == sorted(_CONFIG_KEYS)


def test_readme_lists_every_module_and_suite():
    # the "Package layout" table has one row per module, and the command-line
    # example lists the `suite` names in the parser's order
    section = README[README.index("## Package layout"):].split("\n## ")[0]
    documented = re.findall(r"^\| `vortexprop\.(\w+)` \|", section, re.M)
    modules = {p.stem for p in (ROOT / "src" / "vortexprop").glob("*.py")} - {"__init__"}
    assert sorted(documented) == sorted(modules)
    suites = re.search(r"# reproduction suites: (.*)", README).group(1)
    assert tuple(suites.split(" | ")) == SUITE_NAMES


def test_src_calls_nothing_newer_than_the_numpy_floor():
    # pyproject.toml declares numpy>=1.24; these module functions arrived in
    # numpy 2.0 (np.bitwise_count among them: use int.bit_count or a table)
    assert '"numpy>=1.24"' in (ROOT / "pyproject.toml").read_text()
    newer = {"bitwise_count", "concat", "isdtype", "permute_dims", "matrix_transpose",
             "vecdot", "vecmat", "matvec", "unique_all", "unique_counts", "unique_inverse",
             "unique_values", "cumulative_sum", "cumulative_prod", "astype", "trapezoid"}
    used = {name for path in (ROOT / "src" / "vortexprop").glob("*.py")
            for name in re.findall(r"\bnp\.(\w+)", path.read_text())}
    assert used & newer == set()
