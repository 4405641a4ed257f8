"""Checks on the repository's tooling that the program's own tests can see."""
import argparse
import ast
import importlib
import importlib.util
import re
from pathlib import Path
from types import SimpleNamespace

from vortexprop.evolve import RunConfig, _propagation
from vortexprop.lattice import build_system
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


def _unreferenced(nodes_of, read_as: str) -> list:
    """The public names (`nodes_of(module tree)` yields (owner, node)) that nothing reads.

    A name is read when `read_as` (a pattern around the name) matches src/
    outside the name's own definition, or perfbench/, or when it is a word of
    an inline backtick span of README.md; a fenced block is skipped whole, so
    its three backticks do not pair the prose around it into spans.
    """
    sources = {p: p.read_text() for p in sorted((ROOT / "src" / "vortexprop").glob("*.py"))}
    bench = "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
    documented = {w for span in re.findall(r"```.*?```|`([^`]+)`", README, re.S)
                  for w in re.findall(r"\w+", span)}
    unreferenced = []
    for path, text in sources.items():
        lines = text.splitlines()
        for owner, node in nodes_of(ast.parse(text)):
            if node.name.startswith("_") or node.name in documented:
                continue
            rest = "\n".join(lines[:node.lineno - 1] + lines[node.end_lineno:]
                             + [t for p, t in sources.items() if p != path] + [bench])
            if not re.search(read_as.format(re.escape(node.name)), rest):
                unreferenced.append(f"vortexprop.{path.stem}.{owner}{node.name}")
    return unreferenced


def test_every_public_name_has_a_caller_beyond_the_tests():
    # a public function or class of the package must be referenced by name
    # in src/ outside its own definition, in perfbench/, or in backticks in
    # README.md: a name that only tests call belongs in tests/
    def module_level(tree):
        return [("", n) for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))]

    assert _unreferenced(module_level, r"\b{}\b") == []


def test_every_public_method_has_a_caller_beyond_the_tests():
    # so must a public method or property of a class in src/, read as `.name`:
    # a reader that only tests call belongs in tests/oracles.py
    def methods(tree):
        return [(f"{c.name}.", n) for c in tree.body if isinstance(c, ast.ClassDef)
                for n in c.body if isinstance(n, ast.FunctionDef)]

    assert _unreferenced(methods, r"\.{}\b") == []


def test_every_record_field_has_a_reader_beyond_the_tests():
    # so must each annotated field of a dataclass or NamedTuple in src/, read
    # as `.field` outside its own class: a field that only tests read repeats
    # a value another record owns, or records nothing the program uses
    def is_record(c):
        return (any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in c.bases)
                or any("dataclass" in ast.unparse(d) for d in c.decorator_list))

    def record_fields(tree):
        return [(f"{c.name}.", SimpleNamespace(name=s.target.id, lineno=c.lineno,
                                               end_lineno=c.end_lineno))
                for c in tree.body if isinstance(c, ast.ClassDef) and is_record(c)
                for s in c.body if isinstance(s, ast.AnnAssign)]

    assert _unreferenced(record_fields, r"\.{}\b") == []


def test_readme_lists_every_simulate_flag():
    # the README's "Flags:" paragraph names every `simulate` option and no other
    paragraph = README[README.index("Flags:"):].split("\n\n")[0]
    documented = set(re.findall(r"`(--[a-z][a-z-]*)", paragraph))
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {opt for action in sub.choices["simulate"]._actions
               for opt in action.option_strings if opt.startswith("--") and opt != "--help"}
    assert documented == options


def test_readme_manifest_bullet_names_every_propagator_key():
    # the `manifest.json` bullet names, in backticks, every key of the propagator
    # record, for each kind of Trotter and exact run
    bullet = README[README.index("* `manifest.json`"):].split("\n* ")[0]
    documented = set(re.findall(r"`(\w+)`", bullet))
    systems = [build_system("melon"), build_system("combined"),
               build_system("combined", chi=0.3), build_system("xxz", n=8)]
    records = [_propagation(RunConfig(spec, 0.1, 0.1), exact)[3]
               for spec in systems for exact in (False, True)]
    assert {r["kind"] for r in records} == {"dense", "blocks", "ops", "exact blocks", "expm"}
    assert set().union(*records) - documented == set()


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


def test_every_spectrum_field_is_read():
    # each field of statevector._Spectrum is read as `.field` somewhere in src/
    # outside the class itself: a field that nothing reads is dead weight
    path = ROOT / "src" / "vortexprop" / "statevector.py"
    text = path.read_text()
    node = next(n for n in ast.parse(text).body
                if isinstance(n, ast.ClassDef) and n.name == "_Spectrum")
    fields = [s.target.id for s in node.body if isinstance(s, ast.AnnAssign)]
    lines = text.splitlines()
    rest = "\n".join(lines[:node.lineno - 1] + lines[node.end_lineno:] + [
        p.read_text() for p in sorted((ROOT / "src" / "vortexprop").glob("*.py")) if p != path])
    assert len(fields) > 0
    assert [f for f in fields if not re.search(rf"\.{f}\b", rest)] == []
