"""`perfbench/tracer.py` wraps module-level names of the package by name, so
a change that deletes or renames one of them fails here, not only in a traced
benchmark run. An import that the package keeps only so that the tracer can
wrap it must name an attribute the tracer wraps; every other import must be
read."""

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
# An import kept only for the tracer says so: "# noqa: F401 -- perfbench/tracer.py
# wraps <module>.<name>".
MARKER = re.compile(r"# noqa: F401 -- perfbench/tracer\.py wraps (\w+)\.(\w+)")
MODULES = ("cli", "families", "graph6", "graphs", "pregraph", "symmetry",
           "verify", "voltage")


def ours(name):
    return name == "tricirc" or name.startswith("tricirc.")


@pytest.fixture
def fresh_package():
    """The package imported afresh, as the benchmark imports it, so that a
    wrapper left behind by a failed install reaches no other test."""
    saved = {name: mod for name, mod in sys.modules.items() if ours(name)}
    for name in saved:
        del sys.modules[name]
    try:
        yield SimpleNamespace(**{
            m: importlib.import_module(f"tricirc.{m}") for m in MODULES})
    finally:
        for name in [name for name in sys.modules if ours(name)]:
            del sys.modules[name]
        sys.modules.update(saved)


def installed(package):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    tr = tracer.install(package)
    tr.unwrap()
    return tr


def test_tracer_wraps_and_restores_every_name(fresh_package):
    tr = installed(fresh_package)
    assert tr.patched
    assert tr.restored() == []


def test_imports_kept_for_the_tracer_are_wrapped(fresh_package):
    marked = []
    for path in sorted((ROOT / "src" / "tricirc").glob("*.py")):
        for module, name in MARKER.findall(path.read_text()):
            assert module == path.stem, f"{path.name} marks {module}.{name}"
            marked.append((module, name))
    assert marked
    patched = {(owner.__name__.rpartition(".")[2], attr)
               for owner, attr, _ in installed(fresh_package).patched}
    assert [m for m in marked if m not in patched] == []


def test_every_imported_name_is_read():
    """A module imports only names it reads, or that it marks as kept for the
    tracer; `__init__.py` re-exports and is left out."""
    unread = []
    for path in sorted((ROOT / "src" / "tricirc").glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        kept = {name for _, name in MARKER.findall(text)}
        tree = ast.parse(text)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).partition(".")[0]
                    if name not in read and name not in kept:
                        unread.append(f"{path.name}: {name}")
    assert unread == []
