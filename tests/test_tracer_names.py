"""`perfbench/tracer.py` wraps module-level names of the package by name, so
a change that deletes or renames one of them fails here, not only in a traced
benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
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


def test_tracer_wraps_and_restores_every_name(fresh_package):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    tr = tracer.install(fresh_package)
    tr.unwrap()
    assert tr.patched
    assert tr.restored() == []
