"""The names of the library that the benchmark harness in ``perfbench/`` uses.

``perfbench/tracing.py`` patches solver and kernel names by attribute,
``perfbench/kernels.py`` times kernels by name, and the harness modules import
names from ``specdist``.  A cut of the library that removes one of them breaks
the benchmark, so these tests read the names from ``perfbench`` itself.
"""

import ast
import importlib
from pathlib import Path

import pytest

from specdist import cli, linalg

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))


def test_tracer_installs_and_uninstalls(harness):
    tracing = importlib.import_module("tracing")
    originals = [getattr(module, attr) for module, attr, _, _ in tracing.PATCHES]
    tracer = tracing.Tracer(cli.main)
    try:
        tracer.install()
        for (module, attr, _, _), original in zip(tracing.PATCHES, originals):
            assert getattr(module, attr) is not original
    finally:
        tracer.uninstall()
    for (module, attr, _, _), original in zip(tracing.PATCHES, originals):
        assert getattr(module, attr) is original


def test_timed_kernels_exist(harness):
    kernels = importlib.import_module("kernels")
    assert kernels.KERNELS
    for name in kernels.KERNELS:
        assert callable(getattr(linalg, name))


def _specdist_imports(path):
    """``(module, name)`` for every ``from specdist... import name`` in a file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "specdist":
            yield from ((node.module, alias.name) for alias in node.names)


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")), ids=lambda p: p.name)
def test_imported_names_resolve(path):
    for module_name, name in _specdist_imports(path):
        module = importlib.import_module(module_name)
        if not hasattr(module, name):   # a submodule, as in ``from specdist import cli``
            importlib.import_module(f"{module_name}.{name}")
