"""The names of the library that the benchmark harness in ``perfbench/`` uses.

``perfbench/tracing.py`` patches solver and kernel names by attribute,
``perfbench/kernels.py`` times kernels by name, and the harness modules import
names from ``specdist``.  A cut of the library that removes one of them breaks
the benchmark, so these tests read the names from ``perfbench`` itself.
"""

import ast
import importlib
import json
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


@pytest.mark.parametrize("kappa, solves", [("1", 1), ("0", 0)], ids=["bounded", "unbounded"])
def test_traced_connes_request(harness, tmp_path, kappa, solves):
    # connes.ball_solves_per_distance counts the ball solves under each traced
    # distance: both names must be the ones the library calls through
    tracing = importlib.import_module("tracing")
    assert cli.main(["gen-spectra", "--grid-points", "4", "--out", str(tmp_path)]) == 0
    (tmp_path / "dirac.json").write_text(json.dumps([[[[1, 0], [0.5, 0]], [[0.5, 0], [-1, 0]]]]))
    tracer = tracing.Tracer(cli.main)
    tracer.install()
    try:
        code = tracer.main(["dist", "--metric", "connes", "--kappa", kappa,
                            "--dirac", str(tmp_path / "dirac.json"), "--out", str(tmp_path / "out"),
                            str(tmp_path / "f0.json"), str(tmp_path / "f1.json")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.summary()["connes.connes_distance"]["calls"] == 1
    assert tracer.children_of("connes.connes_distance", "pdhg.solve_ball_program") == solves


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
