"""Spans around the calls into each specdist module, for the traced run only.

``Tracer.install`` replaces each public function at the name its caller looks
it up by (``cli.solve_dual``, ``matrix_primal.solve_dual``,
``linalg.clip_eigenvalues``, ...) with a wrapper that records one span per
call: name, start, end, parent span and request id, plus one count (blocks of
a batched kernel, or solver iterations) and whether the solver gave up.
Spans stay in compact in-memory arrays until ``save`` writes them out.  The
program's own source is not touched, and nothing is installed in an untraced
run.
"""

from __future__ import annotations

import math
from array import array
from time import perf_counter

import numpy as np

from specdist import cli, connes, linalg, matrix_dual, matrix_primal, measures, scalar_metrics
from specdist.pdhg import ConvergenceError

LINALG_KERNELS = (
    "clip_eigenvalues",
    "soft_threshold_eigenvalues",
    "positive_part",
    "hermitian_nuclear_norms",
    "hermitian_op_norms",
)


def _blocks(args, kwargs, result):
    shape = np.shape(args[0])
    return math.prod(shape[:-2])


def _iterations(args, kwargs, result):
    return result.iterations


# (module where the name is looked up, attribute, span name, count)
PATCHES = [
    (matrix_dual, "solve_ball_program", "pdhg.solve_ball_program", _iterations),
    (connes, "solve_ball_program", "pdhg.solve_ball_program", _iterations),
    (cli, "solve_dual", "matrix_dual.solve_dual", None),
    (matrix_primal, "solve_dual", "matrix_dual.solve_dual", None),
    (matrix_primal, "solve_unbalanced_primal", "matrix_primal.solve_unbalanced_primal",
     _iterations),
    (cli, "duality_gap", "matrix_primal.duality_gap", None),
    (cli, "load_measure", "measures.load_measure", None),
    (measures, "save_measure", "measures.save_measure", None),
    (cli, "w1_kappa_scalar", "scalar_metrics.w1_kappa_scalar", None),
    (scalar_metrics, "lp_simplex", "simplex.lp_simplex", None),
    (cli, "connes_distance", "connes.connes_distance", None),
    (cli, "itakura_saito", "spectra.itakura_saito", None),
] + [(linalg, name, f"linalg.{name}", _blocks) for name in LINALG_KERNELS]


class Tracer:
    def __init__(self, cli_main):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.count = array("d")
        self.gave_up = array("b")
        self.request_id = -1
        self._stack: list[int] = []
        self._saved: list = []
        self.main = self.wrap("cli.main", cli_main)

    def wrap(self, span_name: str, fn, count=None):
        if span_name not in self._ids:
            self._ids[span_name] = len(self.names)
            self.names.append(span_name)
        nid = self._ids[span_name]

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.request.append(self.request_id)
            self.count.append(0.0)
            self.gave_up.append(0)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except ConvergenceError as exc:
                # the best iterate rides on the exception
                self.gave_up[idx] = 1
                if count is not None and exc.solution is not None:
                    self.count[idx] = count(args, kwargs, exc.solution)
                raise
            else:
                if count is not None:
                    self.count[idx] = count(args, kwargs, result)
                return result
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()

        return traced

    def install(self):
        for module, attr, span_name, count in PATCHES:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(span_name, original, count))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- aggregation --------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=float),
            "end": np.frombuffer(self.end, dtype=float),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "request": np.frombuffer(self.request, dtype=np.int32),
            "count": np.frombuffer(self.count, dtype=float),
            "gave_up": np.frombuffer(self.gave_up, dtype=np.int8),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, summed count, give-ups."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        own = dur - child
        out = {}
        for nid, span_name in enumerate(self.names):
            sel = a["name"] == nid
            out[span_name] = {
                "calls": int(sel.sum()),
                "total_s": float(dur[sel].sum()),
                "self_s": float(own[sel].sum()),
                "count": float(a["count"][sel].sum()),
                "gave_up": int(a["gave_up"][sel].sum()),
            }
        return out

    def children_of(self, parent_name: str, child_name: str) -> int:
        """Number of ``child_name`` spans directly under a ``parent_name`` span."""
        if parent_name not in self._ids or child_name not in self._ids:
            return 0
        a = self.arrays()
        parent = a["parent"]
        under = parent >= 0
        parent_names = np.full(parent.size, -1)
        parent_names[under] = a["name"][parent[under]]
        return int(((a["name"] == self._ids[child_name])
                    & (parent_names == self._ids[parent_name])).sum())

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
