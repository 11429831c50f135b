"""Output checks, one per request kind, run outside the timed region.

``Checker.check`` returns why an output is wrong (None when it is right) and
the comparisons against the upper references of references.py still to make.
Those load scipy, so a run makes them with ``Checker.compare`` only after it
has read its peak memory.  Each reference is computed once per instance and
cached.
"""

from __future__ import annotations

import json

import numpy as np

from specdist.cli import _matrix_decode
from specdist.matrix_dual import DualCertificate, assemble_dual, check_certificate
from specdist.pdhg import ConvergenceError

RTOL = 1e-9            # roundoff allowance on values the CLI and numpy both compute
LP_RTOL = 1e-7         # two exact LP solvers (simplex and HiGHS) agree to this
PROBE_RTOL = 1e-3      # kappa=inf probe stops at a relative change of 1e-4
# matrix-w1k programs get an independent upper reference when n = 1 (one
# linear program, exact) or up to this many real coordinates (K n^2); beyond
# it the cutting-plane reference takes seconds (1.3 s at K=36, n=2; 3-6 s at
# K=8, n=4; 20 s at K=128, n=2) against ~0.3 s for the request
REFERENCE_CAP = 48


def _nuclear(M: np.ndarray) -> np.ndarray:
    return np.abs(np.linalg.eigvalsh(M)).sum(axis=-1)


def _close(a: float, b: float, rtol: float = RTOL) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


class Checker:
    def __init__(self):
        self._refs = {}
        self._pending = []

    def _ref(self, inst, tag: str, compute):
        key = (id(inst), tag)
        if key not in self._refs:
            self._refs[key] = compute()
        return self._refs[key]

    def _later(self, inst, reference: str, args, compare):
        """Queue a comparison against an upper reference of references.py."""
        self._pending.append(
            lambda: compare(*self._ref(inst, reference, lambda: _reference(reference, *args))))

    def check(self, inst, code: int, stdout: str):
        """``(reason, later)``: why the output is wrong, or None, and the
        comparisons against upper references still to make (see ``compare``).
        """
        self._pending = []
        if code != 0 and not stdout.strip():
            return None, []   # an error exit without a report fails; it is not wrong
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError:
            return "output is not a JSON report", []
        if code != 0:
            return self._partial(report), []
        try:
            reason = getattr(self, "_" + inst.cls.metric.replace("-", "_"))(inst, report)
        except (KeyError, TypeError, ValueError) as exc:
            reason = f"malformed report: {exc!r}"
        return reason, self._pending

    @staticmethod
    def compare(later) -> str | None:
        """Make the queued comparisons of one request; the first failing reason.

        The references load scipy, so a run makes them after it has read its
        peak memory; a reference solve that fails is a failed check.
        """
        for compare in later:
            try:
                reason = compare()
            except (ConvergenceError, RuntimeError) as exc:
                reason = f"reference failed: {type(exc).__name__}"
            if reason is not None:
                return reason
        return None

    @staticmethod
    def _partial(report) -> str | None:
        # a non-converged solve still reports its best bracket
        if report.get("converged", True):
            return "nonzero exit on a report flagged converged"
        value, upper = report.get("value"), report.get("upper_bound")
        if isinstance(value, float) and isinstance(upper, float) and value > upper * (1 + RTOL) + RTOL:
            return f"partial value {value} above its upper bound {upper}"
        return None

    # -- certified matrix metric -------------------------------------------
    def _matrix_w1k(self, inst, report) -> str | None:
        c = inst.cls
        cert = report["certificate"]
        value, upper = float(report["value"]), float(cert["upper_bound"])
        problem = assemble_dual(inst.mu1, inst.mu2, c.kappa)
        F = np.array([_matrix_decode(Fk) for Fk in cert["test_function"]])
        violation, mismatch = check_certificate(
            problem, DualCertificate(F, value, 0.0, int(cert["iterations"]), upper))
        if violation > RTOL * max(1.0, c.kappa):
            return f"test function violates its constraints by {violation:.2e}"
        if mismatch > RTOL * max(1.0, abs(value)):
            return f"value differs from the certificate pairing by {mismatch:.2e}"
        trivial = c.kappa * float(_nuclear(problem.deltas).sum())
        if value > trivial * (1 + RTOL):
            return f"value {value} exceeds kappa * TV = {trivial}"
        scale = max(abs(upper), abs(value), 0.01 * trivial)
        if upper - value > c.tol * scale * (1 + RTOL):
            return f"certified gap {upper - value:.3e} misses the target {c.tol:g}"
        if c.n == 1 or c.K * c.n * c.n <= REFERENCE_CAP:
            self._later(inst, "w1k_upper", (np.asarray(problem.deltas), problem.gaps, c.kappa, F),
                        lambda ref, excess: _against_upper(value, ref, excess,
                                                           c.tol * max(scale, ref)))
        if c.gap_audit:
            audit = report["gap_audit"]
            primal, dual = float(audit["primal"]), float(audit["dual"])
            if primal < dual - RTOL * max(1.0, abs(dual)):
                return f"primal {primal} below dual {dual}"
            if float(audit["relative_gap"]) > c.tol * (1 + RTOL):
                return f"audited relative gap {audit['relative_gap']:.3e} misses {c.tol:g}"
        return None

    # -- scalar metrics ----------------------------------------------------
    def _w1k(self, inst, report) -> str | None:
        c = inst.cls
        value = float(report["value"])
        # the same program as matrix-w1k at n = 1, where the reference LP is exact
        problem = assemble_dual(inst.mu1, inst.mu2, c.kappa)
        self._later(inst, "w1k_upper", (np.asarray(problem.deltas), problem.gaps, c.kappa),
                    lambda ref, _: None if _close(value, ref, LP_RTOL) else
                    f"value {value} differs from the exact linear program's {ref}")
        tv = float(np.abs(inst.mu1.scalar_values() - inst.mu2.scalar_values()).sum())
        if value > c.kappa * tv * (1 + RTOL):
            return f"value {value} exceeds kappa * TV = {c.kappa * tv}"
        return None

    def _closed_form(self, inst, report, expected: float) -> str | None:
        value = float(report["value"])
        if not _close(value, expected, 1e-8):
            return f"value {value} differs from the direct evaluation {expected}"
        return None

    def _tv(self, inst, report):
        d = inst.mu1.scalar_values() - inst.mu2.scalar_values()
        return self._closed_form(inst, report, float(np.abs(d).sum()))

    def _kolmogorov(self, inst, report):
        d = np.cumsum(inst.mu1.scalar_values()) - np.cumsum(inst.mu2.scalar_values())
        return self._closed_form(inst, report, float(np.abs(d).max()))

    def _w1(self, inst, report):
        d = np.cumsum(inst.mu1.scalar_values()) - np.cumsum(inst.mu2.scalar_values())
        gaps = np.diff(inst.mu1.grid.points)
        return self._closed_form(inst, report, float(np.abs(d[:-1]) @ gaps))

    def _matrix_tv(self, inst, report):
        expected = float(_nuclear(inst.mu1.masses - inst.mu2.masses).sum())
        return self._closed_form(inst, report, expected)

    def _is(self, inst, report):
        w = inst.mu1.grid.weights
        f = inst.mu1.masses / w[:, None, None]
        g = inst.mu2.masses / w[:, None, None]
        X = np.linalg.solve(g, f)
        _, logdet = np.linalg.slogdet(X)
        n = f.shape[-1]
        terms = np.trace(X, axis1=-2, axis2=-1).real - logdet.real - n
        return self._closed_form(inst, report, float(w @ terms))

    # -- spectral distance between states ----------------------------------
    def _connes(self, inst, report) -> str | None:
        c = inst.cls
        rho1, rho2 = inst.mu1.masses[0], inst.mu2.masses[0]
        sigma = rho1 - rho2
        ops = inst.diracs
        value = report["value"]
        if c.kappa > 0:
            trivial = c.kappa * float(_nuclear(sigma))
            if float(value) > trivial * (1 + RTOL):
                return "value exceeds kappa times the trace norm of the state difference"
            self._later(inst, "connes_upper", (sigma, ops, c.kappa),
                        lambda ref, excess: _against_upper(float(value), ref, excess,
                                                           c.tol * trivial))
            return None
        unbounded = self._ref(inst, "commutant", lambda: _commutant_pairs(sigma, ops))
        if unbounded:
            return None if value == "unbounded" else f"reported {value}; sigma meets the commutant"
        if value == "unbounded":
            return "reported unbounded; sigma is orthogonal to the commutant"
        # the probe stops at a relative change of 1e-4 between doublings of
        # kappa, so its value may sit below the limit by more than that
        self._later(inst, "connes_upper", (sigma, ops, None),
                    lambda ref, excess: _against_upper(float(value), ref, excess,
                                                       PROBE_RTOL * ref))
        return None


def _reference(name: str, *args):
    import references   # loads scipy
    return getattr(references, name)(*args)


def _against_upper(value: float, ref: float, excess: float, slack: float) -> str | None:
    """Place a certified value against an independent upper reference.

    The supremum lies in ``[ref / (1 + excess), ref]``; a value certified to
    within ``slack`` of it can be neither above ``ref`` nor below the lower end
    by more than ``slack``.
    """
    if value > ref * (1 + RTOL) + RTOL:
        return f"value {value} above the independent upper reference {ref}"
    if value < ref / (1 + excess) - slack * (1 + RTOL):
        return f"value {value} below the independent reference {ref} by more than {slack:.2e}"
    return None


def _commutant_pairs(sigma: np.ndarray, ops: np.ndarray) -> bool:
    """Does sigma pair nonzero with a matrix commuting with every operator?

    Such a matrix has zero commutators, so scaling it up drives the distance
    to infinity; otherwise the supremum is finite.
    """
    n = sigma.shape[0]
    eye = np.eye(n)
    A = np.vstack([np.kron(D, eye) - np.kron(eye, D.T) for D in ops])
    _, s, vh = np.linalg.svd(A)   # A vec(f) = vec(D f - f D), row-major vec
    null = vh[s <= 1e-9 * s[0]].conj()
    pairs = [abs(np.sum(sigma.T * v.reshape(n, n))) for v in null]
    return max(pairs) > 1e-8 * max(1.0, float(np.abs(sigma).max()))
