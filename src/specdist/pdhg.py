"""Certified solves: their options, results and stopping rule.

Every solve in this package is certified from both sides without trusting
the iteration: each iterate gives a lower and an upper bound on the optimum
(for the ball programs of :mod:`specdist.ipm`, a test function scaled into
the feasible set and a dual variable Y priced by weak duality; for the
transport program of :mod:`specdist.matrix_primal`, the same test function's
bound and an exactly priced plan), and a solve stops when the best bounds'
own relative gap (:func:`relative_gap`) reaches the requested tolerance.
That makes the reported value trustworthy independent of step sizes and
iteration counts.  A ball program's result is a :class:`DualCertificate`:
the feasible test function with the best lower bound, its value and the best
upper bound.  Every solve is an interior-point solve (:mod:`specdist.ipm`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class SolverOptions:
    """Iteration controls shared by all certified solves.

    ``tolerance`` is the certified relative duality gap at which a solve is
    declared converged, and ``max_iterations`` its budget of Newton steps,
    for the ball programs and the transport program alike.  Step lengths are
    not options: the solver derives its own (see :mod:`specdist.ipm`).
    """

    max_iterations: int = 200_000
    tolerance: float = 1e-6

    def __post_init__(self):
        if self.max_iterations <= 0:
            raise ValueError(f"max_iterations must be positive, got {self.max_iterations}")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError(f"tolerance must be finite and positive, got {self.tolerance}")


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted before certification.

    ``solution`` holds the best certified result available at abort (see
    :class:`Certified`).
    """

    def __init__(self, message: str, solution):
        super().__init__(message)
        self.solution = solution


class Certified:
    """Result protocol of every certified solve.

    ``value`` is the reported value, ``lower_bound <= optimum <= upper_bound``
    bracket the optimum and ``iterations`` counts the iterations spent.
    """

    @property
    def gap(self) -> float:
        return self.upper_bound - self.lower_bound


@dataclass(frozen=True)
class DualCertificate(Certified):
    """Feasible test function witnessing a lower bound on the supremum.

    The result of every ball program: ``test_function`` (stacked Hermitian
    blocks) satisfies the constraints up to ``feasibility_residual``,
    ``value`` is its pairing with the objective (an interior-point solve
    rounds it down) and ``upper_bound`` a certified bound on the supremum.
    ``flow``, when known, is the dual variable Y whose cost
    (:mod:`specdist.ipm`), rounded up, is ``upper_bound``.  An unbounded
    supremum (a divergent Connes distance) has ``value =
    upper_bound = math.inf`` and carries no witness: ``test_function`` is None.
    """

    test_function: np.ndarray | None = field(repr=False)   # (B, n, n) Hermitian
    value: float
    feasibility_residual: float
    iterations: int
    upper_bound: float
    flow: np.ndarray | None = field(default=None, repr=False)   # (E, n, n) Hermitian

    @property
    def lower_bound(self) -> float:
        return self.value


def relative_gap(lower: float, upper: float) -> float:
    """``(upper - lower) / max(|upper|, |lower|)``; 0 at [0, 0], infinite unless both are finite."""
    if not (math.isfinite(lower) and math.isfinite(upper)):
        return math.inf
    scale = max(abs(upper), abs(lower))
    return (upper - lower) / scale if scale else 0.0


def within_tolerance(lower: float, upper: float, tolerance: float) -> bool:
    """The stopping test: the bracket's relative gap within tolerance."""
    return relative_gap(lower, upper) <= tolerance


def no_certificate(tolerance: float, reason: str, lower: float, upper: float,
                   solution) -> ConvergenceError:
    """The error of a solve that stops uncertified, with its best bracket."""
    return ConvergenceError(
        f"no certificate at relative gap {tolerance:.1e}: {reason} (bounds "
        f"[{lower:.6g}, {upper:.6g}], reached {relative_gap(lower, upper):.2e})", solution)
