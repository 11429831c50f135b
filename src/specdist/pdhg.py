"""Certified solves: their options and results, and the PDHG driver.

Every solve in this package is certified from both sides without trusting
the iteration: each iterate gives a lower and an upper bound on the optimum
(for the ball programs of :mod:`specdist.ipm`, a test function scaled into
the feasible set and a dual variable Y priced by weak duality), and a solve
stops when the best bounds' own relative gap (:func:`relative_gap`) reaches
the requested tolerance.  That makes the reported value trustworthy
independent of step sizes and iteration counts.  A ball program's result
is a :class:`DualCertificate`: the feasible test function with the best
lower bound, its value and the best upper bound.

:func:`pdhg` is the first-order primal-dual hybrid-gradient (PDHG) driver
of the transport program of :mod:`specdist.matrix_primal`, which supplies
its linear map, a ``certify`` hook that turns any primal-dual pair into
certified bounds and a builder of its proximal maps at given steps.  The
driver builds the prox maps once per step size, at the start and at each
restart that moves ``omega``, so step constants such as ``tau C`` are formed
there and not in every iteration.  The driver follows PDLP (Applegate et
al., NeurIPS 2021; Applegate, Hinder, Lu and Lubin, Math. Prog. 2023):

* steps ``tau = 0.999 omega / ||L||`` and ``sigma = 0.999 / (omega ||L||)``,
  so ``tau sigma ||L||^2 < 1`` for every primal weight ``omega``;
* at every check point (every ``CHECK_EVERY`` iterations) both the current
  iterate and the running average since the last restart are certified,
  and either may improve the best bounds;
* the iteration restarts from the one with the smaller relative gap once
  that gap falls to 0.2 times its value at the last restart, or once the
  iterations since the last restart reach 0.36 times all iterations so far;
* at each restart ``omega`` moves halfway, in the log, toward the ratio of
  the primal to the dual move since the last restart, unless either move is
  negligible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

CHECK_EVERY = 50            # iterations between certifications (the only restart points)
RESTART_SUFFICIENT = 0.2    # restart once the gap falls to this share of its last-restart value
RESTART_ARTIFICIAL = 0.36   # ... or once the current run is this share of all iterations
WEIGHT_SMOOTHING = 0.5      # weight of the newest move ratio in log(omega)


@dataclass(frozen=True)
class SolverOptions:
    """Iteration controls shared by all certified solves.

    ``tolerance`` is the certified relative duality gap at which a solve is
    declared converged, and ``max_iterations`` its budget: Newton steps for
    the ball programs of :mod:`specdist.ipm`, PDHG iterations for the
    transport program.  Step sizes are not options: each solver derives its
    own (see the module docstrings).
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


def _move(new: np.ndarray, old: np.ndarray) -> float:
    """Norm of ``new - old``; 0 when negligible against the iterates themselves."""
    moved = float(np.linalg.norm(new - old))
    return moved if moved > 1e-10 * max(np.linalg.norm(new), np.linalg.norm(old)) else 0.0


def pdhg(x, y, forward, adjoint, prox_maps, map_norm, certify, package,
         options: SolverOptions):
    """Run PDHG from ``(x, y)`` until the best certified bounds meet the tolerance.

    ``prox_maps(tau, sigma)`` returns the proximal maps ``(prox_primal,
    prox_dual)`` at those steps; the driver calls it at the start and again
    whenever a restart moves the steps.  One iteration is
    ``y <- prox_dual(y + sigma L xbar)``, ``x <- prox_primal(x - tau L* y)``,
    ``xbar <- 2 x_new - x_old``.
    ``certify(x, y)`` returns ``(lower, lower_witness, upper, upper_witness)``,
    certified bounds on the optimum with whatever the caller needs to report
    them; the driver keeps the best of each.  ``package(lower, lower_witness,
    upper, upper_witness, iterations)`` builds the caller's result, returned on
    certification and carried by :class:`ConvergenceError` otherwise.  Stops,
    restarts and the error message all read :func:`relative_gap` of a bracket.
    """
    best = list(certify(x, y))   # (lower, its witness, upper, its witness) so far

    def check(xp, yp) -> float:
        lower, lower_witness, upper, upper_witness = certify(xp, yp)
        if lower > best[0]:
            best[0:2] = lower, lower_witness
        if upper < best[2]:
            best[2:4] = upper, upper_witness
        return relative_gap(lower, upper)

    def certified() -> bool:
        return within_tolerance(best[0], best[2], options.tolerance)

    if certified():
        return package(*best, 0)
    restart_gap = relative_gap(best[0], best[2])

    def steps(omega):
        tau, sigma = 0.999 * omega / map_norm, 0.999 / (omega * map_norm)
        return (tau, sigma, *prox_maps(tau, sigma))

    omega = 1.0
    tau, sigma, prox_primal, prox_dual = steps(omega)
    x_sum, y_sum = np.zeros_like(x), np.zeros_like(y)
    x_start, y_start, xbar, run = x, y, x, 0
    for it in range(1, options.max_iterations + 1):
        y = prox_dual(y + sigma * forward(xbar))
        x_new = prox_primal(x - tau * adjoint(y))
        xbar = 2.0 * x_new - x
        x = x_new
        x_sum += x
        y_sum += y
        run += 1
        if it % CHECK_EVERY and it < options.max_iterations:
            continue
        gap = check(x, y)
        x_avg, y_avg = x_sum / run, y_sum / run
        gap_avg = check(x_avg, y_avg)
        if certified():
            return package(*best, it)
        if min(gap, gap_avg) > RESTART_SUFFICIENT * restart_gap and run < RESTART_ARTIFICIAL * it:
            continue
        if gap_avg < gap:
            x, y, gap = x_avg, y_avg, gap_avg
        moved_x, moved_y = _move(x, x_start), _move(y, y_start)
        if moved_x > 0 and moved_y > 0 and math.isfinite(moved_x / moved_y):
            omega = math.exp(WEIGHT_SMOOTHING * math.log(moved_x / moved_y)
                             + (1 - WEIGHT_SMOOTHING) * math.log(omega))
            tau, sigma, prox_primal, prox_dual = steps(omega)
        x_start, y_start, xbar, run, restart_gap = x, y, x, 0, gap
        x_sum[...] = 0.0
        y_sum[...] = 0.0

    raise no_certificate(options.tolerance, f"budget of {options.max_iterations} iterations "
                         "spent", best[0], best[2], package(*best, options.max_iterations))
