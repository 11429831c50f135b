"""Wasserstein-like distance between matrix-valued measures, dual side.

``dw1_kappa`` evaluates

    sup  sum_k tr(F_k (M1_k - M2_k))
    s.t. ||F_k||          <= kappa        for every grid point,
         ||F_k - F_{k+1}|| <= theta_{k+1} - theta_k   for adjacent points,

over Hermitian test functions sampled on the grid.  Operator-norm constraints
between adjacent points imply all pairwise ones on a line (the gaps
telescope), which keeps the constraint count linear in the grid size.

Solved by the projection solver in :mod:`specdist.pdhg`; the returned
certificate is exactly feasible and re-checkable without rerunning the
solver (feasibility by operator norms, value by the trace pairing).

At n = 1 the program is the scalar flat metric's chain program, and
``solve_dual`` certifies it exactly without iterating: one call of
:func:`specdist.scalar_metrics.w1_kappa_chain` returns the optimal edge flow
of the dual chain and the test function read off it.  The test function
gives the lower bound and the flow, used as the ball program's dual
variable, the upper bound.  The two meet to roundoff, and the certificate
carries both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .measures import Grid, MatrixMeasure, _check_compatible, _readonly
from .pdhg import (BallProgram, ConvergenceError, DualCertificate, SolverOptions,
                   _residual, solve_ball_program, within_tolerance)
from .scalar_metrics import w1_kappa_chain

__all__ = [
    "DualProblem",
    "DualCertificate",
    "SolverOptions",
    "ConvergenceError",
    "assemble_dual",
    "ball_program",
    "solve_dual",
    "dw1_kappa",
    "check_certificate",
]

DIFFERENCE_MAP_NORM = 2.0


@dataclass(frozen=True)
class DualProblem:
    """Mass differences, adjacent gaps and the bound kappa of one dual solve."""

    grid: Grid
    deltas: np.ndarray = field(repr=False)   # (K, n, n) Hermitian
    kappa: float

    def __post_init__(self):
        if not (math.isfinite(self.kappa) and self.kappa > 0):
            raise ValueError(f"kappa must be finite and positive, got {self.kappa}")
        deltas = linalg.as_hermitian(self.deltas)
        if deltas.ndim != 3 or deltas.shape[0] != self.grid.size:
            raise ValueError(f"deltas have shape {deltas.shape}")
        object.__setattr__(self, "deltas", _readonly(deltas))

    @property
    def dim(self) -> int:
        return self.deltas.shape[-1]

    @property
    def gaps(self) -> np.ndarray:
        return self.grid.spacings


def _forward(F: np.ndarray) -> np.ndarray:
    return F[:-1] - F[1:]


def _adjoint(Y: np.ndarray) -> np.ndarray:
    out = np.zeros((Y.shape[0] + 1,) + Y.shape[1:], dtype=Y.dtype)
    out[:-1] += Y
    out[1:] -= Y
    return out


def assemble_dual(mu1: MatrixMeasure, mu2: MatrixMeasure, kappa: float) -> DualProblem:
    """Set up the dual program for a pair of measures on a shared grid."""
    _check_compatible(mu1, mu2)
    return DualProblem(mu1.grid, mu1.masses - mu2.masses, kappa)


def ball_program(problem: DualProblem) -> BallProgram:
    """The dual program as a ball program for :func:`solve_ball_program`."""
    return BallProgram(
        objective=linalg.to_coords(problem.deltas),
        ball_radii=np.full(problem.grid.size, problem.kappa),
        forward=_forward,
        adjoint=_adjoint,
        image_radii=problem.gaps,
        map_norm=DIFFERENCE_MAP_NORM,
    )


def solve_dual(problem: DualProblem, options: SolverOptions | None = None) -> DualCertificate:
    """Certified solve of the dual program.

    The certificate value is a guaranteed lower bound on the supremum and
    ``upper_bound`` a guaranteed upper bound; their relative gap is at most
    the options' tolerance.  Raises :class:`ConvergenceError` (carrying the
    best iterate) if the budget runs out first.  At n = 1 (and K >= 2) the
    certificate is exact and takes 0 iterations; a tolerance below its
    roundoff raises :class:`ConvergenceError` carrying it.
    """
    options = options or SolverOptions()
    if problem.dim == 1 and problem.grid.size >= 2:
        return _chain_certificate(problem, options)
    return solve_ball_program(ball_program(problem), options)


def _chain_certificate(problem: DualProblem, options: SolverOptions) -> DualCertificate:
    delta, gaps, kappa = problem.deltas[:, 0, 0].real, problem.gaps, problem.kappa
    value, f, phi = w1_kappa_chain(delta, gaps, kappa)
    # delta . f <= optimum <= the ball program's upper bound at Y = phi in exact
    # arithmetic.  Both sums are correctly rounded, and the upper bound is rounded
    # up by a bound on the rounding of their terms and of f's Lipschitz steps, so
    # the bracket keeps that order; 4 eps = 2^-50 scales first: exact, no overflow
    cost = np.concatenate((kappa * np.abs(delta - _adjoint(phi)), gaps * np.abs(phi)))
    tv, eps4 = float(np.abs(delta).sum()), 4.0 * np.finfo(float).eps
    rounding = eps4 * kappa * (tv + np.abs(phi).sum()) + eps4 * (gaps @ np.abs(phi))
    upper = math.fsum(cost) + float(rounding)
    F = f[:, None]     # the coordinates of 1x1 blocks are their entries
    residual = _residual(F, _forward(F), np.full(delta.size, kappa), gaps)
    cert = DualCertificate(F[..., None].astype(complex), value, residual, 0, upper,
                           phi[:, None, None].astype(complex))
    # the driver's floor: 1% of the larger bound at F = 0, Y = 0
    if not within_tolerance(value, upper, 0.01 * kappa * tv, options.tolerance):
        raise ConvergenceError(
            f"the exact chain certificate misses relative gap {options.tolerance:.1e} "
            f"by roundoff (bounds [{value:.6g}, {upper:.6g}])", cert)
    return cert


def dw1_kappa(
    mu1: MatrixMeasure,
    mu2: MatrixMeasure,
    kappa: float,
    options: SolverOptions | None = None,
) -> float:
    """The matricial unbalanced Wasserstein-like distance (certificate value)."""
    return solve_dual(assemble_dual(mu1, mu2, kappa), options).value


def check_certificate(problem: DualProblem, cert: DualCertificate) -> tuple[float, float]:
    """Re-check a certificate from scratch: (constraint violation, value mismatch).

    Uses numpy's SVD-based operator norms, independent of the solver run and
    of the closed-form kernels in :mod:`specdist.linalg`.
    """
    F = cert.test_function
    violation = max(
        float((np.linalg.norm(F, 2, axis=(-2, -1)) - problem.kappa).max()),
        float((np.linalg.norm(F[:-1] - F[1:], 2, axis=(-2, -1)) - problem.gaps).max(
            initial=-np.inf)),
    )
    value = sum(float(np.trace(Fk @ Dk).real) for Fk, Dk in zip(F, problem.deltas))
    return max(0.0, violation), abs(value - cert.value)
