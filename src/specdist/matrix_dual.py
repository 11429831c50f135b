"""Wasserstein-like distance between matrix-valued measures, dual side.

``dw1_kappa`` evaluates

    sup  sum_k tr(F_k (M1_k - M2_k))
    s.t. ||F_k||          <= kappa        for every grid point,
         ||F_k - F_{k+1}|| <= theta_{k+1} - theta_k   for adjacent points,

over Hermitian test functions sampled on the grid.  Operator-norm constraints
between adjacent points imply all pairwise ones on a line (the gaps
telescope), which keeps the constraint count linear in the grid size.

Each bound is a pair of linear matrix inequalities, so at n >= 2 the
program is one block semidefinite program, solved by the interior-point
method of :mod:`specdist.ipm` with its block-tridiagonal Schur complement;
``iterations`` counts its Newton steps.  The returned certificate is exactly
feasible and re-checkable without rerunning the solver (feasibility by
operator norms, value by the trace pairing).  It carries no flow, so the
gap audit's transport primal prices the diagonal plan first at n >= 2.

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
from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg
from .measures import Grid, MatrixMeasure, _check_compatible, _readonly
from .ipm import EPS2, BallProgram, solve_ball_program
from .pdhg import (ConvergenceError, DualCertificate, SolverOptions, no_certificate,
                   within_tolerance)
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


def assemble_dual(mu1: MatrixMeasure, mu2: MatrixMeasure, kappa: float) -> DualProblem:
    """Set up the dual program for a pair of measures on a shared grid."""
    _check_compatible(mu1, mu2)
    return DualProblem(mu1.grid, mu1.masses - mu2.masses, kappa)


def ball_program(problem: DualProblem) -> BallProgram:
    """The dual program as a ball program for :func:`solve_ball_program`: the
    chain, whose images are ``F_k - F_{k+1}``."""
    return BallProgram(linalg.to_coords(problem.deltas), np.full(problem.grid.size, problem.kappa),
                       problem.gaps)


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
    return replace(solve_ball_program(ball_program(problem), options), flow=None)


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(s, e)`` with ``s = fl(a + b)`` and ``a + b = s + e`` exactly (Knuth's TwoSum)."""
    s = a + b
    return s, (a - (s - (s - a))) + (b - (s - a))


def _chain_certificate(problem: DualProblem, options: SolverOptions) -> DualCertificate:
    delta, gaps, kappa = problem.deltas[:, 0, 0].real, problem.gaps, problem.kappa
    value, f, phi = w1_kappa_chain(delta, gaps, kappa)
    # phi's cost kappa sum_k |r_k| + gaps . |phi| bounds the optimum.  Two TwoSums
    # split r_k = (delta_k - phi_k) + phi_{k-1} into s_k + e1_k + e2_k exactly.
    # Rounding makes the fsum of the terms below miss the cost, value exceed
    # delta . f, and f's Lipschitz steps exceed the gaps (by eps/2 |f_e| on edge
    # e, which moves delta . f by that times |phi_e|).  2 eps times those terms
    # covers all three, so value <= upper; 2 eps = 2^-51 scales first (exact).
    s1, e1 = _two_sum(delta, -np.append(phi, 0.0))
    s, e2 = _two_sum(s1, np.insert(phi, 0, 0.0))
    cost = math.fsum(np.concatenate([kappa * np.abs(r) for r in (s, e1, e2)]
                                    + [gaps * np.abs(phi)]))
    upper = cost + float(EPS2 * cost + (EPS2 * np.abs(delta)) @ np.abs(f)
                         + (EPS2 * np.abs(phi)) @ np.abs(f[:-1]))
    F = f[:, None]     # the coordinates of 1x1 blocks are their entries
    cert = DualCertificate(F[..., None].astype(complex), value,
                           ball_program(problem).residual(F), 0, upper,
                           phi[:, None, None].astype(complex))
    if not within_tolerance(value, upper, options.tolerance):
        raise no_certificate(options.tolerance, "the exact chain certificate misses it by "
                             "roundoff", value, upper, cert)
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
