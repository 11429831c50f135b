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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .measures import MatrixMeasure, _check_compatible, _readonly
from .measures import Grid
from .pdhg import (BallProgram, ConvergenceError, DualCertificate, SolverOptions,
                   solve_ball_program)

__all__ = [
    "DualProblem",
    "DualCertificate",
    "SolverOptions",
    "ConvergenceError",
    "assemble_dual",
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


def solve_dual(problem: DualProblem, options: SolverOptions | None = None) -> DualCertificate:
    """Certified solve of the dual program.

    The certificate value is a guaranteed lower bound on the supremum and
    ``upper_bound`` a guaranteed upper bound; their relative gap is at most
    the options' tolerance.  Raises :class:`ConvergenceError` (carrying the
    best iterate) if the budget runs out first.
    """
    options = options or SolverOptions()
    K = problem.grid.size
    program = BallProgram(
        objective=problem.deltas,
        ball_radii=np.full(K, problem.kappa),
        forward=_forward,
        adjoint=_adjoint,
        image_radii=problem.gaps,
        map_norm=DIFFERENCE_MAP_NORM,
    )
    return solve_ball_program(program, options)


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
