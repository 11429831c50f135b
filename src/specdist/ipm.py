"""Primal-dual interior-point solver for ball programs with one ball block.

``||G|| <= r`` is the pair of linear matrix inequalities ``r I -+ G >= 0``,
so such a program (:mod:`specdist.pdhg`) is the semidefinite program
``max c.x`` over the coordinates x of F subject to
``S_k = r_k I - sum_i x_i A_ki >= 0``, with ``2 (1 + E)`` blocks k: the ball
and each image ``(L F)_e``, each with both signs.  Its dual minimizes
``sum_k r_k tr X_k`` over ``X_k >= 0`` with ``sum_k <A_ki, X_k> = c_i``.
From ``x = 0``, ``S = r I``, ``X = I`` each Newton step takes the
Helmberg-Rendl-Vanderbei-Wolkowicz direction (SIAM J. Optim. 1996) through
the dense Schur complement ``M_il = sum_k Re tr(A_ki X_k A_kl S_k^-1)``,
with Mehrotra's predictor-corrector (``sigma = (mu_aff / mu)^3``, SIAM J.
Optim. 1992) and steps of 0.95 of the distance to the boundary.  S is the
exact slack of x, so x stays strictly feasible; the Schur solve loses
accuracy as ``mu`` falls, so each ``dX`` is corrected by ``X A(v) X``,
inside X's range, to meet the equality constraints.

Certification is :mod:`specdist.pdhg`'s, unchanged: x scaled into the
feasible set gives the lower bound, ``Y_e = X_e+ - X_e-`` of the image
blocks the upper bound.  A bound that would invert the bracket is not
taken; three Newton steps in a row that improve neither bound (roundoff),
like the budget, end the solve with ``ConvergenceError``.
"""

from __future__ import annotations

import math

import numpy as np

from . import linalg
from .pdhg import (BallProgram, ConvergenceError, DualCertificate, SolverOptions,
                   _feasibility_scale, _residual, _upper_bound, relative_gap, within_tolerance)

STEP_TO_BOUNDARY = 0.95   # share of the distance to the boundary of the cone a step takes
EIGEN_FLOOR = 1e-14       # eigenvalues of a Schur matrix floored at this share of the largest
STALL_STEPS = 3           # Newton steps in a row that improve neither bound end the solve


def _constraints(program: BallProgram) -> tuple[np.ndarray, np.ndarray]:
    """``A_ki`` as complex ``(2 (1 + E), n^2, n, n)`` matrices, read off the
    forward map of the basis, and the radii ``r_k``: signs +, then -."""
    basis = np.eye(program.objective.shape[-1])
    images = np.stack([program.forward(e[None]) for e in basis])      # (n^2, E, n^2)
    A = linalg.from_coords(np.concatenate([basis[:, None], images], axis=1).swapaxes(0, 1))
    radii = np.concatenate([program.ball_radii, program.image_radii])
    return np.concatenate([A, -A]), np.concatenate([radii, radii])


def _combination(rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``(sum_i v_i A_ki)_k``; row i of ``rows`` is the blocks ``A_ki`` flattened."""
    n = math.isqrt(rows.shape[0])
    return (v @ rows).reshape(-1, n, n)


def _pairings(rows: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """``(sum_k Re tr(A_ki Z_k))_i``, the adjoint of :func:`_combination`."""
    return (rows @ np.swapaxes(Z, -1, -2).reshape(-1)).real


def _products(A: np.ndarray, P: np.ndarray) -> np.ndarray:
    """``A_ki P_k`` for every i and k, one matrix product per block k."""
    K, m, n, _ = A.shape
    return (A.reshape(K, m * n, n) @ P).reshape(A.shape)


def _schur_solver(AP: np.ndarray, AQ: np.ndarray):
    """``b -> M^-1 b`` for ``M_il = sum_k Re tr(AP_ki AQ_kl)``, positive
    semidefinite: by Cholesky, or, when roundoff has cost M its definiteness,
    by an eigendecomposition with eigenvalues floored at ``EIGEN_FLOOR`` of
    the largest."""
    m = AP.shape[1]
    M = (AP.transpose(1, 0, 2, 3).reshape(m, -1) @ AQ.transpose(1, 0, 3, 2).reshape(m, -1).T).real
    M = 0.5 * (M + M.T)
    try:
        L = np.linalg.cholesky(M)
        return lambda b: np.linalg.solve(L.T, np.linalg.solve(L, b))
    except np.linalg.LinAlgError:
        w, V = np.linalg.eigh(M)
        w = np.maximum(w, EIGEN_FLOOR * w[-1])
        return lambda b: V @ ((V.T @ b) / w)


def _steps(X, dX, S, dS) -> tuple[float, float]:
    """``min(1, 0.95 alpha_max)`` for X and for S, ``alpha_max`` the largest
    alpha keeping every block of ``P + alpha dP`` positive semidefinite:
    ``-1 / lambda_min(L^-1 dP L^-*)`` with ``P = L L*``."""
    L_inv = np.linalg.inv(np.linalg.cholesky(np.concatenate([X, S])))
    lam = np.linalg.eigvalsh(L_inv @ np.concatenate([dX, dS]) @ np.conj(
        np.swapaxes(L_inv, -1, -2)))[:, 0].reshape(2, -1).min(axis=1)
    return tuple(min(1.0, -STEP_TO_BOUNDARY / v) if v < 0 else 1.0 for v in lam)


def _newton_step(A, rows, R, c, x, X):
    """One predictor-corrector step from ``(x, X)``."""
    S = R - _combination(rows, x)
    S_inv = np.linalg.inv(S)
    AX = _products(A, X)
    solve, solve_X = _schur_solver(AX, _products(A, S_inv)), _schur_solver(AX, AX)
    residual = c - _pairings(rows, X)

    def direction(Z):
        """``(dx, dS, dX)`` toward ``X S = Z S``, ``dX`` meeting the residual."""
        dx = solve(c - _pairings(rows, Z))
        dS = -_combination(rows, dx)
        dX = Z - X - X @ dS @ S_inv
        dX = 0.5 * (dX + np.conj(np.swapaxes(dX, -1, -2)))
        dX += X @ _combination(rows, solve_X(residual - _pairings(rows, dX))) @ X
        return dx, dS, dX

    def mean_complementarity(X, S):
        return np.trace(X @ S, axis1=-2, axis2=-1).real.mean() / X.shape[-1]

    mu = mean_complementarity(X, S)
    dx, dS, dX = direction(np.zeros_like(X))                    # predictor
    a_x, a_s = _steps(X, dX, S, dS)
    sigma = (mean_complementarity(X + a_x * dX, S + a_s * dS) / mu) ** 3
    dx, dS, dX = direction((sigma * mu * np.eye(X.shape[-1]) - dX @ dS) @ S_inv)   # corrector
    a_x, a_s = _steps(X, dX, S, dS)
    return x + a_s * dx, X + a_x * dX


def solve_ball_program(program: BallProgram, options: SolverOptions) -> DualCertificate:
    """Certify the supremum of a ball program with one ball block.

    The certificate's ``flow`` is the Y of its upper bound; ``iterations``
    counts Newton steps, capped by ``options.max_iterations``.
    """
    c = np.asarray(program.objective, dtype=float)[0]
    rho = np.asarray(program.ball_radii, dtype=float)
    r = np.asarray(program.image_radii, dtype=float)
    E = r.shape[0]
    A, radii = _constraints(program)
    rows = np.ascontiguousarray(A.swapaxes(0, 1)).reshape(A.shape[1], -1)
    R = radii[:, None, None] * np.eye(A.shape[-1])

    def certify(x, X):
        """Both bounds with their witnesses F and Y; none for a non-finite iterate."""
        if not (np.isfinite(x).all() and np.isfinite(X).all()):
            return -np.inf, None, np.inf, None
        F = x[None] / _feasibility_scale(x[None], program.forward(x[None]), rho, r)
        Y = linalg.to_coords(X[1:1 + E] - X[2 + E:])
        return float(np.vdot(F, c)), F, _upper_bound(program, Y), Y

    def package(lower, F, upper, Y, steps) -> DualCertificate:
        return DualCertificate(linalg.from_coords(F), lower,
                               _residual(F, program.forward(F), rho, r), steps, upper,
                               linalg.from_coords(Y))

    def fail(reason, steps):
        raise ConvergenceError(
            f"no certificate at relative gap {options.tolerance:.1e}: {reason} (bounds "
            f"[{best[0]:.6g}, {best[2]:.6g}], reached {relative_gap(best[0], best[2]):.2e})",
            package(*best, steps))

    x = np.zeros(c.shape)
    X = np.broadcast_to(np.eye(A.shape[-1], dtype=complex), R.shape).copy()
    best = list(certify(x, X))   # lower, its F, upper, its Y
    steps = stalled = 0
    while not within_tolerance(best[0], best[2], options.tolerance):
        if steps == options.max_iterations:
            fail(f"budget of {steps} Newton steps spent", steps)
        steps += 1
        try:
            with np.errstate(all="ignore"):
                x, X = _newton_step(A, rows, R, c, x, X)
        except np.linalg.LinAlgError:
            fail(f"Newton step {steps} broke down", steps)
        lower, F, upper, Y = certify(x, X)
        stalled += 1
        if best[0] < lower <= best[2]:
            best[0:2], stalled = (lower, F), 0
        if best[0] <= upper < best[2]:
            best[2:4], stalled = (upper, Y), 0
        if stalled == STALL_STEPS:
            fail(f"Newton steps {steps - STALL_STEPS + 1} to {steps} improved neither bound",
                 steps)
    return package(*best, steps)
