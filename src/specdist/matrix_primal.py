"""Matricial optimal transport with nuclear-norm cost, primal side.

``solve_unbalanced_primal`` minimizes, over Hermitian plan blocks m_ij,

    sum_ij |theta_i - theta_j| ||m_ij||_*
      + kappa ( ||mu1 - rows(m)||_TV + ||mu2 - cols(m)||_TV )

which is the transport form of the dual program in
:mod:`specdist.matrix_dual`; at the optimum the two values coincide, and
``duality_gap`` cross-certifies the pair of solvers on any instance.

Plan blocks are Hermitian by construction: replacing a complex feasible plan
block by its Hermitian part preserves both (Hermitian) marginals and cannot
increase nuclear norms, so the restriction loses nothing.  Diagonal blocks
travel distance zero and act as free variables absorbing common mass.

The denoised marginals are PSD-cone constrained (they stand for measures);
without the cone the minimizer can settle on indefinite marginals whose PSD
repair costs a visible objective increase.  The cone enters the splitting as
two extra projection blocks and leaves the optimal value unchanged, which the
duality-gap certification checks on every solve: the reported objective is
evaluated on an exactly feasible plan (marginals repaired onto the PSD cone
through the cost-free diagonal), a true upper bound, while the concurrently
maintained test function gives a true lower bound through the dual program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg
from .measures import MatrixMeasure, _check_compatible
from .matrix_dual import DualCertificate, assemble_dual, solve_dual
from .pdhg import Certified, ConvergenceError, SolverOptions, pdhg

__all__ = [
    "TransportSolution",
    "GapReport",
    "solve_unbalanced_primal",
    "duality_gap",
]


@dataclass(frozen=True)
class TransportSolution(Certified):
    """Transport plan, denoised marginals and objective decomposition."""

    plan: np.ndarray = field(repr=False)       # (K, K, n, n), Hermitian blocks
    denoised_marginals: tuple[MatrixMeasure, MatrixMeasure]
    transport_cost: float
    tv_penalty: float
    objective: float
    lower_bound: float                         # certified bound from the dual side
    iterations: int

    @property
    def value(self) -> float:
        return self.objective

    @property
    def upper_bound(self) -> float:
        return self.objective


def _plan_marginals(P: np.ndarray) -> np.ndarray:
    return np.stack([P.sum(axis=1), P.sum(axis=0)])


def _marginal_adjoint(Y: np.ndarray) -> np.ndarray:
    return Y[0][:, None] + Y[1][None, :]


def _psd_repair(P: np.ndarray) -> np.ndarray:
    """Add PSD corrections on the (cost-free) diagonal so marginals are PSD."""
    X = linalg.positive_part(-_plan_marginals(P)).sum(axis=0)
    if not X.any():
        return P
    out = P.copy()
    K = P.shape[0]
    out[np.arange(K), np.arange(K)] += X
    return out


def _scaled_test_function(F, gaps, kappa) -> np.ndarray:
    """Scale stacked Hermitian blocks into the dual feasible set."""
    s = max(float((linalg.hermitian_op_norms(F[:-1] - F[1:]) / gaps).max(initial=0.0)),
            float((linalg.hermitian_op_norms(F) / kappa).max(initial=0.0)))
    return F / max(1.0, s)


def _exact_match_solution(mu1: MatrixMeasure, mu2: MatrixMeasure) -> TransportSolution:
    K, n = mu1.grid.size, mu1.dim
    plan = np.zeros((K, K, n, n), dtype=complex)
    plan[np.arange(K), np.arange(K)] = mu1.masses
    return TransportSolution(
        plan=plan,
        denoised_marginals=(mu1, mu2),
        transport_cost=0.0,
        tv_penalty=0.0,
        objective=0.0,
        lower_bound=0.0,
        iterations=0,
    )


def solve_unbalanced_primal(
    mu1: MatrixMeasure,
    mu2: MatrixMeasure,
    kappa: float,
    options: SolverOptions | None = None,
    lower_hint: float | None = None,
) -> TransportSolution:
    """Minimize transport cost plus ``kappa`` times the TV denoising penalty.

    Returns a feasible plan whose objective is certified to be within the
    options' gap target of the optimum.  ``lower_hint`` may carry an already
    certified lower bound (e.g. from a prior dual solve); it tightens the
    stopping test but is never reported beyond ``lower_bound``.  Raises
    :class:`ConvergenceError` carrying the best solution if the iteration
    budget runs out first.
    """
    _check_compatible(mu1, mu2)
    if not (math.isfinite(kappa) and kappa > 0):
        raise ValueError(f"kappa must be finite and positive, got {kappa}")
    options = options or SolverOptions()
    if np.array_equal(mu1.masses, mu2.masses):
        return _exact_match_solution(mu1, mu2)

    M = np.stack([mu1.masses, mu2.masses])
    K = M.shape[1]
    gaps = mu1.grid.spacings
    D = mu1.grid.distance_matrix()
    delta = M[0] - M[1]
    hint = lower_hint if lower_hint is not None else 0.0

    def decompose(P) -> tuple[float, float]:
        cost = float((D * linalg.hermitian_nuclear_norms(P)).sum())
        return cost, float(linalg.hermitian_nuclear_norms(M - _plan_marginals(P)).sum())

    def certify(P, Y):
        # the hint joins every point's lower bound, so with a near-optimal
        # hint the driver's restarts judge points by their objective alone
        repaired = _psd_repair(P)
        cost, tv_pen = decompose(repaired)
        S = Y.sum(axis=0)
        F = _scaled_test_function(0.5 * (S[1] - S[0]), gaps, kappa)
        return max(hint, linalg.trace_pairing(F, delta)), None, cost + kappa * tv_pen, repaired

    def package(lower, _, upper, plan, iterations) -> TransportSolution:
        cost, tv_pen = decompose(plan)
        hats = tuple(MatrixMeasure(mu.grid, m) for mu, m in zip((mu1, mu2), _plan_marginals(plan)))
        return TransportSolution(plan, hats, cost, tv_pen, cost + kappa * tv_pen, lower, iterations)

    def prox_dual(W, sigma):
        # W[0]: (rows, cols) duals of the TV penalties; W[1]: of the PSD cones,
        # whose conjugate prox subtracts the positive part
        out = np.empty_like(W)
        out[0] = W[0] - sigma * (M - linalg.soft_threshold_eigenvalues(M - W[0] / sigma,
                                                                       kappa / sigma))
        out[1] = W[1] - linalg.positive_part(W[1])
        return out

    # both dual pairs see the same (rows, cols) image, so ||A||^2 <= 2 * 2K
    return pdhg(
        np.zeros((K,) + M.shape[1:], dtype=complex),
        np.zeros((2,) + M.shape, dtype=complex),
        _plan_marginals,
        lambda Y: _marginal_adjoint(Y.sum(axis=0)),
        lambda G, tau: linalg.soft_threshold_eigenvalues(G, tau * D),
        prox_dual,
        math.sqrt(4.0 * K),
        certify,
        package,
        options,
    )


@dataclass(frozen=True)
class GapReport:
    """Primal and dual values of one instance with their (certified) gap."""

    primal: float
    dual: float
    gap: float
    relative_gap: float
    primal_solution: TransportSolution
    dual_certificate: DualCertificate


def duality_gap(
    mu1: MatrixMeasure,
    mu2: MatrixMeasure,
    kappa: float,
    options: SolverOptions | None = None,
) -> GapReport:
    """Cross-certify the transport and test-function solvers on one instance.

    Each side solves to half the requested gap target so their combined
    (cross) gap meets it; the dual certificate value also feeds the primal
    stopping test as a known lower bound.  ``gap = primal - dual`` is
    nonnegative up to roundoff on every instance (weak duality) and within
    the gap target at convergence (strong duality).  When the primal runs
    out of iterations the :class:`ConvergenceError` carries the dual
    certificate, whose bracket is already within half the gap target.
    """
    options = options or SolverOptions()
    halved = replace(options, gap_tolerance=0.5 * options.gap_target)
    certificate = solve_dual(assemble_dual(mu1, mu2, kappa), halved)
    try:
        primal = solve_unbalanced_primal(
            mu1, mu2, kappa, halved, lower_hint=certificate.value
        )
    except ConvergenceError as exc:
        raise ConvergenceError(f"gap audit: {exc}", certificate) from exc
    gap = primal.objective - certificate.value
    rel = gap / max(abs(primal.objective), abs(certificate.value), 1e-12)
    return GapReport(
        primal=primal.objective,
        dual=certificate.value,
        gap=gap,
        relative_gap=rel,
        primal_solution=primal,
        dual_certificate=certificate,
    )
