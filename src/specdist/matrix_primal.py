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

The plan is banded: only adjacent points exchange mass.  A block m_ij with
i < j can instead move over every edge (k, k+1) with i <= k < j and be
subtracted from the diagonal blocks strictly between i and j (Hermitian, no
sign constraint); both marginals stay the same and so does the cost, since
the gaps telescope to |theta_i - theta_j| ||m_ij||_*.  This is the flux
(Beckmann) form of the transport program and the primal side of the
adjacent-point constraints in :mod:`specdist.matrix_dual`.  The plan is
one (3, K) stack of blocks: ``P[0][k] = m_kk``, ``P[1][k] = m_k,k+1`` and
``P[2][k] = m_k+1,k``; slot K-1 of ``P[1]`` and ``P[2]`` has no edge behind
it and stays zero.  The solve starts from the diagonal plan
``P[0] = (M1 + M2) / 2``, or from a dual certificate that carries its flow Y:
the plan moves Y over the edges (``P[1] = Y``) and leaves the residuals
``Z = Delta - L* Y`` to the TV terms (rows ``M1 - Z+``, columns ``M2 - Z-``),
so before the PSD repair below its objective is the certificate's upper
bound, and the TV duals start at the test function F.  At n = 1 that start
is optimal and the solve certifies without iterating.  The iteration holds
the plan (3, K, n^2) and its duals (2, 2, K, n^2) in the real coordinates of
:mod:`specdist.linalg`.  The TV and PSD duals share one spectral pass: the
dual prox maps the stacked (2, 2, K, n^2) pairs through one
:func:`specdist.linalg.clip` call (Moreau's identity): the eigenvalues of
the TV pair, shifted by ``sigma M``, are clipped to ``[-kappa, kappa]`` and
those of the PSD pair to ``(-inf, 0]``.

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
from .measures import MatrixMeasure
from .matrix_dual import DualCertificate, assemble_dual, ball_program, solve_dual
from .pdhg import Certified, ConvergenceError, SolverOptions, pdhg, relative_gap

__all__ = [
    "TransportSolution",
    "GapReport",
    "solve_unbalanced_primal",
    "duality_gap",
]


@dataclass(frozen=True)
class TransportSolution(Certified):
    """Transport plan, denoised marginals and objective decomposition."""

    plan: np.ndarray = field(repr=False)       # (3, K, n, n) banded, Hermitian blocks
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
    """(rows, cols) of a banded plan: point k sums m_k,k-1, m_kk and m_k,k+1."""
    out = np.empty((2,) + P.shape[1:], dtype=P.dtype)
    out[:] = P[0]
    out[:, :-1] += P[1:, :-1]      # rows gain m_k,k+1, cols gain m_k+1,k
    out[:, 1:] += P[:0:-1, :-1]    # rows gain m_k,k-1, cols gain m_k-1,k
    return out


def _marginal_adjoint(Y: np.ndarray) -> np.ndarray:
    out = np.zeros((3,) + Y.shape[1:], dtype=Y.dtype)
    out[0] = Y[0] + Y[1]
    out[1:, :-1] = Y[:, :-1] + Y[::-1, 1:]
    return out


def _psd_repair(P: np.ndarray) -> np.ndarray:
    """Add PSD corrections on the (cost-free) diagonal so marginals are PSD."""
    X = linalg.clip(-_plan_marginals(P), 0.0, np.inf).sum(axis=0)
    if not X.any():
        return P
    out = P.copy()
    out[0] += X
    return out


def solve_unbalanced_primal(
    mu1: MatrixMeasure,
    mu2: MatrixMeasure,
    kappa: float,
    options: SolverOptions | None = None,
    certificate: DualCertificate | None = None,
) -> TransportSolution:
    """Minimize transport cost plus ``kappa`` times the TV denoising penalty.

    Returns a feasible plan whose objective is certified to be within the
    options' tolerance of the optimum.  ``certificate`` may carry a certified
    solve of the same instance's dual (:func:`solve_dual`); its value tightens
    the stopping test but is never reported beyond ``lower_bound``, and its
    flow, when it has one, is the start (see the module docstring).  Raises
    :class:`ConvergenceError` carrying the best solution if the iteration
    budget runs out first.
    """
    program = ball_program(assemble_dual(mu1, mu2, kappa))   # checks the pair and kappa
    options = options or SolverOptions()
    if np.array_equal(mu1.masses, mu2.masses):
        # the diagonal plan is optimal; a solve would face a roundoff-level
        # upper bound that no relative gap against 0 can certify
        plan = np.zeros((3,) + mu1.masses.shape, dtype=complex)
        plan[0] = mu1.masses
        return TransportSolution(plan, (mu1, mu2), 0.0, 0.0, 0.0, 0.0, 0)
    M = linalg.to_coords(np.stack([mu1.masses, mu2.masses]))
    K = M.shape[1]
    costs = np.zeros((3, K))           # diagonal blocks travel for free
    costs[1:, :-1] = program.image_radii
    delta = program.objective
    start, duals = np.zeros((3,) + M.shape[1:]), np.zeros((2,) + M.shape)
    if certificate is not None and certificate.flow is not None:
        start[1, :-1] = linalg.to_coords(certificate.flow)
        Z = delta - program.adjoint(start[1, :-1])
        start[0] = M[0] - linalg.clip(Z, 0.0, np.inf) - start[1]
        start = _psd_repair(start)
        F = linalg.to_coords(certificate.test_function)
        duals[0] = -F, F
    else:
        start[0] = 0.5 * (M[0] + M[1])
    hint = certificate.value if certificate is not None else 0.0

    def decompose(P) -> tuple[float, float]:
        cost = float((costs * linalg.nuclear_norms(P)).sum())
        return cost, float(linalg.nuclear_norms(M - _plan_marginals(P)).sum())

    def certify(P, Y):
        # the hint joins every point's lower bound, so with a near-optimal
        # hint the driver's restarts judge points by their objective alone
        repaired = _psd_repair(P)
        cost, tv_pen = decompose(repaired)
        S = Y.sum(axis=0)
        F = 0.5 * (S[1] - S[0])
        F = F / program.feasibility_scale(F)
        return max(hint, float(np.vdot(F, delta))), None, cost + kappa * tv_pen, repaired

    def package(lower, _, upper, plan, iterations) -> TransportSolution:
        cost, tv_pen = decompose(plan)
        hats = tuple(MatrixMeasure(mu.grid, linalg.from_coords(m))
                     for mu, m in zip((mu1, mu2), _plan_marginals(plan)))
        return TransportSolution(linalg.from_coords(plan), hats, cost, tv_pen,
                                 cost + kappa * tv_pen, lower, iterations)

    lo, hi = np.array([-kappa, -np.inf])[:, None, None], np.array([kappa, 0.0])[:, None, None]

    def prox_maps(tau, sigma):
        tau_costs, shift = tau * costs, np.stack([sigma * M, np.zeros_like(M)])

        def prox_dual(W):
            # Moreau: the TV pair W[0] of (rows, cols) duals goes to the kappa
            # operator-norm ball, the PSD pair W[1] to the negative semidefinite
            # cone; one eigenvalue clip maps both
            return linalg.clip(W - shift, lo, hi)

        return lambda G: linalg.soft_threshold(G, tau_costs), prox_dual

    # each block enters one row and one column, and each marginal sums at most
    # three blocks, so ||(rows, cols)||^2 <= 6; both dual pairs see that image
    return pdhg(
        start,
        duals,
        _plan_marginals,
        lambda Y: _marginal_adjoint(Y[0] + Y[1]),
        prox_maps,
        math.sqrt(12.0),
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

    Each side solves to half the requested tolerance so their combined
    (cross) gap meets it; the dual certificate feeds the primal stopping
    test as a known lower bound and, with its flow, the primal's start.
    ``gap = primal - dual`` is nonnegative up to roundoff on every instance
    (weak duality) and within the tolerance at convergence (strong
    duality).  When the primal runs out of iterations the
    :class:`ConvergenceError` carries the dual certificate, whose bracket is
    already within half the tolerance.
    """
    options = options or SolverOptions()
    halved = replace(options, tolerance=0.5 * options.tolerance)
    certificate = solve_dual(assemble_dual(mu1, mu2, kappa), halved)
    try:
        primal = solve_unbalanced_primal(mu1, mu2, kappa, halved, certificate)
    except ConvergenceError as exc:
        raise ConvergenceError(f"gap audit: {exc}", certificate) from exc
    return GapReport(
        primal=primal.objective,
        dual=certificate.value,
        gap=primal.objective - certificate.value,
        relative_gap=relative_gap(certificate.value, primal.objective),
        primal_solution=primal,
        dual_certificate=certificate,
    )
