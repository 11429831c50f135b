"""Matricial optimal transport with nuclear-norm cost, primal side.

``solve_unbalanced_primal`` minimizes, over Hermitian plan blocks m_ij,

    sum_ij |theta_i - theta_j| ||m_ij||_*
      + kappa ( ||mu1 - rows(m)||_TV + ||mu2 - cols(m)||_TV )

with PSD marginals (the denoised measures): the transport side (Ning,
Georgiou and Tannenbaum, IEEE TAC 2015) of the dual program in
:mod:`specdist.matrix_dual`.  At the optimum the two values coincide, and
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
(Beckmann) form of the transport program.  The plan is one (3, K) stack of
blocks: ``P[0][k] = m_kk``, ``P[1][k] = m_k,k+1`` and ``P[2][k] =
m_k+1,k``; slot K-1 of ``P[1]`` and ``P[2]`` stays zero.  Every plan is
priced after its marginals are repaired onto the PSD cone through the
cost-free diagonal, and the price rounded up by two units of roundoff of its
terms, as the ball programs' bounds are: a true upper bound.

The solve first prices the diagonal plan ``P[0] = (M1 + M2) / 2``, or, from a
dual certificate with a flow Y, the plan ``P[1] = Y`` that leaves ``Z = Delta
- L* Y`` to the TV terms (rows ``M1 - Z+``), whose objective is the
certificate's upper bound (optimal at n = 1).  Otherwise it runs the
interior-point method of :mod:`specdist.ipm` on the transport program's dual

    maximize sum_k tr(F_k Delta_k) - tr(U_k M1_k) - tr(V_k M2_k)
    s.t.     ||F_k - U_k|| <= kappa, ||F_k + V_k|| <= kappa, U_k, V_k >= 0,
             ||F_k - F_{k+1}|| <= theta_{k+1} - theta_k,

whose value is the dual program's, the masses being PSD: ``F - U <= F <= F
+ V`` gives ``||F|| <= kappa`` and ``tr(F Delta)`` at least the objective.
So the lower bound is the best of the certificate's value and F scaled
feasible, rounded down.  The multiplier of ``U_k >= 0`` is the row marginal
and ``X_e+ - X_e-`` of the edges the flow Y, so each Newton step gives the
plan ``(rows - Y, Y, 0)``.  The steps start from a quarter of the
certificate's F, ``U = V = kappa I / 2`` and ``X = I``, plus the masses in
the multipliers of ``U, V >= 0``, all on masses / t, t the dual program's
power-of-two unit, so that no plan's nuclear norm depends on the units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg
from .measures import MatrixMeasure
from .matrix_dual import DualCertificate, assemble_dual, ball_program, solve_dual
from .ipm import EPS2, _weights, interior_point
from .pdhg import Certified, ConvergenceError, SolverOptions, relative_gap, within_tolerance

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
    objective: float                           # cost + kappa tv, rounded up
    lower_bound: float                         # certified bound from the dual side
    iterations: int

    @property
    def value(self) -> float:
        return self.objective

    @property
    def upper_bound(self) -> float:
        return self.objective


@dataclass(frozen=True)
class _TransportDual:
    """The conic dual of the transport program (module docstring) as linear
    matrix inequalities for :func:`specdist.ipm.interior_point`: x holds
    ``(F_k, U_k, V_k)`` per point, ``(K, 3 n^2)``, and the blocks are the sign
    pairs (+, -) of ``[F - U, F + V, F_k - F_{k+1}]``, then U and V."""

    objective: np.ndarray   # (K, 3 n^2): (Delta_k, -M1_k, -M2_k)
    kappa: float
    gaps: np.ndarray        # (K - 1,)

    def radii(self) -> np.ndarray:
        K = len(self.objective)
        identity = linalg.to_coords(np.eye(math.isqrt(self.objective.shape[-1] // 3)))
        signed = np.concatenate([np.full(2 * K, self.kappa), self.gaps])
        return np.concatenate([signed, signed, np.zeros(2 * K)])[:, None] * identity

    def constraints(self, v: np.ndarray) -> np.ndarray:
        F, U, V = v.reshape(len(v), 3, -1).transpose(1, 0, 2)
        plus = np.concatenate([F - U, F + V, F[:-1] - F[1:]])
        return np.concatenate([plus, -plus, -U, -V])

    def constraints_adjoint(self, Z: np.ndarray) -> np.ndarray:
        K, half = len(self.objective), 3 * len(self.objective) - 1
        signed = Z[:half] - Z[half:2 * half]
        ball_u, ball_v, Y = signed[:K], signed[K:2 * K], signed[2 * K:]
        F = ball_u + ball_v
        F[:-1] += Y
        F[1:] -= Y
        U, V = -ball_u - Z[2 * half:2 * half + K], ball_v - Z[2 * half + K:]
        return np.stack([F, U, V], axis=1).reshape(K, -1)

    def normal_blocks(self, X: np.ndarray, Q: np.ndarray) -> tuple:
        """The Schur complement's blocks ``(K, 3 n^2, 3 n^2)``, its diagonal
        blocks without the edges' weights and the n^2 (F) that couple points: a
        point's weights W enter as ``a a^T (x) W`` for their map a of (F, U, V),
        (1, -1, 0), (1, 0, 1), (0, -1, 0), (0, 0, -1)."""
        K, half = len(self.objective), 3 * len(self.objective) - 1
        pairs = _weights(*(P[:2 * half].reshape((2, half) + P.shape[1:]) for P in (X, Q)))
        singles = _weights(X[None, 2 * half:], Q[None, 2 * half:])
        ball_u, ball_v, edges = pairs[:K], pairs[K:2 * K], pairs[2 * K:]
        m = pairs.shape[-1]
        f, u, v = slice(0, m), slice(m, 2 * m), slice(2 * m, 3 * m)
        diag = np.zeros((K, 3 * m, 3 * m))
        diag[:, f, f] = ball_u + ball_v
        diag[:, u, u] = ball_u + singles[:K]
        diag[:, v, v] = ball_v + singles[K:]
        diag[:, f, u] = diag[:, u, f] = -ball_u
        diag[:, f, v] = diag[:, v, f] = ball_v
        local = diag.copy()
        diag[:-1, f, f] += edges
        diag[1:, f, f] += edges
        upper = np.zeros_like(diag)
        upper[:-1, f, f] = -edges
        return diag, upper, local, m   # U and V are local to their point


def _plan_marginals(P: np.ndarray) -> np.ndarray:
    """(rows, cols) of a banded plan: point k sums m_k,k-1, m_kk and m_k,k+1."""
    out = np.empty((2,) + P.shape[1:], dtype=P.dtype)
    out[:] = P[0]
    out[:, :-1] += P[1:, :-1]      # rows gain m_k,k+1, cols gain m_k+1,k
    out[:, 1:] += P[:0:-1, :-1]    # rows gain m_k,k-1, cols gain m_k-1,k
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
    options' tolerance of the optimum; ``iterations`` counts Newton steps,
    capped by ``options.max_iterations``.  ``certificate`` may carry a
    certified solve of the same instance's dual (:func:`solve_dual`); its
    value joins the lower bound but is never reported beyond ``lower_bound``,
    and its flow, when it has one, is the start plan (see the module
    docstring).  Raises :class:`ConvergenceError` carrying the best solution
    if the solve stops uncertified.
    """
    program = ball_program(assemble_dual(mu1, mu2, kappa))   # checks the pair and kappa
    options = options or SolverOptions()
    if np.array_equal(mu1.masses, mu2.masses):
        # the diagonal plan is optimal; a solve would face a roundoff-level
        # upper bound that no relative gap against 0 can certify
        plan = np.zeros((3,) + mu1.masses.shape, dtype=complex)
        plan[0] = mu1.masses
        return TransportSolution(plan, (mu1, mu2), 0.0, 0.0, 0.0, 0.0, 0)
    t = program.unit()
    M = linalg.to_coords(np.stack([mu1.masses, mu2.masses])) / t
    delta = program.objective / t
    K, m = M.shape[1:]
    costs = np.zeros((3, K))           # diagonal blocks travel for free
    costs[1:, :-1] = program.image_radii

    def decompose(P) -> tuple[float, float]:
        cost = float((costs * linalg.nuclear_norms(P)).sum())
        return cost, float(linalg.nuclear_norms(M - _plan_marginals(P)).sum())

    def price(P) -> tuple[float, np.ndarray]:
        """The objective of P repaired, rounded up, and the repaired plan."""
        repaired = _psd_repair(P)
        cost, tv_pen = decompose(repaired)
        return (cost + kappa * tv_pen) * (1.0 + EPS2), repaired

    def pairing(F) -> float:
        """The lower bound of test function F scaled feasible, rounded down."""
        F = F / program.feasibility_scale(F)
        return float(np.vdot(F, delta)) - EPS2 * float(np.abs(F * delta).sum())

    def package(lower, _, upper, plan, steps) -> TransportSolution:   # upper: plan's price
        cost, tv_pen = (t * v for v in decompose(plan))
        plan = t * plan
        hats = tuple(MatrixMeasure(mu.grid, linalg.from_coords(m))
                     for mu, m in zip((mu1, mu2), _plan_marginals(plan)))
        return TransportSolution(linalg.from_coords(plan), hats, cost, tv_pen, t * upper,
                                 t * lower, steps)

    floor = certificate.value / t if certificate is not None else 0.0
    start = np.zeros((3, K, m))
    if certificate is not None and certificate.flow is not None:
        start[1, :-1] = linalg.to_coords(certificate.flow) / t
        Z = delta - program.adjoint(start[1, :-1])
        start[0] = M[0] - linalg.clip(Z, 0.0, np.inf) - start[1]
        floor = max(floor, pairing(linalg.to_coords(certificate.test_function)))
    else:
        start[0] = 0.5 * (M[0] + M[1])
    upper, start = price(start)
    if within_tolerance(floor, upper, options.tolerance):
        return package(floor, None, upper, start, 0)

    half = 3 * K - 1
    dual = _TransportDual(np.stack([delta, -M[0], -M[1]], axis=1).reshape(K, -1), kappa,
                          program.image_radii)

    def certify(x, X):
        plan = np.zeros((3, K, m))
        plan[1, :-1] = X[2 * K:half] - X[half + 2 * K:2 * half]       # Y
        plan[0] = X[2 * half:2 * half + K] - plan[1]                   # rows - Y
        upper, plan = price(plan)
        return max(floor, pairing(x.reshape(K, 3, m)[:, 0])), None, upper, plan

    # the start (module docstring); the certificate's F is scaled feasible first
    identity = linalg.to_coords(np.eye(math.isqrt(m)))
    x = np.zeros((K, 3, m))
    x[:, 1:] = 0.5 * kappa * identity
    if certificate is not None:
        F = linalg.to_coords(certificate.test_function)
        x[:, 0] = 0.25 * F / program.feasibility_scale(F)
    X = np.tile(identity, (2 * half + 2 * K, 1))
    X[2 * half:] += M.reshape(2 * K, m)
    return interior_point(dual, x.reshape(K, -1), X, certify, package, options)


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
    test as a known lower bound and the primal's start.
    ``gap = primal - dual`` is nonnegative up to roundoff on every instance
    (weak duality) and within the tolerance at convergence (strong
    duality).  When the primal stops uncertified the
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
