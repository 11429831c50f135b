"""Spectral distance between density matrices with fixed Dirac operators.

For states rho1, rho2 (PSD, unit trace) and Hermitian Dirac operators D_i,
the distance is

    sup { |tr((rho1 - rho2) f)| : ||[D_i, f]|| <= 1 for all i, ||f|| <= kappa }

over Hermitian f.  The commutator plays the role of a derivative; without
the ``kappa`` bound the supremum can genuinely diverge (already for 2x2
states differing in their off-diagonal entries).  The commutant decides it:
with the commutator superoperator ``A f = ([D_1, f], ..., [D_M, f])``, the
supremum is infinite exactly when ``sigma = rho1 - rho2`` pairs nonzero with
the null space of ``A`` (matrices commuting with every D_i, the identity
among them).  Otherwise every feasible f may be projected onto the
orthogonal complement of that null space without changing its commutators
or its pairing with sigma, and there ``||f|| <= ||f||_F <= ||A f|| / s_min
<= sqrt(M n) / s_min``, with ``s_min`` the smallest nonzero singular value
of ``A``.  So the unbounded distance is the bounded one at that kappa,
solved and certified like any other.

The constraint images are anti-Hermitian; multiplying by -i makes them
Hermitian with the same operator norm, which puts the problem in the shape
of :mod:`specdist.pdhg` (eigenvalue-clipping projections throughout).  It
is solved at the caller's scale: f, the value and both bounds (also those a
``ConvergenceError`` carries) are its own.  Only the iteration sees a scale:
the commutator rows are divided by ``s = max(1, min(kappa, kappa*))``, with
kappa* that sufficient kappa: the largest norm beyond 1 an optimal f needs.
Unscaled, the driver (primal weight 1 at the start) would take iterations in
proportion to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .measures import _readonly
from .pdhg import BallProgram, SolverOptions, solve_ball_program

__all__ = [
    "State",
    "DiracSet",
    "connes_distance",
    "connes_witness",
    "sufficient_kappa",
]

STATE_TRACE_TOL = 1e-10
# singular values of the commutator superoperator at most this share of the
# largest count as zero (all of them when every D_i is a multiple of the
# identity), and sigma pairs with the commutant when its projection onto
# that null space exceeds this share of its Frobenius norm
COMMUTANT_RTOL = 1e-9
# a kappa = inf distance above this (reachable only through a tiny s_min)
# is reported as unbounded
UNBOUNDED_CAP = 1e6


@dataclass(frozen=True)
class State:
    """Density matrix: PSD Hermitian with unit trace."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        M = linalg.as_hermitian(self.matrix)
        if M.ndim != 2:
            raise ValueError(f"a state is a single matrix, got shape {M.shape}")
        scale = max(1.0, float(linalg.hermitian_op_norms(M[None])[0]))
        if float(linalg.min_eigenvalues(M[None])[0]) < -STATE_TRACE_TOL * scale:
            raise ValueError("state matrix is not PSD")
        tr = float(np.trace(M).real)
        if abs(tr - 1.0) > STATE_TRACE_TOL:
            raise ValueError(f"state trace must be 1, got {tr!r}")
        object.__setattr__(self, "matrix", _readonly(M))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class DiracSet:
    """One or several Hermitian operators quantifying slope directions."""

    operators: np.ndarray = field(repr=False)   # (M, n, n)

    def __post_init__(self):
        ops = np.asarray(self.operators, dtype=complex)
        if ops.ndim == 2:
            ops = ops[None]
        if ops.ndim != 3 or ops.shape[0] < 1 or ops.shape[-1] != ops.shape[-2]:
            raise ValueError(f"expected stacked square operators, got shape {ops.shape}")
        object.__setattr__(self, "operators", _readonly(linalg.as_hermitian(ops)))

    @property
    def dim(self) -> int:
        return self.operators.shape[-1]

    @property
    def count(self) -> int:
        return self.operators.shape[0]


def _commutator_program(sigma: np.ndarray, diracs: DiracSet, kappa: float,
                        scale: float = 1.0) -> BallProgram:
    ops = diracs.operators / scale    # the rows divided by s (module docstring)

    def forward(F: np.ndarray) -> np.ndarray:
        f = F[0]
        return -1j * (ops @ f - f @ ops)

    def adjoint(Y: np.ndarray) -> np.ndarray:
        out = 1j * np.einsum("mij,mjk->ik", ops, Y)
        out -= 1j * np.einsum("mij,mjk->ik", Y, ops)
        return out[None]

    norms = linalg.hermitian_op_norms(ops)
    map_norm = 2.0 * float(np.sqrt((norms**2).sum()))
    return BallProgram(
        objective=sigma[None],
        ball_radii=np.full(1, kappa),
        forward=forward,
        adjoint=adjoint,
        image_radii=np.full(diracs.count, 1.0 / scale),
        map_norm=max(map_norm, 1e-300),
    )


def connes_witness(
    rho1: State,
    rho2: State,
    diracs: DiracSet,
    kappa: float,
    options: SolverOptions | None = None,
) -> tuple[float, np.ndarray]:
    """Distance value together with the feasible test function attaining it.

    The witness is independently checkable: its operator norm is at most
    ``kappa``, every commutator norm at most 1, and the trace pairing with
    the state difference reproduces the value.
    """
    _check_dims(rho1, rho2, diracs)
    if not (math.isfinite(kappa) and kappa > 0):
        raise ValueError(f"kappa must be finite and positive, got {kappa}")
    size = kappa if kappa <= 1.0 else min(kappa, sufficient_kappa(rho1, rho2, diracs))
    return _witness(rho1.matrix - rho2.matrix, diracs, kappa, size, options)


def _witness(sigma, diracs, kappa, size, options):
    """:func:`connes_witness`, given ``size`` >= the norm of some optimal f."""
    if not sigma.any():
        return 0.0, np.zeros_like(sigma)
    # the feasible set is symmetric under f -> -f, so the supremum of
    # |tr(sigma f)| is that of the linear objective tr(sigma f): one solve
    program = _commutator_program(sigma, diracs, kappa, max(1.0, size))
    solution = solve_ball_program(program, options or SolverOptions())
    return solution.value, solution.test_function[0]


def _check_dims(rho1: State, rho2: State, diracs: DiracSet):
    if rho1.dim != rho2.dim or rho1.dim != diracs.dim:
        raise ValueError(
            f"dimension mismatch: states {rho1.dim}, {rho2.dim}, diracs {diracs.dim}"
        )


def sufficient_kappa(rho1: State, rho2: State, diracs: DiracSet) -> float:
    """A kappa at which the bounded distance equals the unbounded one.

    ``math.inf`` when the state difference pairs nonzero with the commutant
    (the unbounded distance is infinite), otherwise ``sqrt(M n) / s_min``
    (see the module docstring).  One SVD of the ``M n^2 x n^2`` commutator
    superoperator, no iterative solve.
    """
    _check_dims(rho1, rho2, diracs)
    sigma = rho1.matrix - rho2.matrix
    n = diracs.dim
    eye = np.eye(n)
    # row-major vec: vec(D f - f D) = (D (x) I - I (x) D^T) vec(f)
    A = np.concatenate([np.kron(D, eye) - np.kron(eye, D.T) for D in diracs.operators])
    _, s, vh = np.linalg.svd(A)
    null = s <= COMMUTANT_RTOL * s[0]
    if np.linalg.norm(vh[null] @ sigma.ravel()) > COMMUTANT_RTOL * np.linalg.norm(sigma):
        return math.inf
    # no nonzero singular value: f orthogonal to the commutant is 0
    return math.sqrt(diracs.count * n) / float(s[~null].min(initial=math.inf))


def connes_distance(
    rho1: State,
    rho2: State,
    diracs: DiracSet,
    kappa: float = math.inf,
    options: SolverOptions | None = None,
) -> float:
    """Spectral distance between two states; ``math.inf`` flags divergence.

    With finite ``kappa`` the bounded variant is solved directly, as in
    :func:`connes_witness`; any other non-finite ``kappa`` raises
    ``ValueError``.  With ``kappa = math.inf`` the commutant decides
    divergence without a solve; a finite distance is :func:`connes_witness`
    at :func:`sufficient_kappa`, certified to the options' tolerance like
    every finite-kappa value (equal states give 0.0 without a solve), and a
    value above ``UNBOUNDED_CAP`` is reported as ``math.inf``.
    """
    if kappa != math.inf:
        return connes_witness(rho1, rho2, diracs, kappa, options)[0]
    kappa = sufficient_kappa(rho1, rho2, diracs)
    if kappa == 0.0 or math.isinf(kappa):
        # 0 only for equal states when every D_i is a multiple of the identity
        return kappa
    value = _witness(rho1.matrix - rho2.matrix, diracs, kappa, kappa, options)[0]
    return math.inf if value > UNBOUNDED_CAP else value
