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
solved and certified like any other, however large: only the commutant
makes a distance divergent.

The constraint images are anti-Hermitian; multiplying by -i makes them
Hermitian with the same operator norm, which puts the problem in the shape
of a :class:`~specdist.ipm.BallProgram`: ``||f|| <= kappa`` and each
``||-i[D_i, f]|| <= 1`` are pairs of linear matrix inequalities, so the
program is one small semidefinite program, solved by the interior-point
method of :mod:`specdist.ipm`.  In the real coordinates of
:mod:`specdist.linalg` the map is one real ``(n^2, M n^2)`` matrix, built
once per distance and shared with :func:`sufficient_kappa`; its M column
blocks are the maps of the program's M images of the one block.  At every
kappa the ball radius is ``min(kappa, kappa*)``, with kappa* that sufficient
kappa (infinite only for a divergent distance): the value is the same, and f
stays feasible for kappa.  :func:`connes_distance` returns that solve's
:class:`~specdist.pdhg.DualCertificate`: f, the value, both bounds (also
those a ``ConvergenceError`` carries) and, as ``flow``, the ``Y`` of the
upper bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .measures import _readonly
from .ipm import BallProgram, solve_ball_program
from .pdhg import DualCertificate, SolverOptions

__all__ = [
    "State",
    "DiracSet",
    "connes_distance",
    "sufficient_kappa",
]

STATE_TRACE_TOL = 1e-10
# singular values of the commutator superoperator at most this share of the
# largest count as zero (all of them when every D_i is a multiple of the
# identity), and sigma pairs with the commutant when its projection onto
# that null space exceeds this share of its Frobenius norm
COMMUTANT_RTOL = 1e-9


@dataclass(frozen=True)
class State:
    """Density matrix: PSD Hermitian with unit trace."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        M, lam = linalg.hermitian_spectrum(self.matrix)
        if M.ndim != 2:
            raise ValueError(f"a state is a single matrix, got shape {M.shape}")
        if lam[0] < -STATE_TRACE_TOL * max(1.0, -lam[0], lam[-1]):
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


def _commutators(ops: np.ndarray) -> np.ndarray:
    """``f -> (-i[D_1, f], ..., -i[D_M, f])`` in coordinates: the real
    ``(n^2, M n^2)`` matrix whose row ``b`` holds the images of basis block b."""
    basis = linalg.from_coords(np.eye(ops.shape[-1] ** 2))
    images = linalg.to_coords(-1j * (ops[:, None] @ basis - basis @ ops[:, None]))
    return np.ascontiguousarray(images.transpose(1, 0, 2).reshape(basis.shape[0], -1))


def _commutator_program(sigma: np.ndarray, diracs: DiracSet, A: np.ndarray,
                        kappa: float) -> BallProgram:
    m, count = A.shape[0], diracs.count
    return BallProgram(
        objective=linalg.to_coords(sigma)[None],
        ball_radii=np.full(1, kappa),
        maps=A.reshape(m, count, m).swapaxes(0, 1),   # every image reads the one block
        image_radii=np.ones(count),
    )


def sufficient_kappa(rho1: State, rho2: State, diracs: DiracSet) -> float:
    """A kappa at which the bounded distance equals the unbounded one.

    ``math.inf`` when the state difference pairs nonzero with the commutant
    (the unbounded distance is infinite), otherwise ``sqrt(M n) / s_min``
    (see the module docstring).  One thin SVD of the commutator
    superoperator in coordinates (``n^2 x M n^2``, real; only its left
    singular vectors and singular values are read), no iterative solve.
    """
    return _sufficient_kappa(rho1, rho2, diracs, _commutators(diracs.operators))


def _sufficient_kappa(rho1: State, rho2: State, diracs: DiracSet, A: np.ndarray) -> float:
    """:func:`sufficient_kappa` from the commutator matrix ``A`` of ``diracs``."""
    if rho1.dim != rho2.dim or rho1.dim != diracs.dim:
        raise ValueError(
            f"dimension mismatch: states {rho1.dim}, {rho2.dim}, diracs {diracs.dim}"
        )
    sigma = linalg.to_coords(rho1.matrix - rho2.matrix)
    u, s, _ = np.linalg.svd(A, full_matrices=False)
    null = s <= COMMUTANT_RTOL * s[0]
    if np.linalg.norm(sigma @ u[:, null]) > COMMUTANT_RTOL * np.linalg.norm(sigma):
        return math.inf
    # no nonzero singular value: f orthogonal to the commutant is 0
    return math.sqrt(diracs.count * diracs.dim) / float(s[~null].min(initial=math.inf))


def connes_distance(
    rho1: State,
    rho2: State,
    diracs: DiracSet,
    kappa: float = math.inf,
    options: SolverOptions | None = None,
) -> DualCertificate:
    """Spectral distance between two states: its ball solve's certificate.

    ``kappa`` is positive, ``math.inf`` for the unbounded distance.  The test
    function ``test_function[0]`` is checkable on its own: operator norm at
    most ``kappa``, every commutator norm at most 1, and trace pairing with
    ``rho1 - rho2`` equal to ``value``.  At every ``kappa`` the ball radius
    is ``min(kappa, sufficient_kappa(...))`` (module docstring), and the one
    solve at that radius is the result; its ``iterations`` are Newton steps
    (``options.max_iterations`` caps them).  Equal states give a 0 certificate
    without a solve.  The radius is infinite only when ``kappa = math.inf``
    and the state difference pairs with the commutant: that distance
    diverges, and its certificate, returned without a solve, is ``value =
    upper_bound = math.inf`` with no test function.
    """
    if not kappa > 0:
        raise ValueError(f"kappa must be positive (math.inf for no bound), got {kappa}")
    A = _commutators(diracs.operators)
    radius = min(kappa, _sufficient_kappa(rho1, rho2, diracs, A))
    sigma = rho1.matrix - rho2.matrix
    if not sigma.any():
        return DualCertificate(np.zeros((1,) + sigma.shape, dtype=complex), 0.0, 0.0, 0, 0.0)
    if radius == math.inf:
        return DualCertificate(None, math.inf, 0.0, 0, math.inf)
    # the feasible set is symmetric under f -> -f, so the supremum of
    # |tr(sigma f)| is that of the linear objective tr(sigma f): one solve
    return solve_ball_program(_commutator_program(sigma, diracs, A, radius),
                              options or SolverOptions())
