"""Upper references for the certified metrics, computed without specdist's solvers.

Both certified programs (``matrix-w1k`` and ``connes``) maximize a linear
pairing over Hermitian test functions under operator-norm bounds
``||A_j(x)|| <= r_j``, each ``A_j`` linear in the real coordinates ``x`` of
the test function.  For a unit vector ``v``, ``|v* A v| <= ||A||``, so a
finite set of cuts ``+-v* A_j(x) v <= r_j`` describes a larger set than the
norm bounds: the optimum of the linear program over any set of cuts is an
upper bound on the supremum.  Kelley's cutting-plane loop adds, at the
extreme eigenvectors, the cuts the current optimum violates, until it exceeds
no bound by more than a factor ``1 + RTOL``.  That optimum scaled down by the
factor is feasible, so the bound is then within ``RTOL`` of the supremum.
The programs are solved by scipy's HiGHS and the norms by numpy.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

RTOL = 1e-5
MAX_ROUNDS = 40
# coordinate bound, far above every optimum here; it keeps the first
# relaxations bounded.  Without a norm bound (connes at kappa = inf) the
# commutator cuts leave the directions that commute with every operator
# free, but there the objective is flat once sigma is orthogonal to them.
BOX = 1e6


def _hermitian_basis(n: int) -> np.ndarray:
    """(n*n, n, n) real-coordinate basis of the n x n Hermitian matrices."""
    out = []
    for i in range(n):
        E = np.zeros((n, n), complex)
        E[i, i] = 1.0
        out.append(E)
    for i in range(n):
        for j in range(i + 1, n):
            E = np.zeros((n, n), complex)
            E[i, j] = E[j, i] = 1.0
            out.append(E)
            E = np.zeros((n, n), complex)
            E[i, j], E[j, i] = 1j, -1j
            out.append(E)
    return np.array(out)


def _start_vectors(n: int) -> np.ndarray:
    """Unit vectors whose cuts bound every coordinate of a Hermitian matrix."""
    eye = np.eye(n, dtype=complex)
    vs = list(eye)
    for i in range(n):
        for j in range(i + 1, n):
            for phase in (1, -1, 1j, -1j):
                vs.append((eye[i] + phase * eye[j]) / np.sqrt(2.0))
    return np.array(vs)


def _coordinates(F: np.ndarray) -> np.ndarray:
    """Coordinates of Hermitian matrices (..., n, n) in ``_hermitian_basis``."""
    n = F.shape[-1]
    parts = [F[..., i, i].real[..., None] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            parts += [F[..., i, j].real[..., None], F[..., i, j].imag[..., None]]
    return np.concatenate(parts, axis=-1).reshape(-1)


def relaxation_bound(objective: np.ndarray, images: np.ndarray, radii: np.ndarray,
                     hint: np.ndarray | None = None):
    """Upper bound on ``sup c.x s.t. ||sum_p x_p images[j, p]|| <= radii[j]``.

    ``hint``, coordinates of a near-optimal point, only chooses the first
    cuts (at the extreme eigenvectors of its images); the bound is valid
    whatever it is.  Returns ``(bound, excess)``: ``excess`` is the factor
    minus one by which the last optimum exceeds its norm bounds, so the
    supremum lies in ``[bound / (1 + excess), bound]``.
    """
    J, P, n, _ = images.shape
    rows, rhs = [], []

    def cut(j, v, sign):
        rows.append(sign * np.einsum("a,pab,b->p", v.conj(), images[j], v).real)
        rhs.append(radii[j])

    for j in range(J):
        for v in _start_vectors(n) if hint is None else _start_vectors(n)[:n]:
            cut(j, v, 1.0)
            cut(j, v, -1.0)
    if hint is not None:
        _, vecs = np.linalg.eigh(np.einsum("jpab,p->jab", images, hint))
        for j in range(J):
            cut(j, vecs[j, :, -1], 1.0)
            cut(j, vecs[j, :, 0], -1.0)
    bound, excess = np.inf, np.inf
    for _ in range(MAX_ROUNDS):
        result = linprog(-objective, A_ub=csr_matrix(np.array(rows)), b_ub=np.array(rhs),
                         bounds=(-BOX, BOX), method="highs")
        if result.status != 0:
            raise RuntimeError(f"reference program failed: {result.message}")
        bound = min(bound, -result.fun)
        lam, vecs = np.linalg.eigh(np.einsum("jpab,p->jab", images, result.x))
        excess = float(np.max(np.abs(lam).max(axis=1) / radii)) - 1.0
        if excess <= RTOL:
            break
        for j in np.flatnonzero(lam[:, -1] > radii * (1 + RTOL)):
            cut(j, vecs[j, :, -1], 1.0)
        for j in np.flatnonzero(lam[:, 0] < -radii * (1 + RTOL)):
            cut(j, vecs[j, :, 0], -1.0)
    return bound, max(excess, 0.0)


def w1k_upper(deltas: np.ndarray, gaps: np.ndarray, kappa: float, hint=None):
    """Reference for ``sup sum_k tr(F_k D_k)`` s.t. ``||F_k|| <= kappa``,
    ``||F_k - F_{k+1}|| <= gaps[k]``: the matrix-w1k dual program.  ``hint``
    is a near-optimal test function (K, n, n), used to choose the first cuts."""
    K, n, _ = deltas.shape
    basis = _hermitian_basis(n)
    m = len(basis)
    objective = np.einsum("pab,kba->kp", basis, deltas).real.ravel()
    images = np.zeros((2 * K - 1, K * m, n, n), complex)
    for k in range(K):
        images[k, k * m:(k + 1) * m] = basis
    for k in range(K - 1):
        images[K + k, k * m:(k + 1) * m] = basis
        images[K + k, (k + 1) * m:(k + 2) * m] = -basis
    radii = np.concatenate([np.full(K, kappa), gaps])
    return relaxation_bound(objective, images, radii,
                            None if hint is None else _coordinates(hint))


def connes_upper(sigma: np.ndarray, ops: np.ndarray, kappa: float | None):
    """Reference for ``sup tr(sigma f)`` s.t. ``||f|| <= kappa`` (dropped when
    ``kappa`` is None) and ``||D f - f D|| <= 1`` for every operator ``D``.

    The unbounded variant is finite only when sigma pairs with no matrix
    commuting with every operator; the caller checks that first.
    """
    basis = _hermitian_basis(sigma.shape[0])
    objective = np.einsum("pab,ba->p", basis, sigma).real
    # -i [D, E] is Hermitian with the same norm as the commutator
    images = [-1j * (np.einsum("ab,pbc->pac", D, basis) - np.einsum("pab,bc->pac", basis, D))
              for D in ops]
    radii = [1.0] * len(ops)
    if kappa is not None:
        images.append(basis)
        radii.append(kappa)
    return relaxation_bound(objective, np.array(images), np.array(radii))
