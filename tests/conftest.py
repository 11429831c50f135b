"""Shared randomized-instance builders and independent test oracles."""

import numpy as np
import pytest

from specdist import Grid, LpProblem, lp_simplex, scalar_measure
from specdist.measures import MatrixMeasure


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_hermitian(rng, n, scale=1.0):
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * 0.5 * (A + A.conj().T)


def eig_map(M, f):
    """V diag(f(lam)) V* blockwise through numpy's eigh (oracle for the kernels)."""
    lam, V = np.linalg.eigh(M)
    return np.einsum("...ij,...j,...kj->...ik", V, f(lam), V.conj())


def clip_oracle(M, radius):
    r = np.asarray(radius, dtype=float)[..., None]
    return eig_map(M, lambda lam: np.clip(lam, -r, r))


def soft_threshold_oracle(M, tau):
    t = np.asarray(tau, dtype=float)[..., None]
    return eig_map(M, lambda lam: np.sign(lam) * np.maximum(np.abs(lam) - t, 0.0))


def random_psd(rng, n, scale=1.0):
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (A @ A.conj().T) / n


def random_grid(rng, K, spread=np.pi):
    points = np.sort(rng.uniform(0.0, spread, size=K))
    points += np.arange(K) * 1e-3 * spread / max(K, 1)
    weights = rng.uniform(0.05, 1.0, size=K)
    return Grid(points, weights)


def random_matrix_measure(rng, grid, n, scale=1.0):
    masses = np.array([random_psd(rng, n, scale) for _ in range(grid.size)])
    return MatrixMeasure(grid, masses)


def random_scalar_measure(rng, grid, scale=1.0):
    return scalar_measure(grid, rng.uniform(0.0, scale, size=grid.size))


def flow_cost(delta, gaps, kappa, phi):
    """Cost of the edge flow ``phi`` in the dual of the chain program, by plain numpy:
    ``kappa sum_k |delta_k - phi_k + phi_{k-1}| + sum_e g_e |phi_e|``."""
    slack = np.asarray(delta) - np.append(phi, 0.0) + np.insert(phi, 0, 0.0)
    return float(kappa * np.abs(slack).sum() + np.asarray(gaps) @ np.abs(phi))


def transport_lp_value(mu1, mu2):
    """Minimum-cost transport between equal-mass scalar measures via the LP.

    Independent oracle: K^2 nonnegative plan entries, marginal equalities as
    inequality pairs, solved by the dense simplex.
    """
    m1 = mu1.scalar_values()
    m2 = mu2.scalar_values()
    K = m1.size
    d = np.abs(mu1.grid.points[:, None] - mu1.grid.points[None, :]).ravel()
    nvar = K * K
    rows, bounds = [], []
    for i in range(K):  # row sums = m1_i
        row = np.zeros(nvar)
        row[i * K : (i + 1) * K] = 1.0
        rows.extend([row, -row])
        bounds.extend([m1[i], -m1[i]])
    for j in range(K):  # column sums = m2_j
        row = np.zeros(nvar)
        row[j::K] = 1.0
        rows.extend([row, -row])
        bounds.extend([m2[j], -m2[j]])
    rows.append(-np.eye(nvar))
    bounds.append(np.zeros(nvar))
    A = np.vstack([np.atleast_2d(r) for r in rows])
    b = np.concatenate([np.atleast_1d(v) for v in bounds])
    value, _ = lp_simplex(LpProblem(-d, A, b))
    return -value
