"""Shared randomized-instance builders and independent test oracles."""

import math

import numpy as np
import pytest

from specdist import Grid, linalg, scalar_measure
from specdist.measures import MatrixMeasure
from specdist.pdhg import DualCertificate, no_certificate, relative_gap, within_tolerance
from specdist.simplex import LpProblem, lp_simplex


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


def trace_pairing(F, G):
    """Sum over blocks of tr(F_k G_k); real for Hermitian stacks."""
    return float(np.einsum("...ij,...ji->...", F, G).sum().real)


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


def short_gap_pair(h, scale=1.0):
    """A = [[2, 1], [1, 1]] times ``scale`` moved over the gap ``h``: the W1,kappa
    value at kappa = 1 is ``3 h scale``, far below ``kappa ||Delta||_TV = 6 scale``."""
    A = scale * np.array([[2.0, 1.0], [1.0, 1.0]], dtype=complex)
    zero = np.zeros((2, 2), dtype=complex)
    grid = Grid(np.array([0.0, h]), np.ones(2))
    return MatrixMeasure(grid, np.array([A, zero])), MatrixMeasure(grid, np.array([zero, A]))


def spread_pair(rng, K, n, span):
    """Two measures (mu1 first) of ``A A*`` masses, ``A = N + iN`` drawn from
    ``rng``, on K unit-weight points spread evenly over ``[0, span]``."""
    grid = Grid(np.linspace(0.0, span, K), np.ones(K))
    masses = []
    for _ in range(2):
        A = rng.normal(size=(K, n, n)) + 1j * rng.normal(size=(K, n, n))
        masses.append(A @ A.conj().transpose(0, 2, 1))
    return tuple(MatrixMeasure(grid, m) for m in masses)


def recipe_pair(seed):
    """Seed s's pair of the kappa-far-above-the-span sweep: n = (2, 3)[s % 2]
    and K = (8, 16, 32)[s % 3] on a grid of span 1."""
    return spread_pair(np.random.default_rng(seed), (8, 16, 32)[seed % 3], (2, 3)[seed % 2], 1.0)


def cancellation_pair():
    """1x1 masses 1 and 1 - 1e-12 a gap of 1e-14 apart: the value, ~1.01e-12, cancels
    against sum |delta_k f_k| ~ 2, so the exact certificate's relative gap is ~1.3e-3."""
    grid = Grid(np.array([0.0, 1e-14]), np.ones(2))
    return scalar_measure(grid, [1.0, 0.0]), scalar_measure(grid, [0.0, 1.0 - 1e-12])


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


def w1_kappa_lp(points, delta, kappa, all_pairs):
    """The scalar flat-metric program ``max delta . f`` over ``|f_k| <= kappa``
    and ``|f_i - f_j| <= |theta_i - theta_j|``, for every pair of points or only
    adjacent ones, as a dense LP (oracle for the chain reduction and solver)."""
    K = points.size
    rows = []
    bounds = []
    if all_pairs:
        index_pairs = [(i, j) for i in range(K) for j in range(i + 1, K)]
    else:
        index_pairs = [(k, k + 1) for k in range(K - 1)]
    for i, j in index_pairs:
        row = np.zeros(K)
        row[i], row[j] = 1.0, -1.0
        gap = abs(points[j] - points[i])
        rows.extend([row, -row])
        bounds.extend([gap, gap])
    eye = np.eye(K)
    for k in range(K):
        rows.extend([eye[k], -eye[k]])
        bounds.extend([kappa, kappa])
    return LpProblem(delta, np.array(rows), np.array(bounds))


def w1_kappa_scalar_all_pairs(mu1, mu2, kappa):
    """``w1_kappa_scalar`` with every pairwise Lipschitz constraint, by the simplex."""
    delta = mu1.scalar_values() - mu2.scalar_values()
    value, _ = lp_simplex(w1_kappa_lp(mu1.grid.points, delta, kappa, all_pairs=True))
    return value


CHECK_EVERY = 50            # iterations between certifications (the only restart points)
RESTART_SUFFICIENT = 0.2    # restart once the gap falls to this share of its last-restart value
RESTART_ARTIFICIAL = 0.36   # ... or once the current run is this share of all iterations
WEIGHT_SMOOTHING = 0.5      # weight of the newest move ratio in log(omega)


def _move(new, old):
    """Norm of ``new - old``; 0 when negligible against the iterates themselves."""
    moved = float(np.linalg.norm(new - old))
    return moved if moved > 1e-10 * max(np.linalg.norm(new), np.linalg.norm(old)) else 0.0


def pdhg(x, y, forward, adjoint, prox_maps, map_norm, certify, package, options):
    """Run the primal-dual hybrid gradient (PDHG) from ``(x, y)`` until the best
    certified bounds meet the tolerance: the first-order oracle's driver.

    It follows PDLP (Applegate et al., NeurIPS 2021; Applegate, Hinder, Lu and
    Lubin, Math. Prog. 2023): steps ``tau = 0.999 omega / ||L||`` and ``sigma =
    0.999 / (omega ||L||)``; every ``CHECK_EVERY`` iterations both the iterate
    and the running average since the last restart are certified; the
    iteration restarts from the one with the smaller relative gap once that
    gap falls to ``RESTART_SUFFICIENT`` times its value at the last restart,
    or once the run reaches ``RESTART_ARTIFICIAL`` times all iterations; at
    each restart ``omega`` moves halfway, in the log, toward the ratio of the
    primal to the dual move, unless either move is negligible.

    ``prox_maps(tau, sigma)`` returns ``(prox_primal, prox_dual)`` at those
    steps.  One iteration is ``y <- prox_dual(y + sigma L xbar)``, ``x <-
    prox_primal(x - tau L* y)``, ``xbar <- 2 x_new - x_old``.  ``certify(x,
    y)`` returns ``(lower, lower_witness, upper, upper_witness)``; the driver
    keeps the best of each.  ``package(lower, lower_witness, upper,
    upper_witness, iterations)`` builds the result, returned on certification
    and carried by ``ConvergenceError`` otherwise.
    """
    best = list(certify(x, y))   # (lower, its witness, upper, its witness) so far

    def check(xp, yp) -> float:
        lower, lower_witness, upper, upper_witness = certify(xp, yp)
        if lower > best[0]:
            best[0:2] = lower, lower_witness
        if upper < best[2]:
            best[2:4] = upper, upper_witness
        return relative_gap(lower, upper)

    def certified() -> bool:
        return within_tolerance(best[0], best[2], options.tolerance)

    if certified():
        return package(*best, 0)
    restart_gap = relative_gap(best[0], best[2])

    def steps(omega):
        tau, sigma = 0.999 * omega / map_norm, 0.999 / (omega * map_norm)
        return (tau, sigma, *prox_maps(tau, sigma))

    omega = 1.0
    tau, sigma, prox_primal, prox_dual = steps(omega)
    x_sum, y_sum = np.zeros_like(x), np.zeros_like(y)
    x_start, y_start, xbar, run = x, y, x, 0
    for it in range(1, options.max_iterations + 1):
        y = prox_dual(y + sigma * forward(xbar))
        x_new = prox_primal(x - tau * adjoint(y))
        xbar = 2.0 * x_new - x
        x = x_new
        x_sum += x
        y_sum += y
        run += 1
        if it % CHECK_EVERY and it < options.max_iterations:
            continue
        gap = check(x, y)
        x_avg, y_avg = x_sum / run, y_sum / run
        gap_avg = check(x_avg, y_avg)
        if certified():
            return package(*best, it)
        if min(gap, gap_avg) > RESTART_SUFFICIENT * restart_gap and run < RESTART_ARTIFICIAL * it:
            continue
        if gap_avg < gap:
            x, y, gap = x_avg, y_avg, gap_avg
        moved_x, moved_y = _move(x, x_start), _move(y, y_start)
        if moved_x > 0 and moved_y > 0 and math.isfinite(moved_x / moved_y):
            omega = math.exp(WEIGHT_SMOOTHING * math.log(moved_x / moved_y)
                             + (1 - WEIGHT_SMOOTHING) * math.log(omega))
            tau, sigma, prox_primal, prox_dual = steps(omega)
        x_start, y_start, xbar, run, restart_gap = x, y, x, 0, gap
        x_sum[...] = 0.0
        y_sum[...] = 0.0

    raise no_certificate(options.tolerance, f"budget of {options.max_iterations} iterations "
                         "spent", best[0], best[2], package(*best, options.max_iterations))


def _map_norm(program):
    """A bound on ``||L||``: a chain image is the difference of two blocks, and
    the images of the only block read it through their maps side by side."""
    if program.maps is None:
        return 2.0
    return np.linalg.norm(np.concatenate(program.maps, axis=1), 2)


def pdhg_ball_program(program, options):
    """The first-order solve of a ball program by :func:`pdhg`: the oracle that
    the interior-point solver's brackets are checked against.  Steps come from
    the bound on ``||L||`` above; the lower bound is the iterate scaled
    feasible, the upper bound the cost of the dual iterate Y."""
    C = np.asarray(program.objective, dtype=float)
    rho = np.asarray(program.ball_radii, dtype=float)
    r = np.asarray(program.image_radii, dtype=float)

    def package(lower, witness, upper, _, iterations):
        return DualCertificate(linalg.from_coords(witness), float(np.vdot(witness, C)),
                               program.residual(witness), iterations, upper)

    def certify(F, Y):
        scale = program.feasibility_scale(F)
        return float(np.vdot(F, C)) / scale, F / scale, program.upper_bound(Y), None

    def prox_maps(tau, sigma):
        tau_C = tau * C
        return (lambda V: linalg.clip(V + tau_C, -rho, rho),
                lambda W: W - sigma * linalg.clip(W / sigma, -r, r))

    return pdhg(np.zeros_like(C), np.zeros((r.size, C.shape[1])), program.forward,
                program.adjoint, prox_maps, _map_norm(program), certify, package, options)
