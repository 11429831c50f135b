"""Ball programs and the primal-dual interior-point solver of every program.

A ball program maximizes ``sum_b tr(C_b F_b)`` over stacked Hermitian blocks
F subject to ``||F_b|| <= rho_b`` and ``||(L F)_e|| <= r_e`` (operator
norms), in the real coordinates x of :mod:`specdist.linalg`.  Image e is
the difference of two adjacent blocks, ``(L x)_e = x_e - x_{e + 1}`` (the
chain of the W1,kappa dual), or the only block through a map, ``x G_e``
(the commutators of the Connes distance).  :class:`BallProgram` holds the
images, their adjoint and the feasibility of a test function.
``||G|| <= r`` is the pair of linear matrix inequalities ``r I -+ G >= 0``,
so the program is the semidefinite program ``max c.x`` subject to ``S_k =
r_k I - A_k(x) >= 0`` over ``2 (B + E)`` blocks k (balls and images, each
with both signs), whose dual minimizes ``sum_k r_k tr X_k`` over ``X_k >=
0`` with ``sum_k A_k*(X_k) = c``.

The solve divides the objective by t, the power of two nearest ``sum_b rho_b
||C_b||_* / (n sum_b rho_b)`` (1 for C = 0), and multiplies both bounds and Y
by t on exit, so that no iterate depends on the masses' units and masses times
2^k scale the certificate by 2^k exactly.  From ``x = 0``, ``S = r I`` and
``X = I``, each Newton step takes the Helmberg-Rendl-Vanderbei-Wolkowicz
direction (SIAM J. Optim. 1996) with Mehrotra's predictor-corrector (``sigma =
(mu_aff / mu)^3``, SIAM J. Optim. 1992) and steps of 0.95 of the distance to
the boundary.  Its Schur complement ``sum_k J_k^T W_k J_k``, with ``W_k[a, b]
= Re tr(E_a X_k E_b S_k^-1)`` and J_k the constraint's Jacobian, is block
tridiagonal in the blocks of x (one dense block for Connes), and block cyclic
reduction (Heller, SIAM J. Numer. Anal. 1976), its pivots factored by Cholesky
where their condition allows, solves it in log2 B batched levels.  S is the
exact slack of x, so x stays strictly feasible.  The Schur solve loses
accuracy as ``mu`` falls, so the corrector is refined once with the step's
one factorization, and on the chain each solve restores the summed equations
that fix its constant mode (:func:`_block_solver`).  Inverse square roots and
step lengths come from the spectral kernels of :mod:`specdist.linalg`, block
products from the real forms ``R(M) = [[Re M, -Im M], [Im M, Re M]]`` (``R(A)
R(B) = R(AB)``, as in SDPT3), which numpy multiplies several times faster.

Certification is the package's: x scaled into the feasible set gives the
lower bound, ``Y_e = X_e+ - X_e-`` of the image blocks the upper bound
``sum_b rho_b ||C_b - (L* Y)_b||_* + sum_e r_e ||Y_e||_*`` (weak duality),
each rounded outward by two units of roundoff of its terms.  A bound that
would invert the bracket is not taken; three Newton steps in a row that
improve neither bound nor halve ``<X, S>`` (roundoff), like the budget, end
the solve with ``ConvergenceError``.

:func:`interior_point` runs these steps for any program with the hooks of
:class:`BallProgram`, from the caller's start and with its bounds; the
transport program of :mod:`specdist.matrix_primal` is the other one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .pdhg import DualCertificate, SolverOptions, no_certificate, within_tolerance

STEP_TO_BOUNDARY = 0.95   # share of the distance to the boundary of the cone a step takes
EIGEN_FLOOR = 1e-14       # floor of scaled pivot eigenvalues, and reduced pivots' ridge, relative
STALL_STEPS = 3           # Newton steps in a row that improve neither bound nor halve <X, S>
EPS2 = 2.0 * np.finfo(float).eps   # outward rounding of both bounds, per unit of their terms
WEIGHT_CHUNK = 1 << 15    # bytes of the Schur weights' block products formed at a time


def _t(M: np.ndarray) -> np.ndarray:
    """Transposed blocks, contiguous: transposed strides would run another BLAS
    small-matrix kernel, whose code pages add to the process's memory."""
    return np.ascontiguousarray(np.swapaxes(M, -1, -2))


@dataclass(frozen=True)
class BallProgram:
    """Data of one ball-constrained linear maximization (see module docstring):
    the images of the chain, ``x_e - x_{e + 1}``, without ``maps``, or else
    ``x G_e`` of the only block."""

    objective: np.ndarray     # (B, n^2) coordinates of the blocks C
    ball_radii: np.ndarray    # (B,) operator-norm radii for F
    image_radii: np.ndarray   # (E,) operator-norm radii for L F
    maps: np.ndarray | None = None   # (E, n^2, n^2): G_e

    def __post_init__(self):
        if self.maps is not None and len(self.image_radii) and len(self.objective) > 1:
            raise ValueError("images through maps read the only block, but B > 1")

    def forward(self, F: np.ndarray) -> np.ndarray:
        """``L F``, ``(E, n^2)``."""
        if self.maps is None:
            return F[:-1] - F[1:]
        return F[0] @ self.maps

    def adjoint(self, Y: np.ndarray) -> np.ndarray:
        """``L* Y``, ``(B, n^2)``."""
        out = np.zeros(self.objective.shape)
        if self.maps is None:
            out[:-1] += Y
            out[1:] -= Y
        else:
            out[0] = (Y[:, None] @ _t(self.maps))[:, 0].sum(axis=0)
        return out

    def constraints(self, v: np.ndarray) -> np.ndarray:
        """The constraint images ``(A_k(v))_k`` of coordinates v, both signs."""
        images = np.concatenate([v, self.forward(v)])
        return np.concatenate([images, -images])

    def constraints_adjoint(self, Z: np.ndarray) -> np.ndarray:
        """``sum_k A_k*(Z_k)``, the adjoint of :meth:`constraints`."""
        half, B = len(Z) // 2, len(self.ball_radii)
        signed = Z[:half] - Z[half:]
        return signed[:B] + self.adjoint(signed[B:])

    def radii(self) -> np.ndarray:
        """``r_k I`` of every constraint block k, both signs, ``(J, n^2)``: S at x = 0."""
        identity = linalg.to_coords(np.eye(math.isqrt(self.objective.shape[-1])))
        return np.tile(np.concatenate([self.ball_radii, self.image_radii]), 2)[:, None] * identity

    def normal_blocks(self, X: np.ndarray, Q: np.ndarray) -> tuple:
        """Diagonal and superdiagonal blocks ``(B, n^2, n^2)`` of ``sum_k J_k^T
        W_k J_k`` at the real forms X and Q of every block (:func:`_weights`),
        each sign pair's weights summed; the last superdiagonal block is 0.
        Then the chain's diagonal blocks without the images' weights (the
        balls'), or ``None`` through maps."""
        W = _weights(*(P.reshape((2, -1) + P.shape[1:]) for P in (X, Q)))
        B = self.ball_radii.size
        diag, local, images = W[:B].copy(), W[:B], W[B:]
        upper = np.zeros_like(diag)   # upper[B - 1] = 0: no block after the last
        if self.maps is None:
            diag[:-1] += images
            diag[1:] += images
            upper[:-1] = -images
        else:
            diag[0] += (self.maps @ images @ _t(self.maps)).sum(axis=0)
        return diag, upper, local if self.maps is None else None

    def unit(self) -> float:
        """t, the objective's unit (module docstring)."""
        c, rho = (np.asarray(a, dtype=float) for a in (self.objective, self.ball_radii))
        n = math.isqrt(c.shape[-1])
        # a weighted mean, finite wherever the nuclear norms are (summed first, they can overflow)
        with np.errstate(all="ignore"):   # 0 or not finite for c = 0 or rho = 0
            return linalg.power_of_two(rho / rho.sum() @ linalg.nuclear_norms(c) / n)

    def _norms(self, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Operator norms of F's blocks and images, and their radii."""
        return (linalg.op_norms(np.concatenate([F, self.forward(F)])),
                np.concatenate([self.ball_radii, self.image_radii]))

    def feasibility_scale(self, F: np.ndarray) -> float:
        """Smallest s >= 1 such that F / s satisfies every constraint."""
        norms, radii = self._norms(F)
        return max(1.0, float((norms / radii).max(initial=0.0)))

    def residual(self, F: np.ndarray) -> float:
        """F's largest constraint violation, 0 when feasible."""
        norms, radii = self._norms(F)
        return max(0.0, float((norms - radii).max(initial=0.0)))

    def upper_bound(self, Y: np.ndarray) -> float:
        """The cost of Y, which bounds the supremum by weak duality (see module docstring)."""
        slack = self.objective - self.adjoint(Y)
        radii = np.concatenate([self.ball_radii, self.image_radii])
        return float(radii @ linalg.nuclear_norms(np.concatenate([slack, Y])))


@functools.cache
def _real_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The basis's real forms ``R(E_a) = [[Re E_a, -Im E_a], [Im E_a, Re E_a]]``,
    ``(n^2, 2n, 2n)``, and the table ``(4 n^2, n^2)`` back to coordinates from
    flattened real forms: ``1/2 tr(R(E_a) R(M)) = Re tr(E_a M)``."""
    E = linalg.from_coords(np.eye(n * n))
    forms = np.block([[E.real, -E.imag], [E.imag, E.real]])
    return forms, np.ascontiguousarray(0.5 * forms.reshape(n * n, -1).T)


def _real(c: np.ndarray) -> np.ndarray:
    """Real forms ``R(M)`` ``(..., 2n, 2n)`` of coordinate stacks."""
    E = _real_tables(math.isqrt(c.shape[-1]))[0]
    return (c @ E.reshape(len(E), -1)).reshape(c.shape[:-1] + E.shape[1:])


def _co(R: np.ndarray) -> np.ndarray:
    """Coordinates ``(..., n^2)`` of the Hermitian parts of M from real forms ``R(M)``."""
    back = _real_tables(R.shape[-1] // 2)[1]
    return (R.reshape(-1, back.shape[0]) @ back).reshape(R.shape[:-2] + back.shape[1:])


def _weights(X: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """``W_k[a, b] = Re tr(E_a X_k E_b Q_k)``, coordinate a of ``X_k E_b Q_k``,
    summed over the leading axis s of real-form stacks ``(s, J, 2n, 2n)`` (a
    constraint's two signs, whose products are summed before the table back),
    ``(J, n^2, n^2)``, ``WEIGHT_CHUNK`` bytes of products at a time."""
    J, E = X.shape[1], _real_tables(X.shape[-1] // 2)[0]
    W = np.empty((J, len(E), len(E)))
    step = max(1, WEIGHT_CHUNK // E.nbytes)
    for k in range(0, J, step):
        part = slice(k, min(k + step, J))
        products = X[0, part, None] @ E @ Q[0, part, None]
        for Xs, Qs in zip(X[1:], Q[1:]):
            products += Xs[part, None] @ E @ Qs[part, None]
        W[part] = _co(products)
    return W


def _pivot_factor(M: np.ndarray) -> np.ndarray:
    """A real factor H, ``(m, m)`` or ``(2m, m)``, with ``M^-1 = H^T H`` for
    symmetric positive semidefinite blocks ``M = s P s`` (``s = diag(M)^1/2``,
    which keeps graded blocks' eigenvalues accurate): ``L^-1 / s`` from the
    Cholesky factor ``P = L L^T``, or else the real and imaginary parts of
    ``w^-1/2 V* / s`` from ``P = V w V*``, w floored at ``EIGEN_FLOOR`` of its
    largest.  The batch takes the first unless some ``m EIGEN_FLOOR ||L^-1||_F^2
    > 1`` (or is not finite): below that bound the floor cannot bind, as
    ``lambda_min(P) >= ||L^-1||_F^-2`` and ``lambda_max(P) <= tr P = m``."""
    s = np.sqrt(np.diagonal(M, axis1=-2, axis2=-1))[..., None]
    P = M / s / s.mT
    try:
        H = np.linalg.inv(np.linalg.cholesky(P))
        if M.shape[-1] * EIGEN_FLOOR * np.square(H).sum(axis=(-2, -1)).max() <= 1.0:
            return H / s.mT
    except np.linalg.LinAlgError:
        pass
    w, V = np.linalg.eigh(P.astype(complex))
    H = V.mT.conj() * np.maximum(w, EIGEN_FLOOR * w[..., -1:])[..., None] ** -0.5 / s.mT
    return np.concatenate([H.real, H.imag], axis=-2)


def _block_solver(diag: np.ndarray, upper: np.ndarray, local: np.ndarray | None = None,
                  coupled: int | None = None):
    """``b -> M^-1 b`` for the symmetric block-tridiagonal M with these blocks
    (``upper[b] = M[b, b + 1]``, the last 0), by block cyclic reduction: each
    level eliminates the odd-numbered blocks j, leaving a block-tridiagonal
    system in the even-numbered ones, through the pivots' factors H, as
    Cholesky does: ``M[i, j] M[j, j]^-1 M[j, k] = T_i^T T_k``, ``T_i = H
    M[j, i]`` (explicit pivot inverses lose the solve's accuracy once M is
    ill-conditioned).  A reduced pivot is raised by ``EIGEN_FLOOR`` of its
    diagonal first: what it resolves only below that (the common part of
    blocks tied by a gap far below kappa, lost to cancellation) is left alone.
    Given ``local``, M's diagonal blocks without the chain's edge weights
    (whose part ``L^T D_e L`` of M sums to 0 over the blocks), each solve is
    deflated (Nicolaides, SIAM J. Numer. Anal. 1987): the chain's constant
    mode ``1 (x) a``, which the edges cannot see, is corrected by ``a = (sum_k
    local_k)^-1 sum_k (b_k - local_k x_k)``, so that the summed equations
    hold.  The Newton step refines its corrector's solve once with the same
    factorization (Skeel, Math. Comp. 1980), so none needs a second one.
    When the superdiagonal blocks touch only the first ``coupled`` coordinates
    of each block, the others are eliminated block by block first, in the same
    way, and the reduction runs on the Schur complement of the first (and
    deflates with ``local``'s)."""
    if coupled is not None:
        H = _pivot_factor(diag[:, coupled:, coupled:])
        T = H @ diag[:, coupled:, :coupled]
        TT = _t(T) @ T
        solve_coupled = _block_solver(diag[:, :coupled, :coupled] - TT,
                                      upper[:, :coupled, :coupled],
                                      None if local is None else local[:, :coupled, :coupled] - TT)

        def eliminated(b: np.ndarray) -> np.ndarray:
            y = H @ b[:, coupled:, None]
            x = solve_coupled(b[:, :coupled] - (_t(T) @ y)[..., 0])
            return np.concatenate([x, (_t(H) @ (y - T @ x[..., None]))[..., 0]], axis=1)

        return eliminated
    mode = None if local is None else _pivot_factor(local.sum(axis=0))
    eye = np.eye(diag.shape[-1])
    levels = []
    while len(diag) > 1:
        odd, even = len(diag) // 2, (len(diag) + 1) // 2
        left, right = upper[0::2][:odd], upper[1::2]   # M[j - 1, j] and M[j, j + 1]
        H = _pivot_factor(diag[1::2])
        to_left, to_right = H @ _t(left), H @ right
        left_t = _t(to_left)
        diag = diag[0::2] * (1.0 + EIGEN_FLOOR * eye)
        diag[:odd] -= left_t @ to_left
        diag[1:] -= (_t(to_right) @ to_right)[:even - 1]
        upper = np.zeros_like(diag)
        upper[:even - 1] = -(left_t @ to_right)[:even - 1]
        levels.append((H, left, right))
    last = _pivot_factor(diag)

    def solve(rhs: np.ndarray) -> np.ndarray:
        # vectors are columns (..., m, 1); a transposed matrix times a vector is
        # the vector's row (a view) times the matrix
        b = rhs = rhs[..., None]
        reduced = []
        for H, left, right in levels:
            y = H @ b[1::2]
            z = (y.mT @ H).mT   # M[j, j]^-1 b_j
            b = b[0::2].copy()
            b[:len(y)] -= left @ z
            b[1:] -= (z.mT @ right).mT[:len(b) - 1]
            reduced.append(y)
        x = ((last @ b).mT @ last).mT
        for (H, left, right), y in zip(reversed(levels), reversed(reduced)):
            after = np.concatenate([x[1:], np.zeros_like(x[:1])])[:len(y)]
            full = np.empty((len(x) + len(y),) + x.shape[1:])
            full[0::2] = x
            y = y - H @ ((x[:len(y)].mT @ left).mT + right @ after)
            full[1::2] = (y.mT @ H).mT
            x = full
        if mode is not None:   # the constant mode, from the summed equations
            x += ((mode @ (rhs - local @ x).sum(axis=0)).mT @ mode).mT
        return x[..., 0]

    return solve


def _newton_step(program, R, c, x, X):
    """One predictor-corrector step from ``(x, X)``, the iterates in coordinates."""
    A, A_adj = program.constraints, program.constraints_adjoint
    J, n = X.shape[0], math.isqrt(X.shape[-1])
    S = R - A(x)
    root = _real(linalg.map_eigenvalues(np.concatenate([X, S]), lambda lam: lam ** -0.5))
    S_inv = root[J:] @ root[J:]
    Xr = _real(X)
    solve = _block_solver(*program.normal_blocks(Xr, S_inv))

    def direction(Z, refined):
        """``(dx, dS, dX)`` toward ``X S = Z S``, a refined dx solved once more
        for the residual of ``v -> A*(X A(v) S^-1)``, applied matrix-free."""
        b = c - A_adj(Z)
        dx = solve(b)
        if refined:
            dx += solve(b - A_adj(_co(Xr @ _real(A(dx)) @ S_inv)))
        dS = -A(dx)
        return dx, dS, Z - X - _co(Xr @ _real(dS) @ S_inv)

    def steps(dX, dS) -> tuple[float, float]:
        """``min(1, 0.95 alpha_max)`` for X and for S, ``alpha_max`` the largest
        alpha keeping every block of ``P + alpha dP`` positive semidefinite:
        ``-1 / lambda_min(P^-1/2 dP P^-1/2)``."""
        scaled = _co(root @ _real(np.concatenate([dX, dS])) @ root)
        lam = linalg.eigenvalues(scaled)[0].reshape(2, -1).min(axis=1)
        return tuple(min(1.0, -STEP_TO_BOUNDARY / v) if v < 0 else 1.0 for v in lam)

    def mean_complementarity(X, S):
        return float(np.vdot(X, S)) / (J * n)

    mu = mean_complementarity(X, S)
    dx, dS, dX = direction(np.zeros_like(X), False)             # predictor, not a step
    a_x, a_s = steps(dX, dS)
    sigma = (mean_complementarity(X + a_x * dX, S + a_s * dS) / mu) ** 3
    target = sigma * mu * np.eye(2 * n) - _real(dX) @ _real(dS)
    dx, dS, dX = direction(_co(target @ S_inv), True)           # corrector
    a_x, a_s = steps(dX, dS)
    return x + a_s * dx, X + a_x * dX


def interior_point(program, x: np.ndarray, X: np.ndarray, certify, package,
                   options: SolverOptions):
    """Newton steps from the strictly feasible ``(x, X)`` until the best bracket
    meets the tolerance.  ``program`` has the hooks of :class:`BallProgram`
    (``normal_blocks`` returns the arguments of :func:`_block_solver`);
    ``certify(x, X)`` returns ``(lower, its witness, upper, its witness)`` of a
    finite iterate, and ``package(lower, witness, upper, witness, steps)`` the
    result, also carried by the ``ConvergenceError`` of the budget, a
    breakdown or a stall (module docstring)."""
    R, c = program.radii(), program.objective

    def checked(x, X):   # no bound from a non-finite iterate
        if not (np.isfinite(x).all() and np.isfinite(X).all()):
            return -np.inf, None, np.inf, None
        return certify(x, X)

    def fail(reason, steps):   # the bracket in the caller's units, as packaged
        solution = package(*best, steps)
        raise no_certificate(options.tolerance, reason, solution.lower_bound,
                             solution.upper_bound, solution)

    best = list(checked(x, X))   # lower, its witness, upper, its witness
    complementarity = float(np.vdot(X, R - program.constraints(x)))   # <X, S>
    steps = stalled = 0
    while not within_tolerance(best[0], best[2], options.tolerance):
        if steps == options.max_iterations:
            fail(f"budget of {steps} Newton steps spent", steps)
        steps += 1
        try:
            with np.errstate(all="ignore"):
                x, X = _newton_step(program, R, c, x, X)
                complementarity, last = (float(np.vdot(X, R - program.constraints(x))),
                                         complementarity)
        except (np.linalg.LinAlgError, ZeroDivisionError):   # the latter: sigma at <X, S> = 0
            fail(f"Newton step {steps} broke down", steps)
        lower, F, upper, Y = checked(x, X)
        stalled = 0 if 2 * complementarity < last else stalled + 1
        if best[0] < lower <= best[2]:
            best[0:2], stalled = (lower, F), 0
        if best[0] <= upper < best[2]:
            best[2:4], stalled = (upper, Y), 0
        if stalled == STALL_STEPS:
            fail(f"Newton steps {steps - STALL_STEPS + 1} to {steps} improved neither bound "
                 "nor halved <X, S>", steps)
    return package(*best, steps)


def solve_ball_program(program: BallProgram, options: SolverOptions) -> DualCertificate:
    """Certify the supremum of a ball program.

    The certificate's ``flow`` is the Y of its upper bound; ``iterations``
    counts Newton steps, capped by ``options.max_iterations``.  Without
    images the supremum is attained in closed form, without a step.
    """
    t = program.unit()
    program = replace(program, objective=np.asarray(program.objective, dtype=float) / t)
    c, rho = program.objective, program.ball_radii
    B, half = rho.size, rho.size + program.image_radii.size

    def package(lower, F, upper, Y, steps) -> DualCertificate:
        return DualCertificate(linalg.from_coords(F), t * lower, program.residual(F), steps,
                               t * upper, None if Y is None else linalg.from_coords(t * Y))

    if half == B:
        # the dual-norm pairing is attained by the spectral sign of each block
        F = rho[:, None] * linalg.map_eigenvalues(c, np.sign)
        value = float(np.vdot(F, c))
        return package(value, F, value, None, 0)

    def certify(x, X):
        """Both bounds, rounded outward, with their witnesses F and Y."""
        F = x / program.feasibility_scale(x)
        Y = X[B:half] - X[half + B:]
        lower = float(np.vdot(F, c)) - EPS2 * float(np.abs(F * c).sum())
        return lower, F, program.upper_bound(Y) * (1.0 + EPS2), Y

    X = np.tile(linalg.to_coords(np.eye(math.isqrt(c.shape[-1]))), (2 * half, 1))
    return interior_point(program, np.zeros(c.shape), X, certify, package, options)
