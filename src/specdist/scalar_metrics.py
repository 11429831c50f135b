"""Classical scalar metrics: Kolmogorov and 1-Wasserstein.

The scalar total variation is ``measures.tv_matrix`` at n = 1.

The balanced Wasserstein distance uses the closed CDF-area form.  The
unbalanced variant (Lipschitz + box-constrained test functions) is the 1-d
flat, or bounded-Lipschitz, metric (Piccoli & Rossi, ARMA 2014); on a grid
it is a chain program.  ``w1_kappa_chain`` solves its LP dual, a chain
program over edge flows, exactly in O(K log K) by a slope trick, and reads
an optimal test function off the optimal flow by complementary slackness:
the pairing of the test function is the lower bound and the flow's cost the
matching upper bound (``matrix_dual.solve_dual`` certifies n = 1 problems
with the pair).  On a 1-d grid with ground
distance |x - y| the Lipschitz constraints between adjacent points imply all
pairwise ones (telescoping), which is what makes it a chain; the tests check
that reduction and the chain solver against linear programs on the dense
simplex of :mod:`specdist.simplex`.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .measures import MatrixMeasure, _check_compatible
from .simplex import lp_simplex   # unused; perfbench/tracing.py wraps this name


def _scalar_pair(mu1: MatrixMeasure, mu2: MatrixMeasure):
    _check_compatible(mu1, mu2)
    return mu1.scalar_values(), mu2.scalar_values()


def kolmogorov(mu1: MatrixMeasure, mu2: MatrixMeasure) -> float:
    """Largest absolute CDF difference over the grid."""
    m1, m2 = _scalar_pair(mu1, mu2)
    return float(np.abs(np.cumsum(m1) - np.cumsum(m2)).max())


def w1_balanced(mu1: MatrixMeasure, mu2: MatrixMeasure) -> float:
    """Balanced 1-Wasserstein distance via the CDF area formula.

    Requires equal total masses; unbalanced inputs should go through
    ``w1_kappa_scalar`` instead.
    """
    m1, m2 = _scalar_pair(mu1, mu2)
    scale = max(float(m1.max(initial=0.0)), float(m2.max(initial=0.0)), 1e-300)
    if abs(m1.sum() - m2.sum()) > 1e-9 * scale:
        raise ValueError(
            "total masses differ; the balanced W1 is undefined "
            "(use w1_kappa_scalar for unbalanced measures)"
        )
    F1 = np.cumsum(m1)
    F2 = np.cumsum(m2)
    gaps = mu1.grid.spacings
    return float(np.abs(F1[:-1] - F2[:-1]) @ gaps)


def _edge_flow(delta: list, gaps: list, kappa: float) -> list:
    """Optimal edge flow ``phi`` of the dual chain program of :func:`w1_kappa_chain`.

    Minimizes ``sum_e g_e |phi_e| + kappa sum_k |delta_k - phi_k + phi_{k-1}|``
    with ``phi_{-1} = phi_{K-1} = 0`` (``K - 1`` edge flows).  ``W_e(x)``, the
    least cost of the first ``e + 1`` points with ``phi_e = x``, is convex and
    piecewise linear: ``W_e = (W_{e-1} [] kappa|.|)(. - delta_e) + g_e|.|``.
    The inf-convolution clips its slopes to ``[-kappa, kappa]``, which removes
    slope weight ``g_{e-1}`` at either end (the end slopes are always
    ``-+(kappa + g_{e-1})``), and records the clip points ``a_e, b_e``; the
    shift is a lazy offset and ``g_e|.|`` adds a breakpoint of weight ``2 g_e``
    at 0.  Breakpoints sit in a min-heap and a max-heap with a shared weight
    each.  Backtracking from ``phi_{K-1} = 0`` clamps:
    ``phi_{e-1} = clip(phi_e - delta_e, a_e, b_e)``.  O(K log K).  An edge
    with ``g_e >= 2 kappa`` carries no flow and restarts the recursion.
    """
    K = len(delta)
    weight = [2.0 * kappa]             # W_{-1} [] kappa|.| = kappa|.|
    heaps = ([(0.0, 0)], [(0.0, 0)])   # raw positions; the right heap negated
    offset = delta[0]
    clips = ([0.0] * K, [0.0] * K)
    for e in range(K - 1):
        g = gaps[e]
        if g >= 2.0 * kappa:
            # moving mass across e costs more than removing and creating it:
            # phi_e = 0, and the clipped W_e is kappa|.| about 0 (done exactly,
            # as cutting g >> kappa off weights of order kappa would not be)
            weight.append(2.0 * kappa)
            heaps = ([(-offset, e + 1)], [(offset, e + 1)])
            offset += delta[e + 1]
            continue
        weight.append(2.0 * g)
        heapq.heappush(heaps[0], (-offset, e + 1))
        heapq.heappush(heaps[1], (offset, e + 1))
        for heap, sign, clip in zip(heaps, (1.0, -1.0), clips):
            rest = g
            while True:    # 2 kappa of weight outlasts both cuts
                raw, i = heap[0]
                if weight[i] > rest:
                    weight[i] -= rest
                    break
                heapq.heappop(heap)    # spent, or already spent from the other end
                rest -= weight[i]
                weight[i] = 0.0
            clip[e + 1] = sign * raw + offset
        offset += delta[e + 1]
    phi = [0.0] * K
    lo, hi = clips
    for e in range(K - 1, 0, -1):
        x = phi[e] - delta[e]
        phi[e - 1] = lo[e] if x < lo[e] else hi[e] if x > hi[e] else x
    return phi[:-1]


def w1_kappa_chain(delta: np.ndarray, gaps: np.ndarray,
                   kappa: float) -> tuple[float, np.ndarray, np.ndarray]:
    """Exact value, optimal ``f`` and optimal edge flow ``phi`` of a chain program.

    The program is ``max sum_k delta_k f_k`` over ``|f_k| <= kappa`` and
    ``|f_k - f_{k+1}| <= gaps_k``.  Its LP dual minimizes the cost
    ``sum_e g_e |phi_e| + kappa sum_k |r_k|`` over edge flows, with residuals
    ``r_k = delta_k - phi_k + phi_{k-1}``; :func:`_edge_flow` solves it, and
    the cost of ``phi`` is an upper bound anyone can recheck in O(K).
    Complementary slackness then pins ``f_k = kappa sign(r_k)`` where
    ``r_k != 0`` and ``f_e - f_{e+1} = g_e sign(phi_e)`` where ``phi_e != 0``;
    the rest is free within the constraints.  A forward pass intersects these
    intervals along the chain, and a backward pass picks a point in each and
    clamps it into the feasible set.  So ``f`` is feasible whatever the
    roundoff, and the value is its correctly rounded pairing with ``delta``
    (``math.fsum``): a lower bound that can be checked without trusting the
    solver.  A residual or flow within ``4 eps ||delta||_1`` of 0 counts as
    0; roundoff would otherwise pin ``f`` at the wrong bound.
    """
    delta = np.asarray(delta, dtype=float)
    gaps = np.asarray(gaps, dtype=float)
    K = delta.size
    if gaps.shape != (K - 1,):
        raise ValueError(f"{K} points need {K - 1} gaps, got {gaps.size}")
    if not (kappa > 0 and math.isfinite(2.0 * kappa)):   # 2 kappa weighs the flow
        raise ValueError(f"kappa must be positive and 2 kappa finite, got {kappa}")
    with np.errstate(over="ignore"):
        tv = float(np.abs(delta).sum())
    if not (math.isfinite(tv) and ((gaps >= 0) & (gaps < np.inf)).all()):
        raise ValueError("delta and its 1-norm must be finite, the gaps finite and nonnegative")
    d, g = delta.tolist(), gaps.tolist() + [math.inf]   # a free edge past the end
    phi = _edge_flow(d, g, kappa)
    tol = 4.0 * np.finfo(float).eps * tv
    flow = [0.0, *phi, 0.0]
    bounds = []
    lo, hi = -kappa, kappa    # where f_k can be, given f_0..f_{k-1}
    for k in range(K):
        r, p = d[k] - flow[k + 1] + flow[k], flow[k + 1]
        lo = max(lo, kappa if r > tol else -kappa)
        hi = min(hi, -kappa if r < -tol else kappa)
        bounds.append((lo, hi))
        lo, hi = lo + g[k] if p < -tol else lo - g[k], hi - g[k] if p > tol else hi + g[k]
    f = [0.0] * (K + 1)
    for k in range(K - 1, -1, -1):
        (lo, hi), p, y = bounds[k], flow[k + 1], f[k + 1]
        lo = max(lo, y + g[k] if p > tol else y - g[k])
        hi = min(hi, y - g[k] if p < -tol else y + g[k])
        f[k] = max(-kappa, y - g[k], min(kappa, y + g[k], max(lo, min(hi, y))))
    f = np.array(f[:-1])
    try:   # the value and phi's cost must be finite: numpy and fsum raise on overflow
        with np.errstate(over="raise"):
            value = math.fsum(delta * f)
            kappa * np.abs(delta - np.diff(flow)).sum() + (gaps * np.abs(phi)).sum()
    except ArithmeticError as exc:
        raise ValueError("kappa or masses too large: the value or its flow's cost overflows") from exc
    return value, f, np.array(phi)


def w1_kappa_scalar(mu1: MatrixMeasure, mu2: MatrixMeasure, kappa: float) -> float:
    """Unbalanced scalar Wasserstein-like distance with TV weight ``kappa``.

    Maximizes ``sum_k f_k (m1_k - m2_k)`` over test functions with unit
    Lipschitz bound and ``|f| <= kappa``, solved exactly by
    :func:`w1_kappa_chain` on the adjacent-difference constraints: the
    pairing of the mass difference with the optimal ``f``.
    """
    m1, m2 = _scalar_pair(mu1, mu2)
    return w1_kappa_chain(m1 - m2, mu1.grid.spacings, kappa)[0]

