"""Classical scalar metrics: Kolmogorov and 1-Wasserstein.

The scalar total variation is ``measures.tv_matrix`` at n = 1.

The balanced Wasserstein distance uses the closed CDF-area form.  The
unbalanced variant (Lipschitz + box-constrained test functions) is the 1-d
flat, or bounded-Lipschitz, metric (Piccoli & Rossi, ARMA 2014); on a grid
it is a chain program, solved exactly in O(K log K) by ``w1_kappa_chain``,
which also returns an optimal test function.  ``w1_kappa_flow`` solves its
dual, a chain program over edge flows, by the same slope trick; the flow's
cost is the matching upper bound (``matrix_dual.solve_dual`` certifies n = 1
problems with the pair).  On a 1-d grid with ground
distance |x - y| the Lipschitz constraints between adjacent points imply all
pairwise ones (telescoping), which is what makes it a chain; the all-pairs
linear program on the dense simplex is kept as a test oracle for that
reduction and for the chain solver.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .measures import MatrixMeasure, _check_compatible
from .simplex import LpProblem, lp_simplex


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


def _w1_kappa_lp(points: np.ndarray, delta: np.ndarray, kappa: float,
                 all_pairs: bool) -> LpProblem:
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


def w1_kappa_chain(delta: np.ndarray, gaps: np.ndarray,
                   kappa: float) -> tuple[float, np.ndarray]:
    """Exact value and optimal ``f`` of ``max sum_k delta_k f_k`` on a chain.

    The constraints are ``|f_k| <= kappa`` and ``|f_{k+1} - f_k| <= gaps_k``.
    ``V_k(x)``, the best partial sum over ``f_1..f_k`` with ``f_k = x``, is
    concave and piecewise linear on ``[-kappa, kappa]``.  Stage ``k + 1``
    takes its running maximum over windows of half-width ``g = gaps_k`` (a
    flat piece of length ``2 g`` enters at the argmax, the pieces on either
    side move outwards by ``g``), cuts ``g`` off both ends to stay in
    ``[-kappa, kappa]`` and adds ``delta_{k+1} x``, which moves every slope by
    ``delta_{k+1}``.

    The pieces are kept by slope, as lengths under a lazy slope offset (the
    prefix sums of ``delta``, so every slope is known up front and ranked
    once).  Two heaps give the steepest pieces at either end for the cuts,
    and a Fenwick tree over the slope ranks gives the argmax ``x*_k`` as
    ``-kappa`` plus the length of the rising pieces.  Backtracking clamps:
    ``f_K = x*_K`` and ``f_k = clip(x*_k, f_{k+1} - g_k, f_{k+1} + g_k)``,
    the best value of the concave ``V_k`` inside the window.  Each stage
    inserts one piece and removes amortized O(1) pieces, O(log K) each.  The
    returned ``f`` is feasible by construction and the value is its pairing
    with ``delta``, so the result can be checked without trusting the solver.
    """
    delta = np.asarray(delta, dtype=float)
    K = delta.size
    gaps = np.asarray(gaps, dtype=float).tolist()
    if len(gaps) != K - 1:
        raise ValueError(f"{K} points need {K - 1} gaps, got {len(gaps)}")
    # a gap of 2 kappa or more constrains nothing inside [-kappa, kappa], and
    # cutting a longer one off lengths of order kappa would lose them to roundoff
    gaps = [min(g, 2.0 * kappa) for g in gaps]
    # the piece entering flat at stage k has slope P_{k'+1} - P_k after any
    # later stage k', with P the prefix sums of delta: rank the P_k once
    # (1-based, for the tree); the rising pieces rank below P_{k'+1}
    prefix = np.concatenate(([0.0], np.cumsum(delta)))
    rank = np.empty(K + 1, dtype=np.int64)
    rank[np.argsort(prefix, kind="stable")] = np.arange(1, K + 2)
    rank = rank.tolist()
    size = K + 1
    tree = [0.0] * (size + 1)     # Fenwick tree of the lengths by rank
    held = [0.0] * (size + 1)     # each piece's length as the tree holds it
    length = [0.0] * (size + 1)   # its true length, shorter while a cut is pending

    def add(i: int, amount: float):
        while i <= size:
            tree[i] += amount
            i += i & -i

    # left end: rising pieces, min-heap of ranks; right end: max-heap.  The
    # partial cut at each end waits in `length` until another piece takes
    # the cut there (most pieces die within two stages of reaching an end)
    heaps = ([], [])
    signs = (1, -1)
    pending = [0, 0]
    argmax = [0.0] * K
    piece, cut = 2.0 * kappa, 0.0
    for k in range(K):
        r = rank[k]
        length[r] = held[r] = piece
        add(r, piece)
        for end in (0, 1):
            heap, sign = heaps[end], signs[end]
            heapq.heappush(heap, sign * r)
            rest = cut
            while rest > 0.0 and heap:
                j = sign * heap[0]
                if length[j] > rest:
                    length[j] -= rest
                    p = pending[end]
                    if p != j:
                        if length[p] != held[p]:
                            add(p, length[p] - held[p])
                            held[p] = length[p]
                        pending[end] = j
                    break
                heapq.heappop(heap)    # gone, or already cut from the other end
                rest -= length[j]
                length[j] = 0.0
                if held[j]:
                    add(j, -held[j])
                    held[j] = 0.0
        q = rank[k + 1]
        x = -kappa
        i = q - 1
        while i:
            x += tree[i]
            i &= i - 1
        for p in set(pending):
            if p < q:
                x += length[p] - held[p]
        argmax[k] = min(kappa, max(-kappa, x))
        if k < K - 1:
            cut = gaps[k]
            piece = 2.0 * cut
    f = argmax
    for k in range(K - 2, -1, -1):
        lo, hi = f[k + 1] - gaps[k], f[k + 1] + gaps[k]
        f[k] = lo if f[k] < lo else hi if f[k] > hi else f[k]
    f = np.array(f)
    return float(delta @ f), f


def w1_kappa_flow(delta: np.ndarray, gaps: np.ndarray, kappa: float) -> np.ndarray:
    """Optimal edge flow ``phi`` of the dual of :func:`w1_kappa_chain`.

    Minimizes ``sum_e g_e |phi_e| + kappa sum_k |delta_k - phi_k + phi_{k-1}|``
    with ``phi_{-1} = phi_{K-1} = 0`` (``K - 1`` edge flows), whose optimum is
    the chain value by LP duality, so the cost of the returned ``phi`` is an
    upper bound anyone can recheck in O(K).  ``W_e(x)``, the least cost of
    the first ``e + 1`` points with ``phi_e = x``, is convex and piecewise
    linear: ``W_e = (W_{e-1} [] kappa|.|)(. - delta_e) + g_e|.|``.  The
    inf-convolution clips its slopes to ``[-kappa, kappa]``, which removes
    slope weight ``g_{e-1}`` at either end (the end slopes are always
    ``-+(kappa + g_{e-1})``), and records the clip points ``a_e, b_e``; the
    shift is a lazy offset and ``g_e|.|`` adds a breakpoint of weight
    ``2 g_e`` at 0.  Breakpoints sit in a min-heap and a max-heap with a
    shared weight each.  Backtracking from ``phi_{K-1} = 0`` clamps:
    ``phi_{e-1} = clip(phi_e - delta_e, a_e, b_e)``.  O(K log K).  An edge
    with ``g_e >= 2 kappa`` carries no flow and restarts the recursion.
    """
    delta = np.asarray(delta, dtype=float).tolist()
    gaps = np.asarray(gaps, dtype=float).tolist()
    K = len(delta)
    if len(gaps) != K - 1:
        raise ValueError(f"{K} points need {K - 1} gaps, got {len(gaps)}")
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
    return np.array(phi[:-1])


def w1_kappa_scalar(mu1: MatrixMeasure, mu2: MatrixMeasure, kappa: float) -> float:
    """Unbalanced scalar Wasserstein-like distance with TV weight ``kappa``.

    Maximizes ``sum_k f_k (m1_k - m2_k)`` over test functions with unit
    Lipschitz bound and ``|f| <= kappa``, solved exactly by
    :func:`w1_kappa_chain` on the adjacent-difference constraints.
    """
    if not (math.isfinite(kappa) and kappa > 0):
        raise ValueError(f"kappa must be finite and positive, got {kappa}")
    m1, m2 = _scalar_pair(mu1, mu2)
    delta = m1 - m2
    if not delta.any():
        return 0.0
    return w1_kappa_chain(delta, mu1.grid.spacings, kappa)[0]


def w1_kappa_scalar_all_pairs(mu1: MatrixMeasure, mu2: MatrixMeasure,
                              kappa: float) -> float:
    """All-pairs-constraint variant of ``w1_kappa_scalar`` (test oracle)."""
    if kappa <= 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    m1, m2 = _scalar_pair(mu1, mu2)
    value, _ = lp_simplex(_w1_kappa_lp(mu1.grid.points, m1 - m2, kappa, all_pairs=True))
    return value
