"""Batched spectral kernels on stacks of Hermitian blocks ``(..., n, n)``.

Everything downstream (measures, metrics, solvers) is built on the small set
of spectral operations in this module: operator/nuclear norms, smallest
eigenvalues, projection onto operator-norm balls, the eigenvalue
soft-threshold (the proximal operator of the nuclear norm on Hermitian
matrices), the PSD projection and the spectral sign.

Each one is an eigenvalue map ``V diag(f(lam)) V*`` or a reduction of the
eigenvalues, so all of them share one per-size dispatch: ``n = 1`` reads the
real entry, ``n = 2`` uses the closed-form eigendecomposition (the hot path
of the solvers) and ``n >= 3`` calls ``eigh``.
"""

from __future__ import annotations

import numpy as np

HERMITICITY_TOL = 1e-12


def hermitian_part(M: np.ndarray) -> np.ndarray:
    """Return (M + M*)/2 for stacked square blocks."""
    return 0.5 * (M + np.conj(np.swapaxes(M, -1, -2)))


def hermiticity_violation(M: np.ndarray) -> float:
    """Max |M - M*| relative to the largest absolute entry (0 for M = 0)."""
    M = np.asarray(M)
    scale = float(np.abs(M).max(initial=0.0))
    if scale == 0.0:
        return 0.0
    viol = float(np.abs(M - np.conj(np.swapaxes(M, -1, -2))).max())
    return viol / scale


def as_hermitian(M) -> np.ndarray:
    """Validate and symmetrize a (stack of) Hermitian matrix.

    Violations below ``HERMITICITY_TOL`` (relative to the largest absolute
    entry) are repaired by symmetrization, which keeps solver iterates exactly
    Hermitian despite floating-point drift; anything larger, any non-finite
    entry, and entries so large that the symmetrized blocks or their
    eigenvalues overflow raise ``ValueError``.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError(f"expected square matrix blocks, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError("matrix entries must be finite")
    viol = hermiticity_violation(M)
    if viol > HERMITICITY_TOL:
        raise ValueError(
            f"matrix is not Hermitian: relative violation {viol:.3e} exceeds "
            f"{HERMITICITY_TOL:.1e}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        H = hermitian_part(M)
        # H[None]: _eigenvalues takes a stack, and a state is one matrix
        finite = np.isfinite(H).all() and np.isfinite(_eigenvalues(H[None])).all()
    if not finite:
        raise ValueError("matrix entries too large: the Hermitian part or its "
                         "eigenvalues overflow")
    return H


def _eig2(M: np.ndarray):
    """Closed form of stacked 2x2 Hermitian blocks: ``m, s`` and the
    eigenvalues ``(m - s, m + s)`` stacked on a leading axis."""
    a = M[..., 0, 0].real
    d = M[..., 1, 1].real
    b = M[..., 0, 1]
    m = 0.5 * (a + d)
    s = np.sqrt(0.25 * (a - d) ** 2 + b.real**2 + b.imag**2)
    lam = np.empty((2,) + m.shape)
    np.subtract(m, s, out=lam[0])
    np.add(m, s, out=lam[1])
    return m, s, lam


def _eigenvalues(M: np.ndarray) -> np.ndarray:
    """Eigenvalues ``(n, ...)`` of stacked Hermitian blocks, ascending along
    the leading axis (so reductions over it are elementwise)."""
    n = M.shape[-1]
    if n == 1:
        return M[None, ..., 0, 0].real
    if n == 2:
        return _eig2(M)[2]
    return np.moveaxis(np.linalg.eigvalsh(M), -1, 0)


def _map_eigenvalues(M: np.ndarray, f) -> np.ndarray:
    """``V diag(f(lam)) V*`` blockwise; ``f`` maps ``(n, ...)`` eigenvalue arrays.

    For 2x2 blocks with spectral gap 2s around m the mapped matrix is
    c0 I + c1 (M - m I) with c0 = (f_hi + f_lo)/2, c1 = (f_hi - f_lo)/(2s);
    the s = 0 (scalar multiple of I) case degenerates to c0 I.
    """
    n = M.shape[-1]
    if n == 1:
        return f(M[None, ..., 0, 0].real)[0, ..., None, None].astype(complex)
    if n == 2:
        m, s, lam = _eig2(M)
        f_lo, f_hi = f(lam)
        c0 = 0.5 * (f_hi + f_lo)
        c1 = np.where(s > 0, (f_hi - f_lo) / (2.0 * np.where(s > 0, s, 1.0)), 0.0)
        out = c1[..., None, None] * M
        shift = c0 - c1 * m
        out[..., 0, 0] += shift
        out[..., 1, 1] += shift
        return out
    lam, V = np.linalg.eigh(M)
    mapped = np.moveaxis(f(np.moveaxis(lam, -1, 0)), 0, -1)
    return np.einsum("...ij,...j,...kj->...ik", V, mapped, V.conj())


def clip_eigenvalues(M: np.ndarray, radius) -> np.ndarray:
    """Project stacked Hermitian blocks onto operator-norm balls.

    ``radius`` broadcasts against the batch shape ``M.shape[:-2]``.
    """
    M = np.asarray(M)
    r = np.broadcast_to(np.asarray(radius, dtype=float), M.shape[:-2])
    return _map_eigenvalues(M, lambda lam: np.clip(lam, -r, r))


def soft_threshold_eigenvalues(M: np.ndarray, tau) -> np.ndarray:
    """Eigenvalue soft-threshold of stacked Hermitian blocks (batched prox).

    ``tau`` broadcasts against the batch shape ``M.shape[:-2]``.
    """
    M = np.asarray(M)
    t = np.broadcast_to(np.asarray(tau, dtype=float), M.shape[:-2])
    return _map_eigenvalues(M, lambda lam: np.sign(lam) * np.maximum(np.abs(lam) - t, 0.0))


def spectral_sign(M: np.ndarray) -> np.ndarray:
    """Blockwise spectral sign: eigenvalues mapped to {-1, 0, +1}."""
    return _map_eigenvalues(np.asarray(M), np.sign)


def positive_part(M: np.ndarray) -> np.ndarray:
    """Blockwise projection onto the PSD cone (negative eigenvalues to 0)."""
    return _map_eigenvalues(np.asarray(M), lambda lam: np.maximum(lam, 0.0))


def hermitian_op_norms(M: np.ndarray) -> np.ndarray:
    """Batched operator norms (max |eigenvalue|) of Hermitian blocks."""
    lam = _eigenvalues(np.asarray(M))
    return np.maximum(-lam[0], lam[-1])


def hermitian_nuclear_norms(M: np.ndarray) -> np.ndarray:
    """Batched nuclear norms (sum of |eigenvalue|) of Hermitian blocks."""
    return np.abs(_eigenvalues(np.asarray(M))).sum(axis=0)


def min_eigenvalues(M: np.ndarray) -> np.ndarray:
    """Batched smallest eigenvalues of Hermitian blocks."""
    return _eigenvalues(np.asarray(M))[0].copy()


def trace_pairing(F: np.ndarray, G: np.ndarray) -> float:
    """Sum over blocks of tr(F_k G_k); real for Hermitian stacks."""
    return float(np.einsum("...ij,...ji->...", F, G).sum().real)
