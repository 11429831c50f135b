"""Hermitian blocks as real coordinates, and the batched spectral kernels.

The solvers hold every Hermitian n x n block as its n^2 real coordinates in
one basis, orthonormal under the trace pairing ``tr(A B)``: the identity over
sqrt(n) first, then the generalized Gell-Mann matrices (Bertlmann and
Krammer, J. Phys. A 2008), at n = 2 the Pauli matrices over sqrt(2).  A stack
is a real ``(..., n^2)`` array, the trace pairing a dot product and the
Frobenius norm the Euclidean one.  Files and public results keep complex
``(..., n, n)`` stacks; :func:`to_coords` and :func:`from_coords` convert at
the solvers' boundary.  Every spectral operation is an eigenvalue map
``V diag(f(lam)) V*`` or a reduction of the eigenvalues, on one dispatch: at
n = 1 the coordinate is the eigenvalue, n = 2 is closed form and n >= 3 calls
``eigh``.  The five kernels on matrix stacks (``clip_eigenvalues``, ...)
convert around it; the benchmark harness in ``perfbench`` times or wraps them.
"""

from __future__ import annotations

import functools
import math

import numpy as np

HERMITICITY_TOL = 1e-12
_R2 = math.sqrt(0.5)


@functools.cache
def _tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The basis as real tables for :func:`to_coords`, ``(2 n^2, n^2)``, and
    :func:`from_coords`, its transpose: row ``a`` of the latter is basis matrix
    ``a`` read as floats (real and imaginary parts of each entry in turn)."""
    B = np.zeros((n * n, n, n), dtype=complex)
    B[0] = np.eye(n) / math.sqrt(n)
    for a, (j, k) in enumerate((j, k) for j in range(n) for k in range(j + 1, n)):
        B[2 * a + 1, [j, k], [k, j]] = _R2                  # symmetric
        B[2 * a + 2, [j, k], [k, j]] = -1j * _R2, 1j * _R2  # antisymmetric
    for d in range(1, n):                                   # traceless diagonal
        diagonal = np.append(np.ones(d), -d) / math.sqrt(d * d + d)
        B[n * n - n + d, range(d + 1), range(d + 1)] = diagonal
    rows = B.reshape(n * n, n * n).view(float)
    return np.ascontiguousarray(rows.T), rows


def to_coords(M) -> np.ndarray:
    """Coordinates ``(..., n^2)`` of stacked blocks (those of their Hermitian part)."""
    M = np.ascontiguousarray(M, dtype=complex)
    n = M.shape[-1]
    if n == 1:   # the entry; numpy's matmul is slow for an inner dimension of 1
        return M.real.reshape(M.shape[:-1]).copy()
    return M.reshape(M.shape[:-2] + (n * n,)).view(float) @ _tables(n)[0]


def from_coords(c) -> np.ndarray:
    """Exactly Hermitian blocks ``(..., n, n)`` from their coordinates."""
    c = np.asarray(c, dtype=float)
    n = math.isqrt(c.shape[-1])
    if n == 1:
        return c.astype(complex).reshape(c.shape + (1,))
    return (c @ _tables(n)[1]).view(complex).reshape(c.shape[:-1] + (n, n))


def eigenvalues(c: np.ndarray) -> np.ndarray:
    """Eigenvalues ``(n, ...)`` of coordinate stacks, ascending along the
    leading axis (so reductions over it are elementwise)."""
    if c.shape[-1] == 1:
        return c[None, ..., 0]
    if c.shape[-1] == 4:   # m -+ s with m = c_0 / sqrt 2 and s = |c_1:| / sqrt 2
        v = c[..., 1:]
        m, s = _R2 * c[..., 0], np.sqrt(0.5 * np.einsum("...i,...i->...", v, v))
        lam = np.empty((2,) + m.shape)
        np.subtract(m, s, out=lam[0, ...])   # a view also for a single block
        np.add(m, s, out=lam[1, ...])
        return lam
    return np.moveaxis(np.linalg.eigvalsh(from_coords(c)), -1, 0)


def map_eigenvalues(c: np.ndarray, f) -> np.ndarray:
    """Coordinates of ``V diag(f(lam)) V*`` blockwise; ``f`` maps ``(n, ...)``
    eigenvalue arrays.  At n = 2 the eigenvectors stay: ``c_0' = (f_hi + f_lo)
    / sqrt 2`` and ``c_1:'`` is ``c_1:`` times the divided difference
    ``(f_hi - f_lo) / (lam_hi - lam_lo)``, 0 where the eigenvalues meet."""
    if c.shape[-1] == 1:
        return f(c[None, ..., 0])[0, ..., None]
    if c.shape[-1] == 4:
        lam = eigenvalues(c)
        f_lo, f_hi = f(lam)
        gap = lam[1] - lam[0]
        out = c * np.divide(f_hi - f_lo, gap, out=np.zeros(gap.shape), where=gap > 0)[..., None]
        out[..., 0] = _R2 * (f_hi + f_lo)
        return out
    lam, V = np.linalg.eigh(from_coords(c))
    d = lam.ndim - 1   # the eigenvalue axis goes to the front for f and back after
    mapped = f(lam.transpose((d,) + tuple(range(d)))).transpose(tuple(range(1, d + 1)) + (0,))
    return to_coords((V * mapped[..., None, :]) @ np.conj(np.swapaxes(V, -1, -2)))


def clip(c: np.ndarray, lo, hi) -> np.ndarray:
    """Eigenvalues clipped to ``[lo, hi]`` (each broadcasts as the batch): the
    projection onto operator-norm balls at ``lo = -hi``, onto the PSD cone at
    ``[0, inf]``."""
    return map_eigenvalues(c, lambda lam: np.minimum(np.maximum(lam, lo), hi))


def soft_threshold(c: np.ndarray, tau) -> np.ndarray:
    """Eigenvalue soft-threshold, the nuclear norm's prox (``tau`` as the batch)."""
    return map_eigenvalues(c, lambda lam: np.sign(lam) * np.maximum(np.abs(lam) - tau, 0.0))


def op_norms(c: np.ndarray) -> np.ndarray:
    """Operator norms (max |eigenvalue|) of coordinate stacks."""
    lam = eigenvalues(c)
    return np.maximum(-lam[0], lam[-1])


def nuclear_norms(c: np.ndarray) -> np.ndarray:
    """Nuclear norms (sum of |eigenvalue|) of coordinate stacks."""
    return np.abs(eigenvalues(c)).sum(axis=0)


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


def hermitian_spectrum(M) -> tuple[np.ndarray, np.ndarray]:
    """:func:`as_hermitian` and the eigenvalues ``(n, ...)``, ascending, of its
    overflow check (one eigenvalue pass for validation and PSD tests)."""
    M = np.asarray(M, dtype=complex)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2] or M.shape[-1] == 0:
        raise ValueError(f"expected nonempty square matrix blocks, got shape {M.shape}")
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
        c = to_coords(H)
        lam = eigenvalues(c) if np.isfinite(c).all() else c
    if not np.isfinite(lam).all():
        raise ValueError("matrix entries too large: the Hermitian part, its "
                         "coordinates or its eigenvalues overflow")
    return H, lam


def as_hermitian(M) -> np.ndarray:
    """Validate and symmetrize a (stack of) Hermitian matrix.

    Violations below ``HERMITICITY_TOL`` (relative to the largest absolute
    entry) are repaired by symmetrization, which keeps solver iterates exactly
    Hermitian despite floating-point drift; anything larger, any non-finite
    entry, and entries so large that the symmetrized blocks, their
    coordinates or their eigenvalues overflow raise ``ValueError``.
    """
    return hermitian_spectrum(M)[0]


# Kept for perfbench: kernels.py times the next three, tracing.py wraps all five.
def clip_eigenvalues(M: np.ndarray, radius) -> np.ndarray:
    """Project stacked Hermitian blocks onto operator-norm balls
    (``radius`` broadcasts against the batch shape ``M.shape[:-2]``)."""
    r = np.broadcast_to(radius, np.shape(M)[:-2])
    return from_coords(clip(to_coords(M), -r, r))


def soft_threshold_eigenvalues(M: np.ndarray, tau) -> np.ndarray:
    """Eigenvalue soft-threshold of stacked Hermitian blocks (batched prox;
    ``tau`` broadcasts against the batch shape ``M.shape[:-2]``)."""
    return from_coords(soft_threshold(to_coords(M), np.broadcast_to(tau, np.shape(M)[:-2])))


def positive_part(M: np.ndarray) -> np.ndarray:
    """Blockwise projection onto the PSD cone (negative eigenvalues to 0)."""
    return from_coords(clip(to_coords(M), 0.0, np.inf))


def hermitian_op_norms(M: np.ndarray) -> np.ndarray:
    """Batched operator norms (max |eigenvalue|) of Hermitian blocks."""
    return op_norms(to_coords(M))


def hermitian_nuclear_norms(M: np.ndarray) -> np.ndarray:
    """Batched nuclear norms (sum of |eigenvalue|) of Hermitian blocks."""
    return nuclear_norms(to_coords(M))
