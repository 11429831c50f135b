"""Discrete scalar and matrix-valued measures on an interval.

A measure is a grid of frequencies plus one PSD Hermitian mass matrix per
grid point (scalars are the 1x1 case).  Masses are stored already weighted,
i.e. ``M_k`` is the measure of the singleton ``{theta_k}``; every metric in
this package consumes masses, which keeps them quadrature-agnostic.

The module also defines the measure file format used by the CLI: a JSON
document with fields ``dim``, ``grid`` (list of ``{"theta": .., "weight": ..}``)
and ``masses`` (list of n x n matrices, entries as ``[re, im]`` pairs,
row-major).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import linalg

PSD_TOL = 1e-10


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Grid:
    """Ordered frequencies with quadrature weights.

    The ground distance between grid points is ``|theta_i - theta_j|`` and is
    always derived from ``points``, never stored.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).copy()
        wts = np.asarray(self.weights, dtype=float).copy()
        if pts.ndim != 1 or wts.ndim != 1 or pts.size != wts.size:
            raise ValueError("grid points and weights must be 1-d of equal length")
        if pts.size < 1:
            raise ValueError("grid needs at least one point")
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(wts))):
            raise ValueError("grid points and weights must be finite")
        with np.errstate(over="ignore"):   # a spacing beyond 1.8e308 is inf
            gaps = np.diff(pts)
        if not np.all((gaps > 0) & (gaps < np.inf)):
            raise ValueError("grid points must be strictly increasing with finite spacings")
        if not np.all(wts > 0):
            raise ValueError("grid weights must be positive")
        object.__setattr__(self, "points", _readonly(pts))
        object.__setattr__(self, "weights", _readonly(wts))

    @property
    def size(self) -> int:
        return self.points.size

    @property
    def spacings(self) -> np.ndarray:
        """Adjacent gaps theta_{k+1} - theta_k (length K - 1)."""
        return np.diff(self.points)

    def same_as(self, other: "Grid") -> bool:
        return (np.array_equal(self.points, other.points)
                and np.array_equal(self.weights, other.weights))


def make_uniform_grid(K: int, a: float, b: float) -> Grid:
    """K equally spaced points on [a, b] with closed trapezoid weights."""
    if K < 2:
        raise ValueError(f"need at least 2 grid points, got {K}")
    if not b > a:
        raise ValueError(f"invalid interval [{a}, {b}]")
    step = (b - a) / (K - 1)
    weights = np.full(K, step)
    weights[0] = weights[-1] = step / 2
    return Grid(np.linspace(a, b, K), weights)


@dataclass(frozen=True)
class MatrixMeasure:
    """A grid plus one PSD Hermitian mass matrix per grid point."""

    grid: Grid
    masses: np.ndarray = field(repr=False)

    def __post_init__(self):
        masses = np.asarray(self.masses, dtype=complex)
        if masses.ndim != 3 or masses.shape[-1] != masses.shape[-2]:
            raise ValueError(f"masses must have shape (K, n, n), got {masses.shape}")
        if masses.shape[0] != self.grid.size:
            raise ValueError(
                f"got {masses.shape[0]} masses for a grid of {self.grid.size} points"
            )
        masses, lam = linalg.hermitian_spectrum(masses)
        min_eigs = lam[0]
        # the floor scales with the measure's largest operator norm, so that
        # masses in any unit are accepted or rejected alike
        floor = -PSD_TOL * float(np.maximum(-min_eigs, lam[-1]).max())
        bad = np.nonzero(min_eigs < floor)[0]
        if bad.size:
            k = int(bad[0])
            raise ValueError(
                f"mass at grid point theta={self.grid.points[k]:.6g} (index {k}) "
                f"is not PSD: min eigenvalue {min_eigs[k]:.3e}"
            )
        object.__setattr__(self, "masses", _readonly(masses))

    @property
    def dim(self) -> int:
        return self.masses.shape[-1]

    def scalar_values(self) -> np.ndarray:
        """Real mass values for a 1x1 (scalar) measure."""
        if self.dim != 1:
            raise ValueError(f"not a scalar measure (dim={self.dim})")
        return self.masses[:, 0, 0].real


def scalar_measure(grid: Grid, values) -> MatrixMeasure:
    """Build a scalar (1x1) measure from nonnegative per-point masses."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.size,):
        raise ValueError(f"expected {grid.size} values, got shape {values.shape}")
    return MatrixMeasure(grid, values.reshape(-1, 1, 1).astype(complex))


def density_to_measure(grid: Grid, density) -> MatrixMeasure:
    """Discretize ``d mu = f(theta) d theta``: mass_k = weight_k * f(theta_k).

    ``density`` maps a frequency to a PSD Hermitian matrix (or a nonnegative
    scalar, taken as a 1x1 matrix).  A non-PSD sample raises ``ValueError``
    naming the offending grid point (the weights are positive, so
    :class:`MatrixMeasure` rejects the weighted sample).
    """
    samples = []
    for theta in grid.points:
        s = np.asarray(density(float(theta)), dtype=complex)
        if s.ndim == 0:
            s = s.reshape(1, 1)
        samples.append(s)
    return MatrixMeasure(grid, grid.weights[:, None, None] * np.asarray(samples))


def total_mass(measure: MatrixMeasure) -> np.ndarray:
    """Sum of the mass matrices (the total matricial mass)."""
    return measure.masses.sum(axis=0)


def _check_compatible(mu1: MatrixMeasure, mu2: MatrixMeasure):
    if not mu1.grid.same_as(mu2.grid):
        raise ValueError("measures live on different grids")
    if mu1.dim != mu2.dim:
        raise ValueError(f"dimension mismatch: {mu1.dim} vs {mu2.dim}")


def tv_matrix(mu1: MatrixMeasure, mu2: MatrixMeasure) -> float:
    """Matricial total variation: sum over points of the nuclear norm of the
    mass difference; ``ValueError`` if it overflows."""
    _check_compatible(mu1, mu2)
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(linalg.hermitian_nuclear_norms(mu1.masses - mu2.masses).sum())
    if not np.isfinite(value):
        raise ValueError("matrix entries too large: the total variation overflows")
    return value


# ---------------------------------------------------------------------------
# measure file format
# ---------------------------------------------------------------------------

def _matrix_encode(M: np.ndarray) -> list:
    """Nested lists of ``[re, im]`` pairs for a stack of complex matrices."""
    return np.stack([M.real, M.imag], axis=-1).tolist()


def _json_numbers(leaves) -> bool:
    """Are all ``leaves`` what ``json.load`` gives for numbers (int or float)?

    ``float()`` and numpy would also take a str or a bool.
    """
    return {int, float}.issuperset(map(type, leaves))


def _matrix_decode(doc) -> np.ndarray:
    """Inverse of :func:`_matrix_encode` for square blocks ``(..., n, n, 2)``."""
    try:
        arr = np.asarray(doc, dtype=float)
    except (TypeError, OverflowError) as exc:   # a dict, or an int past 1e308
        raise ValueError(f"expected nested lists of numbers: {exc}") from exc
    if arr.ndim < 3 or arr.shape[-1] != 2 or arr.shape[-2] != arr.shape[-3]:
        raise ValueError("expected n x n matrices of [re, im] pairs")
    leaves = doc   # nested lists of depth arr.ndim, or asarray would have failed
    for _ in range(arr.ndim - 1):
        leaves = chain.from_iterable(leaves)
    if not _json_numbers(leaves):
        raise ValueError("matrix entries must be JSON numbers")
    # a view keeps signed zeros, which re + 1j * im would not
    return np.ascontiguousarray(arr).view(complex)[..., 0]


def save_measure(measure: MatrixMeasure, path) -> None:
    """Write a measure file (floats keep full double precision)."""
    doc = {
        "dim": measure.dim,
        "grid": [
            {"theta": float(t), "weight": float(w)}
            for t, w in zip(measure.grid.points, measure.grid.weights)
        ],
        "masses": _matrix_encode(measure.masses),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_measure(path) -> MatrixMeasure:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"not a valid measure file: {exc}") from exc
    try:
        n = doc["dim"]
        if type(n) is not int:   # a JSON integer; bool is a subclass of int
            raise ValueError(f"dim must be an integer, got {n!r}")
        points = [entry["theta"] for entry in doc["grid"]]
        weights = [entry["weight"] for entry in doc["grid"]]
        if not _json_numbers(points + weights):
            raise ValueError("every theta and weight must be a JSON number")
        grid = Grid(np.array(points), np.array(weights))
        masses = _matrix_decode(doc["masses"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed measure document: {exc}") from exc
    if masses.shape != (len(points), n, n):
        raise ValueError(f"expected masses of shape ({len(points)}, {n}, {n}), "
                         f"got {masses.shape}")
    return MatrixMeasure(grid, masses)
