"""The shared host's speed, measured next to each request.

The host this benchmark was built on runs the same request anywhere from
1.0x to 1.8x its fastest time, in spells that last from seconds to minutes,
so whole runs are fast or slow together.  A fixed computation that does not
use specdist -- numpy eigendecompositions and products on a stack of 2x2
Hermitian matrices, the kind of small batched work the solvers do -- is
timed right after every request.  Its time tracks the request's: in 10 s
windows over 150 s the solve of one paper pair ranged over 1.8x while its
ratio to the calibration stayed within +-9%.  Each request's time is scaled
by ``REFERENCE_S`` over the calibration time around it, which gives the
request's time at the speed where the calibration takes ``REFERENCE_S``.
A change to specdist cannot move the calibration, so it cannot hide a
regression.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# the reference speed: on the host the benchmark was built on (2 CPUs of a
# shared VM, numpy 2.4 with OpenBLAS on one thread) the calibration took
# 1.6 ms at its fastest and about 3 ms in its slow spells
REFERENCE_S = 0.002
ROUNDS = 20
NEIGHBOURS = 2          # calibrations on each side that set a request's speed

_rng = np.random.default_rng(0)
_A = _rng.normal(size=(48, 2, 2)) + 1j * _rng.normal(size=(48, 2, 2))
STACK = _A + np.conj(np.swapaxes(_A, -1, -2))


def calibrate() -> float:
    """Seconds the fixed computation takes now."""
    X = STACK
    t = perf_counter()
    for _ in range(ROUNDS):
        w, V = np.linalg.eigh(X)
        X = (V * np.clip(w, -1.0, 1.0)[..., None, :]) @ np.conj(np.swapaxes(V, -1, -2))
        X = X + 0.01 * STACK
    return perf_counter() - t


def scaled(seconds: list[float], calibrations: list[float]) -> list[float]:
    """Each time at the reference speed.

    ``calibrations[j]`` was taken right after the j-th timing; the median of
    the calibrations within ``NEIGHBOURS`` of it on each side is its speed.
    """
    out = []
    for j, s in enumerate(seconds):
        near = calibrations[max(0, j - NEIGHBOURS):j + NEIGHBOURS + 1]
        out.append(s * REFERENCE_S / statistics.median(near))
    return out
