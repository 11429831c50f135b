"""Standalone timings of the batched spectral kernels on fixed stack shapes.

The shapes are the ones the solvers feed them: 36x2 is one paper-grid dual
iterate, 1296x2 the 36x36 transport plan, 1024x1 a long scalar grid and
256x4 the eigh+einsum path taken for n >= 3.  Bytes are computed from the
input and output array sizes, not measured, so cache effects are not in them.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from specdist import linalg

from instances import random_hermitian
from tracing import LINALG_KERNELS

STACKS = ((36, 2), (1296, 2), (1024, 1), (256, 4))
KERNELS = LINALG_KERNELS[:4]
BATCH_SECONDS = 0.02
BATCHES = 5


def _call(name: str, M: np.ndarray, radii: np.ndarray):
    fn = getattr(linalg, name)
    if name in ("clip_eigenvalues", "soft_threshold_eigenvalues"):
        return lambda: fn(M, radii)
    return lambda: fn(M)


def kernel_metrics(seed: int) -> dict[str, tuple[float, str]]:
    rng = np.random.default_rng([seed, 7])
    out = {}
    for name in KERNELS:
        for B, n in STACKS:
            M = random_hermitian(rng, n, (B,))
            radii = rng.uniform(0.5, 1.5, size=B)
            call = _call(name, M, radii)
            result = call()
            reps = 1
            while True:   # size a batch to about BATCH_SECONDS
                t = perf_counter()
                for _ in range(reps):
                    call()
                if perf_counter() - t >= BATCH_SECONDS:
                    break
                reps *= 2
            per_call = []
            for _ in range(BATCHES):
                t = perf_counter()
                for _ in range(reps):
                    call()
                per_call.append((perf_counter() - t) / reps)
            moved = M.nbytes + np.asarray(result).nbytes
            if name in ("clip_eigenvalues", "soft_threshold_eigenvalues"):
                moved += radii.nbytes
            key = f"kernel.{name}.{B}x{n}"
            out[f"{key}.us_per_call"] = (1e6 * float(np.median(per_call)), "us")
            out[f"{key}.mb_computed"] = (moved / 1e6, "MB")
    return out
