"""Seeded inputs and request streams of the three benchmark workloads.

Every workload is a fixed set of request *classes* (metric, K, n, gap target,
iteration budget).  The seed draws the inputs of each class: the class fixes
the kind of spectrum and its nominal parameters, the seed perturbs them, so two
seeds give different files of comparable difficulty.  That keeps the
run-to-run spread of the timings small enough to compare two commits, while the
program still sees inputs it has never seen before.  A class makes ``draws``
distinct instances (one when its input does not depend on the seed); one pass
of the stream sends every instance once.

Only the generated files reach the program; the in-memory measures are kept
for the output checks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from specdist import measures
from specdist.measures import Grid, MatrixMeasure, make_uniform_grid
from specdist.spectra import benchmark_measure

DEFAULT_SEED = 1
HOLDOUT_SEED = 9001
STATE_MIX = 0.05
OP_MIX = 0.02

# Iteration budgets (--max-iter) per workload.  The CLI default is 200,000;
# at ~90 us per iteration that is 18 s for one request, longer than a run can
# afford to repeat, so each workload fixes a smaller budget.  Requests that
# do not certify within it fail with exit code 3 and count as failed.
DUAL_BUDGET = 10_000
AUDIT_BUDGET = 4_000
SMALL_BUDGET = 200_000


@dataclass(frozen=True)
class RequestClass:
    """One kind of request in a workload."""

    label: str
    metric: str
    K: int
    n: int
    tol: float
    budget: int
    kappa: float = 1.0
    source: str = "ar"          # "paper", "ar", "scalar", "states"
    pair: tuple = ()            # paper densities (i, j)
    shift: bool = False         # second spectrum = first with its peaks translated
    diracs: int = 0
    gap_audit: bool = False
    draws: int = 3              # distinct seeded instances per pass


@dataclass
class Instance:
    """One drawn input: the measures (and Dirac operators) a request reads."""

    cls: RequestClass
    draw: int
    mu1: MatrixMeasure
    mu2: MatrixMeasure
    diracs: np.ndarray | None = None
    files: tuple = field(default=())

    @property
    def name(self) -> str:
        return f"{self.cls.label}#{self.draw}"

    def argv(self) -> list[str]:
        c = self.cls
        args = ["dist", self.files[0], self.files[1], "--metric", c.metric,
                "--kappa", repr(c.kappa), "--tol", repr(c.tol),
                "--max-iter", str(c.budget), "--format", "structured"]
        if c.gap_audit:
            args.append("--gap-audit")
        if c.diracs:
            args += ["--dirac", self.files[2]]
        return args


# ---------------------------------------------------------------------------
# workload definitions
# ---------------------------------------------------------------------------

def _dual_classes() -> list[RequestClass]:
    B = DUAL_BUDGET
    out = [RequestClass(f"paper-f{i}f{j}-1e-03", "matrix-w1k", 36, 2, 1e-3, B,
                        source="paper", pair=(i, j), draws=1)
           for i, j in ((0, 1), (1, 2), (0, 2))]
    # at 1e-6, (f0, f2) needs more than 200,000 iterations (known defect); it
    # fails at the budget, as do the other two pairs (45,000 and >60,000),
    # which are left out to keep a pass short
    out.append(RequestClass("paper-f0f2-1e-06", "matrix-w1k", 36, 2, 1e-6, B,
                            source="paper", pair=(0, 2), draws=1))
    # iterations to the gap swing up to 3x between draws of an independent
    # pair and by about 10% between draws of a shifted one, so independent
    # classes take more draws, which steadies the quantiles over instances
    for K in (36, 64):
        out.append(RequestClass(f"ar-K{K}-n1-shift", "matrix-w1k", K, 1, 1e-3, B, shift=True))
        out.append(RequestClass(f"ar-K{K}-n1-indep", "matrix-w1k", K, 1, 1e-3, B, draws=6))
        out.append(RequestClass(f"ar-K{K}-n2-indep", "matrix-w1k", K, 2, 1e-3, B, draws=6))
    out += [
        # shifted 2x2 pairs are left out: they need 10k-17k iterations at
        # K=36, straddling the budget, and fail at it at K=64 (18k-30k)
        RequestClass("ar-K128-n1-indep", "matrix-w1k", 128, 1, 1e-3, B, draws=6),
        RequestClass("ar-K8-n4-shift", "matrix-w1k", 8, 4, 1e-3, B, shift=True),
        RequestClass("ar-K16-n4-indep", "matrix-w1k", 16, 4, 1e-3, B),
    ]
    return out


def _audit_classes() -> list[RequestClass]:
    # paper pairs capped at K=6 by time: at K=8 one audit takes 1.5-4 s
    B = AUDIT_BUDGET
    # (f0, f1) needs 4,900 primal iterations: its stall at the budget makes
    # an AttributeError escape cli.main (known defect)
    out = [RequestClass(f"paper-f{i}f{j}-K6", "matrix-w1k", 6, 2, 1e-3, B, source="paper",
                        pair=(i, j), gap_audit=True, draws=1) for i, j in ((0, 1), (0, 2))]
    # seeded pairs are independent spectra.  The n=1 primal is erratic: at
    # K in {8, 10, 14, 16} it needs from 400 iterations to more than the
    # budget depending on the seed; K=12 needs 550-650 on every seed tried
    out += [RequestClass(f"ar-K{K}-n{n}-indep", "matrix-w1k", K, n, 1e-3, B, gap_audit=True,
                         draws=10)
            for K, n in ((12, 1), (6, 2), (8, 2), (10, 2))]
    return out


def _small_classes() -> list[RequestClass]:
    B = SMALL_BUDGET
    out = [RequestClass(f"w1k-K{K}", "w1k", K, 1, 1e-6, B, kappa=0.5, source="scalar", draws=2)
           for K in (50, 100, 150)]
    out += [RequestClass(f"{metric}-K{K}" + (f"-n{n}" if n > 2 else ""), metric, K, n, 1e-6, B,
                         source="scalar" if n == 1 else "ar", draws=2)
            for metric, K, n in (("tv", 1024, 1), ("kolmogorov", 1024, 1), ("w1", 1024, 1),
                                 ("w1", 256, 1), ("matrix-tv", 1024, 2), ("matrix-tv", 256, 4),
                                 ("is", 1024, 2), ("is", 256, 2))]
    # the Connes inputs do not depend on the seed (see _state_pair)
    for n, m in ((2, 1), (3, 2), (4, 3)):
        out.append(RequestClass(f"connes-n{n}-d{m}-k1", "connes", 1, n, 1e-6, B,
                                source="states", diracs=m, draws=1))
        out.append(RequestClass(f"connes-n{n}-d{m}-kinf", "connes", 1, n, 1e-6, B,
                                kappa=0.0, source="states", diracs=m, draws=1))
    return out


WORKLOADS = {
    "dual-w1k": _dual_classes,
    "gap-audit": _audit_classes,
    "small-mix": _small_classes,
}


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _ar_density(theta: np.ndarray, poles, coupling: float) -> np.ndarray:
    """n x n AR-type density L diag(g) L^*, one resonant pole pair per channel."""
    n = len(poles)
    z = np.exp(1j * theta)
    K = theta.size
    diag = np.zeros((K, n, n), dtype=complex)
    for i, (r, phi) in enumerate(poles):
        a = 1.0 - 2.0 * r * math.cos(phi) * z + (r * r) * z * z
        diag[:, i, i] = 1.0 / np.abs(a) ** 2 + 0.01
    L = np.broadcast_to(np.eye(n, dtype=complex), (K, n, n)).copy()
    for i in range(1, n):
        L[:, i, i - 1] = coupling * z
    return L @ diag @ np.conj(np.swapaxes(L, -1, -2))


def _measure(grid: Grid, poles, coupling: float, power: float = 1.0) -> MatrixMeasure:
    masses = grid.weights[:, None, None] * _ar_density(grid.points, poles, coupling)
    masses *= power / float(np.einsum("kii->", masses).real)
    return MatrixMeasure(grid, masses)


def _nominal_poles(n: int, rng: np.random.Generator):
    # nominal peaks spread over (0, pi); the seed moves each by a little
    base = np.linspace(0.7, 2.4, n) if n > 1 else np.array([1.2])
    return [(0.85 + rng.uniform(-0.005, 0.005), float(p) + rng.uniform(-0.03, 0.03)) for p in base]


def _ar_pair(c: RequestClass, rng: np.random.Generator):
    grid = make_uniform_grid(c.K, 0.0, math.pi)
    poles = _nominal_poles(c.n, rng)
    coupling = 0.3 + rng.uniform(-0.02, 0.02)
    mu1 = _measure(grid, poles, coupling)
    if c.shift:
        h = 0.25 * (1.0 + rng.uniform(-0.03, 0.03))
        mu2 = _measure(grid, [(r, p + h) for r, p in poles], coupling)
    else:
        poles2 = [(r, math.pi - p) for r, p in _nominal_poles(c.n, rng)]
        mu2 = _measure(grid, poles2, 0.3 + rng.uniform(-0.02, 0.02))
    return mu1, mu2


def _scalar_pair(c: RequestClass, rng: np.random.Generator):
    grid = make_uniform_grid(c.K, 0.0, math.pi)
    poles = _nominal_poles(1, rng)
    mu1 = _measure(grid, poles, 0.0)
    h = 0.3 * (1.0 + rng.uniform(-0.03, 0.03))
    # unbalanced masses for w1k; equal masses for the balanced W1
    power = 1.0 if c.metric == "w1" else 1.2 + rng.uniform(-0.05, 0.05)
    mu2 = _measure(grid, [(r, p + h) for r, p in poles], 0.0, power)
    return mu1, mu2


def _random_state(n: int, rng: np.random.Generator) -> np.ndarray:
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = A @ A.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng: np.random.Generator, n: int, batch: tuple = ()) -> np.ndarray:
    """Hermitian n x n matrices, a stack of shape ``batch`` of them."""
    A = rng.normal(size=batch + (n, n)) + 1j * rng.normal(size=batch + (n, n))
    return 0.5 * (A + np.conj(np.swapaxes(A, -1, -2)))


def _state_pair(c: RequestClass):
    # nominal states and operators are fixed per class, with a little of a
    # random state and operator mixed in, also fixed per class.  Mixed in
    # from the seed, even that little swings the solves' cost too far: with
    # one operator, the kappa=inf probe (whose distance diverges) between
    # 0.5 s and 4.5 s and kappa=1 between 0.04 s and 1 s; with three, by 20%.
    nominal = np.random.default_rng([c.n, c.diracs])
    rng = np.random.default_rng([c.n, c.diracs, 1])
    grid = Grid(np.zeros(1), np.ones(1))
    states = [(1 - STATE_MIX) * _random_state(c.n, nominal) + STATE_MIX * _random_state(c.n, rng)
              for _ in range(2)]
    ops = [random_hermitian(nominal, c.n) + OP_MIX * random_hermitian(rng, c.n)
           for _ in range(c.diracs)]
    return (MatrixMeasure(grid, states[0][None]), MatrixMeasure(grid, states[1][None]),
            np.array(ops))


def draw_instance(c: RequestClass, index: int, draw: int, seed: int) -> Instance:
    rng = np.random.default_rng([seed, index, draw])
    if c.source == "paper":
        grid = make_uniform_grid(c.K, 0.0, math.pi)
        return Instance(c, draw, benchmark_measure(c.pair[0], grid),
                        benchmark_measure(c.pair[1], grid))
    if c.source == "scalar":
        return Instance(c, draw, *_scalar_pair(c, rng))
    if c.source == "states":
        return Instance(c, draw, *_state_pair(c))
    return Instance(c, draw, *_ar_pair(c, rng))


def make_stream(workload: str, seed: int) -> list[Instance]:
    """One pass: every draw of every class once, in one fixed order for every seed."""
    classes = WORKLOADS[workload]()
    order = np.random.default_rng(0).permutation(len(classes))
    return [draw_instance(classes[i], int(i), d, seed)
            for d in range(max(c.draws for c in classes)) for i in order
            if d < classes[i].draws]


def _encode_matrix(M: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in M]


def write_inputs(stream: list[Instance], directory) -> None:
    """Write every distinct instance of the stream through ``save_measure``."""
    Path(directory).mkdir(parents=True, exist_ok=True)
    written = set()
    for inst in stream:
        if id(inst) in written:
            continue
        stem = f"{directory}/{inst.name.replace('#', '_')}"
        files = [f"{stem}_a.json", f"{stem}_b.json"]
        # looked up on the module so that a traced run can wrap it
        measures.save_measure(inst.mu1, files[0])
        measures.save_measure(inst.mu2, files[1])
        if inst.diracs is not None:
            files.append(f"{stem}_dirac.json")
            with open(files[2], "w", encoding="utf-8") as fh:
                json.dump({"operators": [_encode_matrix(D) for D in inst.diracs]}, fh)
        inst.files = tuple(files)
        written.add(id(inst))
