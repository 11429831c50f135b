"""Acceptance suite: one test (or test group) per criterion, stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Criterion 3 carries one strict expected failure, documented
at the test.
"""

import math

import numpy as np
import pytest

from specdist import (
    DiracSet,
    SolverOptions,
    State,
    connes_distance,
    duality_gap,
    dw1_kappa,
    scalar_measure,
    table1_report,
    tv_matrix,
    w1_balanced,
    w1_kappa_scalar,
)
from specdist.measures import Grid, MatrixMeasure

from conftest import (
    random_grid,
    random_matrix_measure,
    random_psd,
    random_scalar_measure,
    transport_lp_value,
    w1_kappa_scalar_all_pairs,
)


def _line(criterion: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def table():
    return table1_report(kappa=1.0, gap_audit=True)


# -- criterion 1: total variation column ------------------------------------

def test_criterion_1_tv_column(table):
    cells = table.row("tv")
    values = [c.value for c in cells]
    refs = [c.reference for c in cells]
    within = all(abs(v - r) / r <= 0.10 for v, r in zip(values, refs))
    ordered = values[0] <= values[1] <= values[2]
    _line(
        "1 (tv column)",
        within and ordered,
        f"values {[round(v, 4) for v in values]} vs {refs}",
    )


# -- criterion 2: Itakura-Saito column ---------------------------------------

def test_criterion_2_is_column(table):
    cells = table.row("is")
    values = [c.value for c in cells]
    refs = [c.reference for c in cells]
    within = all(abs(v - r) / r <= 0.10 for v, r in zip(values, refs))
    ordered = values[0] < values[1] < values[2]
    _line(
        "2 (itakura-saito column)",
        within and ordered,
        f"values {[f'{v:.4g}' for v in values]} vs {refs}",
    )


# -- criterion 3: Wasserstein column -----------------------------------------

def test_criterion_3_w1_first_cell(table):
    cell = table.row("w1k")[0]
    certified = cell.relative_gap is not None and cell.relative_gap <= 1e-3
    within = abs(cell.value - 1.37) / 1.37 <= 0.10
    _line(
        "3a (w1 f0,f1)",
        certified and within,
        f"value {cell.value:.4f} vs 1.37, rel gap {cell.relative_gap:.2e}",
    )


def test_criterion_3_w1_second_cell_certification(table):
    """The (f1, f2) value is certified and stable; its deviation from the
    recorded 1.65 is a property of the recorded table, not a solver artifact.
    """
    cell = table.row("w1k")[1]
    certified = cell.relative_gap is not None and cell.relative_gap <= 1e-3
    pinned = abs(cell.value - 1.4695) <= 5e-3
    flagged = cell.flagged
    _line(
        "3b' (w1 f1,f2 certified + flagged)",
        certified and pinned and flagged,
        f"value {cell.value:.4f}, rel gap {cell.relative_gap:.2e}, flagged {flagged}",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the certified optimum of the defined metric is 1.4695, which is 10.9% "
        "below the recorded 1.65; certified-at-1e-3 values cannot exceed the "
        "optimum, so the +-10% band [1.485, 1.815] is unreachable.  The "
        "recorded column is inconsistent with the metric's definition: its "
        "(f0, f2) entry 2.29 exceeds the provable bound kappa * tv = 2.00, so "
        "whatever produced that column was not the metric as defined."
    ),
)
def test_criterion_3_w1_second_cell_paper_value(table):
    cell = table.row("w1k")[1]
    within = abs(cell.value - 1.65) / 1.65 <= 0.10
    _line("3b (w1 f1,f2 vs 1.65)", within, f"value {cell.value:.4f} vs 1.65")


def test_criterion_3_w1_third_cell(table):
    cell = table.row("w1k")[2]
    tv_cell = table.row("tv")[2]
    certified = cell.relative_gap is not None and cell.relative_gap <= 1e-3
    in_band = 1.85 <= cell.value <= 2.35
    below_tv_bound = cell.value <= 1.0 * tv_cell.value + 1e-3
    flagged = cell.flagged and "2.29" in cell.note
    _line(
        "3c (w1 f0,f2 special cell)",
        certified and in_band and below_tv_bound and flagged,
        f"value {cell.value:.4f} in [1.85, 2.35], <= kappa*tv {tv_cell.value:.4f}, "
        f"rel gap {cell.relative_gap:.2e}, flagged with note",
    )


# -- criterion 4: duality on random instances --------------------------------

def test_criterion_4_duality_on_random_instances():
    rng = np.random.default_rng(1234)
    opts = SolverOptions(tolerance=1e-3, max_iterations=400_000)
    worst_rel = 0.0
    worst_weak = 0.0
    for trial in range(50):
        n = int(rng.integers(1, 4))
        K = int(rng.integers(2, 9))
        kappa = float(rng.choice([0.3, 1.0, 3.0]))
        grid = random_grid(rng, K)
        mu1 = random_matrix_measure(rng, grid, n)
        mu2 = random_matrix_measure(rng, grid, n)
        report = duality_gap(mu1, mu2, kappa, opts)
        worst_rel = max(worst_rel, report.relative_gap)
        worst_weak = min(worst_weak, report.gap)
        assert report.gap >= -1e-8, f"weak duality violated on trial {trial}"
        assert report.relative_gap <= 1e-3, f"gap too large on trial {trial}"
    _line(
        "4 (duality, 50 random instances)",
        True,
        f"worst rel gap {worst_rel:.2e}, most negative gap {worst_weak:.2e}",
    )


# -- criterion 5: scalar consistency -----------------------------------------

def test_criterion_5_scalar_consistency():
    rng = np.random.default_rng(5678)
    opts = SolverOptions(tolerance=1e-7)
    worst = 0.0
    for _ in range(50):
        K = int(rng.integers(2, 11))
        grid = random_grid(rng, K)
        mu1 = random_scalar_measure(rng, grid)
        mu2 = random_scalar_measure(rng, grid)
        kappa = float(rng.choice([0.3, 1.0, 3.0]))
        lp = w1_kappa_scalar(mu1, mu2, kappa)
        solver = dw1_kappa(mu1, mu2, kappa, opts)
        worst = max(worst, abs(solver - lp))
        assert abs(solver - lp) <= 1e-5
    worst_pair = 0.0
    for _ in range(20):
        K = int(rng.integers(2, 7))
        grid = random_grid(rng, K)
        mu1 = random_scalar_measure(rng, grid)
        mu2 = random_scalar_measure(rng, grid)
        kappa = float(rng.choice([0.3, 1.0, 3.0]))
        diff = abs(
            w1_kappa_scalar(mu1, mu2, kappa)
            - w1_kappa_scalar_all_pairs(mu1, mu2, kappa)
        )
        worst_pair = max(worst_pair, diff)
        assert diff <= 1e-9
    _line(
        "5 (scalar consistency)",
        True,
        f"worst solver-vs-LP {worst:.2e}, worst adjacent-vs-all-pairs {worst_pair:.2e}",
    )


# -- criterion 6: metric axioms ----------------------------------------------

def test_criterion_6_metric_axioms_dw1_and_tv():
    rng = np.random.default_rng(91011)
    tol = 1e-5
    opts = SolverOptions(tolerance=tol)
    worst_sym = 0.0
    worst_tri = -np.inf
    for _ in range(30):
        K = int(rng.integers(3, 7))
        grid = random_grid(rng, K)
        a = random_matrix_measure(rng, grid, 2)
        b = random_matrix_measure(rng, grid, 2)
        c = random_matrix_measure(rng, grid, 2)
        assert dw1_kappa(a, a, 1.0, opts) == 0.0
        assert tv_matrix(a, a) == 0.0
        dab = dw1_kappa(a, b, 1.0, opts)
        dba = dw1_kappa(b, a, 1.0, opts)
        dac = dw1_kappa(a, c, 1.0, opts)
        dcb = dw1_kappa(c, b, 1.0, opts)
        worst_sym = max(worst_sym, abs(dab - dba))
        assert abs(dab - dba) <= 3 * tol
        excess = dab - (dac + dcb)
        worst_tri = max(worst_tri, excess)
        assert excess <= 3 * tol * max(1.0, dab)
        assert tv_matrix(a, b) == tv_matrix(b, a)
        assert tv_matrix(a, b) <= tv_matrix(a, c) + tv_matrix(c, b) + 1e-10
    _line(
        "6a (metric axioms, dw1 + tv, 30 triples)",
        True,
        f"worst symmetry defect {worst_sym:.2e}, worst triangle excess {worst_tri:.2e}",
    )


def test_criterion_6_metric_axioms_connes():
    rng = np.random.default_rng(121314)
    tol = 1e-5
    opts = SolverOptions(tolerance=tol)
    dirac = DiracSet(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))

    def rand_state():
        A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        M = A @ A.conj().T
        return State(M / np.trace(M).real)

    worst_sym = 0.0
    worst_tri = -np.inf
    for _ in range(30):
        a, b, c = rand_state(), rand_state(), rand_state()
        assert connes_distance(a, a, dirac, 1.0, opts) == 0.0
        dab = connes_distance(a, b, dirac, 1.0, opts)
        dba = connes_distance(b, a, dirac, 1.0, opts)
        dac = connes_distance(a, c, dirac, 1.0, opts)
        dcb = connes_distance(c, b, dirac, 1.0, opts)
        worst_sym = max(worst_sym, abs(dab - dba))
        worst_tri = max(worst_tri, dab - (dac + dcb))
        assert abs(dab - dba) <= 2 * tol
        assert dab <= dac + dcb + 3 * tol
    _line(
        "6b (metric axioms, connes, 30 triples)",
        True,
        f"worst symmetry defect {worst_sym:.2e}, worst triangle excess {worst_tri:.2e}",
    )


# -- criterion 7: weak continuity --------------------------------------------

def test_criterion_7_weak_continuity():
    opts = SolverOptions(tolerance=1e-7)
    block = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    values, tvs = [], []
    hs = [math.pi / 4, math.pi / 8, math.pi / 16, math.pi / 32]
    for h in hs:
        grid = Grid(np.array([0.0, h]), np.array([1.0, 1.0]))
        masses1 = np.array([block, np.zeros((2, 2))])
        masses2 = np.array([np.zeros((2, 2)), block])
        mu1 = MatrixMeasure(grid, masses1)
        mu2 = MatrixMeasure(grid, masses2)
        values.append(dw1_kappa(mu1, mu2, 1.0, opts))
        tvs.append(tv_matrix(mu1, mu2))
    decreasing = all(b < a for a, b in zip(values, values[1:]))
    bounded = all(v <= h + 1e-4 for v, h in zip(values, hs))
    tv_constant = all(t == 2.0 for t in tvs)
    _line(
        "7 (weak continuity probe)",
        decreasing and bounded and tv_constant,
        f"dw1 {[f'{v:.5f}' for v in values]} vs h {[f'{h:.5f}' for h in hs]}, tv all 2",
    )


# -- criterion 8: spectral distance example ----------------------------------

def test_criterion_8_connes_example():
    opts = SolverOptions(tolerance=1e-7)
    dirac = DiracSet(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    rho1 = State(np.diag([1.0, 0.0]).astype(complex))
    rho2 = State(np.diag([0.0, 1.0]).astype(complex))
    diag_ok = all(
        abs(connes_distance(rho1, rho2, dirac, k, opts) - min(1.0, 2 * k)) <= 1e-4
        for k in (0.1, 0.4, 1.0, 10.0)
    )
    q1 = State(np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex))
    q2 = State(np.array([[0.6, -0.1], [-0.1, 0.4]], dtype=complex))
    kappas = (1.0, 2.0, 4.0, 8.0)
    q_values = [connes_distance(q1, q2, dirac, k, opts) for k in kappas]
    q_ok = all(v >= 2 * k * 0.3 - 1e-4 for v, k in zip(q_values, kappas))
    unbounded = math.isinf(connes_distance(q1, q2, dirac, math.inf, opts))
    _line(
        "8 (spectral distance example)",
        diag_ok and q_ok and unbounded,
        f"diag cells min(1, 2k) ok={diag_ok}, kappa {kappas}: "
        f"{[round(v, 4) for v in q_values]}, kappa=inf unbounded={unbounded}",
    )


# -- criterion 9: closed forms -----------------------------------------------

def test_criterion_9_closed_forms():
    rng = np.random.default_rng(151617)
    opts = SolverOptions(tolerance=1e-8)

    worst_dirac = 0.0
    for gap, kappa in ((0.7, 1.0), (1.2, 0.3), (0.25, 2.0), (2.4, 0.9)):
        grid = Grid(np.array([0.0, gap]), np.array([1.0, 1.0]))
        mu1 = scalar_measure(grid, [1.0, 0.0])
        mu2 = scalar_measure(grid, [0.0, 1.0])
        err = abs(dw1_kappa(mu1, mu2, kappa, opts) - min(gap, 2 * kappa))
        worst_dirac = max(worst_dirac, err)
        assert err <= 1e-6

    worst_k1 = 0.0
    for _ in range(10):
        grid = Grid(np.array([0.4]), np.array([1.0]))
        m1 = MatrixMeasure(grid, np.array([random_psd(rng, 2)]))
        m2 = MatrixMeasure(grid, np.array([random_psd(rng, 2)]))
        kappa = float(rng.choice([0.3, 1.0, 3.0]))
        expected = kappa * np.linalg.norm(m1.masses[0] - m2.masses[0], "nuc")
        err = abs(dw1_kappa(m1, m2, kappa, opts) - expected)
        worst_k1 = max(worst_k1, err)
        assert err <= 1e-6

    worst_lp = 0.0
    for _ in range(10):
        K = int(rng.integers(2, 7))
        grid = random_grid(rng, K)
        m1 = rng.uniform(0.1, 1.0, size=K)
        m2 = rng.uniform(0.1, 1.0, size=K)
        m2 *= m1.sum() / m2.sum()
        mu1, mu2 = scalar_measure(grid, m1), scalar_measure(grid, m2)
        err = abs(w1_balanced(mu1, mu2) - transport_lp_value(mu1, mu2))
        worst_lp = max(worst_lp, err)
        assert err <= 1e-8

    _line(
        "9 (closed forms)",
        True,
        f"two-dirac err {worst_dirac:.2e}, K=1 err {worst_k1:.2e}, "
        f"CDF-vs-LP err {worst_lp:.2e}",
    )
