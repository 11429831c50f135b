import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from specdist import (
    ConvergenceError,
    DualCertificate,
    MatrixMeasure,
    SolverOptions,
    assemble_dual,
    check_certificate,
    dw1_kappa,
    scalar_measure,
    solve_dual,
    tv_matrix,
    w1_kappa_scalar,
)
from specdist import benchmark_measure, connes, ipm, linalg, make_uniform_grid
from specdist.ipm import solve_ball_program
from specdist.matrix_dual import ball_program
from specdist.measures import Grid
from specdist.pdhg import relative_gap
from specdist.scalar_metrics import w1_kappa_chain

from conftest import (cancellation_pair, flow_cost, pdhg_ball_program, random_grid,
                      random_hermitian, random_matrix_measure, random_psd,
                      random_scalar_measure, recipe_pair, short_gap_pair, spread_pair)

TIGHT = SolverOptions(tolerance=1e-7)
DEFAULT = SolverOptions(tolerance=1e-6)


def _matrix_point_masses(grid, i, j, block):
    K = grid.size
    n = block.shape[0]
    z = np.zeros((K, n, n), dtype=complex)
    m1, m2 = z.copy(), z.copy()
    m1[i] = block
    m2[j] = block
    return MatrixMeasure(grid, m1), MatrixMeasure(grid, m2)


class TestAssemble:
    def test_equal_measures_zero_deltas(self, rng):
        mu = random_matrix_measure(rng, random_grid(rng, 5), 2)
        problem = assemble_dual(mu, mu, 1.0)
        assert not problem.deltas.any()

    def test_scalar_embedding_deltas(self, rng):
        grid = random_grid(rng, 5)
        v1 = rng.uniform(0, 1, size=5)
        v2 = rng.uniform(0, 1, size=5)
        problem = assemble_dual(scalar_measure(grid, v1), scalar_measure(grid, v2), 1.0)
        assert np.allclose(problem.deltas[:, 0, 0].real, v1 - v2)

    def test_rejects_nonpositive_kappa(self, rng):
        mu = random_matrix_measure(rng, random_grid(rng, 3), 2)
        with pytest.raises(ValueError, match="kappa"):
            assemble_dual(mu, mu, -1.0)

    @pytest.mark.parametrize("kappa", [np.inf, np.nan])
    def test_rejects_nonfinite_kappa(self, kappa):
        from specdist import benchmark_measure

        with pytest.raises(ValueError, match="kappa"):
            dw1_kappa(benchmark_measure(0), benchmark_measure(1), kappa)

    def test_grid_mismatch(self, rng):
        mu1 = random_matrix_measure(rng, random_grid(rng, 4), 2)
        mu2 = random_matrix_measure(rng, random_grid(rng, 4), 2)
        with pytest.raises(ValueError, match="grids"):
            assemble_dual(mu1, mu2, 1.0)

    def test_benchmark_pair_problem_shape(self):
        from specdist import benchmark_measure

        problem = assemble_dual(benchmark_measure(0), benchmark_measure(1), 1.0)
        assert problem.deltas.shape == (36, 2, 2)
        assert problem.dim == 2
        assert np.allclose(problem.gaps, np.pi / 35)


class TestSolveDual:
    def test_single_point_dual_norm_identity(self, rng):
        grid = Grid(np.array([0.3]), np.array([1.0]))
        m1 = MatrixMeasure(grid, np.array([random_psd(rng, 2)]))
        m2 = MatrixMeasure(grid, np.array([random_psd(rng, 2)]))
        for kappa in (0.5, 1.0, 3.0):
            expected = kappa * np.linalg.norm(m1.masses[0] - m2.masses[0], "nuc")
            assert dw1_kappa(m1, m2, kappa, TIGHT) == pytest.approx(expected, abs=1e-6)

    def test_two_point_scalar_diracs(self):
        for gap, kappa in ((0.7, 1.0), (1.8, 0.4), (0.2, 5.0)):
            grid = Grid(np.array([0.0, gap]), np.array([1.0, 1.0]))
            mu1 = scalar_measure(grid, [1.0, 0.0])
            mu2 = scalar_measure(grid, [0.0, 1.0])
            expected = min(gap, 2 * kappa)
            assert dw1_kappa(mu1, mu2, kappa, TIGHT) == pytest.approx(expected, abs=1e-6)

    def test_certificate_is_recheckable(self, rng):
        grid = random_grid(rng, 6)
        mu1 = random_matrix_measure(rng, grid, 2)
        mu2 = random_matrix_measure(rng, grid, 2)
        problem = assemble_dual(mu1, mu2, 1.0)
        cert = solve_dual(problem, DEFAULT)
        violation, value_mismatch = check_certificate(problem, cert)
        assert violation <= 1e-12
        assert value_mismatch <= 1e-10
        assert cert.feasibility_residual <= 1e-12
        assert cert.gap >= -1e-12
        assert cert.value <= cert.upper_bound + 1e-12

    def test_check_certificate_flags_tampering(self, rng):
        # the re-check sees a test function pushed out of the kappa ball or
        # across a Lipschitz bound, and a value that is not its pairing
        grid = random_grid(rng, 5)
        problem = assemble_dual(random_matrix_measure(rng, grid, 2),
                                random_matrix_measure(rng, grid, 2), 1.0)
        cert = solve_dual(problem, DEFAULT)
        F = np.array(cert.test_function)
        worst_ball = float(np.linalg.norm(F, 2, axis=(-2, -1)).max())
        scaled = replace(cert, test_function=(3.0 / worst_ball) * F)
        assert check_certificate(problem, scaled)[0] == pytest.approx(2.0, abs=1e-9)
        jump = F.copy()
        jump[0] = -jump[1]
        assert check_certificate(problem, replace(cert, test_function=jump))[0] > 0.0
        assert check_certificate(problem, replace(cert, value=cert.value + 0.5))[1] \
            == pytest.approx(0.5, abs=1e-9)

    def test_positional_certificate_without_flow(self, rng):
        # the five positional fields and the (violation, mismatch) pair are
        # how the benchmark's checks rebuild and recheck a reported certificate
        grid = random_grid(rng, 4)
        problem = assemble_dual(random_matrix_measure(rng, grid, 2),
                                random_matrix_measure(rng, grid, 2), 1.0)
        solved = solve_dual(problem, DEFAULT)
        cert = DualCertificate(solved.test_function, solved.value, 0.0, solved.iterations,
                               solved.upper_bound)
        assert cert.flow is None and solved.flow is None
        result = check_certificate(problem, cert)
        assert isinstance(result, tuple) and len(result) == 2
        assert result == check_certificate(problem, solved)

    def test_exhausted_budget_raises_with_best_iterate(self, rng):
        grid = random_grid(rng, 8)
        mu1 = random_matrix_measure(rng, grid, 2)
        mu2 = random_matrix_measure(rng, grid, 2)
        with pytest.raises(ConvergenceError) as info:
            solve_dual(assemble_dual(mu1, mu2, 1.0), SolverOptions(max_iterations=3))
        best = info.value.solution
        assert best.value <= best.upper_bound
        assert best.test_function.shape == (8, 2, 2)

    @pytest.mark.parametrize("h", [1e-6, 1e-9])
    def test_short_gap_meets_the_tolerance(self, h):
        # the value 3h is far below kappa ||Delta||_TV = 6, the bound at the start;
        # the bracket's own relative gap decides when the solve stops
        cert = solve_dual(assemble_dual(*short_gap_pair(h), 1.0), SolverOptions(tolerance=1e-3))
        assert cert.gap <= 1e-3 * cert.upper_bound
        assert cert.value <= 3 * h * (1 + 1e-12)
        assert 3 * h <= cert.upper_bound * (1 + 1e-12)


class TestChainCertificate:
    """At n = 1 the dual is certified exactly by the chain test function and its
    dual edge flow, without iterating."""

    @staticmethod
    def _problem(seed, K, kappa, one_signed=False):
        rng = np.random.default_rng(seed)
        grid = random_grid(rng, K)
        delta = rng.normal(size=K) * rng.uniform(0.01, 2.0, size=K)
        if one_signed:
            delta = np.abs(delta)
        mu1 = scalar_measure(grid, np.maximum(delta, 0.0))
        mu2 = scalar_measure(grid, np.maximum(-delta, 0.0))
        return assemble_dual(mu1, mu2, kappa)

    @pytest.mark.parametrize("kappa", [1e-12, 0.05, 0.3, 1.0, 10.0])
    @pytest.mark.parametrize("K", [2, 3, 8, 34, 200, 1024])
    @pytest.mark.parametrize("one_signed", [False, True])
    def test_exact_bracket(self, K, kappa, one_signed):
        problem = self._problem([K, int(1e14 * kappa)], K, kappa, one_signed)
        cert = solve_dual(problem, DEFAULT)
        assert cert.iterations == 0
        assert cert.upper_bound >= cert.value
        assert relative_gap(cert.value, cert.upper_bound) <= 1e-12
        violation, mismatch = check_certificate(problem, cert)
        assert violation <= 1e-14 * max(1.0, kappa)   # roundoff in f's Lipschitz steps
        assert mismatch <= 1e-12 * max(1.0, cert.value)
        # the upper bound is the flow's cost, recomputed here by plain numpy
        delta = problem.deltas[:, 0, 0].real
        phi = w1_kappa_chain(delta, problem.gaps, kappa)[2]
        assert flow_cost(delta, problem.gaps, kappa, phi) \
            == pytest.approx(cert.upper_bound, rel=1e-12)

    @pytest.mark.parametrize("kappa", [0.1, 0.5, 1.0, 3.0])
    @pytest.mark.parametrize("K", [2, 9, 100])
    def test_flow_reprices_the_upper_bound(self, K, kappa):
        problem = self._problem([K, int(10 * kappa)], K, kappa)
        cert = solve_dual(problem, DEFAULT)
        delta = problem.deltas[:, 0, 0].real
        assert cert.flow.shape == (K - 1, 1, 1)
        assert not cert.flow.imag.any()
        phi = cert.flow[:, 0, 0].real
        assert flow_cost(delta, problem.gaps, kappa, phi) \
            == pytest.approx(cert.upper_bound, rel=1e-12)
        # the optimal flow's cost is the least; a generic move raises it
        moved = phi + 1e-6 * np.abs(delta).sum() * np.random.default_rng(K).normal(size=K - 1)
        assert flow_cost(delta, problem.gaps, kappa, moved) > cert.upper_bound * (1 + 1e-9)

    @pytest.mark.parametrize("kappa", [1e-12, 0.3, 10.0, 1e6])
    @pytest.mark.parametrize("K", [2, 3, 8, 34, 200])
    @pytest.mark.parametrize("one_signed", [False, True])
    def test_upper_bound_covers_the_exact_flow_cost(self, K, kappa, one_signed):
        # the flow's cost in rational arithmetic: every float is exact as a Fraction
        problem = self._problem([K, int(1e6 * kappa)], K, kappa, one_signed)
        cert = solve_dual(problem, DEFAULT)
        delta = [Fraction(d) for d in problem.deltas[:, 0, 0].real]
        phi = [Fraction(p) for p in cert.flow[:, 0, 0].real]
        flow = [Fraction(0), *phi, Fraction(0)]
        cost = Fraction(kappa) * sum(abs(d - flow[k + 1] + flow[k]) for k, d in enumerate(delta)) \
            + sum(Fraction(g) * abs(p) for g, p in zip(problem.gaps, phi))
        assert cert.upper_bound >= cost
        assert cert.value <= cert.upper_bound

    @pytest.mark.parametrize("kappa", [1.0, 1e12, 1e307, 4e307])
    def test_gap_does_not_grow_with_kappa(self, kappa):
        # 100 moved over a unit gap: the residuals are 0, so a large kappa
        # must not widen the rounding allowance of the upper bound
        grid = Grid(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        problem = assemble_dual(scalar_measure(grid, [100.0, 0.0]),
                                scalar_measure(grid, [0.0, 100.0]), kappa)
        cert = solve_dual(problem, DEFAULT)
        assert cert.value == 100.0
        assert cert.value <= cert.upper_bound
        assert cert.gap <= 1e-12 * cert.value

    def test_zero_difference(self, rng):
        mu = random_scalar_measure(rng, random_grid(rng, 9))
        cert = solve_dual(assemble_dual(mu, mu, 1.0), SolverOptions(tolerance=1e-300))
        assert cert.value == cert.upper_bound == 0.0
        assert cert.iterations == 0

    def test_two_points(self):
        grid = Grid(np.array([0.0, 0.7]), np.array([1.0, 1.0]))
        problem = assemble_dual(scalar_measure(grid, [1.0, 0.0]),
                                scalar_measure(grid, [0.0, 1.0]), 1.0)
        cert = solve_dual(problem, DEFAULT)
        assert cert.iterations == 0
        assert cert.value <= 0.7 <= cert.upper_bound
        assert cert.gap <= 1e-14

    @pytest.mark.parametrize("kappa", [0.3, 1.0])
    def test_overlaps_the_pdhg_bracket(self, kappa):
        # the ball program's first-order solve is the oracle for the exact path
        problem = self._problem(7, 48, kappa)
        cert = solve_dual(problem, DEFAULT)
        oracle = pdhg_ball_program(ball_program(problem), DEFAULT)
        assert oracle.iterations > 0
        slack = 1e-12 * cert.upper_bound
        assert oracle.value <= cert.upper_bound + slack
        assert cert.value <= oracle.upper_bound + slack

    def test_tolerance_below_roundoff_raises_with_certificate(self):
        problem = self._problem(3, 20, 1.0)
        with pytest.raises(ConvergenceError) as info:
            solve_dual(problem, SolverOptions(tolerance=1e-300))
        cert = info.value.solution
        assert cert.iterations == 0
        assert cert.value <= cert.upper_bound
        assert cert.test_function.shape == (20, 1, 1)

    def test_cancellation_below_the_tolerance_raises(self):
        # the value ~1.01e-12 cancels against sum |delta_k f_k| ~ 2: roundoff leaves
        # the bracket ~1.3e-3 wide, far above the tolerance asked for
        with pytest.raises(ConvergenceError, match="by roundoff") as info:
            solve_dual(assemble_dual(*cancellation_pair(), 1.0), SolverOptions(tolerance=1e-6))
        cert = info.value.solution
        assert cert.iterations == 0
        assert cert.value == pytest.approx(1.00997e-12, rel=1e-5)
        assert cert.upper_bound == pytest.approx(1.01131e-12, rel=1e-5)
        assert cert.value <= cert.upper_bound
        assert cert.gap > 1e-6 * cert.upper_bound


class TestDw1Kappa:
    def test_equal_measures_exact_zero(self, rng):
        mu = random_matrix_measure(rng, random_grid(rng, 5), 2)
        assert dw1_kappa(mu, mu, 1.0) == 0.0

    def test_scalar_consistency_with_lp(self, rng):
        for _ in range(8):
            K = int(rng.integers(2, 9))
            grid = random_grid(rng, K)
            v1 = rng.uniform(0, 1, size=K)
            v2 = rng.uniform(0, 1, size=K)
            mu1, mu2 = scalar_measure(grid, v1), scalar_measure(grid, v2)
            kappa = float(rng.choice([0.3, 1.0, 3.0]))
            lp = w1_kappa_scalar(mu1, mu2, kappa)
            assert dw1_kappa(mu1, mu2, kappa, TIGHT) == pytest.approx(lp, abs=1e-5)

    def test_symmetry(self, rng):
        grid = random_grid(rng, 5)
        mu1 = random_matrix_measure(rng, grid, 2)
        mu2 = random_matrix_measure(rng, grid, 2)
        d12 = dw1_kappa(mu1, mu2, 1.0, DEFAULT)
        d21 = dw1_kappa(mu2, mu1, 1.0, DEFAULT)
        assert abs(d12 - d21) <= 2e-6

    def test_positive_homogeneity(self, rng):
        grid = random_grid(rng, 4)
        mu1 = random_matrix_measure(rng, grid, 2)
        mu2 = random_matrix_measure(rng, grid, 2)
        base = dw1_kappa(mu1, mu2, 1.0, TIGHT)
        for alpha in (0.5, 2.0, 10.0):
            scaled = dw1_kappa(
                MatrixMeasure(grid, alpha * mu1.masses),
                MatrixMeasure(grid, alpha * mu2.masses),
                1.0,
                TIGHT,
            )
            assert scaled == pytest.approx(alpha * base, rel=1e-5)

    def test_monotone_in_kappa(self, rng):
        grid = random_grid(rng, 5)
        mu1 = random_matrix_measure(rng, grid, 2)
        mu2 = random_matrix_measure(rng, grid, 2)
        values = [dw1_kappa(mu1, mu2, k, DEFAULT) for k in (0.3, 1.0, 3.0)]
        assert values[0] <= values[1] + 2e-6
        assert values[1] <= values[2] + 2e-6

    def test_tv_upper_bound(self, rng):
        for _ in range(5):
            grid = random_grid(rng, 5)
            mu1 = random_matrix_measure(rng, grid, 2)
            mu2 = random_matrix_measure(rng, grid, 2)
            kappa = float(rng.choice([0.3, 1.0, 3.0]))
            assert dw1_kappa(mu1, mu2, kappa, DEFAULT) <= kappa * tv_matrix(mu1, mu2) + 1e-6

    def test_balanced_upper_bound_for_equal_mass(self, rng):
        grid = random_grid(rng, 4)
        masses = np.array([random_psd(rng, 2) for _ in range(4)])
        # same blocks in permuted positions: equal total matricial mass
        mu1 = MatrixMeasure(grid, masses)
        mu2 = MatrixMeasure(grid, masses[::-1])
        # the reversal plan moves block k from theta_k to theta_{K-1-k}; it is
        # balanced, so its cost bounds the unbalanced distance for every kappa
        reversal = sum(abs(grid.points[k] - grid.points[-1 - k]) * np.linalg.norm(M, "nuc")
                       for k, M in enumerate(masses))
        assert dw1_kappa(mu1, mu2, 1.0, DEFAULT) <= reversal + 1e-5

    def test_weak_continuity_probe(self):
        block = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        tvs, values = [], []
        for h in (np.pi / 4, np.pi / 8, np.pi / 16, np.pi / 32):
            grid = Grid(np.array([0.0, h]), np.array([1.0, 1.0]))
            mu1, mu2 = _matrix_point_masses(grid, 0, 1, block)
            values.append(dw1_kappa(mu1, mu2, 1.0, TIGHT))
            tvs.append(tv_matrix(mu1, mu2))
        assert np.allclose(tvs, 2.0)
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] <= np.pi / 32 + 1e-4

    def test_triangle_inequality(self, rng):
        grid = random_grid(rng, 4)
        for _ in range(6):
            a = random_matrix_measure(rng, grid, 2)
            b = random_matrix_measure(rng, grid, 2)
            c = random_matrix_measure(rng, grid, 2)
            dab = dw1_kappa(a, b, 1.0, DEFAULT)
            dbc = dw1_kappa(b, c, 1.0, DEFAULT)
            dac = dw1_kappa(a, c, 1.0, DEFAULT)
            assert dac <= dab + dbc + 3e-6


@pytest.fixture(scope="module")
def paper_certificates():
    from specdist import benchmark_measure

    measures = [benchmark_measure(i) for i in range(3)]
    return {
        (i, j): solve_dual(assemble_dual(measures[i], measures[j], 1.0), DEFAULT)
        for i, j in ((0, 1), (1, 2), (0, 2))
    }


class TestScalarOracle:
    """At n = 1 the dual program is the chain program solved exactly; the
    ball program's interior-point bracket contains its value."""

    @pytest.mark.parametrize("kappa", [0.05, 0.3, 1.0, 10.0])
    def test_bracket_contains_chain_value(self, kappa):
        rng = np.random.default_rng(int(100 * kappa))
        grid = random_grid(rng, 300)
        mu1 = random_scalar_measure(rng, grid)
        mu2 = random_scalar_measure(rng, grid, scale=1.3)
        cert = solve_ball_program(ball_program(assemble_dual(mu1, mu2, kappa)), DEFAULT)
        exact = w1_kappa_scalar(mu1, mu2, kappa)
        slack = 1e-12 * max(1.0, exact)
        assert cert.value - slack <= exact <= cert.upper_bound + slack


class TestIterationCounts:
    """Deterministic Newton steps to the certified gap, and the first-order
    oracle's iterations (its driver's restarts)."""

    @pytest.mark.parametrize("pair", [(0, 1), (1, 2), (0, 2)])
    def test_paper_pairs_certify_at_1e6(self, paper_certificates, pair):
        cert = paper_certificates[pair]
        assert cert.iterations <= 16
        assert cert.gap <= 1e-6 * cert.upper_bound

    def test_f1_f2_value(self, paper_certificates):
        # the certified bracket meets the numbers that round to 1.4695
        cert = paper_certificates[(1, 2)]
        assert cert.value <= 1.46955 and cert.upper_bound >= 1.46945

    def test_f0_f2_below_kappa_tv(self, paper_certificates):
        from specdist import benchmark_measure

        cert = paper_certificates[(0, 2)]
        assert cert.value <= 1.0 * tv_matrix(benchmark_measure(0), benchmark_measure(2))

    def test_scalar_pair_restarts_to_average(self):
        # the fixed-step iteration needs 13,200 iterations on this pair and
        # restarts to the current iterate alone 11,300; restarting to the
        # running average when its gap is smaller needs 2,200
        rng = np.random.default_rng(0)
        grid = random_grid(rng, 64)
        mu1, mu2 = random_scalar_measure(rng, grid), random_scalar_measure(rng, grid)
        cert = pdhg_ball_program(ball_program(assemble_dual(mu1, mu2, 1.0)), DEFAULT)
        assert cert.iterations <= 4_000
        exact = w1_kappa_scalar(mu1, mu2, 1.0)
        assert cert.value - 1e-9 <= exact <= cert.upper_bound + 1e-9


def _overlap(a, b):
    """Two certified brackets of one value overlap (up to the roundoff of 1e-12)."""
    return max(a.value, b.value) <= min(a.upper_bound, b.upper_bound) * (1 + 1e-12)


class TestInteriorPoint:
    """At n >= 2 the dual is one block semidefinite program, solved by the
    interior-point method on its block-tridiagonal Schur complement."""

    @pytest.mark.parametrize("n, K, kappa", [(2, 6, 1.0), (2, 12, 0.3), (3, 5, 1.0),
                                             (3, 8, 0.5)])
    def test_brackets_overlap_with_the_first_order_oracle(self, n, K, kappa):
        rng = np.random.default_rng([23, n, K])
        grid = random_grid(rng, K)
        problem = assemble_dual(random_matrix_measure(rng, grid, n),
                                random_matrix_measure(rng, grid, n), kappa)
        newton = solve_dual(problem, DEFAULT)
        oracle = pdhg_ball_program(ball_program(problem), DEFAULT)
        assert newton.iterations < 20 < oracle.iterations
        assert _overlap(newton, oracle)

    def test_forward_and_adjoint_are_adjoint(self, rng):
        # <L F, Y> = <F, L* Y> for the chain's differences and for maps of the only block
        grid = random_grid(rng, 5)
        problem = assemble_dual(random_matrix_measure(rng, grid, 2),
                                random_matrix_measure(rng, grid, 2), 1.0)
        one_block = ipm.BallProgram(np.zeros((1, 4)), np.ones(1), np.ones(3),
                                    rng.normal(size=(3, 4, 4)))
        for program in (ball_program(problem), one_block):
            F = rng.normal(size=program.objective.shape)
            Y = rng.normal(size=(program.image_radii.size, 4))
            assert np.vdot(program.forward(F), Y) == pytest.approx(
                np.vdot(F, program.adjoint(Y)), rel=1e-12)

    @pytest.mark.parametrize("kind", ["chain", "connes"])
    def test_feasibility_scale_makes_a_test_function_feasible(self, kind, rng):
        # F / feasibility_scale(F) violates no constraint beyond roundoff, and
        # a feasible F keeps its scale
        if kind == "chain":
            grid = random_grid(rng, 6)
            program = ball_program(assemble_dual(random_matrix_measure(rng, grid, 3),
                                                 random_matrix_measure(rng, grid, 3), 0.5))
        else:
            ops = np.array([random_hermitian(rng, 3) for _ in range(2)])
            program = connes._commutator_program(random_hermitian(rng, 3), connes.DiracSet(ops),
                                                 connes._commutators(ops), 0.5)
        F = 10.0 * rng.normal(size=program.objective.shape)
        scale = program.feasibility_scale(F)
        assert scale > 1.0 and program.residual(F) > 0.0
        radius = max(program.ball_radii.max(), program.image_radii.max())
        assert program.residual(F / scale) <= 1e-14 * radius
        assert program.feasibility_scale(F / (2.0 * scale)) == 1.0
        assert program.residual(F / (2.0 * scale)) == 0.0

    def test_images_of_several_blocks_must_be_differences(self):
        # an image reads the only block through its map, or else is the
        # difference of two adjacent ones
        with pytest.raises(ValueError, match="only block"):
            ipm.BallProgram(np.zeros((2, 4)), np.ones(2), np.ones(1), np.eye(4)[None])
        assert ipm.BallProgram(np.zeros((2, 4)), np.ones(2), np.ones(1)).maps is None
        ipm.BallProgram(np.zeros((2, 4)), np.ones(2), np.zeros(0), np.zeros((0, 4, 4)))

    @pytest.mark.parametrize("n", [2, 3])
    def test_unitary_invariance(self, n):
        # W(U mu U*, U nu U*) = W(mu, nu), as overlapping certified brackets
        rng = np.random.default_rng([29, n])
        grid = random_grid(rng, 7)
        mu1, mu2 = random_matrix_measure(rng, grid, n), random_matrix_measure(rng, grid, n)
        U, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        turned = [MatrixMeasure(grid, U @ mu.masses @ U.conj().T) for mu in (mu1, mu2)]
        a = solve_dual(assemble_dual(mu1, mu2, 1.0), DEFAULT)
        b = solve_dual(assemble_dual(*turned, 1.0), DEFAULT)
        assert a.gap <= 1e-6 * a.upper_bound and b.gap <= 1e-6 * b.upper_bound
        assert _overlap(a, b)

    def test_block_diagonal_additivity(self):
        # W(mu + mu', nu + nu') = W(mu, nu) + W(mu', nu') for block-diagonal sums
        rng = np.random.default_rng(31)
        grid = random_grid(rng, 6)
        parts = [(random_matrix_measure(rng, grid, n), random_matrix_measure(rng, grid, n))
                 for n in (2, 1)]

        def direct_sum(a, b):
            masses = np.zeros((grid.size, 3, 3), dtype=complex)
            masses[:, :2, :2], masses[:, 2:, 2:] = a.masses, b.masses
            return MatrixMeasure(grid, masses)

        whole = solve_dual(assemble_dual(direct_sum(parts[0][0], parts[1][0]),
                                         direct_sum(parts[0][1], parts[1][1]), 1.0), DEFAULT)
        pieces = [solve_dual(assemble_dual(a, b, 1.0), DEFAULT) for a, b in parts]
        summed = DualCertificate(None, sum(p.value for p in pieces), 0.0, 0,
                                 sum(p.upper_bound for p in pieces))
        assert _overlap(whole, summed)

    @pytest.mark.parametrize("pair", [(0, 1), (1, 2), (0, 2)])
    def test_paper_pairs_at_576_points_certify(self, pair):
        # the first-order solver needed 60,000 / 59,500 / 24,600 iterations here
        grid = make_uniform_grid(576, 0.0, math.pi)
        problem = assemble_dual(benchmark_measure(pair[0], grid),
                                benchmark_measure(pair[1], grid), 1.0)
        cert = solve_dual(problem, SolverOptions(max_iterations=30))
        assert cert.iterations < 30
        assert cert.gap <= 1e-6 * cert.upper_bound

    def test_gap_far_below_kappa_ends_in_few_newton_steps(self):
        # value 3e-12 against kappa ||Delta||_TV = 6: the first-order solver ran
        # its whole budget; a few Newton steps certify it or end the solve
        h = 1e-12
        try:
            cert = solve_dual(assemble_dual(*short_gap_pair(h), 1.0),
                              SolverOptions(max_iterations=1000))
        except ConvergenceError as err:
            cert = err.solution
        assert cert.iterations <= 30
        assert cert.value <= 3 * h <= cert.upper_bound

    @pytest.mark.parametrize("pair", ["f0f1", (2, 12), (3, 10), (2, 36)],
                             ids=["f0f1", "n2-K12", "n3-K10", "n2-K36"])
    def test_mass_scale_changes_no_newton_step(self, pair):
        # masses times 2^k scale t by 2^k, and the solve runs on the objective
        # over t: the same steps and exactly scaled values wherever the
        # objective is exactly 2^k times the unit one.  f1's entries near
        # 1.6e-21 go subnormal at 2^-1000, so there the objective is not, and
        # the program is compared with itself at objective times 2^1000
        if pair == "f0f1":
            mu1, mu2 = benchmark_measure(0), benchmark_measure(1)
        else:
            rng = np.random.default_rng(5)
            grid = random_grid(rng, pair[1])
            mu1, mu2 = (random_matrix_measure(rng, grid, pair[0]) for _ in range(2))
        programs = {k: ball_program(assemble_dual(MatrixMeasure(mu1.grid, mu1.masses * 2.0 ** k),
                                                  MatrixMeasure(mu2.grid, mu2.masses * 2.0 ** k),
                                                  1.0))
                    for k in (-1000, -600, -300, -200, -60, 0, 60, 200, 300, 600, 1000)}
        subnormal = -1000 if pair == "f0f1" else None
        certs = {}
        for k, program in programs.items():
            exact = np.array_equal(program.objective, programs[0].objective * 2.0 ** k)
            assert exact != (k == subnormal)
            if exact:
                certs[k] = solve_ball_program(program, DEFAULT)
        for k, cert in certs.items():
            assert cert.iterations == certs[0].iterations
            assert cert.value == certs[0].value * 2.0 ** k
            assert cert.upper_bound == certs[0].upper_bound * 2.0 ** k
        if subnormal is not None:
            program = programs[subnormal]
            cert = solve_ball_program(program, DEFAULT)
            up = solve_ball_program(replace(program, objective=program.objective * 2.0 ** 1000),
                                    DEFAULT)
            assert (cert.iterations, cert.value, cert.upper_bound) == (
                up.iterations, up.value * 2.0 ** -1000, up.upper_bound * 2.0 ** -1000)

    def test_far_mass_scales_keep_the_unit_steps(self):
        # the solve divides the objective by t = 2^k at masses times 2^k, so
        # no iterate or Schur weight leaves the unit pair's range: the same
        # steps and exactly scaled bounds out to k = +-1000
        rng = np.random.default_rng(3)
        grid = make_uniform_grid(8, 0.0, 1.0)
        masses = []
        for _ in range(2):
            A = rng.normal(size=(8, 3, 3)) + 1j * rng.normal(size=(8, 3, 3))
            masses.append(A @ A.conj().transpose(0, 2, 1))
        certs = {k: solve_dual(assemble_dual(*(MatrixMeasure(grid, m * 2.0 ** k)
                                               for m in masses), 1.0), DEFAULT)
                 for k in (-1000, -600, -300, 0, 300, 600, 1000)}
        for k, cert in certs.items():
            assert cert.iterations == certs[0].iterations == 10
            assert cert.value == certs[0].value * 2.0 ** k
            assert cert.upper_bound == certs[0].upper_bound * 2.0 ** k

    def test_tiny_decimal_masses_keep_the_certificate(self):
        # (f0, f1) times 1e-190 (not a power of two) at 1e-3: the bracket
        # contains the true value, so it meets 1e-190 times the unit bracket
        mu1, mu2 = benchmark_measure(0), benchmark_measure(1)
        options = SolverOptions(tolerance=1e-3)
        unit = solve_dual(assemble_dual(mu1, mu2, 1.0), options)
        tiny = solve_dual(assemble_dual(MatrixMeasure(mu1.grid, mu1.masses * 1e-190),
                                        MatrixMeasure(mu2.grid, mu2.masses * 1e-190), 1.0),
                          options)
        assert tiny.gap <= 1e-3 * tiny.upper_bound
        assert tiny.value <= 1e-190 * unit.upper_bound
        assert 1e-190 * unit.value <= tiny.upper_bound

    @pytest.mark.parametrize("n", [1, 2, 3, 4], ids="n{}".format)
    @pytest.mark.parametrize("seed", [1, 2], ids="seed{}".format)
    def test_mass_scale_sweep(self, seed, n):
        # A A* masses times 2^k on random grids: equal steps and bounds exactly
        # 2^k times the unit ones, at every n out to 2^+-1000
        for K in (2, 3, 16):
            rng = np.random.default_rng([seed, n, K])
            grid = random_grid(rng, K)
            mu1, mu2 = (random_matrix_measure(rng, grid, n) for _ in range(2))
            unit = solve_dual(assemble_dual(mu1, mu2, 1.0), DEFAULT)
            for k in (-1000, -500, 500, 1000):
                cert = solve_dual(assemble_dual(MatrixMeasure(grid, mu1.masses * 2.0 ** k),
                                                MatrixMeasure(grid, mu2.masses * 2.0 ** k), 1.0),
                                  DEFAULT)
                assert (cert.iterations, cert.value, cert.upper_bound) == (
                    unit.iterations, unit.value * 2.0 ** k, unit.upper_bound * 2.0 ** k), (K, k)

    def test_falling_barrier_is_not_a_stall(self):
        # steps 2 to 4 improve neither bound while <X, S> still halves; the
        # solve certifies in 12 steps
        pair = spread_pair(np.random.default_rng(11), 16, 2, 1e3)
        cert = solve_dual(assemble_dual(*pair, 1e-6), DEFAULT)
        assert cert.iterations <= 15
        assert cert.gap <= 1e-6 * cert.upper_bound

    @pytest.mark.parametrize("span, steps", [(1e-8, 10), (1e-12, 15)])
    def test_short_span_certifies_in_few_steps(self, span, steps):
        # the same draw over a short span at kappa = 1: the chain's constant
        # mode, which only the balls' weights fix, is restored on every solve
        # (without that, 22 steps at 1e-8, and 1e-12 spends a budget of 100)
        pair = spread_pair(np.random.default_rng(11), 16, 2, span)
        cert = solve_dual(assemble_dual(*pair, 1.0), SolverOptions(tolerance=1e-6,
                                                                   max_iterations=100))
        assert cert.iterations <= steps
        assert cert.gap <= 1e-6 * cert.upper_bound

    def test_span_and_kappa_scale_together(self):
        # theta and kappa times 2^j scale every radius by 2^j and leave the
        # objective alone: the same steps and bounds exactly 2^j times the
        # unit ones, so a short span is a large kappa
        certs = {j: solve_dual(assemble_dual(*spread_pair(np.random.default_rng(3), 16, 2,
                                                          2.0 ** j), 1e3 * 2.0 ** j), DEFAULT)
                 for j in (-40, 0, 40)}
        for j, cert in certs.items():
            assert (cert.iterations, cert.value, cert.upper_bound) == (
                certs[0].iterations, certs[0].value * 2.0 ** j, certs[0].upper_bound * 2.0 ** j)

    @pytest.mark.parametrize("tol", [1e-6, 1e-10])
    def test_kappa_far_above_the_span_certifies(self, tol):
        # kappa = 1e9 on grids of span 1: the edges' weights (1 / g^2) dwarf the
        # balls' (1 / kappa^2); without the constant mode's deflation 7 of the
        # 12 seeds stop on the stall rule
        options = SolverOptions(tolerance=tol, max_iterations=100)
        for seed in range(12):
            cert = solve_dual(assemble_dual(*recipe_pair(seed), 1e9), options)
            assert cert.gap <= tol * cert.upper_bound, seed

    @pytest.mark.parametrize("chain", ["dual", "transport"])
    def test_edges_drop_out_of_the_summed_equations(self, chain):
        # sum_k (M x)_k = sum_k (local x)_k for the Schur complement M and its
        # diagonal blocks without the edges' weights: L^T D_e L sums to 0
        from specdist.matrix_primal import _TransportDual

        rng = np.random.default_rng(61)
        K, n = 7, 2
        if chain == "dual":
            grid = random_grid(rng, K)
            program = ball_program(assemble_dual(random_matrix_measure(rng, grid, n),
                                                 random_matrix_measure(rng, grid, n), 1.0))
            J = 2 * (2 * K - 1)
        else:
            program = _TransportDual(rng.normal(size=(K, 3 * n * n)), 0.7,
                                     rng.uniform(0.1, 1.0, K - 1))
            J = 8 * K - 2
        A = rng.normal(size=(2, J, n, n)) + 1j * rng.normal(size=(2, J, n, n))
        X, Q = (ipm._real(linalg.to_coords(P @ P.conj().swapaxes(-1, -2))) for P in A)
        diag, upper, local = program.normal_blocks(X, Q)[:3]
        x = rng.normal(size=(K,) + diag.shape[1:2] + (1,))
        product = diag @ x
        product[:-1] += upper[:-1] @ x[1:]
        product[1:] += upper[:-1].mT @ x[:-1]
        np.testing.assert_allclose(product.sum(axis=0), (local @ x).sum(axis=0), rtol=0,
                                   atol=1e-12 * np.abs(diag).max() * np.abs(x).max())
        assert not np.allclose(product, local @ x)

    @pytest.mark.parametrize("B", [1, 2, 5, 8, 13])
    def test_block_solver_matches_a_dense_solve(self, B):
        # block cyclic reduction against numpy's dense solve, odd and even block counts
        rng = np.random.default_rng(B)
        m = 4
        lower = np.zeros((B * m, B * m))
        for k in range(B):
            lower[k * m:(k + 1) * m, k * m:(k + 1) * m] = rng.normal(size=(m, m)) + 3 * np.eye(m)
            if k:
                lower[k * m:(k + 1) * m, (k - 1) * m:k * m] = rng.normal(size=(m, m))
        M = lower @ lower.T
        diag = np.array([M[k * m:(k + 1) * m, k * m:(k + 1) * m] for k in range(B)])
        upper = np.zeros_like(diag)   # the last superdiagonal block is 0
        for k in range(B - 1):
            upper[k] = M[k * m:(k + 1) * m, (k + 1) * m:(k + 2) * m]
        b = rng.normal(size=(B, m))
        x = ipm._block_solver(diag, upper)(b)
        np.testing.assert_allclose(x.ravel(), np.linalg.solve(M, b.ravel()), rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("B", [1, 2, 5, 8])
    def test_block_solver_eliminates_the_uncoupled_coordinates(self, B):
        # blocks of 12 whose superdiagonal touches only their first 4 coordinates
        # (F of the transport program): eliminating the other 8 block by block
        # first, then reducing the rest, gives numpy's dense solve
        rng = np.random.default_rng([53, B])
        m, coupled = 12, 4
        diag = rng.normal(size=(B, m, m))
        diag = diag @ diag.mT + m * np.eye(m)
        upper = np.zeros_like(diag)
        upper[:-1, :coupled, :coupled] = rng.normal(size=(B - 1, coupled, coupled))
        M = np.zeros((B * m, B * m))
        for k in range(B):
            M[k * m:(k + 1) * m, k * m:(k + 1) * m] = diag[k]
            if k + 1 < B:
                M[k * m:(k + 1) * m, (k + 1) * m:(k + 2) * m] = upper[k]
                M[(k + 1) * m:(k + 2) * m, k * m:(k + 1) * m] = upper[k].T
        b = rng.normal(size=(B, m))
        x = ipm._block_solver(diag, upper, coupled=coupled)(b)
        np.testing.assert_allclose(x.ravel(), np.linalg.solve(M, b.ravel()), rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("path", ["cholesky", "floored"])
    @pytest.mark.parametrize("m", [1, 4, 9, 16])
    def test_pivot_factor_inverts_graded_pivots(self, m, path, monkeypatch):
        # H^T H = M^-1 for M = D A D, A well-conditioned and D grading the
        # diagonal from 1e-6 to 1e6; a Cholesky that raises sends the batch down
        # the floored eigendecomposition
        rng = np.random.default_rng([43, m])
        G = rng.normal(size=(5, m, m))
        A = G @ G.mT / m + np.eye(m)
        d = rng.permuted(np.broadcast_to(np.logspace(-3, 3, m), (5, m)), axis=1)
        if path == "floored":
            def cholesky(_):
                raise np.linalg.LinAlgError("forced")
            monkeypatch.setattr(np.linalg, "cholesky", cholesky)
        H = ipm._pivot_factor(d[..., None] * A * d[:, None])
        assert H.shape[-2] == (m if path == "cholesky" else 2 * m)
        # D (H^T H) D = A^-1, whose entries are of order 1
        np.testing.assert_allclose(d[..., None] * (H.mT @ H) * d[:, None], np.linalg.inv(A),
                                   rtol=0, atol=1e-12)

    def test_pivot_factor_floors_where_the_floor_binds(self):
        # P = [[1, 1 - u], [1 - u, 1]] + I, u = 2^-53: eigenvalues u, 2 - u, 1, 1.
        # Cholesky succeeds (its last pivot is 2^-52 exactly), but u is below
        # EIGEN_FLOOR of the largest, so the batch takes the floored path
        u = 2.0 ** -53
        P = np.eye(4)
        P[0, 1] = P[1, 0] = 1.0 - u
        M = np.stack([P, 4.0 * np.eye(4)]) * np.array([1.0, 9.0])[:, None, None]
        assert np.isfinite(np.linalg.cholesky(M)).all()
        H = ipm._pivot_factor(M)
        assert H.shape == (2, 8, 4)
        w, V = np.linalg.eigh(M)
        floored = np.maximum(w, ipm.EIGEN_FLOOR * w[:, -1:])
        reference = (V / floored[:, None]) @ V.mT
        np.testing.assert_allclose(H.mT @ H, reference, rtol=1e-8,
                                   atol=1e-8 * np.abs(reference).max())

    def test_well_conditioned_pivots_need_no_eigendecomposition(self, monkeypatch):
        # the n = 2 Schur pivots of a benign dual factor by Cholesky alone
        rng = np.random.default_rng(47)
        grid = random_grid(rng, 8)
        problem = assemble_dual(random_matrix_measure(rng, grid, 2),
                                random_matrix_measure(rng, grid, 2), 1.0)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
        cert = solve_dual(problem, DEFAULT)
        assert cert.gap <= 1e-6 * cert.upper_bound
        assert not calls

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_real_forms_multiply_as_the_blocks(self, n):
        # R(A) R(B) = R(AB), and the table back reads the coordinates of the
        # product's Hermitian part
        rng = np.random.default_rng([37, n])
        a, b = rng.normal(size=(2, 5, n * n))
        np.testing.assert_allclose(ipm._co(ipm._real(a)), a, rtol=0, atol=1e-14)
        np.testing.assert_allclose(
            ipm._co(ipm._real(a) @ ipm._real(b)),
            linalg.to_coords(linalg.from_coords(a) @ linalg.from_coords(b)), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_weights_match_the_complex_products(self, n):
        # W_k = Re tr(E_a X_k E_b Q_k), summed over the stacked (2, J) form, against
        # complex products; each half spans two WEIGHT_CHUNKs of products (32 m^2
        # bytes per block) and part of a third
        rng = np.random.default_rng([41, n])
        m = n * n
        half = 2 * (ipm.WEIGHT_CHUNK // (32 * m * m)) + 3
        X, Q = rng.normal(size=(2, 2 * half, m))
        E = linalg.from_coords(np.eye(m))
        W = np.einsum("aij,kjl,blm,kmi->kab", E, linalg.from_coords(X), E,
                      linalg.from_coords(Q)).real
        stacked = (ipm._real(P.reshape(2, half, m)) for P in (X, Q))
        np.testing.assert_allclose(ipm._weights(*stacked), W[:half] + W[half:], rtol=0, atol=1e-12)

    def test_zero_complementarity_is_a_breakdown(self, monkeypatch):
        # sigma = (mu_aff / mu)^3 divides by mu = <X, S> / (J n): a step from
        # X = 0 (its Schur systems, singular there, solved as 0) ends the solve
        # as a breakdown carrying the best bracket, not with ZeroDivisionError
        rng = np.random.default_rng(43)
        grid = random_grid(rng, 4)
        program = ball_program(assemble_dual(random_matrix_measure(rng, grid, 2),
                                             random_matrix_measure(rng, grid, 2), 1.0))
        step = ipm._newton_step
        monkeypatch.setattr(ipm, "_block_solver", lambda diag, upper, local: np.zeros_like)
        monkeypatch.setattr(ipm, "_newton_step",
                            lambda *args: (step(*args)[0], np.zeros_like(args[-1])))
        with pytest.raises(ConvergenceError, match="Newton step 2 broke down") as err:
            solve_ball_program(program, DEFAULT)
        assert err.value.solution.iterations == 2
        assert err.value.solution.value <= err.value.solution.upper_bound
