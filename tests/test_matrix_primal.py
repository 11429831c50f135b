import numpy as np
import pytest

from specdist import (
    DualCertificate,
    MatrixMeasure,
    SolverOptions,
    assemble_dual,
    duality_gap,
    scalar_measure,
    solve_dual,
    solve_unbalanced_primal,
    w1_balanced,
    w1_kappa_chain,
    w1_kappa_scalar,
)
from specdist import ipm, linalg
from specdist.matrix_primal import _TransportDual, _plan_marginals
from specdist.measures import Grid

from conftest import (flow_cost, random_grid, random_matrix_measure, random_psd,
                      random_scalar_measure, recipe_pair, short_gap_pair)

GAP_OPTS = SolverOptions(tolerance=1e-3)


class TestUnbalancedPrimal:
    def test_identical_measures_diagonal_plan(self, rng):
        grid = random_grid(rng, 5)
        # rank-1 masses at n = 3 put roundoff into a solve's upper bound
        v = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        rank_one = MatrixMeasure(grid, np.einsum("ki,kj->kij", v, v.conj()))
        for mu in (random_matrix_measure(rng, grid, 2), rank_one):
            sol = solve_unbalanced_primal(mu, mu, 1.0)
            assert sol.objective == 0.0
            assert sol.transport_cost == 0.0
            assert sol.tv_penalty == 0.0
            assert sol.iterations == 0
            assert np.array_equal(sol.plan[0], mu.masses)
            assert not sol.plan[1:].any()

    def test_plan_is_banded(self, rng):
        for K, n in ((1, 2), (2, 1), (5, 2), (4, 3)):
            grid = random_grid(rng, K)
            mu1 = random_matrix_measure(rng, grid, n)
            mu2 = random_matrix_measure(rng, grid, n)
            sol = solve_unbalanced_primal(mu1, mu2, 1.0, GAP_OPTS)
            assert sol.plan.shape == (3, K, n, n)
            # slot K-1 of the off-diagonal stacks has no edge behind it
            assert not sol.plan[1:, -1].any()

    def test_single_dirac_move_with_large_kappa(self, rng):
        # the optimal VALUE is |theta_i - theta_j|; the optimal plan is not
        # unique on a line (signed relays through collinear points cost the
        # same), so assert the value and the exact marginals instead
        grid = random_grid(rng, 5)
        mu1 = scalar_measure(grid, np.eye(5)[1])
        mu2 = scalar_measure(grid, np.eye(5)[3])
        d = abs(grid.points[3] - grid.points[1])
        sol = solve_unbalanced_primal(mu1, mu2, 100.0, SolverOptions(tolerance=1e-6))
        assert sol.objective == pytest.approx(d, rel=1e-4)
        assert sol.tv_penalty <= 1e-6
        mu1_hat, mu2_hat = sol.denoised_marginals
        assert np.abs(mu1_hat.masses[:, 0, 0].real - np.eye(5)[1]).max() <= 1e-6
        assert np.abs(mu2_hat.masses[:, 0, 0].real - np.eye(5)[3]).max() <= 1e-6

    def test_objective_decomposition_exact(self, rng):
        grid = random_grid(rng, 4)
        mu1 = random_matrix_measure(rng, grid, 2)
        mu2 = random_matrix_measure(rng, grid, 2)
        sol = solve_unbalanced_primal(mu1, mu2, 1.0, GAP_OPTS)
        norms = linalg.hermitian_nuclear_norms(sol.plan)
        cost = float((grid.spacings * (norms[1, :-1] + norms[2, :-1])).sum())
        mu1_hat, mu2_hat = sol.denoised_marginals
        tv_pen = float(
            linalg.hermitian_nuclear_norms(mu1.masses - mu1_hat.masses).sum()
            + linalg.hermitian_nuclear_norms(mu2.masses - mu2_hat.masses).sum()
        )
        assert sol.transport_cost == pytest.approx(cost, abs=1e-10)
        assert sol.tv_penalty == pytest.approx(tv_pen, abs=1e-10)
        assert sol.objective == pytest.approx(cost + 1.0 * tv_pen, abs=1e-10)

    def test_marginals_match_plan_and_validate_psd(self, rng):
        grid = random_grid(rng, 5)
        mu1 = random_matrix_measure(rng, grid, 2)
        mu2 = random_matrix_measure(rng, grid, 2)
        sol = solve_unbalanced_primal(mu1, mu2, 0.7, GAP_OPTS)
        # P[1][k] = m_k,k+1 and P[2][k] = m_k+1,k
        P = sol.plan
        rows, cols = P[0].copy(), P[0].copy()
        rows[:-1] += P[1, :-1]
        rows[1:] += P[2, :-1]
        cols[:-1] += P[2, :-1]
        cols[1:] += P[1, :-1]
        mu1_hat, mu2_hat = sol.denoised_marginals
        assert np.abs(rows - mu1_hat.masses).max() <= 1e-8
        assert np.abs(cols - mu2_hat.masses).max() <= 1e-8
        assert isinstance(mu1_hat, MatrixMeasure) and isinstance(mu2_hat, MatrixMeasure)

    def test_plan_blocks_hermitian(self, rng):
        grid = random_grid(rng, 4)
        mu1 = random_matrix_measure(rng, grid, 2)
        mu2 = random_matrix_measure(rng, grid, 2)
        sol = solve_unbalanced_primal(mu1, mu2, 1.0, GAP_OPTS)
        swapped = np.conj(np.swapaxes(sol.plan, -1, -2))
        assert np.abs(sol.plan - swapped).max() <= 1e-12

    def test_rejects_nonpositive_kappa(self, rng):
        mu = random_matrix_measure(rng, random_grid(rng, 3), 2)
        with pytest.raises(ValueError, match="kappa"):
            solve_unbalanced_primal(mu, mu, 0.0)


class TestScalarOracle:
    """At n = 1 the transport primal is the dual of the exact chain program.

    Beyond n = 1, masses ``U diag(a_k) U*`` with one unitary ``U`` commute, and
    pinching a test function onto their eigenbasis keeps it feasible and its
    value, so the optimum is the sum of the n scalar chain values.
    """

    def test_bracket_contains_chain_value(self):
        rng = np.random.default_rng(41)
        kappas = (0.05, 0.3, 1.0, 10.0)
        for K in range(1, 41):
            kappa = kappas[K % 4]
            grid = random_grid(rng, K)
            mu1 = random_scalar_measure(rng, grid)
            mu2 = random_scalar_measure(rng, grid, scale=1.3)
            sol = solve_unbalanced_primal(mu1, mu2, kappa, SolverOptions(tolerance=1e-6))
            exact = w1_kappa_scalar(mu1, mu2, kappa)
            slack = 1e-12 * max(1.0, exact)
            assert sol.lower_bound - slack <= exact <= sol.upper_bound + slack, (K, kappa)
        for n, K, kappa in ((2, 2, 1.0), (2, 5, 0.3), (2, 12, 1.0), (2, 20, 0.3),
                            (3, 2, 0.3), (3, 5, 1.0), (3, 12, 0.3)):
            U = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
            grid = random_grid(rng, K)
            a = rng.uniform(0.0, 1.0, size=(K, n))
            b = rng.uniform(0.0, 1.3, size=(K, n))
            mu1 = MatrixMeasure(grid, np.einsum("ij,kj,lj->kil", U, a, U.conj()))
            mu2 = MatrixMeasure(grid, np.einsum("ij,kj,lj->kil", U, b, U.conj()))
            exact = sum(w1_kappa_chain(a[:, i] - b[:, i], grid.spacings, kappa)[0]
                        for i in range(n))
            slack = 1e-12 * max(1.0, exact)
            opts = SolverOptions(tolerance=1e-6)
            cert = solve_dual(assemble_dual(mu1, mu2, kappa), opts)
            sol = solve_unbalanced_primal(mu1, mu2, kappa, opts)
            assert cert.value - slack <= exact <= cert.upper_bound + slack, (n, K, kappa)
            assert sol.lower_bound - slack <= exact <= sol.upper_bound + slack, (n, K, kappa)


class TestIterationCounts:
    """The banded plan certifies the paper pairs' audit at K = 36 quickly."""

    @pytest.mark.parametrize("pair", [(0, 1), (1, 2), (0, 2)])
    def test_paper_pairs_certify_within_3000(self, pair):
        from specdist import benchmark_measure

        i, j = pair
        report = duality_gap(benchmark_measure(i), benchmark_measure(j), 1.0, GAP_OPTS)
        assert report.primal_solution.iterations <= 3_000
        assert report.relative_gap <= 1e-3


@pytest.mark.parametrize("n", [1, 2, 3])
def test_plan_marginals_are_those_of_the_stacked_diagonal(rng, n):
    # the marginals start from an uninitialized buffer; they must equal the
    # np.stack form bit for bit, so the iterates are those it gave
    P = rng.normal(size=(3, 7, n * n))
    old = np.stack([P[0], P[0]])
    old[:, :-1] += P[1:, :-1]
    old[:, 1:] += P[:0:-1, :-1]
    assert np.array_equal(_plan_marginals(P), old)


class TestTransportDual:
    """The conic dual of the transport program, as the interior-point method reads it."""

    @pytest.mark.parametrize("n, K", [(1, 1), (1, 4), (2, 3), (3, 2)])
    def test_adjoint_and_schur_blocks(self, n, K):
        rng = np.random.default_rng([59, n, K])
        m, J = n * n, 8 * K - 2   # 6 LMIs per point, 2 per edge
        dual = _TransportDual(rng.normal(size=(K, 3 * m)), 0.7, rng.uniform(0.1, 1.0, K - 1))
        v, Z = rng.normal(size=(K, 3 * m)), rng.normal(size=(J, m))
        assert np.vdot(dual.constraints(v), Z) == pytest.approx(
            np.vdot(v, dual.constraints_adjoint(Z)), rel=1e-12)
        # the Schur complement sum_k J_k^T W_k J_k, column by column, with
        # W_k[a, b] = Re tr(E_a X_k E_b Q_k) from complex products
        A = rng.normal(size=(2, J, n, n)) + 1j * rng.normal(size=(2, J, n, n))
        X, Q = linalg.to_coords(A @ A.conj().swapaxes(-1, -2))
        E = linalg.from_coords(np.eye(m))
        W = np.einsum("aij,kjl,blm,kmi->kab", E, linalg.from_coords(X), E,
                      linalg.from_coords(Q)).real

        def schur(W):
            return np.array([dual.constraints_adjoint(np.einsum(
                "kab,kb->ka", W, dual.constraints(e.reshape(K, -1)))).ravel()
                for e in np.eye(3 * m * K)]).T

        dense = schur(W)
        diag, upper, local, coupled = dual.normal_blocks(ipm._real(X), ipm._real(Q))
        assembled = np.zeros_like(dense)
        b = 3 * m
        for k in range(K):
            assembled[k * b:(k + 1) * b, k * b:(k + 1) * b] = diag[k]
            if k + 1 < K:
                assembled[k * b:(k + 1) * b, (k + 1) * b:(k + 2) * b] = upper[k]
                assembled[(k + 1) * b:(k + 2) * b, k * b:(k + 1) * b] = upper[k].T
        np.testing.assert_allclose(assembled, dense, rtol=0, atol=1e-12 * np.abs(dense).max())
        # local: the same complement without the edges' weights (both signs),
        # block diagonal
        half = 3 * K - 1
        W[2 * K:half] = W[half + 2 * K:2 * half] = 0.0
        without_edges = np.zeros_like(dense)
        for k in range(K):
            without_edges[k * b:(k + 1) * b, k * b:(k + 1) * b] = local[k]
        np.testing.assert_allclose(without_edges, schur(W), rtol=0,
                                   atol=1e-12 * np.abs(dense).max())
        # only F (the first n^2 coordinates of each point) couples points
        assert coupled == m and not upper[:, coupled:].any() and not upper[:, :, coupled:].any()

    def test_plan_from_the_multipliers_needs_no_repair(self, monkeypatch):
        # the multiplier of U >= 0 is the row marginal, so the plans the Newton
        # steps read off have PSD marginals before the repair, to roundoff
        from specdist import benchmark_measure, make_uniform_grid, matrix_primal

        grid = make_uniform_grid(12, 0.0, np.pi)
        mu1, mu2 = benchmark_measure(0, grid), benchmark_measure(1, grid)
        worst = []

        def repair(P):
            marginals = _plan_marginals(P)
            worst.append(-linalg.eigenvalues(marginals)[0].min() / np.abs(marginals).max())
            return original(P)

        original = matrix_primal._psd_repair
        monkeypatch.setattr(matrix_primal, "_psd_repair", repair)
        sol = solve_unbalanced_primal(mu1, mu2, 1.0, GAP_OPTS)
        assert sol.iterations > 0 and len(worst) == sol.iterations + 2
        assert max(worst) <= 1e-12


class TestHermitianRestriction:
    """Hermitian-part symmetrization of complex plans loses nothing."""

    def test_hermitian_part_preserves_marginals_and_shrinks_cost(self, rng):
        K, n = 4, 2
        plan = rng.normal(size=(K, K, n, n)) + 1j * rng.normal(size=(K, K, n, n))
        herm = 0.5 * (plan + np.conj(np.swapaxes(plan, -1, -2)))
        rows_h = herm.sum(axis=1)
        rows_raw_herm = 0.5 * (
            plan.sum(axis=1) + np.conj(np.swapaxes(plan.sum(axis=1), -1, -2))
        )
        assert np.abs(rows_h - rows_raw_herm).max() <= 1e-12
        for i in range(K):
            for j in range(K):
                assert (
                    np.linalg.norm(herm[i, j], "nuc")
                    <= np.linalg.norm(plan[i, j], "nuc") + 1e-10
                )


class TestDualityGap:
    def test_identical_measures(self, rng):
        mu = random_matrix_measure(rng, random_grid(rng, 4), 2)
        report = duality_gap(mu, mu, 1.0)
        assert report.primal == report.dual == report.gap == 0.0

    def test_benchmark_scale_gap(self):
        from specdist import benchmark_measure

        mu0 = benchmark_measure(0)
        mu1 = benchmark_measure(1)
        report = duality_gap(mu0, mu1, 1.0, GAP_OPTS)
        assert report.relative_gap <= 1e-3
        assert report.gap >= -1e-8

    def test_kappa_far_above_the_span_certifies(self):
        # kappa = 1e8 on grids of span 1: the transport primal's F has the
        # chain's constant mode too (without its deflation 9 of 12 seeds fail)
        options = SolverOptions(tolerance=1e-6, max_iterations=100)
        for seed in range(12):
            report = duality_gap(*recipe_pair(seed), 1e8, options)
            assert 0.0 <= report.relative_gap <= 1e-6, seed

    def test_random_instances_weak_duality(self, rng):
        for _ in range(12):
            n = int(rng.integers(1, 4))
            K = int(rng.integers(2, 9))
            kappa = float(rng.choice([0.3, 1.0, 3.0]))
            grid = random_grid(rng, K)
            mu1 = random_matrix_measure(rng, grid, n)
            mu2 = random_matrix_measure(rng, grid, n)
            report = duality_gap(mu1, mu2, kappa, GAP_OPTS)
            assert report.gap >= -1e-8
            assert report.relative_gap <= 1e-3

    def test_weak_duality_sign_across_100_seeds(self):
        # weak duality is certificate-structural, so it must hold at any
        # certification level; loose tolerances keep 100 instances cheap
        rng = np.random.default_rng(777)
        opts = SolverOptions(tolerance=1e-2)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            K = int(rng.integers(2, 6))
            kappa = float(rng.choice([0.3, 1.0, 3.0]))
            grid = random_grid(rng, K)
            mu1 = random_matrix_measure(rng, grid, n)
            mu2 = random_matrix_measure(rng, grid, n)
            assert duality_gap(mu1, mu2, kappa, opts).gap >= -1e-8

    def test_stalled_primal_keeps_the_dual_certificate(self):
        # a budget that certifies the dual but not the transport primal: the
        # error carries the dual certificate, whose bracket meets half the gap
        from specdist import (ConvergenceError, assemble_dual, benchmark_measure,
                              make_uniform_grid, solve_dual)

        # (f1,f2) at K = 8 takes 6 dual and 7 primal Newton steps
        grid = make_uniform_grid(8, 0.0, np.pi)
        mu1, mu2 = benchmark_measure(1, grid), benchmark_measure(2, grid)
        halved = SolverOptions(tolerance=5e-4)
        budget = solve_dual(assemble_dual(mu1, mu2, 1.0), halved).iterations
        with pytest.raises(ConvergenceError) as info:
            duality_gap(mu1, mu2, 1.0, SolverOptions(tolerance=1e-3, max_iterations=budget))
        cert = info.value.solution
        assert cert.iterations == budget
        assert cert.lower_bound == cert.value
        assert cert.upper_bound - cert.lower_bound <= 5e-4 * cert.upper_bound

    @pytest.mark.parametrize("side", ["dual", "primal"])
    def test_stop_message_gives_the_bracket_in_the_callers_units(self, side):
        # both solves run on masses / t (t = 2^19 here): the error's bracket is
        # the one its solution carries, not the iterates' scaled one
        from specdist import ConvergenceError, benchmark_measure

        mu1, mu2 = (MatrixMeasure(mu.grid, 1e6 * mu.masses)
                    for mu in (benchmark_measure(0), benchmark_measure(1)))
        options = SolverOptions(tolerance=1e-3, max_iterations=2)
        with pytest.raises(ConvergenceError) as err:
            if side == "dual":
                solve_dual(assemble_dual(mu1, mu2, 1.0), options)
            else:
                solve_unbalanced_primal(mu1, mu2, 1.0, options)
        solution = err.value.solution
        assert solution.iterations == 2
        assert f"[{solution.lower_bound:.6g}, {solution.upper_bound:.6g}]" in str(err.value)

    def test_primal_floor_is_set_by_the_known_value(self):
        # A moves over a 1e-3 gap: the diagonal start's objective, kappa ||Delta||_TV,
        # is ~2,000 times the value; the primal's relative gap must still be
        # measured at the value's own scale
        A = np.array([[2.0, 1.0], [1.0, 1.0]], dtype=complex)
        B = np.array([[1.0, 0.5j], [-0.5j, 3.0]])
        zero = np.zeros((2, 2), dtype=complex)
        grid = Grid(np.array([0.0, 1e-3, 2e-3]), np.ones(3))
        mu1 = MatrixMeasure(grid, np.array([A, zero, B]))
        mu2 = MatrixMeasure(grid, np.array([zero, A, B]))
        report = duality_gap(mu1, mu2, 1.0, GAP_OPTS)
        assert 0.0 <= report.relative_gap <= 1e-3

    def test_short_gap_audit_meets_the_tolerance(self):
        # the value 3e-6 is far below kappa ||Delta||_TV = 6, where the dual's
        # iteration starts; the audit's relative gap is the bracket's own
        report = duality_gap(*short_gap_pair(1e-6), 1.0, GAP_OPTS)
        assert 0.0 <= report.relative_gap <= 1e-3

    def test_relative_gap_has_no_absolute_floor(self):
        # masses x 1e-10: the values are ~3e-16, so a floor of 1e-12 under the
        # quotient would report a relative gap thousands of times too small
        report = duality_gap(*short_gap_pair(1e-6, 1e-10), 1.0, GAP_OPTS)
        assert report.dual == pytest.approx(3e-16, rel=1e-3)
        assert report.relative_gap == report.gap / max(abs(report.primal), abs(report.dual))
        assert 0.0 <= report.relative_gap <= 1e-3

    def test_single_point_grid(self, rng):
        # one grid point: transport is free on the diagonal, the optimum is
        # kappa times the nuclear norm of the mass difference
        grid = Grid(np.array([0.7]), np.array([1.0]))
        mu1 = MatrixMeasure(grid, np.array([random_psd(rng, 2)]))
        mu2 = MatrixMeasure(grid, np.array([random_psd(rng, 2)]))
        expected = 0.6 * np.linalg.norm(mu1.masses[0] - mu2.masses[0], "nuc")
        report = duality_gap(mu1, mu2, 0.6, SolverOptions(tolerance=1e-5))
        assert report.primal == pytest.approx(expected, rel=1e-4)
        assert report.dual == pytest.approx(expected, rel=1e-4)


class TestStartFromTheDualCertificate:
    """The audit's transport primal starts from the dual certificate's flow and
    test function.  At n = 1 the chain certificate carries both and the start
    is optimal; ball-program certificates carry no flow and keep the diagonal
    start."""

    @pytest.mark.parametrize("seed", range(8))
    def test_exact_scalar_audit(self, seed):
        rng = np.random.default_rng([2016, seed])
        K = int(rng.integers(5, 101))
        kappa = (0.1, 0.5, 1.0, 3.0)[seed % 4]
        grid = random_grid(rng, K)
        masses = rng.uniform(0.0, 1.0, size=(2, K))
        masses[rng.random(size=(2, K)) < 0.5] = 0.0     # half the points massless
        mu1, mu2 = (scalar_measure(grid, m) for m in masses)
        report = duality_gap(mu1, mu2, kappa, SolverOptions(tolerance=1e-6))
        assert report.primal_solution.iterations == 0
        assert 0.0 <= report.relative_gap <= 1e-12
        assert report.primal >= report.dual
        exact = w1_kappa_chain(masses[0] - masses[1], grid.spacings, kappa)[0]
        assert report.primal == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("seed", [33, 44, 56, 58, 139])
    def test_zero_step_primal_is_not_below_the_dual(self, seed):
        # the start plan (the n = 1 flow plan, the diagonal plan at K = 1)
        # certifies without a step; its price is rounded up, as the ball
        # programs' bounds are, or roundoff could put it below the dual
        rng = np.random.default_rng([72, seed])
        n, K = int(rng.integers(1, 5)), int(rng.integers(1, 24))
        kappa = float(rng.choice([0.01, 0.1, 1.0, 10.0, 100.0]))
        scale = float(rng.choice([1e-8, 1.0, 1e6]))
        grid = random_grid(rng, K)
        mu1, mu2 = (random_matrix_measure(rng, grid, n, scale) for _ in range(2))
        report = duality_gap(mu1, mu2, kappa, SolverOptions(tolerance=1e-6))
        assert report.primal_solution.iterations == 0
        assert report.primal >= report.dual
        assert 0.0 <= report.relative_gap <= 1e-6

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_start_from_an_exact_certificate(self, n):
        # commuting masses U diag(a_k) U* split into n scalar chains (see
        # TestScalarOracle); their lifted test functions and flows are an
        # exact certificate at any n.  Its value is withheld, so only the
        # start duals carry the lower bound
        rng = np.random.default_rng([2016, 7, n])
        K, kappa = 12, 0.5
        U = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
        grid = random_grid(rng, K)
        a, b = rng.uniform(0.0, 1.0, size=(2, K, n)) * (rng.random(size=(2, K, n)) < 0.5)

        def lift(x):
            return np.einsum("ij,kj,lj->kil", U, x, U.conj())

        chains = [w1_kappa_chain(a[:, i] - b[:, i], grid.spacings, kappa) for i in range(n)]
        value = sum(chain[0] for chain in chains)
        upper = sum(flow_cost(a[:, i] - b[:, i], grid.spacings, kappa, chain[2])
                    for i, chain in enumerate(chains))
        f, phi = (np.stack([chain[j] for chain in chains], axis=1) for j in (1, 2))
        cert = DualCertificate(lift(f), 0.0, 0.0, 0, upper, lift(phi))
        sol = solve_unbalanced_primal(MatrixMeasure(grid, lift(a)), MatrixMeasure(grid, lift(b)),
                                      kappa, SolverOptions(tolerance=1e-6), cert)
        assert sol.iterations == 0
        assert sol.lower_bound == pytest.approx(value, rel=1e-12)
        assert sol.objective == pytest.approx(value, rel=1e-12)

    # the ids keep the first-order iterations (dual 350, 650, 300; primal 350,
    # 150, 300) they were first pinned with; both sides now take Newton steps
    @pytest.mark.parametrize("n, K, kappa, dual_iterations, primal_iterations", [
        pytest.param(2, 8, 1.0, 7, 7, id="2-8-1.0-350-350"),
        pytest.param(3, 6, 0.5, 7, 7, id="3-6-0.5-650-150"),
        pytest.param(2, 12, 0.3, 7, 7, id="2-12-0.3-300-300")])
    def test_ball_program_certificate_keeps_the_diagonal_start(
            self, n, K, kappa, dual_iterations, primal_iterations):
        # the start plan is the diagonal one, which does not certify, so the
        # primal takes Newton steps from the certificate's test function
        rng = np.random.default_rng([2016, n, K])
        grid = random_grid(rng, K)
        mu1, mu2 = random_matrix_measure(rng, grid, n), random_matrix_measure(rng, grid, n)
        report = duality_gap(mu1, mu2, kappa, SolverOptions(tolerance=1e-4))
        assert report.dual_certificate.flow is None
        assert report.dual_certificate.iterations == dual_iterations
        assert report.primal_solution.iterations == primal_iterations
        again = solve_unbalanced_primal(mu1, mu2, kappa, SolverOptions(tolerance=5e-5),
                                        certificate=report.dual_certificate)
        assert again.iterations == primal_iterations
        assert again.objective == report.primal


def _balanced(mu1, mu2, options=None):
    # with equal total mass and kappa at least half the grid's diameter,
    # destroying and re-creating mass never beats moving it, so the
    # unbalanced transport optimum is the balanced one
    points = mu1.grid.points
    kappa = 0.5 * (points[-1] - points[0]) + 0.1
    return solve_unbalanced_primal(mu1, mu2, kappa, options).objective


class TestBalanced:
    """The balanced 1-Wasserstein limit of the transport primal."""

    def test_identical(self, rng):
        mu = random_matrix_measure(rng, random_grid(rng, 4), 2)
        assert _balanced(mu, mu) == 0.0

    def test_scalar_consistency(self, rng):
        for _ in range(5):
            K = int(rng.integers(2, 7))
            grid = random_grid(rng, K)
            m1 = rng.uniform(0.1, 1.0, size=K)
            m2 = rng.uniform(0.1, 1.0, size=K)
            m2 *= m1.sum() / m2.sum()
            mu1, mu2 = scalar_measure(grid, m1), scalar_measure(grid, m2)
            got = _balanced(mu1, mu2, SolverOptions(tolerance=1e-7))
            assert got == pytest.approx(w1_balanced(mu1, mu2), abs=1e-6)

    def test_identity_point_masses_rigid_translation(self):
        grid = Grid(np.array([0.2, 0.9, 1.7]), np.ones(3))
        masses1 = np.zeros((3, 2, 2), dtype=complex)
        masses2 = np.zeros((3, 2, 2), dtype=complex)
        masses1[0] = np.eye(2)
        masses2[2] = np.eye(2)
        mu1, mu2 = MatrixMeasure(grid, masses1), MatrixMeasure(grid, masses2)
        expected = 2.0 * (1.7 - 0.2)
        got = _balanced(mu1, mu2, SolverOptions(tolerance=1e-7))
        assert got == pytest.approx(expected, abs=1e-6)
