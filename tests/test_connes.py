import math

import numpy as np
import pytest

from specdist import (
    ConvergenceError,
    DiracSet,
    SolverOptions,
    State,
    connes_distance,
    scalar_measure,
    w1_kappa_scalar,
)
from specdist import benchmark_measure, connes, ipm, make_uniform_grid
from specdist.connes import sufficient_kappa
from specdist.measures import Grid

from conftest import pdhg_ball_program


SIGMA_X = DiracSet(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
TIGHT = SolverOptions(tolerance=1e-7)


def _diag_state(p):
    return State(np.diag([p, 1.0 - p]).astype(complex))


def _offdiag_state(p, q):
    return State(np.array([[p, q], [q, 1.0 - p]], dtype=complex))


def _random_state(rng, n):
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    M = A @ A.conj().T
    return State(M / np.trace(M).real)


class TestStateValidation:
    def test_rejects_non_psd(self):
        with pytest.raises(ValueError, match="PSD"):
            State(np.diag([1.5, -0.5]).astype(complex))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            State(np.diag([0.7, 0.7]).astype(complex))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_nonfinite_entries(self, bad):
        with pytest.raises(ValueError, match="finite"):
            State(np.array([[0.5, bad], [bad, 0.5]], dtype=complex))
        with pytest.raises(ValueError, match="finite"):
            DiracSet(np.diag([1.0, bad]).astype(complex))

    def test_dirac_set_needs_operators(self):
        with pytest.raises(ValueError):
            DiracSet(np.zeros((0, 2, 2), dtype=complex))


class TestClosedForms:
    def test_equal_states(self):
        rho = _diag_state(0.3)
        cert = connes_distance(rho, rho, SIGMA_X, 1.0)
        assert cert.value == 0.0
        assert cert.upper_bound == 0.0 and cert.iterations == 0
        assert cert.test_function.shape == (1, 2, 2) and not cert.test_function.any()

    @pytest.mark.parametrize("kappa", [math.nan, -math.inf, 0.0])
    def test_rejects_invalid_kappa(self, kappa):
        # only math.inf selects the unbounded distance
        with pytest.raises(ValueError, match="kappa"):
            connes_distance(_diag_state(1.0), _diag_state(0.0), SIGMA_X, kappa)

    @pytest.mark.parametrize("kappa", [0.1, 0.4, 1.0, 10.0])
    def test_diagonal_difference_states(self, kappa):
        # Hermitian f = [[a,b],[conj b,d]]: the commutator bound forces
        # |a - d| <= 1, the objective is a - d, the kappa ball caps |a|, |d|
        got = connes_distance(_diag_state(1.0), _diag_state(0.0), SIGMA_X, kappa, TIGHT).value
        assert got == pytest.approx(min(1.0, 2 * kappa), abs=1e-6)

    def test_qdiffering_lower_bound_family(self):
        rho1 = _offdiag_state(0.6, 0.2)
        rho2 = _offdiag_state(0.6, -0.1)
        for kappa in (1.0, 2.0, 4.0, 8.0):
            got = connes_distance(rho1, rho2, SIGMA_X, kappa, TIGHT).value
            assert got >= 2 * kappa * 0.3 - 1e-4

    def test_unbounded_flag_for_qdiffering(self):
        rho1 = _offdiag_state(0.6, 0.2)
        rho2 = _offdiag_state(0.6, -0.1)
        cert = connes_distance(rho1, rho2, SIGMA_X, math.inf)
        assert math.isinf(cert.value)
        # the flag carries no witness
        assert cert.upper_bound == math.inf and cert.test_function is None

    def test_infinite_kappa_saturating_case(self):
        got = connes_distance(_diag_state(1.0), _diag_state(0.0), SIGMA_X, math.inf).value
        assert got == pytest.approx(1.0, abs=1e-4)

    def test_degenerate_dirac_reports_unbounded(self):
        identity_dirac = DiracSet(np.eye(2, dtype=complex))
        got = connes_distance(_diag_state(1.0), _diag_state(0.0), identity_dirac, math.inf)
        assert math.isinf(got.value)


class TestWitness:
    def test_witness_feasible_and_attains_value(self, rng):
        rho1 = _random_state(rng, 2)
        rho2 = _random_state(rng, 2)
        cert = connes_distance(rho1, rho2, SIGMA_X, 1.0, TIGHT)
        value, f = cert.value, cert.test_function[0]
        assert np.linalg.norm(f, 2) <= 1.0 + 1e-10
        for D in SIGMA_X.operators:
            assert np.linalg.norm(D @ f - f @ D, 2) <= 1.0 + 1e-10
        pairing = abs(np.trace((rho1.matrix - rho2.matrix) @ f).real)
        assert pairing == pytest.approx(value, abs=1e-10)

    def test_unconverged_witness_brackets_the_value(self):
        # the error carries the certificate of the kappa = 5 program itself:
        # its bounds bracket the converged value and its f is feasible there
        rho1, rho2 = _offdiag_state(0.6, 0.2), _offdiag_state(0.6, -0.1)
        value = connes_distance(rho1, rho2, SIGMA_X, 5.0, TIGHT).value
        with pytest.raises(ConvergenceError) as err:
            connes_distance(rho1, rho2, SIGMA_X, 5.0, SolverOptions(max_iterations=1))
        cert = err.value.solution
        assert cert.lower_bound <= value <= cert.upper_bound
        f = cert.test_function[0]
        assert np.linalg.norm(f, 2) <= 5.0 + 1e-10
        assert np.trace((rho1.matrix - rho2.matrix) @ f).real == pytest.approx(cert.value)


class TestScale:
    """The program is solved at ball radius min(kappa, kappa*), and its Newton
    steps do not grow with that radius."""

    @pytest.mark.parametrize("n, m", [(2, 2), (3, 2), (3, 3)])
    def test_iterations_stop_growing_above_sufficient_kappa(self, rng, n, m):
        rho1, rho2 = _random_state(rng, n), _random_state(rng, n)
        ops = DiracSet(np.array([np.diag(rng.normal(size=n)).astype(complex)
                                 + 0.3 * _hermitian(rng, n) for _ in range(m)]))
        kappa = sufficient_kappa(rho1, rho2, ops)
        options = SolverOptions(tolerance=1e-6)
        iterations = [connes_distance(rho1, rho2, ops, factor * kappa, options).iterations
                      for factor in (100, 1e4)]
        assert iterations[1] <= iterations[0]

    @pytest.mark.parametrize("factor", [100, 1e4])
    def test_gap_meets_the_tolerance_far_above_sufficient_kappa(self, rng, factor):
        # the value stops growing at kappa*; solved at ball radius min(kappa, kappa*),
        # the gap meets the tolerance at the value's own scale however far kappa
        # is above kappa*
        for _ in range(4):
            rho1, rho2 = _random_state(rng, 2), _random_state(rng, 2)
            ops = DiracSet(np.array([_hermitian(rng, 2) for _ in range(2)]))
            kappa = factor * sufficient_kappa(rho1, rho2, ops)
            cert = connes_distance(rho1, rho2, ops, kappa, SolverOptions(tolerance=1e-6))
            assert cert.gap <= 1e-6 * cert.value
            assert np.linalg.norm(cert.test_function[0], 2) <= kappa

    def test_large_kappa_with_the_ball_binding_is_cheap(self):
        # the distance grows without bound, so the ball binds at every kappa,
        # and the Newton steps stay flat as kappa grows
        rho1, rho2 = _offdiag_state(0.6, 0.2), _offdiag_state(0.6, -0.1)
        at_one = connes_distance(rho1, rho2, SIGMA_X, 1.0, TIGHT)
        iterations = [at_one.iterations]
        for kappa in (1e3, 1e5):
            cert = connes_distance(rho1, rho2, SIGMA_X, kappa, TIGHT)
            assert cert.value == pytest.approx(at_one.value + 0.6 * (kappa - 1.0), rel=1e-6)
            iterations.append(cert.iterations)
        assert max(iterations) <= 4 * iterations[0]


class TestSolveCount:
    def test_finite_kappa_is_one_solve(self, rng, monkeypatch):
        # the feasible set is symmetric under f -> -f: one linear solve gives
        # sup |tr(sigma f)|, for either order of the states
        calls = _count_ball_solves(monkeypatch)
        rho1, rho2 = _random_state(rng, 2), _random_state(rng, 2)
        forward = connes_distance(rho1, rho2, SIGMA_X, 1.0, TIGHT).value
        assert len(calls) == 1
        backward = connes_distance(rho2, rho1, SIGMA_X, 1.0, TIGHT).value
        assert forward > 0.0
        assert backward == pytest.approx(forward, rel=2e-7)


class TestProbe:
    """The bounded distance along an increasing kappa schedule."""

    def test_qdiffering_slope(self):
        rho1 = _offdiag_state(0.6, 0.2)
        rho2 = _offdiag_state(0.6, -0.1)
        kappas = [1, 2, 4, 8]
        values = [connes_distance(rho1, rho2, SIGMA_X, k, TIGHT).value for k in kappas]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
        assert np.allclose(np.diff(values) / np.diff(kappas), 2 * 0.3, atol=1e-4)

    def test_equal_states_all_zero(self):
        rho = _offdiag_state(0.5, 0.1)
        assert [connes_distance(rho, rho, SIGMA_X, k).value for k in (1, 2, 4)] == [0.0] * 3

    def test_diagonal_difference_saturates(self):
        values = [connes_distance(_diag_state(1.0), _diag_state(0.0), SIGMA_X, k, TIGHT).value
                  for k in (0.25, 0.5, 1.0, 2.0)]
        assert values == pytest.approx([0.5, 1.0, 1.0, 1.0], abs=1e-6)


class TestMetricProperties:
    def test_symmetry_and_triangle(self, rng):
        opts = SolverOptions(tolerance=1e-6)
        for _ in range(6):
            a, b, c = (_random_state(rng, 2) for _ in range(3))
            dab = connes_distance(a, b, SIGMA_X, 1.0, opts).value
            dba = connes_distance(b, a, SIGMA_X, 1.0, opts).value
            dac = connes_distance(a, c, SIGMA_X, 1.0, opts).value
            dcb = connes_distance(c, b, SIGMA_X, 1.0, opts).value
            assert abs(dab - dba) <= 2e-6
            assert dab <= dac + dcb + 2e-6

    def test_monotone_in_kappa(self, rng):
        a, b = _random_state(rng, 3), _random_state(rng, 3)
        D = DiracSet(np.array([np.diag([1.0, 2.0, 3.0])]).astype(complex))
        values = [connes_distance(a, b, D, k).value for k in (0.5, 1.0, 2.0)]
        assert values[0] <= values[1] + 1e-6
        assert values[1] <= values[2] + 1e-6

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError, match="dimension"):
            connes_distance(_random_state(rng, 3), _random_state(rng, 3), SIGMA_X, 1.0)


class TestScalarReduction:
    def test_two_point_reduction_matches_scalar_lp(self, rng):
        # diagonal states with D = sigma_x / d: for diagonal test functions
        # the commutator constraint is |f_1 - f_2| <= d, i.e. a two-point
        # Lipschitz constraint, and off-diagonal f entries influence nothing
        d = 0.8
        dirac = DiracSet(np.array([[0.0, 1.0 / d], [1.0 / d, 0.0]], dtype=complex))
        for kappa in (0.2, 0.7, 3.0):
            p1, p2 = 0.85, 0.15
            rho1, rho2 = _diag_state(p1), _diag_state(p2)
            grid = Grid(np.array([0.0, d]), np.array([1.0, 1.0]))
            mu1 = scalar_measure(grid, [p1, 1.0 - p1])
            mu2 = scalar_measure(grid, [p2, 1.0 - p2])
            lp = w1_kappa_scalar(mu1, mu2, kappa)
            got = connes_distance(rho1, rho2, dirac, kappa, TIGHT).value
            assert got == pytest.approx(lp, abs=1e-6)


def _count_ball_solves(monkeypatch):
    """The iterations of each ball solve, in order."""
    calls = []
    original = connes.solve_ball_program

    def counted(*args, **kwargs):
        solution = original(*args, **kwargs)
        calls.append(solution.iterations)
        return solution

    monkeypatch.setattr(connes, "solve_ball_program", counted)
    return calls


# sigma_x (+) [2]: eigenvalues 1, -1, 2 are distinct, so the commutant is the
# span of the three eigenprojections, larger than span{I}
BLOCK = DiracSet(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0]], dtype=complex))


def _diag3(*p):
    return State(np.diag(p).astype(complex))


class TestInfiniteKappa:
    """kappa = inf: the commutant decides divergence, one bounded solve otherwise."""

    # the identity commutes with everything: its sufficient kappa is 0
    @pytest.mark.parametrize("dirac,kappa_is_zero", [
        (SIGMA_X, False), (DiracSet(np.eye(2, dtype=complex)), True),
    ], ids=["sigma_x", "identity"])
    def test_equal_states_are_zero_without_a_solve(self, monkeypatch, dirac, kappa_is_zero):
        calls = _count_ball_solves(monkeypatch)
        rho = _offdiag_state(0.3, 0.2)
        assert (sufficient_kappa(rho, rho, dirac) == 0.0) is kappa_is_zero
        assert connes_distance(rho, rho, dirac, math.inf).value == 0.0
        assert calls == []

    def test_identity_dirac_is_unbounded_without_a_solve(self, monkeypatch):
        calls = _count_ball_solves(monkeypatch)
        identity = DiracSet(np.eye(2, dtype=complex))
        assert sufficient_kappa(_diag_state(1.0), _diag_state(0.0), identity) == math.inf
        assert connes_distance(_diag_state(1.0), _diag_state(0.0), identity).value == math.inf
        assert calls == []
        # everything commutes, so equal states need no bound at all
        assert sufficient_kappa(_diag_state(0.3), _diag_state(0.3), identity) == 0.0

    def test_offdiagonal_difference_is_unbounded_without_a_solve(self, monkeypatch):
        calls = _count_ball_solves(monkeypatch)
        rho1, rho2 = _offdiag_state(0.6, 0.2), _offdiag_state(0.6, -0.1)
        assert connes_distance(rho1, rho2, SIGMA_X, math.inf).value == math.inf
        assert calls == []

    def test_diagonal_difference_is_one(self, monkeypatch):
        calls = _count_ball_solves(monkeypatch)
        got = connes_distance(_diag_state(1.0), _diag_state(0.0), SIGMA_X, math.inf, TIGHT).value
        assert got == pytest.approx(1.0, rel=2e-7)
        assert len(calls) == 1   # one bounded solve

    def test_large_sufficient_kappa_is_certified(self):
        # D = 1e-7 sigma_x scales the diagonal-difference distance from 1 to
        # 1e7 (kappa* = 7.07e6): kappa = inf is the solve at kappa*, like 1e9
        tiny = DiracSet(1e-7 * SIGMA_X.operators)
        loose = SolverOptions(tolerance=0.5)
        unbounded, bounded = (
            connes_distance(_diag_state(1.0), _diag_state(0.0), tiny, kappa, loose)
            for kappa in (math.inf, 1e9)
        )
        assert (unbounded.value, unbounded.upper_bound, unbounded.iterations) == (
            bounded.value, bounded.upper_bound, bounded.iterations)
        assert 1e6 < unbounded.value <= unbounded.upper_bound < math.inf

    def test_kappa_above_sufficient_kappa_solves_at_it(self):
        # D = 10 sigma_x: kappa* = 0.0707 < 1, so kappa = 1 and kappa = inf
        # are one solve at the same radius
        big = DiracSet(10.0 * SIGMA_X.operators)
        tight = SolverOptions(tolerance=1e-9)
        one, unbounded = (
            connes_distance(_diag_state(1.0), _diag_state(0.0), big, kappa, tight)
            for kappa in (1.0, math.inf)
        )
        assert sufficient_kappa(_diag_state(1.0), _diag_state(0.0), big) < 1.0
        assert (one.value, one.upper_bound, one.iterations, one.feasibility_residual) == (
            unbounded.value, unbounded.upper_bound, unbounded.iterations,
            unbounded.feasibility_residual)
        np.testing.assert_array_equal(one.test_function, unbounded.test_function)

    def test_larger_commutant_unbounded(self):
        # diag(1, 0, -1) pairs with the eigenprojection of the eigenvalue 2
        rho1, rho2 = _diag3(1.0, 0.0, 0.0), _diag3(0.0, 0.0, 1.0)
        assert sufficient_kappa(rho1, rho2, BLOCK) == math.inf
        assert connes_distance(rho1, rho2, BLOCK).value == math.inf

    def test_larger_commutant_finite(self):
        # diag(1, -1, 0) is orthogonal to every eigenprojection; the pinching
        # to the sigma_x block cannot raise commutator norms, so the value is
        # the 2x2 one
        rho1, rho2 = _diag3(1.0, 0.0, 0.0), _diag3(0.0, 1.0, 0.0)
        assert math.isfinite(sufficient_kappa(rho1, rho2, BLOCK))
        assert connes_distance(rho1, rho2, BLOCK, math.inf, TIGHT).value == pytest.approx(
            1.0, rel=2e-7
        )

    @pytest.mark.parametrize("n, m", [(2, 2), (3, 2), (4, 3)])
    def test_sufficient_kappa_is_sufficient(self, rng, n, m):
        # the bounded value stops growing at kappa*: 4 kappa* gives the same
        # value within the certified gaps of the two solves
        rho1, rho2 = _random_state(rng, n), _random_state(rng, n)
        ops = DiracSet(np.array([np.diag(rng.normal(size=n)).astype(complex)
                                 + 0.3 * _hermitian(rng, n) for _ in range(m)]))
        kappa = sufficient_kappa(rho1, rho2, ops)
        at_kappa = connes_distance(rho1, rho2, ops, kappa, TIGHT).value
        beyond = connes_distance(rho1, rho2, ops, 4 * kappa, TIGHT).value
        assert connes_distance(rho1, rho2, ops, math.inf, TIGHT).value == at_kappa
        assert abs(beyond - at_kappa) <= 2e-7 * beyond
        # and the test has teeth: a much smaller bound binds
        assert connes_distance(rho1, rho2, ops, kappa / 64, TIGHT).value < at_kappa


def _hermitian(rng, n):
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (A + A.conj().T)


def _recipe(index):
    """Instance ``index`` of a seeded family of random Connes problems: n = 2, 3, 4
    and 1, 2, 3 Dirac operators in turn, each operator scaled by 10^U(-2, 2)."""
    rng = np.random.default_rng(7)
    for i in range(index + 1):
        n, m = (2, 3, 4)[i % 3], 1 + i % 3
        rho1, rho2 = _random_state(rng, n), _random_state(rng, n)
        ops = DiracSet(np.array([_hermitian(rng, n) * 10 ** rng.uniform(-2, 2)
                                 for _ in range(m)]))
    return rho1, rho2, ops


def _gen_spectra_pair():
    """The states of ``dist --metric connes`` on 4-point ``gen-spectra`` files."""
    grid = make_uniform_grid(4, 0.0, math.pi)
    return tuple(State(benchmark_measure(i, grid).masses.sum(axis=0)) for i in (0, 1))


def _stall(name):
    if name == "tiny-sigma-x":
        return _diag_state(1.0), _diag_state(0.0), DiracSet(1e-7 * SIGMA_X.operators), math.inf
    if name == "near-degenerate":
        near = DiracSet(np.diag([1.0, 1.0 + 1e-6]).astype(complex))
        return _offdiag_state(0.5, 0.2), _offdiag_state(0.5, 0.1), near, math.inf
    if name == "large-entry":
        large = DiracSet(np.array([[1e10, 0.5], [0.5, -1.0]], dtype=complex))
        return (*_gen_spectra_pair(), large, 1.0)
    return (*_recipe(int(name.split("-")[1])), math.inf)


class TestInteriorPoint:
    """The Connes ball program is one small semidefinite program, solved by a
    primal-dual interior-point method in a few Newton steps."""

    # each ran the whole 200,000-iteration budget of the first-order solver;
    # kappa* = 7.07e6 for 1e-7 sigma_x, whose distance is 1e7, and 1.41e6 for
    # the nearly degenerate pair, whose distance is 2e5
    @pytest.mark.parametrize("name, value", [
        ("tiny-sigma-x", 1e7), ("near-degenerate", 2e5), ("large-entry", None),
        ("recipe-4", None), ("recipe-7", None), ("recipe-34", None), ("recipe-37", None)])
    def test_recorded_stall_certifies_in_few_newton_steps(self, name, value):
        rho1, rho2, ops, kappa = _stall(name)
        cert = connes_distance(rho1, rho2, ops, kappa, SolverOptions(max_iterations=30))
        assert 0.0 < cert.value <= cert.upper_bound < math.inf
        assert cert.gap <= 1e-6 * cert.upper_bound
        if value is not None:
            assert cert.value <= value <= cert.upper_bound
        radius = min(kappa, sufficient_kappa(rho1, rho2, ops))
        f = cert.test_function[0]
        assert np.linalg.norm(f, 2) <= radius * (1 + 1e-12)
        for D in ops.operators:
            assert np.linalg.norm(D @ f - f @ D, 2) <= 1.0 + 1e-9

    @pytest.mark.parametrize("n, m, kappa", [(2, 1, 1.0), (3, 2, 1.0), (3, 2, math.inf),
                                             (4, 3, 0.5)])
    def test_unitary_invariance(self, rng, n, m, kappa):
        # d(U rho1 U*, U rho2 U*; U D U*) = d(rho1, rho2; D), as overlapping brackets
        rho1, rho2 = _random_state(rng, n), _random_state(rng, n)
        ops = np.array([_hermitian(rng, n) for _ in range(m)])
        U, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        turned = [State(U @ rho.matrix @ U.conj().T) for rho in (rho1, rho2)]
        a = connes_distance(rho1, rho2, DiracSet(ops), kappa)
        b = connes_distance(*turned, DiracSet(U @ ops @ U.conj().T), kappa)
        assert max(a.value, b.value) <= min(a.upper_bound, b.upper_bound)
        assert a.gap <= 1e-6 * a.upper_bound and b.gap <= 1e-6 * b.upper_bound

    @pytest.mark.parametrize("tolerance", [1e-12, 1e-15])
    def test_tight_tolerance_never_inverts_the_bracket(self, tolerance):
        # roundoff ends the solve with ConvergenceError, after a few Newton
        # steps and with an ordered bracket, or the bracket certifies ordered
        options = SolverOptions(tolerance=tolerance)
        for index in range(12):
            rho1, rho2, ops = _recipe(index)
            for kappa in (1.0, min(1e3, sufficient_kappa(rho1, rho2, ops))):
                try:
                    cert = connes_distance(rho1, rho2, ops, kappa, options)
                except ConvergenceError as err:
                    cert = err.solution
                    assert "improved neither bound" in str(err) or "broke down" in str(err)
                else:
                    assert cert.gap <= tolerance * cert.upper_bound
                assert cert.value <= cert.upper_bound
                assert cert.iterations <= 60

    def test_flow_recomputes_the_upper_bound(self, rng):
        # upper_bound = radius ||sigma - sum_e i[D_e, Y_e]||_* + sum_e ||Y_e||_*
        for n, m, kappa in ((2, 1, 1.0), (3, 2, math.inf), (4, 3, 2.0)):
            rho1, rho2 = _random_state(rng, n), _random_state(rng, n)
            ops = DiracSet(np.array([_hermitian(rng, n) for _ in range(m)]))
            cert = connes_distance(rho1, rho2, ops, kappa)
            radius = min(kappa, sufficient_kappa(rho1, rho2, ops))
            Y = cert.flow
            assert Y.shape == (m, n, n)
            np.testing.assert_allclose(Y, Y.conj().swapaxes(-1, -2), atol=1e-15)

            def nuclear(M):
                return np.linalg.svd(M, compute_uv=False).sum()

            slack = rho1.matrix - rho2.matrix - sum(
                1j * (D @ Ye - Ye @ D) for D, Ye in zip(ops.operators, Y))
            upper = radius * nuclear(slack) + sum(nuclear(Ye) for Ye in Y)
            assert upper == pytest.approx(cert.upper_bound, rel=1e-12)

    def test_schur_eigendecomposition_fallback(self, rng):
        # a singular Schur pivot fails Cholesky and is inverted through its
        # eigendecomposition with floored eigenvalues, so it is no breakdown:
        # M = [[1, 1], [1, 1]]
        ones = np.ones((1, 2, 2))
        solve = ipm._block_solver(ones, np.zeros((1, 2, 2)))
        np.testing.assert_allclose(solve(np.array([[2.0, 2.0]])), [[1.0, 1.0]])
        rho1, rho2 = _random_state(rng, 3), _random_state(rng, 3)
        ops = DiracSet(np.array([_hermitian(rng, 3) for _ in range(2)]))
        cert = connes_distance(rho1, rho2, ops, 1.0)
        assert cert.gap <= 1e-6 * cert.upper_bound
        oracle = pdhg_ball_program(connes._commutator_program(
            rho1.matrix - rho2.matrix, ops, connes._commutators(ops.operators), 1.0),
            SolverOptions())
        assert max(cert.value, oracle.value) <= min(cert.upper_bound, oracle.upper_bound)

    def test_brackets_overlap_with_the_first_order_solver(self, rng):
        # the program as the first-order solver sees it, solved by both
        for n, m, kappa in ((2, 1, 1.0), (3, 2, 0.5), (3, 1, 2.0)):
            rho1, rho2 = _random_state(rng, n), _random_state(rng, n)
            ops = DiracSet(np.array([_hermitian(rng, n) for _ in range(m)]))
            A = connes._commutators(ops.operators)
            program = connes._commutator_program(rho1.matrix - rho2.matrix, ops, A, kappa)
            first_order = pdhg_ball_program(program, SolverOptions())
            newton = ipm.solve_ball_program(program, SolverOptions())
            assert newton.iterations < 30 < first_order.iterations
            assert max(newton.value, first_order.value) <= min(newton.upper_bound,
                                                               first_order.upper_bound)
