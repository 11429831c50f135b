import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdist import (
    lp_simplex,
    kolmogorov,
    make_uniform_grid,
    scalar_measure,
    tv_matrix,
    w1_balanced,
    w1_kappa_scalar,
    w1_kappa_scalar_all_pairs,
)
from specdist.measures import Grid, MatrixMeasure
from specdist.scalar_metrics import _w1_kappa_lp, w1_kappa_chain

from conftest import flow_cost, random_grid, random_scalar_measure, transport_lp_value


def _point_mass(grid, index, weight=1.0):
    values = np.zeros(grid.size)
    values[index] = weight
    return scalar_measure(grid, values)


class TestTvScalar:
    """The scalar total variation is tv_matrix at n = 1."""

    def test_disjoint_unit_masses(self, rng):
        grid = random_grid(rng, 5)
        assert tv_matrix(_point_mass(grid, 0), _point_mass(grid, 3)) == pytest.approx(2.0)

    def test_identical(self, rng):
        mu = random_scalar_measure(rng, random_grid(rng, 6))
        assert tv_matrix(mu, mu) == 0.0

    def test_matches_matrix_tv(self, rng):
        # a scalar pair and its embedding as the (0, 0) entry of 2x2 masses
        grid = random_grid(rng, 6)
        mu1 = random_scalar_measure(rng, grid)
        mu2 = random_scalar_measure(rng, grid)

        def embed(mu):
            masses = np.zeros((grid.size, 2, 2), dtype=complex)
            masses[:, 0, 0] = mu.scalar_values()
            return MatrixMeasure(grid, masses)

        assert tv_matrix(mu1, mu2) == pytest.approx(tv_matrix(embed(mu1), embed(mu2)),
                                                    abs=1e-12)


class TestKolmogorov:
    def test_separated_steps(self, rng):
        grid = random_grid(rng, 7)
        assert kolmogorov(_point_mass(grid, 0), _point_mass(grid, 6)) == pytest.approx(1.0)

    def test_identical(self, rng):
        mu = random_scalar_measure(rng, random_grid(rng, 6))
        assert kolmogorov(mu, mu) == 0.0

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_brute_force_cdf_oracle(self, seed):
        rng = np.random.default_rng(seed)
        grid = random_grid(rng, 8)
        mu1 = random_scalar_measure(rng, grid)
        mu2 = random_scalar_measure(rng, grid)
        m1, m2 = mu1.scalar_values(), mu2.scalar_values()
        best = 0.0
        for k in range(8):  # independent running-sum scan
            f1 = sum(float(v) for v in m1[: k + 1])
            f2 = sum(float(v) for v in m2[: k + 1])
            best = max(best, abs(f1 - f2))
        assert kolmogorov(mu1, mu2) == pytest.approx(best, abs=1e-12)


class TestW1Balanced:
    def test_two_diracs(self, rng):
        grid = random_grid(rng, 6)
        d = abs(grid.points[4] - grid.points[1])
        got = w1_balanced(_point_mass(grid, 1), _point_mass(grid, 4))
        assert got == pytest.approx(d, abs=1e-12)

    def test_identical(self, rng):
        mu = random_scalar_measure(rng, random_grid(rng, 6))
        assert w1_balanced(mu, mu) == 0.0

    def test_rejects_unequal_mass(self, rng):
        grid = random_grid(rng, 4)
        with pytest.raises(ValueError, match="w1_kappa_scalar"):
            w1_balanced(_point_mass(grid, 0, 1.0), _point_mass(grid, 1, 2.0))

    @given(st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_transport_lp_oracle(self, seed):
        rng = np.random.default_rng(seed)
        K = int(rng.integers(2, 7))
        grid = random_grid(rng, K)
        m1 = rng.uniform(0.1, 1.0, size=K)
        m2 = rng.uniform(0.1, 1.0, size=K)
        m2 *= m1.sum() / m2.sum()
        mu1, mu2 = scalar_measure(grid, m1), scalar_measure(grid, m2)
        assert w1_balanced(mu1, mu2) == pytest.approx(
            transport_lp_value(mu1, mu2), abs=1e-8
        )


class TestW1KappaScalar:
    def test_two_point_analytic(self, rng):
        grid = random_grid(rng, 6)
        mu1, mu2 = _point_mass(grid, 0), _point_mass(grid, 5)
        d = abs(grid.points[5] - grid.points[0])
        for kappa in (0.1, 0.5, 2.0, 10.0):
            expected = min(d, 2 * kappa)
            assert w1_kappa_scalar(mu1, mu2, kappa) == pytest.approx(expected, abs=1e-9)

    def test_identical(self, rng):
        mu = random_scalar_measure(rng, random_grid(rng, 5))
        assert w1_kappa_scalar(mu, mu, 1.0) == 0.0

    def test_rejects_nonpositive_kappa(self, rng):
        mu = random_scalar_measure(rng, random_grid(rng, 3))
        with pytest.raises(ValueError, match="kappa"):
            w1_kappa_scalar(mu, mu, 0.0)

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_adjacent_equals_all_pairs(self, seed):
        """The telescoping reduction must be exact, not an approximation."""
        rng = np.random.default_rng(seed)
        K = int(rng.integers(2, 7))
        grid = random_grid(rng, K)
        mu1 = random_scalar_measure(rng, grid)
        mu2 = random_scalar_measure(rng, grid)
        kappa = float(rng.choice([0.3, 1.0, 3.0]))
        adjacent = w1_kappa_scalar(mu1, mu2, kappa)
        full = w1_kappa_scalar_all_pairs(mu1, mu2, kappa)
        assert adjacent == pytest.approx(full, abs=1e-9)

    @given(st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_symmetry_and_kappa_monotonicity(self, seed):
        rng = np.random.default_rng(seed)
        grid = random_grid(rng, 5)
        mu1 = random_scalar_measure(rng, grid)
        mu2 = random_scalar_measure(rng, grid)
        d12 = w1_kappa_scalar(mu1, mu2, 1.0)
        assert abs(d12 - w1_kappa_scalar(mu2, mu1, 1.0)) <= 1e-9
        assert w1_kappa_scalar(mu1, mu2, 0.4) <= d12 + 1e-9
        assert d12 <= w1_kappa_scalar(mu1, mu2, 2.5) + 1e-9

    @given(st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_tv_bound(self, seed):
        rng = np.random.default_rng(seed)
        grid = random_grid(rng, 6)
        mu1 = random_scalar_measure(rng, grid)
        mu2 = random_scalar_measure(rng, grid)
        kappa = float(rng.choice([0.3, 1.0, 3.0]))
        assert w1_kappa_scalar(mu1, mu2, kappa) <= kappa * tv_matrix(mu1, mu2) + 1e-9

    def test_equal_mass_large_kappa_matches_balanced(self, rng):
        for _ in range(10):
            K = int(rng.integers(2, 7))
            grid = random_grid(rng, K)
            m1 = rng.uniform(0.1, 1.0, size=K)
            m2 = rng.uniform(0.1, 1.0, size=K)
            m2 *= m1.sum() / m2.sum()
            mu1, mu2 = scalar_measure(grid, m1), scalar_measure(grid, m2)
            kappa = float(grid.points[-1] - grid.points[0]) + 0.5
            assert w1_kappa_scalar(mu1, mu2, kappa) == pytest.approx(
                w1_balanced(mu1, mu2), abs=1e-8
            )

    def test_weak_continuity_of_shrinking_translation(self):
        # unit diracs at 0 and h: the unbalanced metric vanishes linearly
        # with h while total variation stays at 2
        values = []
        for h in (0.4, 0.2, 0.1, 0.05):
            grid = Grid(np.array([0.0, h]), np.array([1.0, 1.0]))
            mu1 = scalar_measure(grid, [1.0, 0.0])
            mu2 = scalar_measure(grid, [0.0, 1.0])
            assert tv_matrix(mu1, mu2) == pytest.approx(2.0)
            values.append(w1_kappa_scalar(mu1, mu2, 1.0))
        assert np.allclose(values, [0.4, 0.2, 0.1, 0.05], atol=1e-9)

    def test_grid_mismatch(self, rng):
        mu1 = random_scalar_measure(rng, random_grid(rng, 4))
        mu2 = random_scalar_measure(rng, random_grid(rng, 4))
        with pytest.raises(ValueError, match="grids"):
            w1_kappa_scalar(mu1, mu2, 1.0)


class TestChainSolver:
    """The exact chain solver's test function and dual edge flow against the
    dense simplex on the same program."""

    @staticmethod
    def _check(points, delta, kappa):
        gaps = np.diff(points)
        value, f, phi = w1_kappa_chain(delta, gaps, kappa)
        ref, _ = lp_simplex(_w1_kappa_lp(points, delta, kappa, all_pairs=False))
        assert abs(value - ref) <= 1e-10 * max(abs(ref), 1e-300) or value == ref == 0.0
        # the returned test function is the certificate
        assert np.all(np.abs(f) <= kappa)
        assert np.all(np.abs(np.diff(f)) <= gaps + 1e-14 * kappa)
        assert math.fsum(delta * f) == value   # the correctly rounded pairing
        # and the flow's cost, an upper bound, meets it (LP duality)
        assert phi.shape == (points.size - 1,)
        cost = flow_cost(delta, gaps, kappa, phi)
        assert abs(cost - ref) <= 1e-12 * max(abs(ref), 1e-300) or cost == ref == 0.0
        return value

    @pytest.mark.parametrize("kappa", [0.05, 0.3, 1.0, 10.0])
    @pytest.mark.parametrize("K", [1, 2, 3, 5, 8, 13, 34, 89, 200])
    def test_matches_simplex_on_nonuniform_grids(self, K, kappa):
        rng = np.random.default_rng([K, int(100 * kappa)])
        points = random_grid(rng, K).points
        self._check(points, rng.normal(size=K) * rng.uniform(0.01, 2.0, size=K), kappa)

    @pytest.mark.parametrize("kappa", [0.05, 0.3, 1.0, 10.0])
    @pytest.mark.parametrize("K", [2, 5, 13, 89, 200])
    @pytest.mark.parametrize("shape", ["rounded", "sparse"])
    def test_degenerate_differences(self, shape, K, kappa):
        # ties and exact zeros: residuals and flows that vanish in exact
        # arithmetic come out of the flow solver as roundoff, which must not
        # pin the test function at a bound
        rng = np.random.default_rng([K, int(100 * kappa), len(shape)])
        points = random_grid(rng, K).points
        delta = rng.normal(size=K)
        if shape == "rounded":
            delta = np.round(delta, 1)
        else:
            delta[rng.uniform(size=K) < 0.7] = 0.0
        self._check(points, delta, kappa)

    @pytest.mark.parametrize("kappa", [0.05, 0.3, 1.0, 10.0])
    def test_one_signed_and_equal_measures(self, kappa):
        rng = np.random.default_rng(int(100 * kappa))
        points = random_grid(rng, 40).points
        mass = rng.uniform(0.0, 1.0, size=40)
        assert self._check(points, mass, kappa) > 0.0
        assert self._check(points, -mass, kappa) > 0.0
        assert self._check(points, np.zeros(40), kappa) == 0.0

    @pytest.mark.parametrize("kappa", [1e-17, 1e-12, 1e-6])
    def test_kappa_far_below_the_gaps(self, kappa):
        # no mass moves: f = kappa sign(delta), phi = 0, value kappa * TV
        rng = np.random.default_rng(11)
        points = random_grid(rng, 30).points
        delta, gaps = rng.normal(size=30), np.diff(points)
        value, f, phi = w1_kappa_chain(delta, gaps, kappa)
        assert value == pytest.approx(kappa * np.abs(delta).sum(), rel=1e-14)
        assert not phi.any()

    def test_one_point_grid(self):
        for delta in (0.7, -0.7, 0.0):
            value, f, phi = w1_kappa_chain(np.array([delta]), np.zeros(0), 0.3)
            assert value == pytest.approx(0.3 * abs(delta), abs=1e-15)
            assert f.shape == (1,)
            assert phi.shape == (0,)

    def test_rejects_mismatched_gaps(self):
        with pytest.raises(ValueError, match="gaps"):
            w1_kappa_chain(np.ones(4), np.ones(4), 1.0)

    @pytest.mark.parametrize("kappa", [-1.0, 0.0, float("nan"), float("inf")])
    def test_rejects_invalid_kappa(self, kappa):
        with pytest.raises(ValueError, match="kappa"):
            w1_kappa_chain(np.array([1.0, 0.0, -1.0]), np.ones(2), kappa)

    @pytest.mark.parametrize("delta, gaps", [
        ([1.0, float("nan"), -1.0], [1.0, 1.0]),
        ([1.0, float("inf"), -1.0], [1.0, 1.0]),
        ([1.0, 0.0, -1.0], [1.0, -0.5]),
        ([1.0, 0.0, -1.0], [1.0, float("nan")]),
        ([1.0, 0.0, -1.0], [1.0, float("inf")]),
    ], ids=["nan-delta", "inf-delta", "negative-gap", "nan-gap", "inf-gap"])
    def test_rejects_nonfinite_or_negative_input(self, delta, gaps):
        with pytest.raises(ValueError, match="finite"):
            w1_kappa_chain(np.array(delta), np.array(gaps), 1.0)

    def test_flow_is_optimal_under_perturbation(self, rng):
        # phi minimizes a convex cost: moving it anywhere raises the cost
        points = random_grid(rng, 30).points
        delta, gaps = rng.normal(size=30), np.diff(points)
        phi = w1_kappa_chain(delta, gaps, 1.0)[2]
        cost = flow_cost(delta, gaps, 1.0, phi)
        for _ in range(20):
            moved = phi + 1e-3 * rng.normal(size=phi.size)
            assert flow_cost(delta, gaps, 1.0, moved) > cost

    def test_rejects_infinite_kappa(self, rng):
        mu = random_scalar_measure(rng, random_grid(rng, 3))
        with pytest.raises(ValueError, match="kappa"):
            w1_kappa_scalar(mu, mu, float("inf"))
