import cmath
import math

import numpy as np
import pytest

from specdist import (
    AR_FACTORS,
    MatrixMeasure,
    ar_poly_abs2,
    benchmark_density,
    benchmark_measure,
    density_plot_data,
    itakura_saito,
    paper_grid,
    total_mass,
)
from specdist.linalg import hermiticity_violation
from specdist.measures import Grid

from conftest import random_psd


class TestArPoly:
    def test_empty_product(self):
        assert ar_poly_abs2((), 1.2345) == pytest.approx(1.0)

    def test_direct_substitution_at_zero(self):
        # at theta = 0 every factor is the real number 1 - 2 r cos(phi) + r^2
        val = (1 - 1.9 * math.cos(math.pi / 6) + 0.95**2) * (
            1 - 1.5 * math.cos(math.pi / 3) + 0.75**2
        )
        assert ar_poly_abs2(AR_FACTORS[0], 0.0) == pytest.approx(val**2, rel=1e-12)

    def test_single_factor_against_complex_arithmetic(self):
        r, phi = 0.6, 1.1
        z = cmath.exp(1j * phi)
        expected = abs(1 - 2 * r * math.cos(phi) * z + r * r * z * z) ** 2
        assert ar_poly_abs2(((r, phi),), phi) == pytest.approx(expected, rel=1e-12)

    def test_bounded_away_from_zero_on_dense_scan(self):
        thetas = np.linspace(0.0, math.pi, 10_000)
        for factors in AR_FACTORS:
            assert ar_poly_abs2(factors, thetas).min() > 0.0


class TestBenchmarkDensity:
    def test_f0_cross_entry_phase_is_zero(self):
        thetas = np.linspace(0, math.pi, 50)
        s = benchmark_density(0, thetas)
        assert np.abs(s[:, 0, 1].imag).max() == 0.0

    def test_f0_lower_right_entry(self):
        thetas = np.linspace(0, math.pi, 50)
        s = benchmark_density(0, thetas)
        expected = 1.0 / ar_poly_abs2(AR_FACTORS[0], thetas)
        assert np.allclose(s[:, 1, 1].real, expected, rtol=1e-12)

    def test_f2_upper_left_entry(self):
        thetas = np.linspace(0, math.pi, 50)
        s = benchmark_density(2, thetas)
        expected = 1.0 / ar_poly_abs2(AR_FACTORS[2], thetas)
        assert np.allclose(s[:, 0, 0].real, expected, rtol=1e-12)

    def test_f1_strictly_positive_definite_on_grid(self):
        s = benchmark_density(1, paper_grid().points)
        assert np.linalg.eigvalsh(s).min() > 0.0

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_hermitian_psd_everywhere(self, index):
        s = benchmark_density(index, paper_grid().points)
        assert hermiticity_violation(s) <= 1e-15
        scale = np.abs(np.linalg.eigvalsh(s)).max()
        assert np.linalg.eigvalsh(s).min() >= -1e-12 * scale

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError, match="index"):
            benchmark_density(3, 0.1)

    def test_peak_frequencies(self):
        # power concentrates near the designed pole angles
        thetas = paper_grid().points
        tr0 = np.einsum("kii->k", benchmark_density(0, thetas)).real
        tr2 = np.einsum("kii->k", benchmark_density(2, thetas)).real
        assert abs(thetas[np.argmax(tr0)] - math.pi / 6) < 0.2
        assert abs(thetas[np.argmax(tr2)] - 2 * math.pi / 3) < 0.2


class TestBenchmarkMeasure:
    def test_unit_total_trace_by_default(self):
        for i in range(3):
            mass = total_mass(benchmark_measure(i))
            assert np.trace(mass).real == pytest.approx(1.0, abs=1e-12)

    def test_raw_measure_keeps_power(self):
        raw = benchmark_measure(0, normalize=False)
        assert np.trace(total_mass(raw)).real > 100.0


def _measure(densities, weight=1.0, thetas=None):
    """Measure with the given densities on a grid of equal weights."""
    K = len(densities)
    thetas = np.arange(K, dtype=float) if thetas is None else thetas
    return MatrixMeasure(Grid(thetas, np.full(K, weight)), weight * np.asarray(densities))


class TestItakuraSaito:
    def test_identical_densities(self, rng):
        f = _measure([random_psd(rng, 2) + 0.1 * np.eye(2) for _ in range(5)])
        assert itakura_saito(f, f) == pytest.approx(0.0, abs=1e-12)

    def test_asymmetry_on_benchmark_data(self):
        f0 = benchmark_measure(0, normalize=False)
        f1 = benchmark_measure(1, normalize=False)
        forward = itakura_saito(f0, f1)
        backward = itakura_saito(f1, f0)
        assert abs(forward - backward) > 1.0

    def test_nonnegative_zero_iff_equal(self, rng):
        for _ in range(10):
            f = _measure([random_psd(rng, 2) + 0.1 * np.eye(2) for _ in range(4)])
            g = _measure([random_psd(rng, 2) + 0.1 * np.eye(2) for _ in range(4)])
            val = itakura_saito(f, g)
            assert val >= 0.0
            assert val > 1e-8  # distinct random densities never coincide

    def test_quadrature_weights_scale_result(self, rng):
        f = [random_psd(rng, 2) + 0.1 * np.eye(2) for _ in range(4)]
        g = [random_psd(rng, 2) + 0.1 * np.eye(2) for _ in range(4)]
        plain = itakura_saito(_measure(f), _measure(g))
        mu, nu = _measure(f, 0.25), _measure(g, 0.25)
        assert itakura_saito(mu, nu) == pytest.approx(plain, rel=1e-12)
        assert itakura_saito(mu, nu, weighted=True) == pytest.approx(0.25 * plain, rel=1e-12)

    def test_singular_second_density_names_point(self):
        f = _measure([np.eye(2)] * 3)
        g = _measure([np.eye(2), np.diag([1.0, 0.0]), np.eye(2)])
        with pytest.raises(ValueError, match="second density is singular at theta=1"):
            itakura_saito(f, g)

    def test_singular_with_thetas_names_frequency(self):
        thetas = np.array([0.25, 0.5])
        f = _measure([np.diag([1.0, 0.0]), np.eye(2)], thetas=thetas)
        g = _measure([np.eye(2)] * 2, thetas=thetas)
        with pytest.raises(ValueError, match="first density is singular at theta=0.25"):
            itakura_saito(f, g)

    def test_singular_at_a_middle_point_names_the_first_one(self):
        # both densities fail inside the grid; the first failing point is named,
        # and the second density before the first at the same point
        thetas = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        f = [np.eye(2), np.eye(2), np.diag([1.0, 0.0]), np.eye(2), np.diag([0.0, 1.0])]
        g = [np.eye(2), np.eye(2), np.eye(2), np.diag([1.0, 0.0]), np.eye(2)]
        with pytest.raises(ValueError, match="first density is singular at theta=0.3"):
            itakura_saito(_measure(f, thetas=thetas), _measure(g, thetas=thetas))
        g[2] = np.diag([0.0, 1.0])
        with pytest.raises(ValueError, match="second density is singular at theta=0.3"):
            itakura_saito(_measure(f, thetas=thetas), _measure(g, thetas=thetas))

    def test_batched_matches_the_pointwise_divergence(self, rng):
        f = [random_psd(rng, 3) + 0.1 * np.eye(3) for _ in range(7)]
        g = [random_psd(rng, 3) + 0.1 * np.eye(3) for _ in range(7)]
        lam = [np.linalg.eigvals(np.linalg.solve(gk, fk)).real for fk, gk in zip(f, g)]
        expected = sum(float((x - np.log(x) - 1.0).sum()) for x in lam)
        assert itakura_saito(_measure(f), _measure(g)) == pytest.approx(expected, rel=1e-12)


class TestPlotData:
    def test_columns_present_and_sized(self):
        data = density_plot_data()
        assert data["theta"].size == 36
        for i in range(3):
            for col in (f"f{i}_11_abs", f"f{i}_12_abs", f"f{i}_12_angle", f"f{i}_22_abs"):
                assert data[col].size == 36

    def test_f0_angle_column_is_zero(self):
        data = density_plot_data()
        assert np.abs(data["f0_12_angle"]).max() == 0.0

    def test_f1_angle_matches_construction(self):
        # the cross entry of f1 is g * 0.5 * (1 + exp(-j theta))
        data = density_plot_data()
        theta = data["theta"][1:-1]
        expected = np.angle(1.0 + np.exp(-1j * theta))
        assert np.allclose(data["f1_12_angle"][1:-1], expected, atol=1e-12)
