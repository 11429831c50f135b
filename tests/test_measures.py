import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdist import (
    Grid,
    MatrixMeasure,
    density_to_measure,
    load_measure,
    make_uniform_grid,
    save_measure,
    scalar_measure,
    total_mass,
    tv_matrix,
)
from specdist import benchmark_measure

from conftest import random_grid, random_matrix_measure, random_psd


class TestGrid:
    def test_two_point_trapezoid(self):
        g = make_uniform_grid(2, 0.0, 1.0)
        assert np.allclose(g.points, [0.0, 1.0])
        assert np.allclose(g.weights, [0.5, 0.5])

    def test_paper_resolution(self):
        g = make_uniform_grid(36, 0.0, np.pi)
        assert np.allclose(np.diff(g.points), np.pi / 35)

    def test_weights_sum_to_length(self):
        g = make_uniform_grid(17, -1.0, 2.5)
        assert g.weights.sum() == pytest.approx(3.5, abs=1e-12)

    @pytest.mark.parametrize("K,a,b", [(1, 0, 1), (0, 0, 1), (5, 1.0, 1.0), (5, 2.0, 1.0)])
    def test_invalid_uniform_args(self, K, a, b):
        with pytest.raises(ValueError):
            make_uniform_grid(K, a, b)

    def test_rejects_unsorted_points(self):
        with pytest.raises(ValueError, match="increasing"):
            Grid(np.array([0.0, 2.0, 1.0]), np.ones(3))

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError, match="positive"):
            Grid(np.array([0.0, 1.0]), np.array([1.0, 0.0]))

    @pytest.mark.parametrize("points,weights", [
        ([0.0, np.inf], [1.0, np.inf]),
        ([np.nan], [1.0]),
        ([0.0, 1.0], [1.0, np.nan]),
        ([-np.inf, 0.0], [1.0, 1.0]),
    ])
    def test_rejects_nonfinite_points_and_weights(self, points, weights):
        with pytest.raises(ValueError, match="finite"):
            Grid(np.array(points), np.array(weights))

    def test_rejects_overflowing_spacing(self):
        # finite points whose difference exceeds the largest float
        with pytest.raises(ValueError, match="finite spacings"):
            Grid(np.array([-1e308, 1e308]), np.ones(2))
        assert Grid(np.array([-8e307, 8e307]), np.ones(2)).spacings[0] == 1.6e308

    def test_immutability(self):
        g = make_uniform_grid(3, 0.0, 1.0)
        with pytest.raises(ValueError):
            g.points[0] = 7.0


class TestMatrixMeasure:
    def test_rejects_non_psd_mass(self):
        grid = make_uniform_grid(2, 0.0, 1.0)
        masses = np.array([np.diag([1.0, -0.5]), np.eye(2)], dtype=complex)
        with pytest.raises(ValueError, match="not PSD"):
            MatrixMeasure(grid, masses)

    def test_rejects_non_psd_mass_in_any_unit(self):
        # the floor scales with the measure's largest operator norm; an absolute
        # floor of 1e-10 accepted this pair from 10^-10 on
        grid = make_uniform_grid(2, 0.0, 1.0)
        masses = np.array([np.diag([1.0, -0.5]), np.eye(2)], dtype=complex)
        for p in range(151):
            with pytest.raises(ValueError, match="not PSD"):
                MatrixMeasure(grid, masses * 10.0 ** -p)

    def test_error_names_grid_point(self):
        grid = make_uniform_grid(3, 0.0, 2.0)
        masses = np.array([np.eye(2), np.diag([1.0, -1.0]), np.eye(2)], dtype=complex)
        with pytest.raises(ValueError, match="theta=1"):
            MatrixMeasure(grid, masses)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite_mass(self, bad):
        grid = make_uniform_grid(2, 0.0, 1.0)
        masses = np.array([np.eye(2), np.diag([1.0, bad])], dtype=complex)
        with pytest.raises(ValueError, match="finite"):
            MatrixMeasure(grid, masses)

    def test_mass_count_must_match_grid(self):
        grid = make_uniform_grid(3, 0.0, 1.0)
        with pytest.raises(ValueError, match="grid"):
            MatrixMeasure(grid, np.array([np.eye(2)] * 2, dtype=complex))

    def test_scalar_values_roundtrip(self, rng):
        grid = random_grid(rng, 5)
        values = rng.uniform(0, 2, size=5)
        mu = scalar_measure(grid, values)
        assert mu.dim == 1
        assert np.allclose(mu.scalar_values(), values)

    def test_scalar_values_rejects_matrix_measure(self, rng):
        mu = random_matrix_measure(rng, random_grid(rng, 3), 2)
        with pytest.raises(ValueError, match="scalar"):
            mu.scalar_values()


class TestDensityToMeasure:
    def test_constant_scalar_density(self):
        grid = make_uniform_grid(36, 0.0, np.pi)
        mu = density_to_measure(grid, lambda t: 1.0)
        assert total_mass(mu)[0, 0].real == pytest.approx(np.pi, abs=1e-12)

    def test_constant_identity_density(self):
        grid = make_uniform_grid(36, 0.0, np.pi)
        mu = density_to_measure(grid, lambda t: np.eye(2, dtype=complex))
        assert np.abs(total_mass(mu) - np.pi * np.eye(2)).max() <= 1e-12

    def test_rejects_non_psd_sample(self):
        grid = make_uniform_grid(3, 0.0, 2.0)

        def density(t):
            return np.diag([1.0, -1.0]) if t > 1.5 else np.eye(2)

        with pytest.raises(ValueError, match="theta=2"):
            density_to_measure(grid, density)

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_linear_in_density(self, seed):
        rng = np.random.default_rng(seed)
        grid = make_uniform_grid(7, 0.0, 1.0)
        A = [random_psd(rng, 2) for _ in range(7)]
        B = [random_psd(rng, 2) for _ in range(7)]
        lut_a = dict(zip(grid.points, A))
        lut_b = dict(zip(grid.points, B))
        mu_a = density_to_measure(grid, lambda t: lut_a[t])
        mu_b = density_to_measure(grid, lambda t: lut_b[t])
        mu_sum = density_to_measure(grid, lambda t: lut_a[t] + lut_b[t])
        assert np.abs(mu_sum.masses - mu_a.masses - mu_b.masses).max() <= 1e-12


class TestTotalMass:
    def test_zero_measure(self):
        grid = make_uniform_grid(4, 0.0, 1.0)
        mu = MatrixMeasure(grid, np.zeros((4, 2, 2), dtype=complex))
        assert np.abs(total_mass(mu)).max() == 0.0

    def test_unit_point_mass(self):
        grid = make_uniform_grid(4, 0.0, 1.0)
        values = np.array([1.0, 0.0, 0.0, 0.0])
        assert total_mass(scalar_measure(grid, values))[0, 0].real == pytest.approx(1.0)

    def test_benchmark_measure_mass_is_psd_with_positive_diagonal(self):
        mass = total_mass(benchmark_measure(1))
        assert np.linalg.eigvalsh(mass).min() >= 0.0
        assert mass[0, 0].real > 0 and mass[1, 1].real > 0


class TestTvMatrix:
    def test_identical_measures(self, rng):
        mu = random_matrix_measure(rng, random_grid(rng, 5), 2)
        assert tv_matrix(mu, mu) == 0.0

    def test_paper_value(self):
        mu0 = benchmark_measure(0)
        mu1 = benchmark_measure(1)
        assert tv_matrix(mu0, mu1) == pytest.approx(1.95, rel=0.10)

    @pytest.mark.parametrize("scale", [2.0 ** -600, 1e-170], ids=["2^-600", "1e-170"])
    def test_tiny_masses_keep_the_value(self, scale):
        # at n = 2 the eigenvalues' squares would underflow below about 1e-154;
        # the difference is scaled up by a power of two first
        mu0, mu1 = benchmark_measure(0), benchmark_measure(1)
        tiny = tv_matrix(MatrixMeasure(mu0.grid, scale * mu0.masses),
                         MatrixMeasure(mu1.grid, scale * mu1.masses))
        assert tiny == pytest.approx(scale * tv_matrix(mu0, mu1), rel=1e-14, abs=0)

    def test_matches_scalar_tv_on_diagonal_embedding(self, rng):
        grid = random_grid(rng, 6)
        v1 = rng.uniform(0, 1, size=6)
        v2 = rng.uniform(0, 1, size=6)
        mu1, mu2 = scalar_measure(grid, v1), scalar_measure(grid, v2)
        assert tv_matrix(mu1, mu2) == pytest.approx(np.abs(v1 - v2).sum(), abs=1e-12)

    def test_grid_mismatch(self, rng):
        mu1 = random_matrix_measure(rng, random_grid(rng, 4), 2)
        mu2 = random_matrix_measure(rng, random_grid(rng, 4), 2)
        with pytest.raises(ValueError, match="grids"):
            tv_matrix(mu1, mu2)

    def test_dim_mismatch(self, rng):
        grid = random_grid(rng, 4)
        mu1 = random_matrix_measure(rng, grid, 2)
        mu2 = random_matrix_measure(rng, grid, 3)
        with pytest.raises(ValueError, match="dimension"):
            tv_matrix(mu1, mu2)

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_metric_axioms(self, seed):
        rng = np.random.default_rng(seed)
        grid = random_grid(rng, 4)
        a = random_matrix_measure(rng, grid, 2)
        b = random_matrix_measure(rng, grid, 2)
        c = random_matrix_measure(rng, grid, 2)
        assert tv_matrix(a, b) == tv_matrix(b, a)
        assert tv_matrix(a, c) <= tv_matrix(a, b) + tv_matrix(b, c) + 1e-10
        assert tv_matrix(a, b) > 0.0

    @given(st.integers(0, 10**6), st.sampled_from([0.25, 0.5, 2.0, 10.0]))
    @settings(max_examples=20, deadline=None)
    def test_positive_homogeneity(self, seed, alpha):
        rng = np.random.default_rng(seed)
        grid = random_grid(rng, 4)
        a = random_matrix_measure(rng, grid, 2)
        b = random_matrix_measure(rng, grid, 2)
        scaled = tv_matrix(
            MatrixMeasure(grid, alpha * a.masses), MatrixMeasure(grid, alpha * b.masses)
        )
        assert scaled == pytest.approx(alpha * tv_matrix(a, b), rel=1e-12)


class TestMeasureFiles:
    def test_round_trip_bit_exact(self, rng, tmp_path):
        mu = random_matrix_measure(rng, random_grid(rng, 5), 2)
        path = tmp_path / "measure.json"
        save_measure(mu, path)
        back = load_measure(path)
        assert np.array_equal(back.masses, mu.masses)
        assert np.array_equal(back.grid.points, mu.grid.points)
        assert np.array_equal(back.grid.weights, mu.grid.weights)

    def test_save_load_save_identical(self, rng, tmp_path):
        mu = random_matrix_measure(rng, random_grid(rng, 4), 3)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_measure(mu, p1)
        save_measure(load_measure(p1), p2)
        assert p1.read_text() == p2.read_text()

    def test_load_validates_psd(self, tmp_path):
        grid = make_uniform_grid(2, 0.0, 1.0)
        doc = {
            "dim": 1,
            "grid": [{"theta": 0.0, "weight": 0.5}, {"theta": 1.0, "weight": 0.5}],
            "masses": [[[[1.0, 0.0]]], [[[-1.0, 0.0]]]],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="not PSD"):
            load_measure(path)

    def test_load_rejects_masses_of_another_dimension(self, tmp_path):
        # 2 x 2 mass entries under dim 1 are not read as their [0][0] entries
        doc = {
            "dim": 1,
            "grid": [{"theta": 0.0, "weight": 1.0}],
            "masses": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]],
        }
        path = tmp_path / "mismatch.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="shape"):
            load_measure(path)

    @pytest.mark.parametrize("dim", [2.7, 2.0, "2", True])
    def test_load_rejects_non_integer_dim(self, tmp_path, dim):
        # the masses are int(dim) x int(dim), so a truncating reader accepts the file
        n = int(dim)
        eye = [[[float(i == j), 0.0] for j in range(n)] for i in range(n)]
        doc = {"dim": dim, "grid": [{"theta": 0.0, "weight": 1.0}], "masses": [eye]}
        path = tmp_path / "dim.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="dim must be an integer"):
            load_measure(path)

    @pytest.mark.parametrize("field, leaf", [
        ("theta", "0"), ("theta", True), ("weight", True), ("weight", "1"),
        ("mass", "0"), ("mass", True), ("mass", [True, False]), ("mass", None),
    ])
    def test_load_rejects_non_number_leaves(self, tmp_path, field, leaf):
        # float() and numpy read "0", true and [true, false] as numbers
        doc = {
            "dim": 1,
            "grid": [{"theta": 0.0, "weight": 0.5}, {"theta": 1, "weight": 0.5}],
            "masses": [[[[1.0, 0.0]]], [[[2, 0]]]],
        }
        if field == "mass":
            doc["masses"][1][0][0] = leaf if isinstance(leaf, list) else [leaf, 0.0]
        else:
            doc["grid"][1][field] = leaf
        path = tmp_path / "leaf.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="JSON number"):
            load_measure(path)

    def test_load_accepts_integer_leaves(self, tmp_path):
        doc = {"dim": 1, "grid": [{"theta": 0, "weight": 1}], "masses": [[[[2, 0]]]]}
        path = tmp_path / "ints.json"
        path.write_text(json.dumps(doc))
        assert load_measure(path).masses[0, 0, 0] == 2.0

    def test_load_rejects_malformed_document(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"dim": 2, "grid": []}))
        with pytest.raises(ValueError, match="malformed"):
            load_measure(path)

    def test_load_rejects_non_json(self, tmp_path):
        path = tmp_path / "noise.json"
        path.write_text("not json at all {")
        with pytest.raises(ValueError, match="measure file"):
            load_measure(path)
