import csv
import json
import math
import os
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdist import load_measure, save_measure
from specdist.cli import main
from specdist.spectra import TableCell


@pytest.fixture(scope="module")
def spectra_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("spectra")
    assert main(["gen-spectra", "--out", str(out)]) == 0
    return out


class TestGenSpectra:
    def test_files_validate_as_psd_measures(self, spectra_dir):
        for i in range(3):
            mu = load_measure(spectra_dir / f"f{i}.json")
            assert mu.dim == 2
            assert mu.grid.size == 36

    def test_regeneration_is_bit_identical(self, spectra_dir, tmp_path):
        assert main(["gen-spectra", "--out", str(tmp_path)]) == 0
        for i in range(3):
            assert (tmp_path / f"f{i}.json").read_text() == (
                spectra_dir / f"f{i}.json"
            ).read_text()

    def test_minimal_grid(self, tmp_path):
        assert main(["gen-spectra", "--out", str(tmp_path), "--grid-points", "2"]) == 0
        mu = load_measure(tmp_path / "f1.json")
        assert mu.grid.size == 2

    def test_raw_flag_skips_normalization(self, tmp_path):
        assert main(["gen-spectra", "--out", str(tmp_path), "--raw"]) == 0
        mu = load_measure(tmp_path / "f0.json")
        assert np.einsum("kii->", mu.masses).real > 100.0


class TestDist:
    def test_tv_of_measure_with_itself_is_zero(self, spectra_dir, capsys):
        code = main(
            ["dist", "--metric", "matrix-tv", str(spectra_dir / "f0.json"),
             str(spectra_dir / "f0.json")]
        )
        assert code == 0
        assert "value: 0.0" in capsys.readouterr().out

    def test_w1_on_unequal_mass_scalars_exits_2(self, tmp_path, capsys):
        from specdist import make_uniform_grid, scalar_measure

        grid = make_uniform_grid(4, 0.0, 1.0)
        save_measure(scalar_measure(grid, [1.0, 0, 0, 0]), tmp_path / "a.json")
        save_measure(scalar_measure(grid, [0, 0, 0, 2.0]), tmp_path / "b.json")
        code = main(
            ["dist", "--metric", "w1", str(tmp_path / "a.json"), str(tmp_path / "b.json")]
        )
        assert code == 2
        assert "w1_kappa_scalar" in capsys.readouterr().err

    @pytest.mark.parametrize("metric", ["tv", "kolmogorov", "w1", "w1k"])
    def test_w1_on_matrix_measure_exits_2(self, spectra_dir, capsys, metric):
        code = main(
            ["dist", "--metric", metric, str(spectra_dir / "f0.json"),
             str(spectra_dir / "f1.json")]
        )
        assert code == 2
        assert "dim=1" in capsys.readouterr().err

    def test_is_on_different_grids_exits_2(self, tmp_path, capsys):
        from specdist import MatrixMeasure, make_uniform_grid

        masses = np.array([np.eye(2)] * 3, dtype=complex)
        for name, b in (("a.json", 1.0), ("b.json", 2.0)):
            save_measure(MatrixMeasure(make_uniform_grid(3, 0.0, b), masses), tmp_path / name)
        code = main(["dist", "--metric", "is", str(tmp_path / "a.json"),
                     str(tmp_path / "b.json")])
        assert code == 2
        assert "different grids" in capsys.readouterr().err

    def test_infinite_theta_exits_2(self, tmp_path, capsys):
        assert main(["gen-spectra", "--grid-points", "4", "--out", str(tmp_path)]) == 0
        files = [tmp_path / "f0.json", tmp_path / "f1.json"]
        for path in files:
            doc = json.loads(path.read_text())
            doc["grid"][-1]["theta"] = math.inf   # json writes Infinity
            path.write_text(json.dumps(doc))
        code = main(["dist", "--metric", "matrix-w1k", "--max-iter", "2000",
                     *map(str, files)])
        assert code == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("dim", [2.7, "2"])
    def test_non_integer_dim_exits_2(self, spectra_dir, tmp_path, capsys, dim):
        doc = json.loads((spectra_dir / "f0.json").read_text())
        doc["dim"] = dim
        path = tmp_path / "f0.json"
        path.write_text(json.dumps(doc))
        code = main(["dist", "--metric", "matrix-tv", str(path), str(spectra_dir / "f1.json")])
        assert code == 2
        assert "dim must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["grid"][0].update(theta="0"),
        lambda doc: doc["grid"][1].update(weight=True),
        lambda doc: doc["masses"][0][0][0].__setitem__(0, "0"),
        lambda doc: doc["masses"][0][0][0].__setitem__(0, True),
        lambda doc: doc["masses"][0][0].__setitem__(0, [True, False]),
    ], ids=["theta-str", "weight-bool", "mass-str", "mass-bool", "mass-bool-pair"])
    @pytest.mark.parametrize("metric", ["matrix-tv", "is"])
    def test_non_number_leaf_exits_2(self, tmp_path, capsys, edit, metric):
        assert main(["gen-spectra", "--grid-points", "4", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "f0.json").read_text())
        edit(doc)
        (tmp_path / "f0.json").write_text(json.dumps(doc))
        code = main(["dist", "--metric", metric, str(tmp_path / "f0.json"),
                     str(tmp_path / "f1.json")])
        assert code == 2
        assert "JSON number" in capsys.readouterr().err

    @pytest.mark.parametrize("entries, metric", [
        ([(0, 0, 1e308), (1, 1, 1e308)], "matrix-tv"),   # the Hermitian part overflows
        ([(0, 0, 1e200)], "matrix-tv"),                   # the eigenvalues overflow
        ([(0, 0, 1e200)], "matrix-w1k"),
    ], ids=["1e308-matrix-tv", "1e200-matrix-tv", "1e200-matrix-w1k"])
    def test_mass_whose_eigenvalues_overflow_exits_2(self, tmp_path, capsys, entries, metric):
        assert main(["gen-spectra", "--grid-points", "4", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "f0.json").read_text())
        for i, j, x in entries:
            doc["masses"][0][i][j] = [x, 0.0]
        (tmp_path / "f0.json").write_text(json.dumps(doc))
        code = main(["dist", "--metric", metric, str(tmp_path / "f0.json"),
                     str(tmp_path / "f1.json")])
        assert code == 2
        assert "too large" in capsys.readouterr().err

    def test_matrix_tv_whose_difference_overflows_exits_2(self, tmp_path, capsys):
        # each mass is accepted, but the nuclear norm of their difference overflows
        assert main(["gen-spectra", "--grid-points", "4", "--out", str(tmp_path)]) == 0
        for name, diagonal in (("f0", (1e154, 0.0)), ("f1", (0.0, 1e154))):
            doc = json.loads((tmp_path / f"{name}.json").read_text())
            doc["masses"][0] = [[[diagonal[0], 0.0], [0.0, 0.0]], [[0.0, 0.0], [diagonal[1], 0.0]]]
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["dist", "--metric", "matrix-tv", str(tmp_path / "f0.json"),
                         str(tmp_path / "f1.json")])
        assert code == 2
        assert "too large" in capsys.readouterr().err

    def test_missing_file_exits_1(self, capsys):
        code = main(["dist", "--metric", "tv", "missing_a.json", "missing_b.json"])
        assert code == 1

    def test_matrix_w1k_reference_value(self, spectra_dir, capsys):
        code = main(
            ["dist", "--metric", "matrix-w1k", "--kappa", "1", "--tol", "1e-4",
             "--format", "structured",
             str(spectra_dir / "f0.json"), str(spectra_dir / "f1.json")]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["converged"] is True
        assert doc["value"] == pytest.approx(1.37, rel=0.10)
        assert doc["certificate"]["feasibility_residual"] <= 1e-10
        assert len(doc["certificate"]["test_function"]) == 36

    def test_solver_budget_exhaustion_exits_3_with_partial(self, spectra_dir, capsys):
        code = main(
            ["dist", "--metric", "matrix-w1k", "--max-iter", "60",
             "--format", "structured",
             str(spectra_dir / "f0.json"), str(spectra_dir / "f1.json")]
        )
        assert code == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["converged"] is False
        assert "value" in doc and "upper_bound" in doc

    @staticmethod
    def _scalar_pair(tmp_path, K=12):
        from specdist import make_uniform_grid, scalar_measure

        rng = np.random.default_rng(5)
        grid = make_uniform_grid(K, 0.0, math.pi)
        paths = [tmp_path / "s1.json", tmp_path / "s2.json"]
        for path in paths:
            save_measure(scalar_measure(grid, rng.uniform(0.0, 1.0, size=K)), path)
        return [str(p) for p in paths]

    @staticmethod
    def _audit_pair(tmp_path):
        # 1x1 masses on four points, half of them massless (the CI's exact-audit pair)
        from specdist import Grid, scalar_measure

        grid = Grid(np.array([0.0, 0.5, 1.5, 2.0]), np.ones(4))
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path, values in zip(paths, ([1.0, 0.0, 0.5, 0.0], [0.0, 2.0, 0.0, 0.25])):
            save_measure(scalar_measure(grid, np.array(values)), path)
        return [str(p) for p in paths]

    @pytest.mark.parametrize("metric", ["w1k", "matrix-w1k"])
    def test_kappa_whose_double_overflows_exits_2(self, tmp_path, capsys, metric):
        # the chain weighs its edge flows by 2 kappa, which is inf here
        code = main(["dist", "--metric", metric, "--kappa", "9e307", *self._audit_pair(tmp_path)])
        assert code == 2
        assert "2 kappa finite" in capsys.readouterr().err

    @pytest.mark.parametrize("metric", ["w1k", "matrix-w1k"])
    def test_kappa_near_overflow_keeps_its_value(self, tmp_path, capsys, metric):
        code = main(["dist", "--metric", metric, "--kappa", "4e307", "--format", "structured",
                     *self._audit_pair(tmp_path)])
        assert code == 0

        def no_constants(name):
            raise AssertionError(f"{name} is not JSON")

        doc = json.loads(capsys.readouterr().out, parse_constant=no_constants)
        assert doc["converged"] is True
        assert doc["value"] == 3e307
        if metric == "matrix-w1k":
            assert doc["value"] <= doc["certificate"]["upper_bound"] <= 3e307 * (1 + 1e-12)

    def test_grid_whose_spacing_overflows_exits_2(self, tmp_path, capsys):
        # finite points 2e308 apart: the file is refused before any solve
        paths = [tmp_path / "g0.json", tmp_path / "g1.json"]
        grid = [{"theta": -1e308, "weight": 1.0}, {"theta": 1e308, "weight": 1.0}]
        one, zero = [[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]
        for path, masses in zip(paths, ([[one, zero], [zero, zero]], [[zero, zero], [zero, one]])):
            path.write_text(json.dumps({"dim": 2, "grid": grid, "masses": masses}))
        code = main(["dist", "--metric", "matrix-w1k", "--max-iter", "1000", *map(str, paths)])
        assert code == 2
        assert "finite spacings" in capsys.readouterr().err

    def test_scalar_matrix_w1k_is_exact(self, tmp_path, capsys):
        code = main(["dist", "--metric", "matrix-w1k", "--format", "structured",
                     *self._scalar_pair(tmp_path)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        cert = doc["certificate"]
        assert cert["iterations"] == 0
        assert doc["value"] <= cert["upper_bound"] <= doc["value"] * (1 + 1e-12)
        assert len(cert["test_function"]) == 12

    def test_scalar_w1k_and_matrix_w1k_print_the_same_value(self, tmp_path, capsys):
        # both report the chain's correctly rounded pairing of delta with f
        files = self._scalar_pair(tmp_path, K=24)
        values = []
        for metric in ("w1k", "matrix-w1k"):
            assert main(["dist", "--metric", metric, "--format", "structured", *files]) == 0
            values.append(json.loads(capsys.readouterr().out)["value"])
        assert values[0] == values[1]

    def test_scalar_tolerance_below_roundoff_exits_3_with_partial(self, tmp_path, capsys):
        code = main(["dist", "--metric", "matrix-w1k", "--tol", "1e-300",
                     "--format", "structured", *self._scalar_pair(tmp_path)])
        assert code == 3
        out, err = capsys.readouterr()
        doc = json.loads(out)
        assert doc["converged"] is False
        assert doc["lower_bound"] == doc["value"] <= doc["upper_bound"]
        assert "Traceback" not in err

    def test_stalled_gap_audit_exits_3_with_partial(self, tmp_path, capsys):
        # a budget that certifies both dual solves but not the transport primal
        from specdist import SolverOptions, assemble_dual, solve_dual

        assert main(["gen-spectra", "--out", str(tmp_path), "--grid-points", "6"]) == 0
        mu1, mu2 = load_measure(tmp_path / "f1.json"), load_measure(tmp_path / "f2.json")
        halved = SolverOptions(tolerance=5e-4)
        budget = solve_dual(assemble_dual(mu1, mu2, 1.0), halved).iterations
        code = main(
            ["dist", "--metric", "matrix-w1k", "--gap-audit", "--tol", "1e-3",
             "--max-iter", str(budget), "--format", "structured",
             str(tmp_path / "f1.json"), str(tmp_path / "f2.json")]
        )
        assert code == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["converged"] is False
        assert "gap_audit" not in doc
        assert doc["lower_bound"] <= doc["value"] <= doc["upper_bound"]
        # the bracket is the audit's dual certificate, certified to half the gap
        assert doc["upper_bound"] - doc["lower_bound"] <= 5e-4 * doc["upper_bound"]

    def test_gap_audit_solves_the_dual_once(self, tmp_path, capsys, monkeypatch):
        from specdist import cli, matrix_primal

        calls = []

        def counting(solve):
            def counted(*args, **kwargs):
                calls.append(1)
                return solve(*args, **kwargs)
            return counted

        for module in (cli, matrix_primal):
            monkeypatch.setattr(module, "solve_dual", counting(module.solve_dual))
        assert main(["gen-spectra", "--out", str(tmp_path), "--grid-points", "6"]) == 0
        code = main(
            ["dist", "--metric", "matrix-w1k", "--gap-audit", "--tol", "1e-3",
             "--format", "structured", str(tmp_path / "f0.json"), str(tmp_path / "f2.json")]
        )
        assert code == 0
        assert len(calls) == 1
        doc = json.loads(capsys.readouterr().out)
        # the reported certificate is the audit's own dual, certified to half the gap
        assert doc["value"] == doc["gap_audit"]["dual"]
        cert = doc["certificate"]
        assert cert["upper_bound"] - doc["value"] <= 0.5e-3 * cert["upper_bound"]

    def test_csv_format(self, spectra_dir, capsys):
        code = main(
            ["dist", "--metric", "matrix-tv", "--format", "csv",
             str(spectra_dir / "f0.json"), str(spectra_dir / "f1.json")]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split(",")[0] == "metric"
        assert lines[1].split(",")[0] == "matrix-tv"

    def test_out_file(self, spectra_dir, tmp_path):
        out = tmp_path / "report.txt"
        code = main(
            ["dist", "--metric", "matrix-tv", "--out", str(out),
             str(spectra_dir / "f0.json"), str(spectra_dir / "f1.json")]
        )
        assert code == 0
        assert "value" in out.read_text()

    def test_is_metric_runs(self, spectra_dir, capsys):
        code = main(
            ["dist", "--metric", "is",
             str(spectra_dir / "f0.json"), str(spectra_dir / "f1.json")]
        )
        assert code == 0

    @staticmethod
    def _connes(tmp_path, off_diagonal, *flags):
        from specdist import Grid, MatrixMeasure

        grid = Grid(np.array([0.0]), np.array([1.0]))
        rho1 = MatrixMeasure(grid, np.array([np.diag([1.0, 0.0])], dtype=complex))
        rho2 = MatrixMeasure(grid, np.array([np.diag([0.0, 1.0])], dtype=complex))
        save_measure(rho1, tmp_path / "rho1.json")
        save_measure(rho2, tmp_path / "rho2.json")
        dirac_doc = [[[[0.0, 0.0], [off_diagonal, 0.0]], [[off_diagonal, 0.0], [0.0, 0.0]]]]
        (tmp_path / "dirac.json").write_text(json.dumps(dirac_doc))
        return main(
            ["dist", "--metric", "connes", "--kappa", "0.25", *flags,
             "--dirac", str(tmp_path / "dirac.json"),
             str(tmp_path / "rho1.json"), str(tmp_path / "rho2.json")]
        )

    def test_connes_metric(self, tmp_path, capsys):
        assert self._connes(tmp_path, 1.0) == 0
        out = capsys.readouterr().out
        assert "0.5" in out

    @staticmethod
    def _connes_on_spectra(tmp_path, dirac, *flags):
        """``dist --metric connes`` on 4-point gen-spectra files, structured."""
        assert main(["gen-spectra", "--grid-points", "4", "--out", str(tmp_path)]) == 0
        (tmp_path / "dirac.json").write_text(json.dumps(dirac))
        return main(["dist", "--metric", "connes", "--format", "structured", *flags,
                     "--dirac", str(tmp_path / "dirac.json"),
                     str(tmp_path / "f0.json"), str(tmp_path / "f1.json")])

    def test_connes_partial_report_brackets_the_value(self, tmp_path, capsys):
        # the exit-3 bracket is that of the kappa = 5 program, and names kappa
        dirac = [[[[1.0, 0.0], [0.5, 0.0]], [[0.5, 0.0], [-1.0, 0.0]]]]
        assert self._connes_on_spectra(tmp_path, dirac, "--kappa", "5", "--tol", "1e-9") == 0
        value = json.loads(capsys.readouterr().out)["value"]
        code = self._connes_on_spectra(tmp_path, dirac, "--kappa", "5", "--tol", "1e-9",
                                       "--max-iter", "1")
        assert code == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["converged"] is False and doc["kappa"] == 5.0
        assert doc["lower_bound"] <= value <= doc["upper_bound"]

    def test_connes_dirac_whose_eigenvalues_overflow_exits_2(self, tmp_path, capsys):
        dirac = [[[[1e300, 0.0], [0.5, 0.0]], [[0.5, 0.0], [-1.0, 0.0]]]]
        assert self._connes_on_spectra(tmp_path, dirac, "--max-iter", "200") == 2
        assert "too large" in capsys.readouterr().err

    def test_connes_nonfinite_dirac_exits_2(self, tmp_path, capsys):
        # json writes the entry as Infinity, which the decoder reads back
        assert self._connes(tmp_path, math.inf, "--max-iter", "1000") == 2
        assert "finite" in capsys.readouterr().err

    def test_connes_dirac_entry_of_another_type_exits_2(self, tmp_path, capsys):
        code = self._connes(tmp_path, "0.5")
        assert code == 2
        assert "JSON number" in capsys.readouterr().err

    def test_connes_dirac_file_without_operators_exits_2(self, tmp_path, spectra_dir):
        (tmp_path / "dirac.json").write_text(json.dumps({"ops": []}))
        code = main(["dist", "--metric", "connes", "--dirac", str(tmp_path / "dirac.json"),
                     str(spectra_dir / "f0.json"), str(spectra_dir / "f1.json")])
        assert code == 2

    @pytest.mark.parametrize("doc", [{"operators": {}}, [{"a": 1}]],
                             ids=["operators-dict", "list-of-dicts"])
    def test_connes_dirac_file_of_dicts_exits_2(self, tmp_path, spectra_dir, capsys, doc):
        (tmp_path / "dirac.json").write_text(json.dumps(doc))
        code = main(["dist", "--metric", "connes", "--dirac", str(tmp_path / "dirac.json"),
                     str(spectra_dir / "f0.json"), str(spectra_dir / "f1.json")])
        assert code == 2
        assert "nested lists" in capsys.readouterr().err

    def test_integer_beyond_float_range_exits_2(self, tmp_path, capsys):
        # json reads 10**400 back as an int, which float() cannot convert
        assert main(["gen-spectra", "--grid-points", "4", "--out", str(tmp_path)]) == 0
        measures = [str(tmp_path / "f0.json"), str(tmp_path / "f1.json")]
        doc = json.loads((tmp_path / "f0.json").read_text())
        doc["grid"][0]["theta"] = 10**400
        (tmp_path / "theta.json").write_text(json.dumps(doc))
        dirac = [[[[10**400, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]
        (tmp_path / "dirac.json").write_text(json.dumps(dirac))
        assert main(["dist", "--metric", "matrix-tv", str(tmp_path / "theta.json"),
                     measures[1]]) == 2
        assert main(["dist", "--metric", "connes", "--dirac", str(tmp_path / "dirac.json"),
                     *measures]) == 2
        assert capsys.readouterr().err.count("too large") == 2

    def test_connes_without_dirac_exits_2(self, tmp_path, spectra_dir, capsys):
        code = main(
            ["dist", "--metric", "connes",
             str(spectra_dir / "f0.json"), str(spectra_dir / "f1.json")]
        )
        assert code == 2
        assert "--dirac" in capsys.readouterr().err


DELETE = object()
# every JSON type, and deletion; finite numbers stay below 1e6, as Dirac entries
# of 1e10 and more leave the Connes solve unconverged at its budget (tens of seconds)
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.lists(st.integers(-3, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-3, 3), max_size=1),
    st.integers(-10**6, 10**6), st.floats(-1e6, 1e6),
    st.sampled_from([math.inf, -math.inf, math.nan, 10**400]), st.just(DELETE),
)


def _fields(node, path=()):
    """Key/index paths of every field below the root of a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _fields(child, path + (key,))


def _leaves(node):
    if isinstance(node, (dict, list)):
        children = node.values() if isinstance(node, dict) else node
        return [leaf for child in children for leaf in _leaves(child)]
    return [node]


class TestMutatedFiles:
    """One field of a measure file or a Dirac file set to another JSON value, or
    deleted: ``dist`` exits 0 or 2 with no exception, and accepts only files
    whose leaves are all numbers."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("mutated")
        assert main(["gen-spectra", "--grid-points", "4", "--out", str(out)]) == 0
        dirac = [[[[1.0, 0.0], [0.5, 0.0]], [[0.5, 0.0], [-1.0, 0.0]]]]
        (out / "dirac.json").write_text(json.dumps({"operators": dirac}))
        return out

    @pytest.mark.parametrize("name", ["f0.json", "dirac.json"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_exits_0_or_2_and_accepts_numbers_only(self, files, name, data):
        doc = json.loads((files / name).read_text())
        path = data.draw(st.sampled_from(list(_fields(doc))))
        value = data.draw(JSON_VALUES)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        mutated = files / f"mutated-{name}"
        mutated.write_text(json.dumps(doc))
        measures = [str(files / "f0.json"), str(files / "f1.json")]
        if name == "dirac.json":
            argv = ["dist", "--metric", "connes", "--dirac", str(mutated), *measures]
        else:
            argv = ["dist", "--metric", "matrix-tv", str(mutated), measures[1]]
        code = main(argv)
        assert code in (0, 2)
        if code == 0:
            assert {int, float}.issuperset(map(type, _leaves(doc)))


class TestTable1Command:
    def test_writes_table_and_plot_data(self, tmp_path):
        out = tmp_path / "study"
        code = main(
            ["table1", "--no-gap-audit", "--format", "structured", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads((out / "table1.json").read_text())
        assert doc["kappa"] == 1.0
        metrics = {c["metric"] for c in doc["cells"]}
        assert metrics == {"is", "tv", "w1k", "t_external"}
        names = [f.name for f in fields(TableCell)]
        assert all(list(c) == names for c in doc["cells"])
        plot = (out / "density_plot_data.csv").read_text().splitlines()
        header = plot[0].split(",")
        assert "f0_12_abs" in header and "f2_12_angle" in header
        assert len(plot) == 37  # header + 36 grid rows

    def test_unconverged_cells_are_written_and_exit_3(self, tmp_path):
        out = tmp_path / "study"
        code = main(
            ["table1", "--grid-points", "6", "--max-iter", "50", "--format", "structured",
             "--out", str(out)]
        )
        assert code == 3
        doc = json.loads((out / "table1.json").read_text())
        w1k = [c for c in doc["cells"] if c["metric"] == "w1k"]
        assert len(w1k) == 3
        for c in w1k:
            assert c["converged"] is False
            assert c["value"] <= c["upper_bound"]
            assert "not converged" in c["note"]
        assert all(c["converged"] for c in doc["cells"] if c["metric"] != "w1k")
        assert len((out / "density_plot_data.csv").read_text().splitlines()) == 7

    def test_csv_rows_have_the_header_field_count(self, tmp_path):
        out = tmp_path / "study"
        code = main(["table1", "--no-gap-audit", "--grid-points", "8", "--format", "csv",
                     "--out", str(out)])
        assert code == 0
        with open(out / "table1.csv", newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert len(rows) == 12
        assert all(len(row) == len(header) for row in rows)
        assert rows[0][header.index("pair")] == "f0,f1"

    def test_human_format_to_stdout(self, capsys):
        code = main(["table1", "--no-gap-audit", "--grid-points", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "metric" in out and "w1k" in out


def test_dist_imports_numpy_only(spectra_dir, tmp_path):
    # matrix-w1k at n = 1 and n = 2 and Itakura-Saito, in a fresh interpreter
    import subprocess
    import sys
    from pathlib import Path

    pair = TestDist._scalar_pair(tmp_path)
    f0, f1 = str(spectra_dir / "f0.json"), str(spectra_dir / "f1.json")
    runs = [["--metric", "matrix-w1k", *pair], ["--metric", "matrix-w1k", "--tol", "1e-2", f0, f1],
            ["--metric", "is", f0, f1]]
    script = (
        "import sys\n"
        "from specdist.cli import main\n"
        f"codes = [main(['dist', '--out', {str(tmp_path / 'out.txt')!r}, *r]) for r in {runs!r}]\n"
        "print(codes, 'scipy' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert result.stdout.strip() == "[0, 0, 0] False", result.stderr


def test_calls_in_one_process_print_what_they_print_alone(tmp_path, capsys):
    # the parser is built once per process; no call may leave state for the next
    import subprocess
    import sys
    from pathlib import Path

    from specdist.cli import build_parser

    assert main(["gen-spectra", "--grid-points", "6", "--out", str(tmp_path / "in")]) == 0
    pair = [str(tmp_path / "in" / "f0.json"), str(tmp_path / "in" / "f2.json")]

    def calls(out):
        return [["dist", *pair, "--gap-audit", "--tol", "1e-3", "--format", "structured"],
                ["dist", *pair, "--tol", "1e-3", "--format", "structured"],
                ["gen-spectra", "--grid-points", "6", "--out", str(out)]]

    capsys.readouterr()
    together = []
    for argv in calls(tmp_path / "together"):
        code = main(argv)
        together.append((code, capsys.readouterr().out))
    assert build_parser() is build_parser()

    src = str(Path(__file__).resolve().parents[1] / "src")
    alone = []
    for argv in calls(tmp_path / "alone"):
        result = subprocess.run([sys.executable, "-m", "specdist.cli", *argv], capture_output=True,
                                text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
        alone.append((result.returncode, result.stdout))
    assert together == alone
    assert json.loads(together[0][1])["gap_audit"]["relative_gap"] <= 1e-3
    assert "gap_audit" not in json.loads(together[1][1])
    for i in range(3):
        name = f"f{i}.json"
        assert (tmp_path / "together" / name).read_text() == (tmp_path / "alone" / name).read_text()


def test_round_trip_of_cli_generated_file(spectra_dir, tmp_path):
    mu = load_measure(spectra_dir / "f2.json")
    save_measure(mu, tmp_path / "copy.json")
    assert (tmp_path / "copy.json").read_text() == (spectra_dir / "f2.json").read_text()
