import math
from dataclasses import fields

import numpy as np
import pytest

from specdist import SolverOptions, linalg
from specdist.ipm import BallProgram, solve_ball_program
from specdist.pdhg import relative_gap, within_tolerance

from conftest import random_hermitian


def _no_constraints_program(C, radii):
    # ball programs are stated in the coordinates of linalg
    m = C.shape[-1] ** 2
    return BallProgram(
        objective=linalg.to_coords(C),
        ball_radii=radii,
        maps=np.zeros((0, m, m)),
        image_radii=np.zeros(0),
    )


class TestSolverOptions:
    def test_defaults(self):
        opts = SolverOptions()
        assert opts.max_iterations == 200_000
        assert opts.tolerance == 1e-6

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iterations": 0},
            {"tolerance": 0.0},
            {"max_iterations": -1},
            {"tolerance": -1.0},
            {"tolerance": math.nan},
            {"tolerance": math.inf},
        ],
    )
    def test_rejects_nonpositive(self, kwargs):
        with pytest.raises(ValueError):
            SolverOptions(**kwargs)

    @pytest.mark.parametrize("name", ["primal_step", "dual_step", "check_every"])
    def test_step_sizes_are_not_options(self, name):
        with pytest.raises(TypeError):
            SolverOptions(**{name: 0.5})

    def test_budget_and_tolerance_are_the_only_options(self):
        # one gap target: no second tolerance can override ``tolerance``
        assert [f.name for f in fields(SolverOptions)] == ["max_iterations", "tolerance"]


class TestUnconstrainedImage:
    def test_dual_norm_closed_form(self, rng):
        C = np.array([random_hermitian(rng, 3) for _ in range(4)])
        radii = rng.uniform(0.2, 2.0, size=4)
        solution = solve_ball_program(_no_constraints_program(C, radii), SolverOptions())
        expected = sum(
            r * np.abs(np.linalg.eigvalsh(c)).sum() for r, c in zip(radii, C)
        )
        assert solution.value == pytest.approx(expected, abs=1e-10)
        assert solution.upper_bound == pytest.approx(expected, abs=1e-10)
        assert solution.iterations == 0

    def test_zero_objective_short_circuit(self):
        C = np.zeros((3, 2, 2), dtype=complex)
        solution = solve_ball_program(_no_constraints_program(C, np.ones(3)), SolverOptions())
        assert solution.value == 0.0
        assert solution.upper_bound == 0.0
        assert not solution.test_function.any()


def test_certified_bounds_sandwich_the_value(rng):
    # adjacent-difference constraints on a 3-block chain, in coordinates
    C = linalg.to_coords([random_hermitian(rng, 2) for _ in range(3)])
    gaps = np.array([0.5, 0.8])
    program = BallProgram(objective=C, ball_radii=np.ones(3), image_radii=gaps)   # F_k - F_{k+1}
    solution = solve_ball_program(program, SolverOptions(tolerance=1e-8))
    assert solution.value <= solution.upper_bound + 1e-12
    assert solution.gap <= 1e-7 * max(1.0, solution.upper_bound)
    assert solution.feasibility_residual <= 1e-12


@pytest.mark.parametrize("lower, upper", [
    (0.0, math.inf), (-math.inf, 1.0), (0.0, math.nan),
])
def test_within_tolerance_never_accepts_a_non_finite_gap(lower, upper):
    assert not within_tolerance(lower, upper, 1e-6)
    assert within_tolerance(1.0, 1.0 + 1e-7, 1e-6)
    assert within_tolerance(0.0, 0.0, 1e-6)


def test_relative_gap_is_the_brackets_own():
    assert relative_gap(0.0, 0.0) == 0.0
    assert relative_gap(2.0, 3.0) == 1.0 / 3.0
    assert relative_gap(-3.0, -2.0) == 1.0 / 3.0
    assert relative_gap(3e-6, 3.0000142e-6) == (3.0000142e-6 - 3e-6) / 3.0000142e-6
    assert relative_gap(1e-300, 2e-300) == 0.5     # no floor, however small the bracket
    assert relative_gap(0.0, 1e-300) == 1.0
    assert relative_gap(1.0, 0.5) == -0.5          # an inverted bracket stays negative
    for lower, upper in [(0.0, math.inf), (-math.inf, 1.0), (0.0, math.nan), (math.nan, 0.0),
                         (math.inf, math.inf)]:
        assert relative_gap(lower, upper) == math.inf
