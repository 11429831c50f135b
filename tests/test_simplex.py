import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdist.simplex import LpInfeasibleError, LpProblem, LpUnboundedError, lp_simplex


def test_single_variable_box():
    value, x = lp_simplex(LpProblem([1.0], [[1.0], [-1.0]], [1.0, 0.0]))
    assert value == pytest.approx(1.0, abs=1e-9)
    assert x[0] == pytest.approx(1.0, abs=1e-9)


def test_unit_box_corner():
    A = [[1, 0], [0, 1], [-1, 0], [0, -1]]
    value, x = lp_simplex(LpProblem([1.0, 1.0], A, [1, 1, 0, 0]))
    assert value == pytest.approx(2.0, abs=1e-9)
    assert np.allclose(x, [1.0, 1.0], atol=1e-9)


def test_free_variables_negative_optimum():
    # max -x subject to x >= -3  ->  optimum 3 at x = -3
    value, x = lp_simplex(LpProblem([-1.0], [[-1.0]], [3.0]))
    assert value == pytest.approx(3.0, abs=1e-9)
    assert x[0] == pytest.approx(-3.0, abs=1e-9)


def test_infeasible_detected():
    with pytest.raises(LpInfeasibleError):
        lp_simplex(LpProblem([1.0], [[1.0], [-1.0]], [-1.0, -1.0]))


def test_unbounded_detected():
    with pytest.raises(LpUnboundedError):
        lp_simplex(LpProblem([1.0], [[-1.0]], [0.0]))


def test_redundant_constraints():
    A = [[1.0], [1.0], [1.0], [-1.0]]
    value, _ = lp_simplex(LpProblem([1.0], A, [2.0, 2.0, 2.0, 0.0]))
    assert value == pytest.approx(2.0, abs=1e-9)


def test_degenerate_vertex_terminates():
    # three constraints through the same vertex (Bland's rule must not cycle)
    A = [[1, 1], [1, 0], [0, 1], [-1, 0], [0, -1]]
    value, _ = lp_simplex(LpProblem([1.0, 1.0], A, [1, 1, 1, 0, 0]))
    assert value == pytest.approx(1.0, abs=1e-9)


def test_shape_validation():
    with pytest.raises(ValueError, match="shapes"):
        LpProblem([1.0, 2.0], [[1.0]], [1.0])


def test_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        LpProblem([np.inf], [[1.0]], [1.0])


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_random_bounded_lp_beats_feasible_samples(seed):
    """Optimality probe: no random feasible point scores better."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    m = int(rng.integers(1, 5))
    c = rng.normal(size=n)
    box = np.vstack([np.eye(n), -np.eye(n)])
    box_b = rng.uniform(0.5, 2.0, size=2 * n)
    extra = rng.normal(size=(m, n))
    extra_b = rng.uniform(0.2, 2.0, size=m)  # keeps the origin feasible
    A = np.vstack([box, extra])
    b = np.concatenate([box_b, extra_b])
    value, x = lp_simplex(LpProblem(c, A, b))
    assert np.all(A @ x <= b + 1e-8)
    assert value == pytest.approx(float(c @ x), abs=1e-9)
    lows, highs = -box_b[n:], box_b[:n]
    hits = 0
    for _ in range(1000):
        y = rng.uniform(lows, highs)
        if np.all(A @ y <= b + 1e-12):
            hits += 1
            assert c @ y <= value + 1e-7
    assert hits > 0
