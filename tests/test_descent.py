import warnings

import numpy as np
import pytest

from conftest import HUGE_ROW
from strongmin import cones, problem, report
from strongmin._descent import (_RESTORE_ITERS, _improves, _restore, feasibility_residuals,
                                minimize_tilted, push_to_feasible)
from strongmin._sampling import ball


def _assert_batch_invariant(run, N, checked=None):
    """run(cols) returns arrays whose last axis holds the columns ``cols``
    of its inputs: a one-column call gives its column's bits of the call
    on all N columns, for the first ``checked`` (default all) columns."""
    wide = run(slice(None))
    for j in range(N if checked is None else checked):
        for alone, batch in zip(run([j]), wide):
            assert alone[..., 0].tobytes() == batch[..., j].tobytes(), j


@pytest.mark.parametrize("name", ["ex44", "socb", "licq", "ex47"])
def test_push_is_batch_invariant(name, request):
    p = request.getfixturevalue(name)
    X = ball(p.point, 0.2, 400, seed=0)
    _assert_batch_invariant(lambda cols: push_to_feasible(p, X[:, cols]), 400, 40)


@pytest.mark.parametrize("name", ["ex44", "socb", "licq", "ex47"])
def test_restore_is_batch_invariant(name, request):
    """Gauss-Newton straight from the ball samples, as the growth oracle
    runs it: a column stops on its own residual, never on its batch's, and
    the residuals returned are those of the points returned."""
    p = request.getfixturevalue(name)
    X = ball(p.point, 0.2, 400, seed=0)
    Y, res = _restore(p, X.copy(), _RESTORE_ITERS)
    assert not np.array_equal(Y, X)
    assert res.tobytes() == feasibility_residuals(p, Y).tobytes()
    _assert_batch_invariant(
        lambda cols: _restore(p, X[:, cols].copy(), _RESTORE_ITERS), 400, 40)


@pytest.mark.parametrize("name", ["ex44", "socb", "licq", "ex47"])
def test_feasible_columns_are_fixed_points(name, request):
    p = request.getfixturevalue(name)
    X = ball(p.point, 0.2, 400, seed=1)
    feasible = feasibility_residuals(p, X) == 0.0
    assert 0 < feasible.sum() < X.shape[1]
    Y, res = push_to_feasible(p, X)
    assert np.array_equal(Y[:, feasible], X[:, feasible])
    assert np.all(res[feasible] <= 1e-12)


_NINE = [f"x{i}" for i in range(1, 10)]
_NINE_ORTHANT = (
    "vars: " + " ".join(_NINE) + "\n"
    "objective: " + " + ".join(f"{v}^2" for v in _NINE) + "\n"
    "block orthant 2:\n"
    "  row: " + " + ".join(f"{v}^2" for v in _NINE) + " - 0.5\n"
    "  row: " + " + ".join(f"{0.1 * i:g}*{v}" for i, v in enumerate(_NINE, 1))
    + " - 0.2\n"
    "point: " + " ".join("0" for _ in _NINE) + "\n")
# the same nine variables in one soc(9) block: (0.2 + x1, x_i + 0.5 x_i^2)
_NINE_SOC = (
    "vars: " + " ".join(_NINE) + "\n"
    "objective: " + " + ".join(f"{v}^2" for v in _NINE) + "\n"
    "block soc 9:\n"
    "  row: 0.2 + x1\n"
    + "".join(f"  row: {v} + 0.5*{v}^2\n" for v in _NINE[1:])
    + "point: " + " ".join("0" for _ in _NINE) + "\n")


def test_one_column_batch_equals_its_column_of_a_wide_batch():
    """With 9 variables numpy sums a lone column's norms pairwise and a
    wide batch's in row order; column_sum sums both in row order.  The
    feasible second column is pushed like any other and stays put."""
    p = problem.loads(_NINE_ORTHANT)
    X = np.random.default_rng(9).uniform(-1, 1, (9, 6))
    X[:, 1] = -0.1
    assert list(feasibility_residuals(p, X) > 0) == [True, False] + [True] * 4
    _assert_batch_invariant(lambda cols: push_to_feasible(p, X[:, cols]), 6)
    Y, res = push_to_feasible(p, X[:, 1:2])
    assert np.array_equal(Y[:, 0], X[:, 1]) and res[0] == 0.0


def test_initial_step_is_per_column():
    """One column with |x| > 1 takes the step 0.05 |x|_inf; the others keep
    0.05 and equal their one-column runs."""
    p = problem.loads(_NINE_ORTHANT)
    X = np.random.default_rng(4).uniform(-1, 1, (9, 5))
    X[3, 2] = 3.0
    _assert_batch_invariant(lambda cols: push_to_feasible(p, X[:, cols]), 5)


def test_soc9_restore_and_tilted_descent_are_batch_invariant():
    p = problem.loads(_NINE_SOC)
    X = np.random.default_rng(5).uniform(-1, 1, (9, 8))
    assert np.all(feasibility_residuals(p, X) > 0)
    _assert_batch_invariant(
        lambda cols: _restore(p, X[:, cols].copy(), _RESTORE_ITERS), 8)
    V = 0.01 * np.random.default_rng(6).standard_normal((9, 8))
    starts = ball(p.point, 0.2, 8, seed=0)
    _assert_batch_invariant(lambda cols: minimize_tilted(
        p, V[:, cols], starts[:, cols], p.point, 0.25), 8)


def test_no_blocks_returns_x_unchanged():
    p = problem.loads("vars: x1 x2\nobjective: x1^2 + x2^2\npoint: 0 0\n")
    X = ball(p.point, 0.3, 50, seed=0)
    Y, res = push_to_feasible(p, X)
    assert np.array_equal(Y, X) and np.array_equal(res, np.zeros(50))


_HALFPLANE = ("vars: x1 x2\nobjective: 0.5*x1^2 + 0.5*x2^2\n"
              "block orthant 1:\n  row: x1\npoint: 0 0\n")


def _tilted_error(V):
    """Largest distance of minimize_tilted's answers on 0.5|y|^2 - v.y over
    {y1 <= 0} in a 0.25-ball from the minimizer (min(v1, 0), v2)."""
    p = problem.loads(_HALFPLANE)
    center = np.zeros(2)
    starts = ball(center, 0.2, V.shape[1], seed=0)
    Y, vals, res = minimize_tilted(p, V, starts, center, 0.25)
    expected = np.vstack([np.minimum(V[0], 0.0), V[1]])
    assert np.all(res <= 1e-9)
    assert np.max(np.abs(vals - (0.5 * np.sum(Y ** 2, axis=0)
                                 - np.sum(V * Y, axis=0)))) <= 1e-15
    return np.max(np.abs(Y - expected))


def test_tilted_minimizer_in_closed_form():
    V = np.array([[-0.1, 0.0, -0.05, -0.2, 0.0, -0.15],
                  [0.1, 0.0, -0.15, 0.05, 0.12, -0.1]])
    assert _tilted_error(V) <= 1e-6


@pytest.mark.xfail(strict=True, reason="with y1 <= 0 active at the minimizer "
                   "the penalty descent stalls along y2 within its 300 steps")
def test_tilted_minimizer_on_an_active_constraint():
    V = np.array([[0.1, 0.15, 0.05], [0.05, -0.1, 0.1]])
    assert _tilted_error(V) <= 1e-6


def test_singular_restoration_system_stays_in_its_column():
    """Two rows with parallel gradients of norm 1000 where x2 = 0: there
    JJ^T + 1e-12 I is singular in floating point, and only that column may
    take the larger regularization."""
    p = problem.loads("vars: x1 x2\nobjective: x1^2 + x2^2\n"
                      "block orthant 2:\n  row: 1000*x1 + x2^2\n"
                      "  row: 1000*x1 - x2^2\npoint: 0 0\n")
    X = np.array([[0.5, 0.3, 0.5], [0.2, -0.4, 0.0]])
    alone, _ = _restore(p, X[:, :2].copy(), 1)
    batch, _ = _restore(p, X.copy(), 1)
    assert alone.tobytes() == batch[:, :2].copy().tobytes()
    assert feasibility_residuals(p, batch[:, 2:])[0] < feasibility_residuals(p, X[:, 2:])[0]


def test_rejected_restoration_step_is_halved():
    """x1 <= 0 is violated by 1e-3 while -2 x1 + x2 <= 0 holds by 1e-4: the
    step on the violated row alone violates the other by 1.9e-3 and is
    rejected.  Shorter steps bring both rows in, and one more step reaches
    their corner; retrying the same step would leave the column where it is."""
    p = problem.loads("vars: x1 x2\nobjective: x1^2 + x2^2\n"
                      "block orthant 2:\n  row: x1\n  row: -2*x1 + x2\npoint: 0 0\n")
    X = np.array([[1e-3], [1.9e-3]])
    assert np.array_equal(_restore(p, X.copy(), 1)[0], X)
    Y, res = _restore(p, X.copy(), _RESTORE_ITERS)
    assert res[0] <= 1e-13
    assert np.linalg.norm(Y - X) <= 3e-3


def test_accept_test_matches_nan_to_num():
    big = np.finfo(float).max
    vals = np.array([np.inf, -np.inf, np.nan, big, -big, 0.0, -0.0, 1.0, -2.5,
                     1e-300, np.nextafter(big, 0.0)])
    new, old = (a.ravel() for a in np.meshgrid(vals, vals))
    assert np.array_equal(_improves(new, old), np.nan_to_num(new, nan=np.inf) < old)


def test_column_norm_repairs_only_overflowed_columns():
    A = np.array([[3.0, 1e200, 1e300, np.inf, 1e-300, np.nan],
                  [4.0, 1e200, 1.0, 1.0, 0.0, 1.0]])
    norm = cones.column_norm(A)
    plain = np.sqrt(cones.column_sum(A[:, [0, 4]] * A[:, [0, 4]]))
    assert norm[[0, 4]].tobytes() == plain.tobytes()
    assert norm[1] == pytest.approx(np.sqrt(2.0) * 1e200, rel=1e-15)
    assert norm[2] == 1e300 and norm[3] == np.inf and np.isnan(norm[5])


class TestHugeRow:
    """One orthant row x1 / 3.39e-245, of gradient 2.95e244: its squared
    residual is not a float for any x1 above about 4.5e-91."""

    def test_residual_is_finite(self):
        p = problem.loads(HUGE_ROW)
        res = feasibility_residuals(p, np.array([[0.1, -0.1]]))
        assert res[0] == pytest.approx(0.1 / 3.3886258853730173e-245, rel=1e-12)
        assert res[1] == 0.0

    def test_restoration_step_is_scaled(self):
        # the row and residual enter at unit scale: each step keeps about
        # 1e-12 of the residual, the 1e-12 regularization's share
        p = problem.loads(HUGE_ROW)
        X = np.array([[0.1, 0.05]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Y, res = _restore(p, X.copy(), 2)
        assert np.all(Y > 0.0) and np.all(Y <= 1e-23 * X)
        assert res.tobytes() == feasibility_residuals(p, Y).tobytes()

    def test_push_leaves_unsquarable_columns_to_restoration(self):
        p = problem.loads(HUGE_ROW)
        X = np.array([[0.1, -0.05]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Y, res = push_to_feasible(p, X)
        assert Y.tobytes() == _restore(p, X.copy(), _RESTORE_ITERS)[0].tobytes()
        assert Y[0, 1] == -0.05 and res[1] == 0.0

    def test_analyze_raises_no_warning(self, tmp_path):
        path = tmp_path / "huge_row.prob"
        path.write_text(HUGE_ROW)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = report.analyze_report(str(path), samples=500)
        assert rep["failed_stage"] is None
        # restoration cannot bring x1 to the 3.4e-254 the absolute keep
        # tolerance asks of this row: the infeasible half stays unplaced
        assert rep["oracle"]["kept_counts"] == [250, 250, 250]
        assert rep["cq"]["mscq_probe"]["verdict"] == "Inconclusive"
