import numpy as np
import pytest
from hypothesis import given, settings

from conftest import corpus_path, problems
from strongmin import cones, expr, problem
from strongmin._sampling import ball


class TestLoad:
    def test_soc_instance(self, ex44):
        assert ex44.n == 3
        assert len(ex44.blocks) == 1
        assert ex44.blocks[0].cone == cones.soc(3)
        assert np.allclose(ex44.point, 0.0)

    def test_orthant_instance(self, ex47):
        assert len(ex47.blocks) == 1
        assert ex47.blocks[0].cone == cones.orthant(3)

    def test_block_dimension_mismatch(self):
        text = """vars: x1 x2
objective: x1
block soc 3:
  row: x1
  row: x2
point: 0 0
"""
        with pytest.raises(problem.ProblemFormatError) as err:
            problem.loads(text)
        assert "3 rows" in str(err.value)

    def test_extra_row_rejected(self):
        text = """vars: x1
objective: x1
block orthant 1:
  row: x1
  row: x1
"""
        with pytest.raises(problem.ProblemFormatError):
            problem.loads(text)

    def test_point_length_checked(self):
        with pytest.raises(problem.ProblemFormatError):
            problem.loads("vars: x1 x2\nobjective: x1\npoint: 1\n")

    def test_duplicate_point_rejected(self):
        with pytest.raises(problem.ProblemFormatError):
            problem.loads("vars: x1\nobjective: x1\npoint: 0\npoint: 1\n")

    def test_variable_names_checked_at_vars_line(self):
        for names in ("x1 2", "x1 x1,y", "x1 sin"):
            with pytest.raises(problem.ProblemFormatError) as err:
                problem.loads(f"vars: {names}\nobjective: x1\n")
            assert err.value.line == 1
        p = problem.loads("vars: x1 _y αβ\nobjective: x1 + _y*αβ\n")
        assert p.variables == ("x1", "_y", "αβ")

    def test_parse_error_carries_line(self):
        with pytest.raises(problem.ProblemFormatError) as err:
            problem.loads("vars: x1\nobjective: x1 +\npoint: 0\n")
        assert err.value.line == 2

    def test_comments_and_blank_lines(self):
        p = problem.loads("""
# leading comment
vars: x1   # trailing comment

objective: x1^2
point: 0
""")
        assert p.n == 1


class TestRoundTrip:
    def test_save_load_equivalent(self, ex44, ex46, ex47, socb, licq):
        rng = np.random.default_rng(0)
        for p in (ex44, ex46, ex47, socb, licq):
            p2 = problem.loads(problem.save_text(p))
            for _ in range(100):
                x = rng.uniform(-1, 1, size=p.n)
                a = problem.evaluate(p, x)
                b = problem.evaluate(p2, x)
                assert abs(a.g.value - b.g.value) <= 1e-12 * max(1, abs(a.g.value))
                assert np.allclose(a.q, b.q, rtol=1e-12, atol=1e-12)

    def test_digest_stable(self, ex44):
        assert ex44.digest() == problem.loads(problem.save_text(ex44)).digest()

    @settings(max_examples=200, deadline=None)
    @given(p=problems())
    def test_digest_survives_a_text_round_trip(self, p):
        # polynomial and smooth rows, orthant and soc blocks, with and
        # without a point; a lossy number format would keep the digest of
        # the reloaded text, so the point must come back exactly too
        back = problem.loads(problem.save_text(p))
        assert back.digest() == p.digest()
        if p.point is None:
            assert back.point is None
        else:
            assert back.point.tobytes() == p.point.tobytes()


class TestEvaluate:
    def test_soc_vertex_jacobian(self, ex44):
        pd = problem.evaluate(ex44, [0.0, 0.0, 0.0])
        assert np.allclose(pd.q, 0.0)
        expected = np.array([[0, 0, 0], [0, 0, -1], [0, 0, 1]], dtype=float)
        assert np.allclose(pd.J, expected)
        assert [(sl.start, sl.stop) for sl in pd.face.socs] == [(0, 3)]
        assert not pd.face.rays and not pd.face.nonneg.size and not pd.face.fixed.size

    def test_orthant_activity(self, ex46):
        pd = problem.evaluate(ex46, [0.0, 0.0, 0.0])
        assert pd.face.nonneg.tolist() == [0, 1]
        assert pd.face.fixed.tolist() == []
        assert np.allclose(pd.J[ex46.block_slices[0]], [[1, 0, 0], [1, 0, 0]])

    def test_infeasible_point_records_residual(self, ex47):
        pd = problem.evaluate(ex47, [1.0, 0.0, 0.0])
        assert pd.max_residual > 0.1
        assert not pd.feasible

    def test_deterministic(self, ex44):
        a = problem.evaluate(ex44, [0.01, 0.02, 0.0])
        b = problem.evaluate(ex44, [0.01, 0.02, 0.0])
        assert a.g.value == b.g.value
        assert np.array_equal(a.J, b.J)

    def test_soc_boundary_activity(self, socb):
        pd = problem.evaluate(socb, socb.point)
        assert [(sl.start, sl.stop) for sl, _ in pd.face.rays] == [(0, 3)]
        assert not pd.face.socs and not pd.face.fixed.size


def _quadratic_row(c, Q):
    """c.x + 0.5 x.Q.x built term by term from 0, as the LICQ sweep of the
    benchmark and of acceptance criterion 7 builds its rows."""
    n = len(c)
    e = expr.Const(0.0)
    for i in range(n):
        e = expr.Binary("add", e, expr.Binary("mul", expr.Const(float(c[i])),
                                              expr.Var(i)))
    for i in range(n):
        for j in range(i, n):
            coef = 0.5 * Q[i, j] if i == j else Q[i, j]
            e = expr.Binary("add", e, expr.Binary(
                "mul", expr.Const(float(coef)),
                expr.Binary("mul", expr.Var(i), expr.Var(j))))
    return e


def _licq_sweep_instance():
    rng = np.random.default_rng(11)
    n, k = 4, 3
    rows = []
    for _ in range(k):
        B = 0.4 * rng.standard_normal((n, n))
        rows.append(_quadratic_row(rng.standard_normal(n), B + B.T))
    H = rng.standard_normal((n, n))
    p = problem.Problem(tuple(f"x{i + 1}" for i in range(n)),
                        _quadratic_row(rng.standard_normal(n), H + H.T),
                        (problem.Block(tuple(rows), cones.orthant(k)),),
                        np.zeros(n))
    return problem.loads(problem.save_text(p))  # through text, as the sweep


class TestBatchedRows:
    @pytest.mark.parametrize("name", ["ex44", "ex46", "ex47", "licq", "quad3",
                                      "socb", "licq-sweep"])
    def test_compiled_rows_give_the_walkers_values(self, name):
        """Rows written as sums of coefficient times monomial evaluate, once
        compiled, to the walker's floats (np.array_equal: the sign of a zero
        aside), and the values path gives the gradients path's bytes."""
        p = (_licq_sweep_instance() if name == "licq-sweep"
             else problem.load(corpus_path(name, "problem.prob")))
        X = ball(p.point, 1.0, 1000, seed=5)
        rows = [r for b in p.blocks for r in b.rows]
        assert all(t is not None for t in p.row_stack.compiled)
        assert p.objective_stack.compiled[0] is not None
        q, jacs = problem.batch_constraint_grads(p, X)
        assert q.shape == (len(rows), 1000) and jacs.shape == (len(rows), p.n, 1000)
        for i, row in enumerate(rows):
            v, g = expr.eval_grads(row, X)
            assert np.array_equal(q[i], v) and np.array_equal(jacs[i], g)
        assert problem.batch_constraint_values(p, X).tobytes() == q.tobytes()
        gv, gg = problem.batch_objective_grads(p, X)
        wv, wg = expr.eval_grads(p.objective, X)
        assert np.array_equal(gv, wv) and np.array_equal(gg, wg)
        assert problem.batch_objective_values(p, X).tobytes() == gv.tobytes()

    def test_rows_compile_on_first_batched_call(self, tmp_path):
        path = tmp_path / "p.prob"
        path.write_text("vars: x1\nobjective: x1^2\nblock orthant 1:\n"
                        "  row: x1\npoint: 0\n")
        p = problem.load(str(path))
        assert "row_stack" not in vars(p) and "objective_stack" not in vars(p)
        problem.batch_constraint_values(p, np.zeros((1, 3)))
        assert "row_stack" in vars(p) and "objective_stack" not in vars(p)

    def test_no_blocks(self):
        p = problem.loads("vars: x1 x2\nobjective: x1*x2\npoint: 0 0\n")
        X = np.ones((2, 4))
        q, jacs = problem.batch_constraint_grads(p, X)
        assert q.shape == (0, 4) and jacs.shape == (0, 2, 4)
        assert problem.batch_constraint_values(p, X).shape == (0, 4)
