import numpy as np
import pytest

from conftest import mfcq_dual
from strongmin import cq, problem


class TestMfcq:
    def test_holds_with_descent_direction(self, ex46):
        pd = problem.evaluate(ex46, ex46.point)
        assert cq.check_mfcq(pd) is True

    def test_fails_with_opposed_gradients(self, ex47):
        pd = problem.evaluate(ex47, ex47.point)
        assert cq.check_mfcq(pd) is False

    def test_single_active_constraint(self):
        p = problem.loads("vars: x1 x2\nobjective: x1\n"
                          "block orthant 1:\n  row: x1\npoint: 0 0\n")
        pd = problem.evaluate(p, p.point)
        assert cq.check_mfcq(pd) is True

    def test_not_applicable_for_soc(self, ex44):
        pd = problem.evaluate(ex44, ex44.point)
        assert cq.check_mfcq(pd) is None

    def test_primal_dual_agreement(self, ex46, ex47, licq):
        for p in (ex46, ex47, licq):
            pd = problem.evaluate(p, p.point)
            assert cq.check_mfcq(pd) == mfcq_dual(pd)
            assert cq.check_rcq_dual(pd) == mfcq_dual(pd)

    def test_primal_dual_agreement_random(self):
        rng = np.random.default_rng(0)
        from conftest import quadratic_expr
        from strongmin import cones, expr as ex
        for _ in range(25):
            n = int(rng.integers(2, 4))
            k = int(rng.integers(1, 4))
            names = tuple(f"x{i+1}" for i in range(n))
            rows = []
            for _ in range(k):
                a = rng.standard_normal(n)
                rows.append(quadratic_expr(a, np.zeros((n, n))))
            blocks = (problem.Block(tuple(rows), cones.orthant(k)),)
            p = problem.Problem(names, quadratic_expr(np.zeros(n), np.eye(n)),
                                blocks, np.zeros(n))
            pd = problem.evaluate(p, p.point)
            assert cq.check_mfcq(pd) == mfcq_dual(pd)
            assert cq.check_rcq_dual(pd) == mfcq_dual(pd)


class TestCrcq:
    def test_rank_jump_detected(self, ex47):
        pd = problem.evaluate(ex47, ex47.point)
        assert cq.check_crcq(pd) is False

    def test_rank_jump_detected_quartic(self, ex46):
        pd = problem.evaluate(ex46, ex46.point)
        assert cq.check_crcq(pd) is False

    def test_affine_constraints_constant_rank(self, licq, monkeypatch):
        monkeypatch.setattr(cq, "_CRCQ_RADIUS", 0.5)
        pd = problem.evaluate(licq, licq.point)
        assert cq.check_crcq(pd) is True

    def test_too_many_active(self):
        rows = "\n".join(f"  row: x1 - x{1}^2" for _ in range(13))
        p = problem.loads(f"vars: x1\nobjective: x1\n"
                          f"block orthant 13:\n{rows}\npoint: 0\n")
        pd = problem.evaluate(p, p.point)
        with pytest.raises(cq.TooManyActiveConstraints):
            cq.check_crcq(pd)

    def test_not_applicable_for_soc(self, ex44):
        pd = problem.evaluate(ex44, ex44.point)
        assert cq.check_crcq(pd) is None


class TestRcq:
    def test_fails_on_degenerate_soc(self, ex44):
        pd = problem.evaluate(ex44, ex44.point)
        assert cq.check_rcq_dual(pd) is False

    def test_matches_mfcq_on_orthant_instances(self, ex46, ex47, licq):
        for p in (ex46, ex47, licq):
            pd = problem.evaluate(p, p.point)
            assert cq.check_rcq_dual(pd) == cq.check_mfcq(pd)

    def test_surjective_jacobian(self):
        p = problem.loads("vars: x1 x2\nobjective: x1^2 + x2^2\n"
                          "block orthant 2:\n  row: x1\n  row: x2\npoint: 0 0\n")
        pd = problem.evaluate(p, p.point)
        assert cq.check_rcq_dual(pd) is True

    def test_soc_boundary_ray_in_kernel_detected(self):
        # q(x) = (1, 1, 0) constant on the first two coords: the normal ray
        # lies in the kernel of the Jacobian transpose
        p = problem.loads("vars: x1\nobjective: x1^2\n"
                          "block soc 3:\n  row: 0*x1 + 1\n  row: 0*x1 + 1\n"
                          "  row: x1\npoint: 0\n")
        pd = problem.evaluate(p, p.point)
        assert cq.check_rcq_dual(pd) is False


class TestMscqProbe:
    def test_soc_instance_bounded_ratio(self, ex44):
        probe = cq.probe_mscq(ex44, radius=0.1, samples=128, seed=0)
        assert probe.verdict == "Supported"
        assert probe.ratio_bound <= 1.6

    def test_orthant_instance(self, ex47):
        probe = cq.probe_mscq(ex47, radius=0.1, samples=128, seed=0)
        assert probe.verdict == "Supported"

    def test_free_problem_ratio_zero(self):
        p = problem.loads("vars: x1 x2\nobjective: x1^2 + x2^2\npoint: 0 0\n")
        probe = cq.probe_mscq(p)
        assert probe.verdict == "Supported" and probe.ratio_bound == 0.0

    def test_inactive_block_ratio_zero(self, monkeypatch):
        """Every sample is feasible, so each radius pushes an empty batch."""
        p = problem.loads("vars: x1\nobjective: x1^2\n"
                          "block orthant 1:\n  row: x1 - 10\npoint: 0\n")
        push, widths = cq.push_to_feasible, []

        def spy(p, X):
            widths.append(X.shape[1])
            return push(p, X)

        monkeypatch.setattr(cq, "push_to_feasible", spy)
        probe = cq.probe_mscq(p, radius=0.1)
        assert widths == [0, 0]
        assert probe.verdict == "Supported" and probe.ratio_bound == 0.0

    def test_numerator_sane(self, ex44, ex47):
        from strongmin._descent import push_to_feasible
        from strongmin._sampling import ball
        for p in (ex44, ex47):
            X = ball(p.point, 0.1, 200, seed=0)
            Y, res = push_to_feasible(p, X)
            numer = np.linalg.norm(Y - X, axis=0)
            assert np.all(numer >= 0.0)
            assert np.all(numer <= 0.1 + np.linalg.norm(X - p.point[:, None],
                                                        axis=0) + 1e-6)


def test_run_cq_notes(ex47):
    pd = problem.evaluate(ex47, ex47.point)
    rep = cq.run_cq(pd, seed=0)
    assert rep.mfcq is False and rep.crcq is False and rep.rcq is False
    assert rep.mscq.verdict == "Supported"
    assert any("assumed" in n for n in rep.notes)
