import numpy as np
import pytest

from conftest import (HUGE_ROW, RAY_AND_ORTHANT, mfcq_dual, mfcq_primal,
                      probe_mscq_per_radius, quadratic_expr, random_licq_instance)
from strongmin import cones, cq, expr, problem


class TestMfcq:
    def test_holds_with_descent_direction(self, ex46):
        pd = problem.evaluate(ex46, ex46.point)
        assert cq.check_mfcq(pd) == cq.Verdict(True, "Exact (LP)")

    def test_fails_with_opposed_gradients(self, ex47):
        pd = problem.evaluate(ex47, ex47.point)
        assert cq.check_mfcq(pd) == cq.Verdict(False, "Exact (LP)")

    def test_single_active_constraint(self):
        p = problem.loads("vars: x1 x2\nobjective: x1\n"
                          "block orthant 1:\n  row: x1\npoint: 0 0\n")
        pd = problem.evaluate(p, p.point)
        assert cq.check_mfcq(pd).holds is True

    def test_huge_row_has_a_descent_direction(self):
        # the box LP's absolute tolerances read this row's s as 0
        p = problem.loads(HUGE_ROW)
        pd = problem.evaluate(p, p.point)
        assert cq.check_mfcq(pd) == cq.Verdict(True, "Exact (LP)")
        assert mfcq_primal(pd) is False

    @pytest.mark.parametrize("rows", ["x1\n  row: 1e8*x1", "x1\n  row: 1e8*x1 - 1"])
    def test_rows_of_mixed_size(self, rows):
        # scaled by the largest row, the row x1 would read as 0
        p = problem.loads(f"vars: x1\nobjective: x1^2\n"
                          f"block orthant 2:\n  row: {rows}\npoint: 0\n")
        pd = problem.evaluate(p, p.point)
        assert cq.check_mfcq(pd) == cq.Verdict(True, "Exact (LP)")
        assert mfcq_dual(pd) is True and mfcq_primal(pd) is True

    def test_not_applicable_for_soc(self, ex44):
        pd = problem.evaluate(ex44, ex44.point)
        assert cq.check_mfcq(pd) == cq.Verdict(None, "NotApplicable")

    def test_primal_dual_agreement(self, ex46, ex47, licq):
        for p in (ex46, ex47, licq):
            pd = problem.evaluate(p, p.point)
            assert mfcq_primal(pd) == mfcq_dual(pd)
            assert cq.check_mfcq(pd).holds == mfcq_dual(pd)
            assert cq.check_rcq_dual(pd).holds == mfcq_dual(pd)

    def test_primal_dual_agreement_random(self):
        rng = np.random.default_rng(0)
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
            assert mfcq_primal(pd) == mfcq_dual(pd)
            assert cq.check_mfcq(pd).holds == mfcq_dual(pd)
            assert cq.check_rcq_dual(pd).holds == mfcq_dual(pd)

    def test_agrees_with_gordan_on_criterion_7_draws(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = random_licq_instance(rng)
            pd = problem.evaluate(p, p.point)
            assert cq.check_rcq_dual(pd).holds == mfcq_dual(pd)


class TestCrcq:
    def test_rank_jump_detected(self, ex47):
        pd = problem.evaluate(ex47, ex47.point)
        assert cq.check_crcq(pd) == cq.Verdict(False, "Sampled (ball)")

    def test_rank_jump_detected_quartic(self, ex46):
        pd = problem.evaluate(ex46, ex46.point)
        assert cq.check_crcq(pd).holds is False

    def test_affine_constraints_constant_rank(self, licq, monkeypatch):
        monkeypatch.setattr(cq, "_CRCQ_RADIUS", 0.5)
        pd = problem.evaluate(licq, licq.point)
        assert cq.check_crcq(pd).holds is True

    def test_too_many_active(self):
        # the 2^13 subsets are not enumerated: not applicable, and the
        # certification names the cap
        rows = "\n".join(f"  row: x1 - x{1}^2" for _ in range(13))
        p = problem.loads(f"vars: x1\nobjective: x1\n"
                          f"block orthant 13:\n{rows}\npoint: 0\n")
        pd = problem.evaluate(p, p.point)
        assert cq.check_crcq(pd) == cq.Verdict(
            None, "NotApplicable (13 active rows; subset enumeration capped at 12)")

    def test_not_applicable_for_soc(self, ex44):
        pd = problem.evaluate(ex44, ex44.point)
        assert cq.check_crcq(pd) == cq.Verdict(None, "NotApplicable")


class TestRcq:
    def test_fails_on_degenerate_soc(self, ex44):
        pd = problem.evaluate(ex44, ex44.point)
        assert cq.check_rcq_dual(pd) == cq.Verdict(
            False, "Exact (projected least squares)")

    def test_holds_on_boundary_block(self, socb):
        pd = problem.evaluate(socb, socb.point)
        assert cq.check_rcq_dual(pd) == cq.Verdict(True, "Exact (LP)")

    def test_matches_mfcq_on_orthant_instances(self, ex46, ex47, licq):
        for p in (ex46, ex47, licq):
            pd = problem.evaluate(p, p.point)
            assert cq.check_rcq_dual(pd) == cq.check_mfcq(pd)

    def test_ray_beside_orthant_row(self):
        p = problem.loads(RAY_AND_ORTHANT)
        pd = problem.evaluate(p, p.point)
        lam = np.array([-1.0, 1.0, 0.25])
        assert pd.face.contains(lam[:, None])[0]
        assert np.all(pd.J.T @ lam == 0.0)
        assert cq.check_rcq_dual(pd) == cq.Verdict(False, "Exact (LP)")

    def test_surjective_jacobian(self):
        p = problem.loads("vars: x1 x2\nobjective: x1^2 + x2^2\n"
                          "block orthant 2:\n  row: x1\n  row: x2\npoint: 0 0\n")
        pd = problem.evaluate(p, p.point)
        assert cq.check_rcq_dual(pd).holds is True

    def test_soc_boundary_ray_in_kernel_detected(self):
        # q(x) = (1, 1, 0) constant on the first two coords: the normal ray
        # lies in the kernel of the Jacobian transpose
        p = problem.loads("vars: x1\nobjective: x1^2\n"
                          "block soc 3:\n  row: 0*x1 + 1\n  row: 0*x1 + 1\n"
                          "  row: x1\npoint: 0\n")
        pd = problem.evaluate(p, p.point)
        assert cq.check_rcq_dual(pd).holds is False

    def test_vertex_block_beside_a_huge_row(self):
        # scaled by the inactive row, the vertex block's rows would read as 0
        p = problem.loads("vars: x1 x2 x3\nobjective: 0\nblock soc 3:\n"
                          "  row: 1e-4*x1\n  row: 1e-4*x2\n  row: 1e-4*x3\n"
                          "block orthant 1:\n  row: 1e4*x1 - 1\npoint: 0 0 0\n")
        pd = problem.evaluate(p, p.point)
        assert cq.check_rcq_dual(pd) == cq.Verdict(True, "Exact (LP)")

    @pytest.mark.parametrize("kind, count", [("orthant", 40), ("ray", 40),
                                             ("vertex", 40)])
    def test_planted_truth(self, kind, count):
        # the cut LP settles every planted vertex instance where the
        # condition holds; where it fails the residual does
        rng = np.random.default_rng(["orthant", "ray", "vertex"].index(kind))
        for i in range(count):
            holds = bool(i % 2)
            p = planted_rcq(rng, kind, holds)
            pd = problem.evaluate(p, p.point)
            assert cq.check_rcq_dual(pd) == cq.Verdict(holds, (
                "Exact (projected least squares)" if kind == "vertex" and not holds
                else "Exact (LP)")), (kind, i)

    def test_planted_truth_by_least_squares(self, monkeypatch):
        # without cuts the relaxation leaves some instances to the least
        # squares, which must agree with the planted truth
        monkeypatch.setattr(cq, "_CUT_ROUNDS", 0)
        calls = []
        solve = cq.face_least_squares
        monkeypatch.setattr(cq, "face_least_squares",
                            lambda *a: calls.append(1) or solve(*a))
        rng = np.random.default_rng(2)
        for i in range(12):
            holds = bool(i % 2)
            p = planted_rcq(rng, "vertex", holds)
            pd = problem.evaluate(p, p.point)
            assert cq.check_rcq_dual(pd).holds is holds, i
        assert calls


def planted_rcq(rng, kind, holds):
    """A problem of affine rows q + J x, at the point x = 0, whose Robinson
    condition is planted.

    kind "orthant": 1-3 active orthant rows; "ray": a soc block of size 2-4
    on its boundary; "vertex": a soc block of size 2-4 at its vertex.  Each
    soc kind adds 0-2 active orthant rows, and every kind one inactive
    row.  Fails: a nonzero lam* in the normal cone, with J projected so
    that J^T lam* = 0.  Holds: J made to map a d* into the interior of the
    tangent cone, so that J R^n + T = R^m.
    """
    n = int(rng.integers(1, 4))
    blocks = []  # (cone, value at x = 0)
    if kind != "orthant":
        m = int(rng.integers(2, 5))
        q = np.zeros(m)
        if kind == "ray":
            u = rng.standard_normal(m - 1)
            q = rng.uniform(0.5, 2.0) * np.concatenate([[1.0], u / np.linalg.norm(u)])
        blocks.append((cones.soc(m), q))
    active = int(rng.integers(1, 4) if kind == "orthant" else rng.integers(0, 3))
    blocks.append((cones.orthant(active + 1), np.concatenate([np.zeros(active), [-1.0]])))
    q = np.concatenate([y for _, y in blocks])
    face = cones.normal_face(blocks, 1e-9)
    J = rng.standard_normal((q.size, n))
    if holds:
        v = rng.standard_normal(q.size)
        v[face.nonneg] = -rng.uniform(0.1, 1.0, face.nonneg.size)
        for sl, d in face.rays:  # d.v < 0
            v[sl] -= (d @ v[sl] + rng.uniform(0.1, 1.0)) * d / (d @ d)
        for sl in face.socs:  # v_0 > ||vbar||
            v[sl.start] = np.linalg.norm(v[sl.start + 1:sl.stop]) + rng.uniform(0.1, 1.0)
        d_star = rng.standard_normal(n)
        J += np.outer(v - J @ d_star, d_star) / (d_star @ d_star)
    else:
        lam = np.zeros(q.size)
        lam[face.nonneg] = rng.uniform(0.0, 1.0, face.nonneg.size)
        for sl, d in face.rays:
            lam[sl] = rng.uniform(0.5, 2.0) * d
        for sl in face.socs:  # interior or boundary of -soc
            v = rng.standard_normal(sl.stop - sl.start - 1)
            v *= rng.choice([0.5, 1.0]) / np.linalg.norm(v)
            lam[sl] = -rng.uniform(0.5, 2.0) * np.concatenate([[1.0], v])
        J -= np.outer(lam, lam @ J) / (lam @ lam)
    rows = [expr.Binary("add", expr.Const(float(q[i])), quadratic_expr(J[i], np.zeros((n, n))))
            for i in range(q.size)]
    ends = np.cumsum([k.m for k, _ in blocks])
    return problem.Problem(tuple(f"x{i + 1}" for i in range(n)),
                           quadratic_expr(np.zeros(n), np.eye(n)),
                           tuple(problem.Block(tuple(rows[e - k.m:e]), k)
                                 for (k, _), e in zip(blocks, ends)), np.zeros(n))


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
        """Every sample is feasible, so the one push of both radii is empty."""
        p = problem.loads("vars: x1\nobjective: x1^2\n"
                          "block orthant 1:\n  row: x1 - 10\npoint: 0\n")
        push, widths = cq.push_to_feasible, []

        def spy(p, X):
            widths.append(X.shape[1])
            return push(p, X)

        monkeypatch.setattr(cq, "push_to_feasible", spy)
        probe = cq.probe_mscq(p, radius=0.1)
        assert widths == [0]
        assert probe.verdict == "Supported" and probe.ratio_bound == 0.0

    @pytest.mark.parametrize("name", ["ex44", "ex46", "ex47", "licq", "socb"])
    def test_one_push_equals_a_push_per_radius(self, name, request):
        p = request.getfixturevalue(name)
        assert cq.probe_mscq(p, seed=0) == probe_mscq_per_radius(p, seed=0)

    def test_one_push_equals_a_push_per_radius_on_criterion_7_draws(self):
        rng = np.random.default_rng(0)
        for draw in range(20):
            p = random_licq_instance(rng)
            assert cq.probe_mscq(p, seed=0) == probe_mscq_per_radius(p, seed=0), draw

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
    assert rep.mfcq.holds is False and rep.crcq.holds is False
    assert rep.rcq == rep.mfcq == cq.Verdict(False, "Exact (LP)")
    assert rep.mscq.verdict == "Supported"
    assert any("assumed" in n for n in rep.notes)
