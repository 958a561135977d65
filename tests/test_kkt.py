import numpy as np
import pytest
from hypothesis import assume, example, given, settings

from conftest import (CONIC_CORPUS, HUGE_GRADIENT, MIXED_SOC_AND_ORTHANT, SOC_SEGMENT,
                      corpus_path, full_budget_stationarity, normal_cone_test,
                      pipeline, problems, random_licq_instance, sample_members)
from strongmin import cones, expr, kkt, problem, sosc


HUGE_POINT = ("vars: x1\nobjective: 0.0\nblock soc 2:\n  row: 0.0\n  row: 0.0\n"
              "block soc 2:\n  row: 0.0\n  row: x1^1\nblock orthant 1:\n"
              "  row: 0.0\npoint: 1.3407807929942597e+154\n")
HUGE_JACOBIAN = ("vars: x1\nobjective: 0\nblock orthant 1:\n"
                 "  row: x1 / 3.3886258853730173e-245\npoint: 0\n")


def same_bits(st, ref):
    """Residual and witness of two StationarityResults agree bit for bit."""
    assert np.float64(st.residual).tobytes() == np.float64(ref.residual).tobytes()
    assert st.is_stationary == ref.is_stationary
    if ref.witness is None:
        assert st.witness is None
    else:
        assert st.witness.tobytes() == ref.witness.tobytes()


class TestStationarity:
    def test_zero_gradient_vertex(self, ex44):
        pd = problem.evaluate(ex44, ex44.point)
        st = kkt.stationarity_check(pd)
        assert st.is_stationary
        assert st.residual <= 1e-12
        assert np.allclose(st.witness, 0.0, atol=1e-9)

    def test_orthant_combination(self, ex47):
        pd = problem.evaluate(ex47, ex47.point)
        st = kkt.stationarity_check(pd)
        assert st.is_stationary and st.residual <= 1e-9
        lam = st.witness
        assert abs(lam[0] + lam[1] - lam[2] - 1.0) <= 1e-9
        assert np.all(lam >= -1e-10)

    def test_huge_jacobian_is_stationary(self):
        """||J||_2 ~ 3e244 squares to inf: the step is 0.0, not an
        OverflowError, and lam = 0 certifies the point."""
        pd = problem.evaluate(problem.loads(HUGE_JACOBIAN), [0.0])
        st = kkt.stationarity_check(pd)
        assert st.is_stationary and st.residual == 0.0

    def test_not_stationary_unconstrained(self):
        p = problem.loads("vars: x1\nobjective: x1^2\npoint: 1\n")
        pd = problem.evaluate(p, p.point)
        st = kkt.stationarity_check(pd)
        assert not st.is_stationary
        assert abs(st.residual - 2.0) <= 1e-12
        assert st.witness is None

    def test_witness_properties(self, ex44, ex46, ex47, socb, licq):
        for p in (ex44, ex46, ex47, socb, licq):
            pd = problem.evaluate(p, p.point)
            st = kkt.stationarity_check(pd)
            assert st.is_stationary
            res = np.linalg.norm(pd.g.gradient + pd.J.T @ st.witness)
            assert res <= 1e-7
            for b, sl in zip(p.blocks, p.block_slices):
                y = cones.project(b.cone, pd.q[sl])
                assert normal_cone_test(b.cone, y, st.witness[sl], tol=1e-8)


class TestFixedPointExit:
    # the loop leaves at a bitwise fixed point, after which every iterate of
    # the full budget would repeat it: witness and residual keep their bits

    @pytest.mark.parametrize("name", CONIC_CORPUS)
    def test_corpus_equals_full_budget(self, name):
        p = problem.load(corpus_path(name, "problem.prob"))
        pd = problem.evaluate(p, p.point)
        same_bits(kkt.stationarity_check(pd), full_budget_stationarity(pd))

    @settings(max_examples=60, deadline=None)
    @given(p=problems())
    # a point whose soc residual overflows: evaluate refuses it
    @example(p=problem.loads(HUGE_POINT))
    # ||J||^2 beyond the float range: the step is 0.0 and lam = 0 solves it
    @example(p=problem.loads(HUGE_JACOBIAN))
    # multipliers whose squares overflow: evaluate refuses it
    @example(p=problem.loads(HUGE_GRADIENT))
    def test_random_problems_equal_full_budget(self, p):
        with np.errstate(all="ignore"):
            try:
                pd = problem.evaluate(p, np.zeros(p.n) if p.point is None else p.point)
            except expr.ExprError:
                assume(False)
            same_bits(kkt.stationarity_check(pd), full_budget_stationarity(pd))

    def test_criterion_7_draws_equal_full_budget(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = random_licq_instance(rng)
            pd = problem.evaluate(p, p.point)
            same_bits(kkt.stationarity_check(pd), full_budget_stationarity(pd))

    def test_ex44_exits_within_three_iterations(self, ex44, monkeypatch):
        pd = problem.evaluate(ex44, ex44.point)
        project = cones.NormalFace.project
        calls = []

        def spy(face, lam):
            calls.append(1)
            return project(face, lam)

        monkeypatch.setattr(cones.NormalFace, "project", spy)
        assert kkt.stationarity_check(pd).is_stationary
        assert 1 <= len(calls) <= 3


class TestMultiplierSet:
    def test_soc_vertex_cone_parameterization(self, ex44):
        pd, st, ms = pipeline(ex44)
        assert ms.k == 2
        assert len(ms.face.socs) == 1
        # members have lam2 = lam3 and lam1 <= -sqrt(2)|lam2|
        for lam in sample_members(ms, 50, seed=1):
            assert abs(lam[1] - lam[2]) <= 1e-9
            assert lam[0] <= -np.sqrt(2.0) * abs(lam[1]) + 1e-8

    def test_orthant_polyhedron(self, ex47):
        pd, st, ms = pipeline(ex47)
        assert ms.k == 2
        for lam in sample_members(ms, 50, seed=2):
            assert np.all(lam >= -1e-10)
            assert abs(lam[0] + lam[1] - lam[2] - 1.0) <= 1e-9

    def test_licq_singleton(self, licq):
        pd, st, ms = pipeline(licq)
        assert ms.k == 0
        assert np.allclose(ms.lam0, [1.0], atol=1e-9)

    def test_ray_parameterization(self, socb):
        pd, st, ms = pipeline(socb)
        assert ms.k == 0
        assert np.allclose(ms.lam0, [-1.0, 1.0, 0.0], atol=1e-9)

    def test_requires_stationarity(self):
        p = problem.loads("vars: x1\nobjective: x1^2\npoint: 1\n")
        pd = problem.evaluate(p, p.point)
        with pytest.raises(kkt.EmptyMultiplierSet):
            kkt.build_multiplier_set(pd)

    def test_members_solve_stationarity_equation(self, ex44, ex46, ex47):
        for p in (ex44, ex46, ex47):
            pd, st, ms = pipeline(p)
            for lam in sample_members(ms, 50, seed=9):
                assert np.linalg.norm(pd.g.gradient + pd.J.T @ lam) <= 1e-8
                for b, sl in zip(p.blocks, p.block_slices):
                    y = cones.project(b.cone, pd.q[sl])
                    assert normal_cone_test(b.cone, y, lam[sl], tol=1e-8)


class TestMaximizeLinear:
    def test_vertex_max_on_polyhedron(self, ex47):
        # c from the direction (0,1,1)/sqrt(2): optimum -1/2 at a vertex
        pd, st, ms = pipeline(ex47)
        res = kkt.maximize_linear(ms, np.array([-0.5, -0.5, -1.0]))
        assert res.status == "bounded"
        assert abs(res.value + 0.5) <= 1e-9
        assert ms.face.contains(res.argmax[:, None], tol=1e-8)[0]

    def test_vertex_enumeration_oracle(self, ex47):
        # truncate the unbounded polyhedron and let the bound grow
        pd, st, ms = pipeline(ex47)
        rng = np.random.default_rng(3)
        for _ in range(20):
            c = rng.standard_normal(3)
            res = kkt.maximize_linear(ms, c)
            best = -np.inf
            for B in (10.0, 100.0, 1000.0):
                # vertices of {lam >= 0, lam1+lam2-lam3 = 1, lam3 <= B}
                verts = [np.array([1.0, 0, 0]), np.array([0, 1.0, 0]),
                         np.array([1 + B, 0, B]), np.array([0, 1 + B, B])]
                tbest = max(float(c @ v) for v in verts)
                grow = tbest > best + 1e-12 * max(1.0, abs(best))
                best = max(best, tbest)
            if res.status == "unbounded":
                assert grow  # truncated maxima keep increasing with B
            else:
                assert not grow
                assert abs(res.value - best) <= 1e-7 * max(1.0, abs(best))

    def test_soc_cone_max_zero(self, ex44):
        pd, st, ms = pipeline(ex44)
        res = kkt.maximize_linear(ms, np.array([4.0, 2.0, 2.0]))
        assert res.status == "bounded"
        assert abs(res.value) <= 1e-9
        assert np.allclose(res.argmax, 0.0, atol=1e-8)

    def test_zero_objective(self, ex44):
        pd, st, ms = pipeline(ex44)
        res = kkt.maximize_linear(ms, np.zeros(3))
        assert res.status == "bounded" and abs(res.value) <= 1e-12

    def test_unbounded_direction_is_genuine(self, ex44):
        pd, st, ms = pipeline(ex44)
        res = kkt.maximize_linear(ms, np.array([-1.0, 0.0, 0.0]))
        assert res.status == "unbounded"
        r = res.ray
        assert -r[0] >= np.linalg.norm(r[1:]) - 1e-9  # stays in the polar cone
        assert abs(r[1] - r[2]) <= 1e-9               # stays in the kernel slice

    def test_sandwich_bound(self, ex46, ex47):
        rng = np.random.default_rng(4)
        for p in (ex46, ex47):
            pd, st, ms = pipeline(p)
            for _ in range(5):
                c = rng.standard_normal(ms.m)
                up = kkt.maximize_linear(ms, c)
                dn = kkt.maximize_linear(ms, -c)
                if up.status != "bounded" or dn.status != "bounded":
                    continue
                for lam in sample_members(ms, 100, seed=5):
                    v = float(c @ lam)
                    assert -dn.value - 1e-8 <= v <= up.value + 1e-8

    def test_positive_scaling(self, ex46, ex47, ex44):
        rng = np.random.default_rng(6)
        for p in (ex46, ex47, ex44):
            pd, st, ms = pipeline(p)
            for _ in range(5):
                c = rng.standard_normal(ms.m)
                r1 = kkt.maximize_linear(ms, c)
                r4 = kkt.maximize_linear(ms, 4.0 * c)
                if r1.status == "bounded":
                    assert r4.status == "bounded"
                    assert abs(r4.value - 4.0 * r1.value) <= 1e-9 * max(
                        1.0, abs(r1.value))
                else:
                    assert r4.status == "unbounded"

    def test_argmax_always_feasible(self, ex44, ex46, ex47):
        rng = np.random.default_rng(7)
        for p in (ex44, ex46, ex47):
            pd, st, ms = pipeline(p)
            J = pd.J
            for _ in range(10):
                c = rng.standard_normal(ms.m)
                res = kkt.maximize_linear(ms, c)
                if res.status != "bounded":
                    continue
                lam = res.argmax
                assert np.linalg.norm(pd.g.gradient + J.T @ lam) <= 1e-7
                assert ms.face.contains(lam[:, None], tol=1e-8)[0]


class TestEnumeration:
    def test_geometry_matches_lp(self, ex46, ex47, licq):
        rng = np.random.default_rng(8)
        for p in (ex46, ex47, licq):
            pd, st, ms = pipeline(p)
            geom = kkt.enumerate_polyhedron(ms)
            assert geom is not None
            V, R = geom
            for _ in range(20):
                c = rng.standard_normal(ms.m)
                res = kkt.maximize_linear(ms, c)
                if R.shape[1] and np.any(R.T @ c > 1e-9 * (1 + np.linalg.norm(c))):
                    assert res.status == "unbounded"
                else:
                    assert res.status == "bounded"
                    assert abs(np.max(V.T @ c) - res.value) <= 1e-8


def vertex_maximizer_case(name):
    text = {"mixed": MIXED_SOC_AND_ORTHANT, "segment": SOC_SEGMENT}.get(name)
    p = (problem.loads(text) if text else
         problem.load(corpus_path(name, "problem.prob")))
    pd, st, ms = pipeline(p)
    geom = kkt.enumerate_polyhedron(ms)
    assert geom is not None and ms.face.socs
    return pd, ms, kkt.VertexMaximizer(ms, geom)


class TestVertexMaximizer:
    # ex44: a polar soc cone (k = 2); mixed: a soc block beside an orthant
    # row; segment: every relaxation vertex leaves -soc
    @pytest.mark.parametrize("name", ["ex44", "mixed", "segment"])
    def test_settled_columns_match_maximize_linear(self, name):
        pd, ms, vmax = vertex_maximizer_case(name)
        J = pd.J
        C = np.random.default_rng(12).standard_normal((ms.m, 200))
        values, best, settled = vmax(C)
        for j in np.flatnonzero(settled):
            res = kkt.maximize_linear(ms, C[:, j])
            if res.status == "unbounded":
                assert values[j] == np.inf
                continue
            assert res.status == "bounded" and np.isfinite(values[j])
            assert abs(values[j] - res.value) <= 1e-9 * max(1.0, abs(res.value))
            lam = vmax.vertices[:, best[j]]
            assert np.linalg.norm(pd.g.gradient + J.T @ lam) <= 1e-8
            assert ms.face.contains(lam[:, None], tol=1e-8)[0]
            assert ms.face.soc_violation(lam) <= 1e-9
        if name == "segment":
            assert not settled.any()
        else:
            assert settled.sum() >= 20

    @pytest.mark.parametrize("name", ["ex44", "mixed", "segment"])
    def test_evaluator_matches_maximize_linear(self, name):
        pd, ms, _ = vertex_maximizer_case(name)
        evaluator = sosc._SigmaEvaluator(pd, ms)
        W = np.random.default_rng(13).standard_normal((pd.n, 60))
        W /= np.linalg.norm(W, axis=0)
        got, lams, settled = evaluator(W)
        # the vertices settle every direction on ex44 and mixed, none on segment
        assert (not settled.any()) if name == "segment" else settled.all()
        assert np.isnan(got[~settled]).all()
        T = sosc._curvature_tensor(pd)
        for j in range(W.shape[1]):
            w = W[:, j]
            res = kkt.maximize_linear(ms, np.einsum("ijk,j,k->i", T, w, w))
            val, argmax = evaluator.inner_max(W[:, j:j + 1])
            pairs = [(val[0], argmax[:, 0])]
            if settled[j]:
                pairs.append((got[j], lams[:, j]))
            if res.status == "unbounded":
                assert all(v == np.inf for v, _ in pairs)
                assert np.isnan(argmax).all()
                continue
            want = float(w @ pd.g.hessian @ w) + res.value
            for v, lam in pairs:
                assert abs(v - want) <= 1e-9 * max(1.0, abs(want))
                assert ms.face.contains(lam[:, None], tol=1e-8)[0]
