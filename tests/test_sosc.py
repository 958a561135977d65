import itertools
import math

import numpy as np
import pytest

from conftest import (CONIC_CORPUS, MIXED_SOC_AND_ORTHANT, NO_VERTEX_GEOMETRY,
                      SOC_SLICE_ZERO_CONE, corpus_path, pipeline,
                      random_licq_instance, random_quadratic_problem,
                      rescaled_rays, sample_members, sigma, with_shifted_objective)
from strongmin import kkt, problem, report, sosc
from strongmin._sampling import sphere


def corpus_cone(name):
    p = problem.load(corpus_path(name, "problem.prob"))
    return sosc.build_critical_cone(problem.evaluate(p, p.point))


def soc_and_orthant_cone():
    # (w1, w2, w3) in soc(3) and w4 <= 0: ADMM iterates land in the
    # interior, on the boundary and at the vertex of the soc block
    return sosc.CriticalCone(4, np.zeros((0, 4)), np.array([[0.0, 0.0, 0.0, 1.0]]),
                             [(np.eye(4)[:3], 3)])


def relaxation_is_trivial(cone):
    """Reference emptiness certificate: True when each of +-w_i has maximum
    at most 0.5 over the box |w_i| <= 1 intersected with the polyhedral
    relaxation of ``CriticalCone._box_maxima``.  The relaxation is a cone,
    so the 2n optima are all 0 when it is {0} and their maximum is 1
    otherwise.  Exact for polyhedral cones; with soc blocks a True answer
    is a certificate and False decides nothing."""
    box = np.eye(cone.n)
    return all(v is not None and v <= 0.5
               for v in cone._box_maxima(np.vstack([box, -box])))


def presolves_to_zero(cone):
    pre = sosc.presolve(cone)
    return pre.is_subspace and pre.subspace_basis().shape[1] == 0


def admm_two_solves(cone, W2):
    """Reference ADMM on the cone's ADMM rows M: the x-update solves with
    the Cholesky factor of I + M^T M twice per iteration.  Every column
    iterates until all have stopped; a column's x is frozen from the first
    iteration where its primal and dual residuals are both at most
    sosc._ADMM_TOL."""
    M = cone._A
    chol = np.linalg.cholesky(np.eye(cone.n) + M.T @ M)
    Z = cone._proj_D(M @ W2)
    U = np.zeros_like(Z)
    X = W2.copy()
    live = np.ones(W2.shape[1], dtype=bool)
    for _ in range(sosc._ADMM_MAX_ITERS):
        rhs = W2 + M.T @ (Z - U)
        Xk = np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))
        MX = M @ Xk
        Z_prev = Z
        Z = cone._proj_D(MX + U)
        U = U + MX - Z
        X[:, live] = Xk[:, live]
        live &= ((np.linalg.norm(MX - Z, axis=0) > sosc._ADMM_TOL)
                 | (np.linalg.norm(M.T @ (Z - Z_prev), axis=0) > sosc._ADMM_TOL))
        if not live.any():
            break
    return X


class TestCriticalCone:
    def test_soc_vertex_cone_is_axis_plane(self, ex44):
        pd = problem.evaluate(ex44, ex44.point)
        cone = sosc.build_critical_cone(pd)
        assert cone.contains([1.0, 0.0, 0.0])
        assert cone.contains([0.3, -2.0, 0.0])
        assert not cone.contains([0.0, 0.0, 1.0])
        assert not cone.contains([0.0, 0.0, -1e-3])

    def test_orthant_cone(self, ex47):
        pd = problem.evaluate(ex47, ex47.point)
        cone = sosc.build_critical_cone(pd)
        assert cone.contains([0.0, 1.0, -2.0])
        assert not cone.contains([0.1, 0.0, 0.0])
        assert not cone.contains([-0.1, 0.0, 0.0])

    def test_rows_far_from_unit_size_project_as_unit_rows(self):
        # the ADMM operator of a row of norm 2.95e244 overflowed, and one of
        # norm 1e-200 vanished beside the identity, so w = 2 stayed put
        # unit rows: scaling them back to unit size gives the same ADMM
        W = 2.0 * sphere(3, 200, seed=1)
        F = np.array([[0.6, -0.8, 0.0]])
        B = np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8], [0.8, 0.0, 0.6]])
        for s in (1.0 / 3.3886258853730173e-245, 1e-200):
            np.testing.assert_allclose(
                sosc.CriticalCone(1, np.zeros((0, 1)), np.array([[s]]), []).project(
                    np.array([[2.0, -3.0]])), [[0.0, -3.0]], rtol=0.0, atol=1e-11)
            ref = sosc.CriticalCone(3, np.zeros((0, 3)), F, [(B, 3)]).project(W)
            scaled = sosc.CriticalCone(3, np.zeros((0, 3)), s * F, [(s * B, 3)])
            assert np.max(np.abs(scaled.project(W) - ref)) <= 1e-9

    def test_unconstrained_cases(self):
        p = problem.loads("vars: x1 x2\nobjective: x1^2 + x2^2\npoint: 0 0\n")
        pd = problem.evaluate(p, p.point)
        cone = sosc.build_critical_cone(pd)
        assert cone.is_subspace and cone.subspace_basis().shape == (2, 2)
        # nonstationary point: cone is the orthogonal complement of the gradient
        pd2 = problem.evaluate(p, [1.0, 0.0])
        cone2 = sosc.build_critical_cone(pd2)
        assert cone2.contains([0.0, 5.0])
        assert not cone2.contains([1.0, 0.0])

    def test_zero_membership_and_scaling(self, ex44, ex46, ex47, socb):
        rng = np.random.default_rng(0)
        for p in (ex44, ex46, ex47, socb):
            pd = problem.evaluate(p, p.point)
            cone = sosc.build_critical_cone(pd)
            assert cone.contains(np.zeros(pd.n))
            for _ in range(20):
                w = cone.project(rng.standard_normal(pd.n))
                assert cone.contains(w, tol=1e-9)
                assert cone.contains(3.0 * w, tol=1e-8)

    @pytest.mark.parametrize("name", CONIC_CORPUS)
    def test_admm_matches_two_solve_reference(self, name):
        cone = corpus_cone(name)
        W = sphere(cone.n, 500, seed=1)
        assert np.max(np.abs(cone._admm(W) - admm_two_solves(cone, W))) <= 1e-12

    @pytest.mark.parametrize("name", CONIC_CORPUS + ("soc_and_orthant",))
    def test_moreau_decomposition(self, name):
        # P(w) and w - P(w) are orthogonal and w - P(w) lies in the polar
        # cone: it projects to zero and has no positive inner product with
        # any cone member
        cone = (soc_and_orthant_cone() if name == "soc_and_orthant"
                else corpus_cone(name))
        W = 3.0 * sphere(cone.n, 200, seed=4)
        P = cone.project(W)
        R = W - P
        assert np.max(np.abs(np.sum(P * R, axis=0))) <= 1e-9
        assert np.max(np.linalg.norm(cone.project(R), axis=0)) <= 1e-6
        members = cone.project(sphere(cone.n, 300, seed=5))
        assert np.max(cone.violation(members)) <= 1e-9
        assert np.max(R.T @ members) <= 1e-6

    def test_projection_is_exact_on_criterion_7_cones(self):
        # criterion 7's presolved cones that keep an inequality row: a
        # column stops once ||M x - z|| <= _ADMM_TOL, about that divided by
        # the row norm from the face, so agreement is to a few 1e-12
        rng = np.random.default_rng(0)
        checked = 0
        for _ in range(50):
            pd, st, ms = pipeline(random_licq_instance(rng))
            cone = sosc.presolve(sosc.build_critical_cone(pd))
            if not cone.ineq.shape[0]:
                continue
            W = sphere(cone.n, 300, seed=0)
            exact = face_projection(cone.eq, cone.ineq, W)
            assert np.max(np.abs(cone.project(W) - exact)) <= 3e-12
            checked += 1
        assert checked == 30

    def test_soc_and_orthant_projection_is_orthogonal(self):
        cone = soc_and_orthant_cone()
        W = sphere(4, 600, seed=2)
        P = cone.project(W)
        assert np.max(np.abs(np.sum(P * (W - P), axis=0))) <= 1e-12
        assert np.max(cone.violation(P)) <= 1e-12

    def test_projection_is_euclidean(self, ex47):
        pd = problem.evaluate(ex47, ex47.point)
        cone = sosc.build_critical_cone(pd)
        rng = np.random.default_rng(1)
        for _ in range(30):
            w0 = rng.standard_normal(3)
            w = cone.project(w0)
            # optimality: no feasible point is closer (finite sample check)
            for _ in range(20):
                cand = cone.project(w0 + 0.5 * rng.standard_normal(3))
                assert np.linalg.norm(w - w0) <= np.linalg.norm(cand - w0) + 1e-8


def planted_cone(rng, with_soc):
    """Random cone whose inequality rows hide implicit equalities: a and b
    with -(a + b) force a.w = b.w = 0, and a soc block with a zero first
    row forces its other rows to vanish; optionally a genuine soc block."""
    n = int(rng.integers(3, 6))
    a, b = rng.standard_normal((2, n))
    free = rng.standard_normal((int(rng.integers(0, 3)), n))
    rows = np.vstack([a, free, b, -(a + b)])
    ineq = rows[rng.permutation(rows.shape[0])]
    soc = [(np.vstack([np.zeros(n), rng.standard_normal((1, n))]), 2)]
    if with_soc:
        soc.append((np.vstack([np.eye(n)[0] * 3.0, rng.standard_normal((2, n))]), 3))
    return sosc.CriticalCone(n, np.zeros((0, n)), ineq, soc)


def null_basis(A, n):
    if A.shape[0] == 0:
        return np.eye(n)
    _, s, vt = np.linalg.svd(A)
    return vt[int(np.sum(s > 1e-10 * max(1.0, s[0]))):].T


def face_projection(E, F, W):
    """Euclidean projection onto the polyhedral cone {E w = 0, F w <= 0}
    by brute force: the projection is the projection onto the span of the
    face it lies on, so try every subset of F rows as that face and keep
    the nearest feasible candidate."""
    out = np.empty_like(W)
    for j, w in enumerate(W.T):
        best = None
        for r in range(F.shape[0] + 1):
            for active in itertools.combinations(range(F.shape[0]), r):
                N = null_basis(np.vstack([E, F[list(active)]]), W.shape[0])
                c = N @ (N.T @ w)
                if np.all(F @ c <= 1e-12) and (
                        best is None or np.linalg.norm(c - w) < np.linalg.norm(best - w)):
                    best = c
        out[:, j] = best
    return out


def face_enumeration_minimum(cone, Q):
    """min w.Q.w over unit w of a polyhedral cone, by brute force: the
    minimizer is an eigenvector of Q restricted to the span of the face
    it lies on."""
    best = math.inf
    F = cone.ineq
    for r in range(F.shape[0] + 1):
        for active in itertools.combinations(range(F.shape[0]), r):
            N = null_basis(np.vstack([cone.eq, F[list(active)]]), cone.n)
            if N.shape[1] == 0:
                continue
            vals, vecs = np.linalg.eigh(N.T @ Q @ N)
            for val, v in zip(vals, vecs.T):
                w = N @ v
                if np.all(F @ w <= 1e-9) or np.all(F @ w >= -1e-9):
                    best = min(best, float(val))
    return best


class TestPresolve:
    def test_planted_equalities_keep_the_cone(self):
        # the raw cone has no interior point, so its ADMM projection is not
        # the reference; the vertex block is written as its equality rows
        rng = np.random.default_rng(7)
        for _ in range(10):
            raw = planted_cone(rng, with_soc=False)
            pre = sosc.presolve(raw)
            assert pre.is_subspace or pre.ineq.shape[0] <= raw.ineq.shape[0] - 3
            assert not pre.soc
            W = 2.0 * sphere(raw.n, 100, seed=3)
            B = raw.soc[0][0]
            exact = face_projection(B[1:], raw.ineq, W)
            assert np.max(np.abs(pre.project(W) - exact)) <= 1e-6
            X = np.hstack([exact, W, 0.5 * (exact + W)])
            np.testing.assert_array_equal(raw.violation(X) <= 1e-9,
                                          pre.violation(X) <= 1e-9)

    def test_planted_equalities_beside_a_soc_block(self):
        # each presolved equality row measures at least what its raw row or
        # vertex block measured, so the raw violation never exceeds the
        # presolved one; the genuine soc block is kept as it is, except on
        # draws whose relaxation is {0}, where the whole cone is {0}
        rng = np.random.default_rng(8)
        for draw in range(10):
            raw = planted_cone(rng, with_soc=True)
            pre = sosc.presolve(raw)
            if draw in (1, 2, 4, 6, 7):
                assert relaxation_is_trivial(raw) and presolves_to_zero(raw)
                continue
            assert not relaxation_is_trivial(raw)
            assert pre.ineq.shape[0] <= raw.ineq.shape[0] - 3
            assert len(pre.soc) == 1 and pre.soc[0][0] is raw.soc[1][0]
            W = 2.0 * sphere(raw.n, 200, seed=3)
            X = np.hstack([W, pre.project(W)])
            assert np.all(raw.violation(X) <= pre.violation(X) * (1 + 1e-12) + 1e-15)

    def test_small_slack_and_axis_row_are_kept(self):
        # w1 <= 0 and 1e-6 w2 <= w1: -w1 reaches 1e-6 on the box, so the
        # row is a genuine inequality; the soc block's first row is not zero
        cone = sosc.CriticalCone(3, np.zeros((0, 3)),
                                 np.array([[1.0, 0.0, 0.0], [-1.0, 1e-6, 0.0]]),
                                 [(np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]), 2)])
        pre = sosc.presolve(cone)
        np.testing.assert_array_equal(pre.ineq, cone.ineq)
        assert len(pre.soc) == 1 and pre.eq.shape[0] == 0

    @pytest.mark.parametrize("name", ("ex44", "ex46", "ex47", "licq", "socb"))
    def test_corpus_cones_presolve_to_subspaces(self, name):
        raw = corpus_cone(name)
        assert not raw.is_subspace
        pre = sosc.presolve(raw)
        assert pre.is_subspace
        W = sphere(raw.n, 300, seed=6)
        assert np.max(np.abs(pre.project(W) - raw.project(W))) <= 1e-9

    def test_licq_takes_the_exact_path(self, licq):
        pd, st, ms = pipeline(licq)
        rep = sosc.analyze(pd, ms, samples=20000, seed=0)
        assert rep.certification == "Exact" and rep.sample_count == 0
        assert abs(rep.predicted_modulus - 2.0) <= 1e-12

    def test_socb_takes_the_exact_path(self, socb):
        # one multiplier on a boundary-active soc block: the curvature of
        # the norm surface is part of the fixed-multiplier quadratic form
        pd, st, ms = pipeline(socb)
        assert ms.k == 0 and len(pd.face.rays) == 1
        rep = sosc.analyze(pd, ms, samples=20000, seed=0)
        assert rep.certification == "Exact" and rep.sample_count == 0
        assert abs(rep.predicted_modulus - 1.5) <= 1e-12
        sampled = sosc.analyze(pd, ms, samples=20000, seed=0, force="sampled")
        assert sampled.certification == "Sampled"
        assert abs(rep.predicted_modulus - sampled.predicted_modulus) <= 1e-6

    def test_ray_multiplier_family_stays_sampled(self):
        # the socb block plus a dependent inequality row: k = 1, so sigma
        # is a maximum over a family and no single quadratic form
        p = problem.loads("vars: x1 x2 x3\n"
                          "objective: x1 - x2 + x1^2 + x2^2 + 0.25*x3^2\n"
                          "block soc 3:\n  row: x1 + 1\n  row: x2 + 1\n"
                          "  row: x3\n"
                          "block orthant 1:\n  row: x1 - x2\npoint: 0 0 0\n")
        pd, st, ms = pipeline(p)
        assert ms.k == 1 and len(ms.face.rays) == 1
        rep = sosc.analyze(pd, ms, samples=4000, seed=0)
        assert rep.certification == "Sampled" and rep.sample_count == 4000

    def test_exact_modulus_matches_face_enumeration(self):
        # criterion 7's draws: wherever the presolved cone is a subspace and
        # the multiplier is unique, the eigenvalue path gives the infimum
        rng = np.random.default_rng(0)
        checked = 0
        for _ in range(50):
            pd, st, ms = pipeline(random_licq_instance(rng))
            raw = sosc.build_critical_cone(pd)
            if not (sosc.presolve(raw).is_subspace and ms.k == 0):
                continue
            rep = sosc.analyze(pd, ms, samples=6000, seed=0)
            assert rep.certification == "Exact"
            Q = sosc._SigmaEvaluator(pd, ms).form(ms.lam0)
            expected = face_enumeration_minimum(raw, Q)
            if math.isinf(expected):
                assert rep.empty_cone
            else:
                assert abs(rep.predicted_modulus - expected) <= 1e-9
            checked += 1
        assert checked >= 20

    def test_soc_block_emptied_by_a_row(self):
        # (w1, w2) in soc(2) and w1 <= 0 leave w1 = w2 = 0: both the row and
        # the block vanish on the relaxation, so the cone is the e3 axis
        cone = sosc.CriticalCone(3, np.zeros((0, 3)), np.array([[1.0, 0.0, 0.0]]),
                                 [(np.eye(3)[:2], 2)])
        pre = sosc.presolve(cone)
        assert pre.is_subspace
        P = pre.subspace_basis()
        assert P.shape == (3, 1) and abs(abs(P[2, 0]) - 1.0) <= 1e-15
        W = 2.0 * sphere(3, 200, seed=7)
        expected = np.zeros_like(W)
        expected[2] = W[2]
        assert np.max(np.abs(pre.project(W) - expected)) <= 1e-15

    def test_soc_block_alone_decides_zero_cone(self):
        # the LPs keep the block (its relaxation keeps the ray (1, 0.8)); on
        # the null space of the gradient row its quadratic form is
        # -0.28 / 1.64 < 0, so the cone presolves to {0} and is Exact
        pd, st, ms = pipeline(problem.loads(SOC_SLICE_ZERO_CONE))
        cone = sosc.build_critical_cone(pd)
        assert not relaxation_is_trivial(cone) and presolves_to_zero(cone)
        rep = sosc.analyze(pd, ms, samples=2000, seed=0)
        assert rep.empty_cone and rep.sonc_holds and rep.sosc_holds
        assert rep.certification == "Exact" and rep.predicted_modulus == math.inf

    def test_soc_block_keeping_a_ray_is_kept(self):
        # without the gradient row the same block is a proper cone
        # (lambda_max = 0.36), and rows (w1, w1, w2) leave the ray w2 = 0,
        # w1 >= 0 (lambda_max = 0): neither is {0}
        for c in (0.8, 1.0):
            B = np.array([[1.0, 0.0], [c, 0.0], [0.0, 1.0]])
            cone = sosc.CriticalCone(2, np.zeros((0, 2)), np.zeros((0, 2)), [(B, 3)])
            pre = sosc.presolve(cone)
            assert len(pre.soc) == 1 and pre.eq.shape[0] == 0

    def test_soc_and_orthant_still_uses_admm(self, monkeypatch):
        cone = sosc.presolve(soc_and_orthant_cone())
        assert not cone.is_subspace
        calls = []
        admm = sosc.CriticalCone._admm
        monkeypatch.setattr(sosc.CriticalCone, "_admm",
                            lambda self, W: calls.append(W.shape) or admm(self, W))
        P = cone.project(sphere(4, 20, seed=0))
        assert calls == [(4, 20)]
        assert np.max(cone.violation(P)) <= 1e-12


class TestSigma:
    def test_axis_direction(self, ex44):
        pd, st, ms = pipeline(ex44)
        cone = sosc.build_critical_cone(pd)
        val = sigma(pd, ms, [1.0, 0.0, 0.0], cone=cone)
        assert abs(val - 1.0) <= 1e-9

    def test_diagonal_direction(self, ex47):
        pd, st, ms = pipeline(ex47)
        w = np.array([0.0, 1.0, 1.0]) / np.sqrt(2.0)
        val = sigma(pd, ms, w)
        assert abs(val - 0.5) <= 1e-9

    def test_zero_direction(self, ex44, ex47):
        for p in (ex44, ex47):
            pd, st, ms = pipeline(p)
            assert sigma(pd, ms, np.zeros(3)) == 0.0

    def test_outside_cone_raises(self, ex44):
        pd, st, ms = pipeline(ex44)
        with pytest.raises(sosc.NotInCriticalCone):
            sigma(pd, ms, [0.0, 0.0, 1.0])

    def test_homogeneity_degree_two(self, ex44, ex46, ex47, socb):
        rng = np.random.default_rng(2)
        for p in (ex44, ex46, ex47, socb):
            pd, st, ms = pipeline(p)
            cone = sosc.build_critical_cone(pd)
            for _ in range(25):
                w = cone.project(rng.standard_normal(pd.n))
                if np.linalg.norm(w) < 1e-6:
                    continue
                s1 = sigma(pd, ms, w, cone=cone)
                s2 = sigma(pd, ms, 2.0 * w, cone=cone)
                if math.isinf(s1):
                    assert math.isinf(s2)
                else:
                    assert abs(s2 - 4.0 * s1) <= 1e-9 * max(1.0, abs(s1))

    def test_reduction_invariance_under_rescaling(self, socb):
        # replacing the boundary reduction h by 2h (its gradient, the
        # face's ray d, by 2d) must not move sigma
        pd, st, ms = pipeline(socb)
        cone = sosc.build_critical_cone(pd)
        assert pd.face.rays
        pd2 = rescaled_rays(pd, 2.0)
        rng = np.random.default_rng(3)
        for _ in range(100):
            w = cone.project(rng.standard_normal(3))
            if np.linalg.norm(w) < 1e-6:
                continue
            a = sigma(pd, ms, w, cone=cone)
            b = sigma(pd2, ms, w, cone=cone)
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


class TestIndependentModulusOracles:
    """Dense-grid derivations of the corpus moduli, bypassing the
    production inner-max and search machinery entirely."""

    def test_soc_vertex_instance(self, ex44):
        # inner max of (4 l1 + 2 l2 + 2 l3) over {(l1,t,t): l1 <= -sqrt(2)|t|}
        # by brute grid; then sigma over a dense circle in {w3 = 0}
        ts = np.linspace(-5.0, 5.0, 2001)
        l1 = np.linspace(-10.0, 0.0, 2001)
        L1, T = np.meshgrid(l1, ts, indexing="ij")
        feas = L1 <= -np.sqrt(2.0) * np.abs(T)
        inner = np.max(np.where(feas, 4.0 * L1 + 4.0 * T, -np.inf))
        assert abs(inner) <= 1e-2  # supremum 0 approached at the apex
        theta = np.linspace(0.0, 2 * np.pi, 1_000_000, endpoint=False)
        sigma_grid = np.cos(theta) ** 2 + 2.0 * np.sin(theta) ** 2 \
            + np.sin(theta) ** 2 * max(inner, 0.0)
        dense_min = float(np.min(sigma_grid))
        pd, st, ms = pipeline(ex44)
        rep = sosc.analyze(pd, ms, samples=4000, seed=0)
        assert abs(rep.predicted_modulus - dense_min) <= 1e-3

    def test_vertex_enumeration_instance(self, ex47):
        # inner max over vertices (1,0,0) and (0,1,0) of the multiplier
        # polyhedron gives sigma = max(w2^2, w3^2) on {w1 = 0}
        theta = np.linspace(0.0, 2 * np.pi, 1_000_000, endpoint=False)
        w2, w3 = np.cos(theta), np.sin(theta)
        sigma_grid = (w2 ** 2 + w3 ** 2) + np.maximum(-w2 ** 2, -w3 ** 2)
        dense_min = float(np.min(sigma_grid))
        pd, st, ms = pipeline(ex47)
        rep = sosc.analyze(pd, ms, samples=4000, seed=0)
        assert abs(dense_min - 0.5) <= 1e-9
        assert abs(rep.predicted_modulus - dense_min) <= 1e-3

    def test_segment_max_instance(self, ex46):
        # multiplier segment l1 + l2 = 1, l >= 0: inner max of 2 l1 w3^2 at
        # l1 = 1; trigonometric minimization of w2^2 + 2 w3^2 on {w1 = 0}
        theta = np.linspace(0.0, 2 * np.pi, 1_000_000, endpoint=False)
        sigma_grid = np.cos(theta) ** 2 + 2.0 * np.sin(theta) ** 2
        dense_min = float(np.min(sigma_grid))
        pd, st, ms = pipeline(ex46)
        rep = sosc.analyze(pd, ms, samples=4000, seed=0)
        assert abs(rep.predicted_modulus - dense_min) <= 1e-3

    def test_boundary_curvature_instance(self, socb):
        # unique multiplier with unit ray coordinate: the curvature of the
        # norm surface adds w3^2, so sigma = 2w1^2 + 2w2^2 + 1.5w3^2 on
        # the plane {w1 = w2}; dense parameterization of that plane
        theta = np.linspace(0.0, 2 * np.pi, 1_000_000, endpoint=False)
        a, b = np.cos(theta) / np.sqrt(2.0), np.sin(theta)
        nrm2 = 2 * a ** 2 + b ** 2
        sigma_grid = (2 * a ** 2 + 2 * a ** 2 + 1.5 * b ** 2) / nrm2
        dense_min = float(np.min(sigma_grid))
        pd, st, ms = pipeline(socb)
        rep = sosc.analyze(pd, ms, samples=4000, seed=0)
        assert abs(dense_min - 1.5) <= 1e-9
        assert abs(rep.predicted_modulus - dense_min) <= 1e-3


class TestAnalyze:
    def test_exact_path_matches_eigenvalue(self):
        rng = np.random.default_rng(4)
        p, H = random_quadratic_problem(rng, 3)
        pd, st, ms = pipeline(p)
        rep = sosc.analyze(pd, ms, seed=0)
        assert rep.certification == "Exact"
        lam_min = float(np.linalg.eigvalsh(H)[0])
        assert abs(rep.predicted_modulus - lam_min) <= 1e-10

    def test_exact_vs_sampled_identity_hessian(self):
        p = problem.loads("vars: x1 x2 x3\n"
                          "objective: 0.5*x1^2 + 0.5*x2^2 + 0.5*x3^2\npoint: 0 0 0\n")
        pd, st, ms = pipeline(p)
        exact = sosc.analyze(pd, ms, seed=0)
        sampled = sosc.analyze(pd, ms, seed=0, force="sampled")
        assert exact.certification == "Exact"
        assert sampled.certification == "Sampled"
        assert abs(exact.predicted_modulus - 1.0) <= 1e-12
        assert abs(sampled.predicted_modulus - exact.predicted_modulus) <= 1e-6

    def test_ex44_inner_maxima_need_no_lp(self, ex44, monkeypatch):
        # every direction's inner maximum is read off the relaxation's
        # vertex, which lies in -soc, or its rays: no simplex LP is left
        pd, st, ms = pipeline(ex44)
        solve = kkt.solve_lp
        calls = []

        def spy(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(kkt, "solve_lp", spy)
        rep = sosc.analyze(pd, ms, samples=20000, seed=0)
        assert calls == []
        assert rep.predicted_modulus == 1.0 and not rep.inner_max_warning

    def test_set_without_vertex_geometry_solves_each_direction(self,
                                                              monkeypatch):
        pd, st, ms = pipeline(problem.loads(NO_VERTEX_GEOMETRY))
        assert ms.k == 4 and kkt.enumerate_polyhedron(ms) is None
        solve = sosc.maximize_linear
        calls = []

        def spy(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(sosc, "maximize_linear", spy)
        rep = sosc.analyze(pd, ms, samples=20000, seed=0)
        assert calls
        assert rep.certification == "Sampled"
        assert abs(rep.predicted_modulus - 0.8) <= 1e-9
        w = rep.worst_direction
        assert abs(w[0]) <= 1e-9 and abs(abs(w[1]) - 1.0) <= 1e-9
        assert abs(sigma(pd, ms, w) - rep.predicted_modulus) <= 1e-12

    def test_regularization_shifts_modulus_exactly(self, ex47, ex44):
        for p, rho in ((ex47, 0.35), (ex44, 0.8)):
            pd, st, ms = pipeline(p)
            base = sosc.analyze(pd, ms, samples=4000, seed=0)
            p2 = with_shifted_objective(p, rho)
            pd2 = problem.evaluate(p2, p.point)
            ms2 = kkt.build_multiplier_set(pd2, st.witness)
            shifted = sosc.analyze(pd2, ms2, samples=4000, seed=0)
            assert abs(shifted.predicted_modulus -
                       (base.predicted_modulus + rho)) <= 1e-6

    def test_worst_direction_attains_modulus(self, ex44, ex47, socb):
        for p in (ex44, ex47, socb):
            pd, st, ms = pipeline(p)
            rep = sosc.analyze(pd, ms, samples=4000, seed=0)
            cone = sosc.build_critical_cone(pd)
            w = rep.worst_direction
            assert abs(np.linalg.norm(w) - 1.0) <= 1e-8
            val = sigma(pd, ms, w, cone=cone)
            assert abs(val - rep.predicted_modulus) <= 1e-7

    def test_sampled_modulus_on_criterion_7_draws(self):
        # sigma is scored at cone members only, so the sampled modulus is
        # never below the infimum, and it is attained at the worst direction
        rng = np.random.default_rng(0)
        for _ in range(50):
            pd, st, ms = pipeline(random_licq_instance(rng))
            rep = sosc.analyze(pd, ms, samples=1000, seed=0, force="sampled")
            raw = sosc.build_critical_cone(pd)
            expected = face_enumeration_minimum(
                raw, sosc._SigmaEvaluator(pd, ms).form(ms.lam0))
            if rep.empty_cone:
                assert math.isinf(expected)
                continue
            w = rep.worst_direction
            assert rep.predicted_modulus >= expected - 1e-9
            assert sosc.presolve(raw).violation(w) <= sosc._MEMBERSHIP_TOL
            assert abs(sigma(pd, ms, w) - rep.predicted_modulus) <= 1e-12

    def test_projection_missing_the_cone_is_a_stage_failure(self, monkeypatch,
                                                             tmp_path):
        # shifted off the plane w3 = 0 of the presolved cone, no projected
        # direction may be scored, so sosc fails instead of reporting holds
        project = sosc.CriticalCone.project
        monkeypatch.setattr(sosc.CriticalCone, "project",
                            lambda self, W: project(self, W) + 1e-3)
        pd, st, ms = pipeline(problem.loads(MIXED_SOC_AND_ORTHANT))
        with pytest.raises(sosc.NotInCriticalCone):
            sosc.analyze(pd, ms, samples=500, seed=0)
        path = tmp_path / "mixed.prob"
        path.write_text(MIXED_SOC_AND_ORTHANT)
        rep = report.analyze_report(str(path), samples=500, seed=0)
        assert rep["failed_stage"].startswith("sosc: ")
        assert "sosc" not in rep

    def test_trivial_cone_reports_infinite_modulus(self):
        # objective gradient spans everything: critical cone is the origin
        p = problem.loads("vars: x1\nobjective: x1\n"
                          "block orthant 1:\n  row: -x1\npoint: 0\n")
        pd, st, ms = pipeline(p)
        rep = sosc.analyze(pd, ms, samples=2000, seed=0)
        assert rep.predicted_modulus == math.inf
        assert rep.sosc_holds and rep.sonc_holds

    def test_indefinite_hessian_fails_sonc(self):
        p = problem.loads("vars: x1 x2\nobjective: x1^2 - x2^2\npoint: 0 0\n")
        pd, st, ms = pipeline(p)
        rep = sosc.analyze(pd, ms, seed=0)
        assert not rep.sonc_holds and not rep.sosc_holds
        assert rep.predicted_modulus < -0.9

    def test_constrained_saddle_fails_sonc(self):
        p = problem.loads("vars: x1 x2\nobjective: x1^2 - x2^2\n"
                          "block orthant 1:\n  row: x1\npoint: 0 0\n")
        pd, st, ms = pipeline(p)
        rep = sosc.analyze(pd, ms, samples=2000, seed=0)
        assert not rep.sonc_holds
        assert rep.predicted_modulus <= -1.9

    def test_inactive_block_alongside_active(self):
        p = problem.loads("vars: x1 x2\nobjective: x1 + x2 + x1^2 + x2^2\n"
                          "block soc 2:\n  row: x1 + 5\n  row: x2\n"
                          "block orthant 1:\n  row: -x1 - x2\npoint: 0 0\n")
        pd, st, ms = pipeline(p)
        # the soc interior block is fixed at zero, the orthant row active
        assert pd.face.fixed.tolist() == [0, 1]
        assert pd.face.nonneg.tolist() == [2]
        assert not pd.face.rays and not pd.face.socs
        rep = sosc.analyze(pd, ms, samples=4000, seed=0)
        assert abs(rep.predicted_modulus - 2.0) <= 1e-6

    def test_all_blocks_inactive_uses_exact_path(self):
        p = problem.loads("vars: x1 x2\nobjective: x1^2 + 2*x2^2\n"
                          "block orthant 2:\n  row: x1 - 3\n  row: -x2 - 4\n"
                          "point: 0 0\n")
        pd, st, ms = pipeline(p)
        rep = sosc.analyze(pd, ms, seed=0)
        assert rep.certification == "Exact"
        assert abs(rep.predicted_modulus - 2.0) <= 1e-12

    def test_small_soc_block_at_vertex(self):
        p = problem.loads("vars: x1 x2\nobjective: x1^2 + x2^2\n"
                          "block soc 2:\n  row: x1\n  row: x2\npoint: 0 0\n")
        pd, st, ms = pipeline(p)
        rep = sosc.analyze(pd, ms, samples=4000, seed=0)
        assert rep.sosc_holds
        assert abs(rep.predicted_modulus - 2.0) <= 1e-6

    def test_ray_multiplier_family_with_unbounded_directions(self):
        # boundary-active cone block plus a dependent inequality row: the
        # multiplier set is a one-parameter family whose curvature
        # coefficient is unbounded along directions leaving the flat slice
        p = problem.loads("vars: x1 x2 x3\n"
                          "objective: x1 - x2 + x1^2 + x2^2 + 0.25*x3^2\n"
                          "block soc 3:\n  row: x1 + 1\n  row: x2 + 1\n"
                          "  row: x3\n"
                          "block orthant 1:\n  row: x1 - x2\npoint: 0 0 0\n")
        pd, st, ms = pipeline(p)
        assert ms.k == 1 and len(ms.face.rays) == 1
        cone = sosc.build_critical_cone(pd)
        w3 = cone.project(np.array([0.0, 0.0, 1.0]))
        w3 /= np.linalg.norm(w3)
        assert sigma(pd, ms, w3, cone=cone) == math.inf
        diag = cone.project(np.array([1.0, 1.0, 0.0]))
        diag /= np.linalg.norm(diag)
        assert abs(sigma(pd, ms, diag, cone=cone) - 2.0) <= 1e-9
        rep = sosc.analyze(pd, ms, samples=4000, seed=0)
        assert abs(rep.predicted_modulus - 2.0) <= 1e-6

    def test_mixed_soc_and_orthant_blocks(self):
        # extra sign constraint flips the worst direction into the cone
        p = problem.loads(MIXED_SOC_AND_ORTHANT)
        pd, st, ms = pipeline(p)
        rep = sosc.analyze(pd, ms, samples=4000, seed=0)
        assert abs(rep.predicted_modulus - 1.0) <= 1e-6
        assert rep.worst_direction[0] < -0.99
        rng = np.random.default_rng(0)
        for _ in range(5):
            c = rng.standard_normal(4)
            res = kkt.maximize_linear(ms, c)
            best = max((float(c @ lam)
                        for lam in sample_members(ms, 300, seed=11, scale=3.0)),
                       default=-np.inf)
            if res.status == "bounded":
                assert best <= res.value + 1e-7

    def test_trivial_polyhedral_cone_is_empty(self):
        # two active rows with positive multipliers in two variables: the
        # critical cone is {0}; ADMM residue once tipped the sampled
        # emptiness test and reported sonc false
        p = problem.loads(
            "vars: x1 x2\n"
            "objective: -0.5930086202633476*x1 - 0.6292862564204187*x2"
            " + 0.19258297790376427*x1*x1 + 0.8773470030050242*x1*x2"
            " + 1.0357784030222434*x2*x2\n"
            "block orthant 2:\n"
            "  row: 0.8811621128331931*x1 + 0.5822091166931507*x2"
            " - 0.6835927606110359*x1*x1 + 0.06562335314015377*x1*x2"
            " - 0.8429324179462949*x2*x2\n"
            "  row: 0.5514244021092147*x1 + 0.8632445387294106*x2"
            " - 0.5767362197426577*x1*x1 + 0.2101342636713242*x1*x2"
            " - 0.1857389233028962*x2*x2\n"
            "point: 0 0\n")
        pd, st, ms = pipeline(p)
        assert np.all(ms.lam0 > 0)
        cone = sosc.build_critical_cone(pd)
        assert relaxation_is_trivial(cone) and presolves_to_zero(cone)
        for force in (None, "sampled"):
            rep = sosc.analyze(pd, ms, samples=2000, seed=0, force=force)
            assert rep.empty_cone and rep.sonc_holds and rep.sosc_holds
            assert rep.predicted_modulus == math.inf
            assert rep.certification == "Exact" and rep.sample_count == 0

    def test_is_trivial_decisions(self):
        # the presolve gives the subspace {0} exactly where the reference
        # relaxation certificate proves the cone to be {0}
        cases = [corpus_cone(name) for name in CONIC_CORPUS]
        cases.append(soc_and_orthant_cone())
        # w in soc(3) with w1 <= 0 leaves only w = 0, which the relaxation
        # w1 >= |w2|, w1 >= |w3| already proves
        cases.append(sosc.CriticalCone(3, np.zeros((0, 3)),
                                       np.array([[1.0, 0.0, 0.0]]),
                                       [(np.eye(3), 3)]))
        for seed, with_soc in ((7, False), (8, True)):
            rng = np.random.default_rng(seed)
            cases += [planted_cone(rng, with_soc) for _ in range(10)]
        decisions = [relaxation_is_trivial(cone) for cone in cases]
        assert [presolves_to_zero(cone) for cone in cases] == decisions
        assert not any(decisions[:len(CONIC_CORPUS) + 1])
        assert decisions[len(CONIC_CORPUS) + 1]
