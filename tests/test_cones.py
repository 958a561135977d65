import numpy as np
import pytest

from conftest import normal_cone_test, project_normal, tangent_cone_test
from strongmin import cones, problem
from strongmin.cones import orthant, soc

TOL = problem.ACTIVITY_TOL


def random_point_in(k, rng):
    if k.kind == "orthant":
        y = -np.abs(rng.standard_normal(k.m))
        y[rng.random(k.m) < 0.3] = 0.0
        return y
    y = rng.standard_normal(k.m)
    return cones.project(k, y * rng.uniform(0.2, 2.0))


class TestProject:
    def test_polar_point_goes_to_apex(self):
        assert np.allclose(cones.project(soc(3), [-1, 0, 0]), 0.0)

    def test_soc_closed_form(self):
        p = cones.project(soc(3), [0.0, 1.0, 0.0])
        assert np.allclose(p, [0.5, 0.5, 0.0])

    def test_orthant_clamp(self):
        assert np.allclose(cones.project(orthant(2), [3.0, -1.0]), [0.0, -1.0])

    def test_moreau_decomposition(self):
        rng = np.random.default_rng(0)
        for k in (orthant(4), soc(3), soc(5)):
            Y = rng.standard_normal((k.m, 1000)) * 3.0
            for j in range(Y.shape[1]):
                y = Y[:, j]
                p = cones.project(k, y)
                q = y - p  # projection onto the polar cone
                assert abs(p @ q) <= 1e-12 * max(1.0, y @ y)
                # q must live in the polar: <q, c> <= 0 for cone members
                c = random_point_in(k, rng)
                assert q @ c <= 1e-10

    def test_idempotent_and_nonexpansive(self):
        rng = np.random.default_rng(1)
        for k in (orthant(3), soc(4)):
            for _ in range(200):
                y = rng.standard_normal(k.m) * 2
                z = rng.standard_normal(k.m) * 2
                py, pz = cones.project(k, y), cones.project(k, z)
                assert np.allclose(cones.project(k, py), py, atol=1e-14)
                assert np.linalg.norm(py - pz) <= np.linalg.norm(y - z) + 1e-12

    def test_batch_matches_single(self):
        # bit for bit, signed zeros included: a column of a batch and the
        # same vector alone take the same arithmetic
        rng = np.random.default_rng(2)
        for k in (orthant(3), soc(3), soc(4), soc(12)):
            Y = rng.standard_normal((k.m, 50))
            Y[:, 0] = -0.0          # the vertex, signed
            Y[:, 1] = 0.0
            Y[0, 2] = -np.linalg.norm(Y[1:, 2])   # on the polar boundary
            Y[0, 3] = np.linalg.norm(Y[1:, 3])    # on the cone boundary
            P = cones.project(k, Y)
            for j in range(Y.shape[1]):
                assert P[:, j].tobytes() == cones.project(k, Y[:, j]).tobytes()
            out = np.full_like(Y, np.nan)  # and the same bits written into out
            assert cones.project(k, Y, out=out) is out
            assert out.tobytes() == P.tobytes()

    def test_vertex_is_copied_and_polar_columns_become_positive_zero(self):
        Y = np.array([[-0.0, -2.0, -1.0], [0.0, 1.0, 0.0], [-0.0, -1.0, 0.0]])
        P = cones.project(soc(3), Y)
        assert P[:, 0].tobytes() == Y[:, 0].tobytes()
        assert P[:, 1:].tobytes() == np.zeros((3, 2)).tobytes()

    def test_rejects_a_wrong_row_count(self):
        with pytest.raises(ValueError):
            cones.project(soc(3), np.zeros((4, 2)))


class TestSocRelaxation:
    def test_members_satisfy_the_rows(self):
        rng = np.random.default_rng(3)
        for m, n in ((2, 2), (3, 3), (4, 6), (3, 5)):
            B = rng.standard_normal((m, n))  # full row rank
            R = cones.soc_relaxation(B)
            assert R.shape == (2 * m - 1, n)
            # w with B w = z for soc members z (boundary ones included)
            for _ in range(200):
                z = random_point_in(soc(m), rng)
                w, *_ = np.linalg.lstsq(B, z, rcond=None)
                assert np.all(R @ w <= 1e-9 * max(1.0, np.linalg.norm(w)))

    def test_row_order(self):
        B = np.arange(12.0).reshape(3, 4)
        R = cones.soc_relaxation(B)
        expected = [-B[0], -(B[0] + B[1]), -(B[0] - B[1]),
                    -(B[0] + B[2]), -(B[0] - B[2])]
        assert np.array_equal(R, np.array(expected))


class TestNormalCone:
    def test_soc_vertex_polar_membership(self):
        assert normal_cone_test(soc(3), [0, 0, 0], [-2, 1, 1])
        assert not normal_cone_test(soc(3), [0, 0, 0], [-1, 1, 1])

    def test_orthant_complementarity(self):
        y = [0.0, 0.0, -1.0]
        assert normal_cone_test(orthant(3), y, [1.0, 1.0, 0.0])
        assert not normal_cone_test(orthant(3), y, [1.0, 1.0, 0.5])
        assert not normal_cone_test(orthant(3), y, [-1.0, 0.0, 0.0])

    def test_soc_interior_is_zero_only(self):
        assert not normal_cone_test(soc(3), [2.0, 0.0, 1.0], [0.1, 0, 0])
        assert normal_cone_test(soc(3), [2.0, 0.0, 1.0], [0.0, 0, 0])

    def test_soc_boundary_ray(self):
        y = [1.0, 1.0, 0.0]
        assert normal_cone_test(soc(3), y, [-0.5, 0.5, 0.0])
        assert not normal_cone_test(soc(3), y, [-0.5, 0.0, 0.5])

    def test_base_point_outside_raises(self):
        with pytest.raises(ValueError):
            normal_cone_test(orthant(2), [1.0, 0.0], [0.0, 0.0])

    def test_polarity_with_tangent_cone(self):
        rng = np.random.default_rng(3)
        count = 0
        while count < 500:
            k = (orthant(3), soc(3), soc(4))[count % 3]
            y = random_point_in(k, rng)
            v = project_normal(k, y, rng.standard_normal(k.m))
            w = rng.standard_normal(k.m)
            # make w tangent: project out the violating parts
            if k.kind == "orthant":
                active = np.abs(y) <= 1e-9
                w[active] = -np.abs(w[active])
            else:
                t, r = y[0], np.linalg.norm(y[1:])
                if r <= 1e-9 and abs(t) <= 1e-9:
                    w = cones.project(k, w)
                elif abs(t - r) <= 1e-9:
                    d = np.concatenate([[-1.0], y[1:] / r])
                    w = w - max(d @ w, 0.0) * d
            assert tangent_cone_test(k, y, w, tol=1e-8)
            assert v @ w <= 1e-9 * max(1.0, np.linalg.norm(v) * np.linalg.norm(w))
            count += 1


def _identity_soc(y):
    """A soc(m) block whose rows are the variables themselves, at y."""
    from strongmin import expr
    m = len(y)
    rows = tuple(expr.Var(i) for i in range(m))
    return problem.Problem(tuple(f"x{i + 1}" for i in range(m)), expr.Const(0.0),
                           (problem.Block(rows, soc(m)),), np.asarray(y))


class TestReduction:
    # normal_face classifies each (cone, value) pair: the zero-curvature
    # cases keep no ray, a soc boundary point keeps the gradient of the
    # reduction h(y) = ||ybar|| - y_1, whose Hessian sosc forms from it
    def test_soc_vertex_zero_curvature(self):
        face = cones.normal_face([(soc(3), [0.0, 0.0, 0.0])], TOL)
        assert [(sl.start, sl.stop) for sl in face.socs] == [(0, 3)]
        assert not face.rays and not face.nonneg.size and not face.fixed.size

    def test_orthant_affine_zero_curvature(self):
        face = cones.normal_face([(orthant(3), [0.0, -1.0, 0.0])], TOL)
        assert face.nonneg.tolist() == [0, 2]
        assert face.fixed.tolist() == [1]
        assert not face.rays and not face.socs

    def test_orthant_interior_inactive(self):
        face = cones.normal_face([(orthant(2), [-1.0, -2.0])], TOL)
        assert face.fixed.tolist() == [0, 1]
        assert not face.nonneg.size and not face.rays and not face.socs

    def test_soc_boundary_curvature(self):
        from strongmin import sosc
        y = np.array([1.0, 1.0, 0.0])
        face = cones.normal_face([(soc(3), y)], TOL)
        assert [(sl.start, sl.stop) for sl, _ in face.rays] == [(0, 3)]
        assert np.array_equal(face.rays[0][1], [-1.0, 1.0, 0.0])
        # linear rows (J = I): the block term is d/(d.d) (x) H
        T = sosc._curvature_tensor(problem.evaluate(_identity_soc(y), y))
        d = face.rays[0][1]
        for i in range(3):
            assert np.allclose(T[i], d[i] / 2.0 * np.diag([0.0, 0.0, 1.0]))

    def test_soc_boundary_hessian_matches_finite_differences(self):
        # with J = I the block term is d/(d.d) (x) H, so sum_i d_i T_i = H,
        # the Hessian of the reduction h(y) = ||ybar|| - y_1
        from strongmin import sosc
        rng = np.random.default_rng(4)
        for _ in range(10):
            ybar = rng.standard_normal(2)
            y = np.concatenate([[np.linalg.norm(ybar)], ybar])
            pd = problem.evaluate(_identity_soc(y), y)
            (_, d), = pd.face.rays
            H = np.einsum("i,ijk->jk", d, sosc._curvature_tensor(pd))
            h = 1e-5
            H_fd = np.zeros((3, 3))
            for i in range(3):
                for j in range(3):
                    yij = [y.copy() for _ in range(4)]
                    yij[0][i] += h
                    yij[0][j] += h
                    yij[1][i] += h
                    yij[1][j] -= h
                    yij[2][i] -= h
                    yij[2][j] += h
                    yij[3][i] -= h
                    yij[3][j] -= h
                    vals = [float(np.linalg.norm(z[1:]) - z[0]) for z in yij]
                    H_fd[i, j] = (vals[0] - vals[1] - vals[2] + vals[3]) / (4 * h * h)
            assert np.allclose(H, H_fd, atol=1e-5)


# soc boundary block ahead of an orthant block with one active and one
# inactive row, then an soc vertex block and an soc interior block
MIXED4 = """\
vars: x1 x2 x3
objective: x1^2 + x2^2 + x3^2 - x2
block soc 3:
  row: 1 + x1
  row: 1 + x2
  row: x3
block orthant 2:
  row: x1 + x3^2
  row: x2 - 1
block soc 3:
  row: x3 + x1^2
  row: x3
  row: x1^2
block soc 2:
  row: 2 + x1
  row: x2
point: 0 0 0
"""

# one base point per face case, plus an orthant block with no active row
FACE_BLOCKS = [
    (soc(3), np.array([1.0, 0.6, -0.8])),          # boundary
    (orthant(3), np.array([0.0, -1.5, 0.0])),      # affine, one inactive row
    (soc(4), np.zeros(4)),                         # vertex
    (soc(3), np.array([2.0, 0.5, 0.5])),           # interior
    (orthant(2), np.array([-1.0, -0.25])),         # inactive
]


def _face_and_slices(blocks):
    face = cones.normal_face(blocks, TOL)
    slices, start = [], 0
    for k, _ in blocks:
        slices.append(slice(start, start + k.m))
        start += k.m
    return face, slices


class TestNormalFace:
    def test_contains_matches_blockwise_normal_cone_test(self):
        rng = np.random.default_rng(6)
        face, slices = _face_and_slices(FACE_BLOCKS)
        m = slices[-1].stop
        L = np.zeros((m, 600))
        for j in range(L.shape[1]):
            for (k, y), sl in zip(FACE_BLOCKS, slices):
                v = project_normal(k, y, rng.standard_normal(k.m))
                u = rng.random()
                if u < 0.3:  # push off the face by far more than tol
                    v = v + 0.1 * rng.standard_normal(k.m)
                elif u < 0.45:  # reverse: leaves a ray, nonneg rows and -soc
                    v = -v
                L[sl, j] = v
        got = face.contains(L)
        want = [all(normal_cone_test(k, y, L[sl, j])
                    for (k, y), sl in zip(FACE_BLOCKS, slices))
                for j in range(L.shape[1])]
        assert list(got) == want
        assert 0 < int(np.sum(got)) < L.shape[1]

    def test_fixed_coordinates_are_tested_one_by_one(self):
        face, _ = _face_and_slices([(soc(3), np.array([2.0, 0.5, 0.5]))])
        tol = cones.MEMBERSHIP_TOL
        inside = np.full((3, 1), 0.9 * tol)  # norm above tol, each entry below
        assert face.contains(inside, tol)[0]
        assert not face.contains(2.0 * inside, tol)[0]

    def test_project_is_idempotent_and_equals_project_normal(self):
        rng = np.random.default_rng(7)
        face, slices = _face_and_slices(FACE_BLOCKS)
        m = slices[-1].stop
        for _ in range(300):
            lam = 3.0 * rng.standard_normal(m)
            p = face.project(lam)
            assert face.contains(p[:, None])[0]
            assert np.allclose(face.project(p), p, rtol=0.0, atol=1e-14)
            for (k, y), sl in zip(FACE_BLOCKS, slices):
                assert np.array_equal(p[sl], project_normal(k, y, lam[sl]))

    def test_mixed_blocks_keep_block_order(self):
        from strongmin import problem, sosc
        pd = problem.evaluate(problem.loads(MIXED4), np.zeros(3))
        face = pd.face
        assert face.nonneg.tolist() == [3]
        assert face.fixed.tolist() == [4, 8, 9]
        assert [(sl.start, sl.stop) for sl, _ in face.rays] == [(0, 3)]
        assert np.array_equal(face.rays[0][1], [-1.0, 1.0, 0.0])
        assert [(sl.start, sl.stop) for sl in face.socs] == [(5, 8)]
        cone = sosc.build_critical_cone(pd)
        # boundary-ray row of block 0 ahead of the active orthant row of block 1
        assert np.array_equal(cone.ineq, [[-1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        assert len(cone.soc) == 1 and cone.soc[0][1] == 3
        assert np.array_equal(cone.soc[0][0], pd.J[pd.problem.block_slices[2]])

    @staticmethod
    def _face_span(case):
        """A face (MIXED4's, or one soc(m) vertex block's) and the
        kkt.MultiplierSet lam = B t whose columns span it, for
        conftest.sample_members."""
        from strongmin import kkt
        if case == "mixed4":
            pd = problem.evaluate(problem.loads(MIXED4), np.zeros(3))
            face, m = pd.face, pd.m
        else:
            m = case
            face = cones.normal_face([(soc(m), np.zeros(m))], TOL)
        cols = [np.eye(m)[i] for i in face.nonneg]
        for sl, d in face.rays:
            cols.append(np.zeros(m))
            cols[-1][sl] = d / np.linalg.norm(d)
        cols += [np.eye(m)[i] for sl in face.socs for i in range(sl.start, sl.stop)]
        return face, kkt.MultiplierSet(np.zeros(m), np.stack(cols, axis=1), face)

    @pytest.mark.parametrize("case", ["mixed4", 2, 3, 5])
    def test_cuts_hold_on_the_face_and_separate_their_multiplier(self, case):
        from conftest import sample_members
        from strongmin.kkt import STATIONARITY_TOL
        face, ms = self._face_span(case)
        members = sample_members(ms, 60, seed=3)
        assert len(members) == 60
        rng = np.random.default_rng(9)
        built = 0
        for _ in range(200):
            lam = 3.0 * rng.standard_normal(ms.m)
            for tol in (1e-12, STATIONARITY_TOL):
                rows = face.cuts(lam, tol)
                assert len(rows) == sum(
                    cones.distance(soc(sl.stop - sl.start), -lam[sl]) > tol
                    for sl in face.socs)
                for a in rows:
                    assert a @ lam > tol
                    assert abs(np.linalg.norm(a) - 1.0) <= 1e-12
                    for mu in members:
                        assert a @ mu <= 1e-12 * np.linalg.norm(mu)
                built += len(rows)
        assert built > 100

    def test_soc_violation_is_the_largest_block_distance(self):
        blocks = [(soc(2), np.zeros(2)), (orthant(2), np.array([0.0, -1.0])),
                  (soc(3), np.zeros(3)), (soc(5), np.zeros(5))]
        face, slices = _face_and_slices(blocks)
        assert len(face.socs) == 3
        rng = np.random.default_rng(10)
        for _ in range(300):
            lam = rng.standard_normal(slices[-1].stop)
            dist = [cones.distance(k, -lam[sl])
                    for (k, _), sl in zip(blocks, slices) if k.kind == "soc"]
            assert face.soc_violation(lam) == max(dist)
        polar = np.zeros(slices[-1].stop)
        for sl in face.socs:
            polar[sl.start] = -1.0
        assert face.soc_violation(polar) == 0.0
        assert not face.cuts(polar, 0.0)
        # a face without a vertex block
        no_vertex = cones.normal_face(blocks[1:2], TOL)
        assert no_vertex.soc_violation(rng.standard_normal(2)) == 0.0
