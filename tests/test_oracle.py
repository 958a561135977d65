import numpy as np
import pytest

from strongmin import oracle, problem
from strongmin._descent import feasibility_residuals, push_to_feasible


class TestSampleFeasible:
    def test_soc_instance_keeps_enough(self, ex44):
        pts, _, ok = oracle.sample_feasible(ex44, 0.1, 1000, seed=0)
        assert ok and pts.shape[1] >= 500
        # cone residual <= 1e-9 bounds the set-description violation by
        # sqrt(2) * 1e-9 (the subregularity modulus of this instance)
        x2, x3 = pts[1], pts[2]
        assert np.all(x2 ** 2 >= np.abs(x3) - 1.5e-9)

    def test_unconstrained_keeps_all(self):
        p = problem.loads("vars: x1 x2\nobjective: x1^2 + x2^2\npoint: 0 0\n")
        pts, _, ok = oracle.sample_feasible(p, 0.1, 500, seed=0)
        assert ok and pts.shape[1] == 500

    @pytest.mark.parametrize("name", ["ex44", "socb", "licq", "ex47", "ex46"])
    def test_kept_columns_are_placed(self, name, request):
        p = request.getfixturevalue(name)
        for r in oracle.DEFAULT_RADII:
            pts, res, ok = oracle.sample_feasible(p, r, 2000, seed=0)
            assert ok
            assert np.array_equal(res, feasibility_residuals(p, pts))
            assert np.all(res <= oracle._KEEP_TOL)
            dist = np.linalg.norm(pts - p.point[:, None], axis=0)
            assert np.all(dist <= 1.05 * r)

    def test_descent_places_what_gauss_newton_cannot(self, monkeypatch):
        """On {|x1| >= 0.1}, Gauss-Newton from a sample near x1 = 0 jumps
        by 0.01 / (2 |x1|) and lands feasible but far outside the ball;
        the penalty descent from the same sample stays near it."""
        p = problem.loads("vars: x1 x2\nobjective: x1^2 + x2^2\n"
                          "block orthant 1:\n  row: 0.01 - x1^2\npoint: 0.1 0\n")
        pushed = []

        def spy(p, X):
            Y, res = push_to_feasible(p, X)
            pushed.append(Y)
            return Y, res

        monkeypatch.setattr(oracle, "push_to_feasible", spy)
        count = 500
        pts, res, ok = oracle.sample_feasible(p, 0.2, count, seed=0)
        assert ok and len(pushed) == 1
        descended = {c.tobytes() for c in pushed[0].T}
        by_descent = sum(c.tobytes() in descended for c in pts.T)
        # both paths placed columns, and the descent saw exactly the
        # columns that Gauss-Newton did not place
        by_gauss_newton = pts.shape[1] - by_descent
        assert by_descent > 0 and by_gauss_newton > 0
        assert pushed[0].shape[1] == count - by_gauss_newton
        assert np.all(res <= oracle._KEEP_TOL)
        assert np.all(np.abs(pts[0]) >= 0.1 - 1e-9)

    def test_infeasible_everywhere_flags(self):
        p = problem.loads("vars: x1\nobjective: x1^2\n"
                          "block orthant 1:\n  row: 0*x1 + 1\npoint: 0\n")
        pts, _, ok = oracle.sample_feasible(p, 0.1, 100, seed=0)
        assert not ok and pts.shape[1] == 0


class TestEstimate:
    def test_strong_minimum(self, ex44):
        est = oracle.estimate_qg_modulus(ex44, count=4000, seed=0)
        assert est.verdict == "Holds"
        assert 0.9 <= est.kappa_hat <= 1.05

    def test_kappa_never_exceeds_true_modulus(self, ex44):
        est = oracle.estimate_qg_modulus(ex44, count=4000, seed=0)
        assert est.kappa_hat <= 1.0 + 0.05

    def test_soc_vertex_growth_is_one_at_every_radius(self, ex44):
        # on {|x3| <= x2^2} in the unit ball, (x1^2 + 2 x2^2) / ||x||^2 >= 1
        est = oracle.estimate_qg_modulus(ex44, seed=0)
        assert est.kept_counts == est.sample_counts
        assert all(k >= 1.0 - 1e-7 for k in est.per_radius), est.per_radius

    def test_cubic_fails(self):
        p = problem.loads("vars: x1\nobjective: x1^3\npoint: 0\n")
        est = oracle.estimate_qg_modulus(p, count=2000, seed=0)
        assert est.verdict == "Fails"

    def test_per_radius_monotone_under_more_samples(self, ex47):
        # the per-radius value is an infimum: growing the sample set can
        # only lower it
        small = oracle.estimate_qg_modulus(ex47, count=1000, seed=0)
        # rerun with the same seed but more points; the Halton prefix is shared
        big = oracle.estimate_qg_modulus(ex47, count=4000, seed=0)
        for a, b in zip(big.per_radius, small.per_radius):
            assert a <= b + 1e-12

    def test_deterministic(self, ex47):
        a = oracle.estimate_qg_modulus(ex47, count=2000, seed=3)
        b = oracle.estimate_qg_modulus(ex47, count=2000, seed=3)
        assert a == b

    def test_infeasible_sampling_inconclusive(self):
        p = problem.loads("vars: x1\nobjective: x1^2\n"
                          "block orthant 1:\n  row: 0*x1 + 1\npoint: 0\n")
        est = oracle.estimate_qg_modulus(p, count=500, seed=0)
        assert est.verdict == "Inconclusive"


class TestVerdictRules:
    def test_holds(self):
        assert oracle.qgc_verdict([0.497, 0.4998, 0.4999]) == "Holds"
        assert oracle.qgc_verdict([2.0, 8.0, 32.0]) == "Holds"

    def test_fails_on_negative(self):
        assert oracle.qgc_verdict([-0.4, -0.1, -0.025]) == "Fails"

    def test_fails_on_decay_trend(self):
        ks = [2.0 / (n + 3) for n in range(10, 16)]
        assert oracle.qgc_verdict(ks) == "Fails"

    def test_inconclusive_when_unusable(self):
        assert oracle.qgc_verdict([1.0, 1.0, 1.0], usable=False) == "Inconclusive"


class TestTiltProbe:
    def test_convex_quadratic_lipschitz(self):
        p = problem.loads("vars: x1 x2\nobjective: x1^2 + 2*x2^2\npoint: 0 0\n")
        rep = oracle.tilt_probe(p, seed=0)
        assert rep.single_valued
        assert not rep.evidence_against
        # solution map is H^{-1} v with lambda_min(H) = 2
        assert abs(rep.lipschitz_estimate - 0.5) <= 0.05

    def test_evidence_against_on_branch_jumps(self, ex46):
        rep = oracle.tilt_probe(ex46, seed=0)
        assert rep.evidence_against
        assert rep.lipschitz_estimate > 100.0

    def test_evidence_against_second_instance(self, ex47):
        rep = oracle.tilt_probe(ex47, seed=0)
        assert rep.evidence_against
