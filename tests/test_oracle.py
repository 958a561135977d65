import numpy as np

from strongmin import oracle, problem


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
