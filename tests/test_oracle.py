import numpy as np
import pytest

from conftest import corpus_path, sequential_tilt_probe
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
        # pinned bits: a reordered float operation in the probe shows here
        assert rep.refined_ratio == 446124.05602985865
        assert rep.base_ratio == 0.12000313306798412

    def test_evidence_against_second_instance(self, ex47):
        rep = oracle.tilt_probe(ex47, seed=0)
        assert rep.evidence_against

    def test_note_names_where_the_map_turns_multivalued(self, ex44, ex47):
        # ex44's grid has two clusters already; ex47 at seed 3 has none on
        # the grid and finds the second at its 13th bisection midpoint
        rep = oracle.tilt_probe(ex44, seed=0)
        assert rep.note == "solution map multivalued on the tilt grid"
        rep = oracle.tilt_probe(ex47, seed=3)
        assert not rep.single_valued and rep.evidence_against
        assert rep.note == "solution map multivalued at refinement 13"


# ex46: the full 24-step walk; ex44: multivalued at the first step; ex47 at
# seed 3: multivalued deep in a solved-ahead batch; quad3: no evidence
WALKS = [("ex46", 0), ("ex44", 0), ("ex47", 3), ("quad3", 0)]


def _load(name):
    return problem.load(corpus_path(name, "problem.prob"))


class TestTiltLookahead:
    @pytest.mark.parametrize("name,seed", WALKS)
    def test_equals_sequential_walk(self, name, seed):
        p = _load(name)
        assert oracle.tilt_probe(p, seed=seed) == sequential_tilt_probe(p, seed)

    # ex44 is left out: its grid is already multivalued
    @pytest.mark.parametrize("name,seed", WALKS[:1] + WALKS[2:])
    def test_unwalked_tilts_never_count(self, name, seed, monkeypatch):
        p = _load(name)
        solve = oracle._solve_tilts
        walked = set()

        def spy(p_, tilts, center, seed_):
            walked.update(tilts[:, j].tobytes() for j in range(tilts.shape[1]))
            return solve(p_, tilts, center, seed_)

        monkeypatch.setattr(oracle, "_solve_tilts", spy)
        ref = sequential_tilt_probe(p, seed)

        def poisoned(p_, tilts, center, seed_):
            out = solve(p_, tilts, center, seed_)
            for j in range(tilts.shape[1]):
                if tilts[:, j].tobytes() not in walked and out[j] is not None:
                    best, _, vbest = out[j]
                    out[j] = (best, [best, best + 1.0], vbest)
            return out

        monkeypatch.setattr(oracle, "_solve_tilts", poisoned)
        assert oracle.tilt_probe(p, seed=seed) == ref

    def test_batch_invariance(self, ex46):
        tilts = oracle._tilt_grid(ex46.n, 0)[:, [0, 1, 4, 9]]
        batch = oracle._solve_tilts(ex46, tilts, ex46.point, 0)
        for j in range(tilts.shape[1]):
            (one,) = oracle._solve_tilts(ex46, tilts[:, j:j + 1], ex46.point, 0)
            best, clusters, vbest = batch[j]
            assert np.array_equal(best, one[0])
            assert vbest == one[2]
            assert len(clusters) == len(one[1])
            assert all(np.array_equal(c, d) for c, d in zip(clusters, one[1]))

    def test_walk_stops_at_a_fixed_point(self, monkeypatch):
        # an unsolvable midpoint leaves (a, b) the best pair: the reference
        # re-solves the same midpoint at every later step, the probe stops
        p = problem.loads("vars: x1 x2\nobjective: x1^2 + 2*x2^2\npoint: 0 0\n")
        grid = {t.tobytes() for t in oracle._tilt_grid(p.n, 0).T}
        solve = oracle._solve_tilts
        calls = []

        def unsolvable_midpoints(p_, tilts, center, seed_):
            calls.append(tilts.shape[1])
            out = solve(p_, tilts, center, seed_)
            return [r if t.tobytes() in grid else None
                    for t, r in zip(tilts.T, out)]

        monkeypatch.setattr(oracle, "_solve_tilts", unsolvable_midpoints)
        ref = sequential_tilt_probe(p, 0)
        assert calls == [oracle._GRID] + [1] * oracle._REFINE
        calls.clear()
        assert oracle.tilt_probe(p, seed=0) == ref
        assert calls == [oracle._GRID, 2 ** (oracle._GRID.bit_length() - 1) - 1]
