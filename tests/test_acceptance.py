"""Acceptance suite: every criterion runs at its stated tolerance and
prints one pass/fail line.  Tolerances are pinned here, not configurable."""

import math
import time
from contextlib import contextmanager

import numpy as np
from conftest import (corpus_path, mfcq_dual, mfcq_primal, project_normal, quadratic_expr,
                      random_licq_instance, rescaled_rays, sigma, with_shifted_objective)
from strongmin import cones, cq, expr, kkt, oracle, problem, pw1d, report, sosc


@contextmanager
def criterion(num, name):
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {num} ({name}): FAIL")
        raise
    print(f"\nACCEPTANCE {num} ({name}): PASS")


def test_criterion_1_soc_program():
    with criterion(1, "degenerate cone program"):
        t0 = time.perf_counter()
        rep = report.analyze_report(corpus_path("ex44", "problem.prob"),
                                    seed=0, samples=20000)
        elapsed = time.perf_counter() - t0
        assert rep["stationarity"]["holds"] is True
        assert rep["cq"]["rcq"]["holds"] is False
        assert rep["cq"]["mscq_probe"]["verdict"] == "Supported"
        assert rep["cq"]["mscq_probe"]["ratio_bound"] <= 1.6
        assert rep["sosc"]["sosc"]["holds"] is True
        assert 0.99 <= rep["sosc"]["predicted_modulus"] <= 1.01
        assert rep["oracle"]["verdict"] == "Holds"
        assert abs(rep["oracle"]["radii"][2] - 0.0125) < 1e-12
        assert 0.9 <= rep["oracle"]["per_radius"][2] <= 1.1
        assert elapsed < 30.0, f"runtime {elapsed:.1f}s"


def test_criterion_2_degenerate_nlp():
    with criterion(2, "inequality program without classical qualifications"):
        t0 = time.perf_counter()
        rep = report.analyze_report(corpus_path("ex47", "problem.prob"),
                                    seed=0, samples=20000)
        elapsed = time.perf_counter() - t0
        assert rep["cq"]["mfcq"]["holds"] is False
        assert rep["cq"]["crcq"]["holds"] is False
        assert rep["sosc"]["sosc"]["holds"] is True
        assert 0.49 <= rep["sosc"]["predicted_modulus"] <= 0.51
        assert all(v >= 0.249 for v in rep["oracle"]["per_radius"])
        assert 0.45 <= rep["oracle"]["per_radius"][-1] <= 0.55
        assert elapsed < 30.0, f"runtime {elapsed:.1f}s"


def test_criterion_3_tilt_instability():
    with criterion(3, "strict-descent instance without tilt stability"):
        t0 = time.perf_counter()
        rep = report.analyze_report(corpus_path("ex46", "problem.prob"),
                                    seed=0, samples=20000, tilt=True)
        elapsed = time.perf_counter() - t0
        assert rep["cq"]["mfcq"]["holds"] is True
        assert rep["sosc"]["sosc"]["holds"] is True
        assert 0.99 <= rep["sosc"]["predicted_modulus"] <= 1.01
        assert rep["tilt"]["evidence_against_tilt_stability"] is True
        assert elapsed < 60.0, f"runtime {elapsed:.1f}s"


def test_criterion_4_growth_refutation():
    with criterion(4, "slope condition without quadratic growth"):
        t0 = time.perf_counter()
        rep = report.pw1d_report(corpus_path("ex31", "function.pw"))
        elapsed = time.perf_counter() - t0
        cond = rep["conditions"]
        assert cond["second_kind"]["holds"] is True
        assert 0.9 <= cond["second_kind"]["kappa"] <= 1.1
        assert cond["pd_34"]["holds"] is False
        assert cond["pd_36"]["holds"] is False
        assert rep["qgc"]["verdict"] == "Fails"
        for value, n in zip(rep["qgc"]["per_radius"], range(3, 9)):
            target = 1.0 / (n + 2)
            assert abs(value - target) <= 0.25 * target, (n, value, target)
        assert elapsed < 5.0, f"runtime {elapsed:.1f}s"


def test_criterion_5_growth_without_strict_slopes():
    with criterion(5, "growth despite flat tangent slopes"):
        t0 = time.perf_counter()
        rep = report.pw1d_report(corpus_path("ex33", "function.pw"))
        elapsed = time.perf_counter() - t0
        assert rep["qgc"]["verdict"] == "Holds"
        assert rep["qgc"]["kappa_hat"] >= 1.999
        assert rep["conditions"]["pd_36"]["holds"] is False
        assert [1.0, 0.0] in rep["conditions"]["accepted_pairs"]
        assert elapsed < 5.0, f"runtime {elapsed:.1f}s"


def test_criterion_6_property_suites():
    with criterion(6, "property suites at seed 0"):
        _check_derivative_agreement()
        _check_moreau_and_polarity()
        _check_sigma_homogeneity_and_reduction_invariance()
        _check_regularization_shift()
        _check_mfcq_primal_dual()
        _check_exact_vs_sampled()


def _check_derivative_agreement():
    from test_expr import fd_gradient, fd_hessian, random_polynomial
    rng = np.random.default_rng(0)
    checked = 0
    while checked < 100:
        nvars = int(rng.integers(1, 4))
        e = random_polynomial(rng, nvars)
        x = rng.uniform(-1.5, 1.5, size=nvars)
        b = expr.eval_bundle(e, x)
        if max(1.0, abs(b.value), float(np.max(np.abs(b.gradient)))) > 1e3:
            continue
        g_fd, H_fd = fd_gradient(e, x), fd_hessian(e, x)
        assert np.max(np.abs(b.gradient - g_fd)) <= 1e-6 * max(
            1.0, float(np.max(np.abs(g_fd))))
        assert np.max(np.abs(b.hessian - H_fd)) <= 1e-4 * max(
            1.0, float(np.max(np.abs(H_fd))))
        checked += 1


def _check_moreau_and_polarity():
    from test_cones import random_point_in
    rng = np.random.default_rng(0)
    kinds = (cones.orthant(4), cones.soc(3), cones.soc(5))
    for i in range(1000):
        k = kinds[i % 3]
        y = rng.standard_normal(k.m) * 3.0
        p = cones.project(k, y)
        assert abs(p @ (y - p)) <= 1e-12 * max(1.0, float(y @ y))
    count = 0
    while count < 500:
        k = kinds[count % 3]
        y = random_point_in(k, rng)
        v = project_normal(k, y, rng.standard_normal(k.m))
        w = rng.standard_normal(k.m)
        if k.kind == "orthant":
            w[np.abs(y) <= 1e-9] = -np.abs(w[np.abs(y) <= 1e-9])
        else:
            t, r = y[0], np.linalg.norm(y[1:])
            if r <= 1e-9 and abs(t) <= 1e-9:
                w = cones.project(k, w)
            elif abs(t - r) <= 1e-9:
                d = np.concatenate([[-1.0], y[1:] / r])
                w = w - max(d @ w, 0.0) * d
        assert v @ w <= 1e-9 * max(1.0, np.linalg.norm(v) * np.linalg.norm(w))
        count += 1


def _check_sigma_homogeneity_and_reduction_invariance():
    rng = np.random.default_rng(0)
    for name in ("ex44", "ex47", "socb"):
        p = problem.load(corpus_path(name, "problem.prob"))
        pd = problem.evaluate(p, p.point)
        st = kkt.stationarity_check(pd)
        ms = kkt.build_multiplier_set(pd, st.witness)
        cone = sosc.build_critical_cone(pd)
        for _ in range(20):
            w = cone.project(rng.standard_normal(pd.n))
            if np.linalg.norm(w) < 1e-6:
                continue
            s1 = sigma(pd, ms, w, cone=cone)
            s2 = sigma(pd, ms, 2.0 * w, cone=cone)
            if math.isinf(s1):
                assert math.isinf(s2)
            else:
                assert abs(s2 - 4.0 * s1) <= 1e-9 * max(1.0, abs(s1))
    # a rescaled reduction (ray d -> 2d) leaves sigma unchanged on the
    # boundary instance
    p = problem.load(corpus_path("socb", "problem.prob"))
    pd = problem.evaluate(p, p.point)
    st = kkt.stationarity_check(pd)
    ms = kkt.build_multiplier_set(pd, st.witness)
    cone = sosc.build_critical_cone(pd)
    assert pd.face.rays
    pd2 = rescaled_rays(pd, 2.0)
    for _ in range(100):
        w = cone.project(rng.standard_normal(3))
        if np.linalg.norm(w) < 1e-6:
            continue
        a = sigma(pd, ms, w, cone=cone)
        b = sigma(pd2, ms, w, cone=cone)
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


def _check_regularization_shift():
    rho = 0.35
    p = problem.load(corpus_path("ex47", "problem.prob"))
    pd = problem.evaluate(p, p.point)
    st = kkt.stationarity_check(pd)
    ms = kkt.build_multiplier_set(pd, st.witness)
    base = sosc.analyze(pd, ms, samples=4000, seed=0)
    p2 = with_shifted_objective(p, rho)
    pd2 = problem.evaluate(p2, p.point)
    ms2 = kkt.build_multiplier_set(pd2, st.witness)
    shifted = sosc.analyze(pd2, ms2, samples=4000, seed=0)
    assert abs(shifted.predicted_modulus - base.predicted_modulus - rho) <= 1e-6


def _check_mfcq_primal_dual():
    for name in ("ex46", "ex47", "licq"):
        p = problem.load(corpus_path(name, "problem.prob"))
        pd = problem.evaluate(p, p.point)
        assert mfcq_primal(pd) == cq.check_mfcq(pd).holds == mfcq_dual(pd)
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(2, 4))
        k = int(rng.integers(1, 4))
        rows = tuple(quadratic_expr(rng.standard_normal(n), np.zeros((n, n)))
                     for _ in range(k))
        p = problem.Problem(tuple(f"x{i+1}" for i in range(n)),
                            quadratic_expr(np.zeros(n), np.eye(n)),
                            (problem.Block(rows, cones.orthant(k)),),
                            np.zeros(n))
        pd = problem.evaluate(p, p.point)
        assert mfcq_primal(pd) == cq.check_mfcq(pd).holds == mfcq_dual(pd)


def _check_exact_vs_sampled():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        A = rng.standard_normal((n, n))
        H = A @ A.T + 0.3 * np.eye(n)
        p = problem.Problem(tuple(f"x{i+1}" for i in range(n)),
                            quadratic_expr(np.zeros(n), H), (), np.zeros(n))
        pd = problem.evaluate(p, p.point)
        st = kkt.stationarity_check(pd)
        ms = kkt.build_multiplier_set(pd, st.witness)
        lam_min = float(np.linalg.eigvalsh(H)[0])  # independent eigenvalue oracle
        exact = sosc.analyze(pd, ms, samples=4000, seed=0)
        sampled = sosc.analyze(pd, ms, samples=4000, seed=0, force="sampled")
        assert exact.certification == "Exact"
        assert sampled.certification == "Sampled"
        assert abs(exact.predicted_modulus - lam_min) <= 1e-9 * max(1.0, lam_min)
        assert abs(sampled.predicted_modulus - exact.predicted_modulus) <= 1e-6


def test_criterion_7_no_gap_consistency_sweep():
    with criterion(7, "no-gap consistency on random instances"):
        rng = np.random.default_rng(0)
        holds_checked = growth_checked = 0
        for _ in range(50):
            p = random_licq_instance(rng)
            pd = problem.evaluate(p, p.point)
            st = kkt.stationarity_check(pd)
            assert st.is_stationary
            ms = kkt.build_multiplier_set(pd, st.witness)
            assert ms.k == 0  # independence of active gradients
            rep = sosc.analyze(pd, ms, samples=6000, seed=0)
            est = oracle.estimate_qg_modulus(p, count=4000, seed=0)
            if est.verdict == "Holds" and est.kappa_hat >= 1e-2:
                assert rep.sonc_holds, "growth observed but necessity failed"
                holds_checked += 1
            if rep.sosc_holds and math.isfinite(rep.predicted_modulus):
                kappa = rep.predicted_modulus
                assert est.per_radius[-1] >= kappa - 0.05, \
                    "sample violates the certified growth level"
                growth_checked += 1
        # the sweep must actually exercise both implications
        assert holds_checked >= 10
        assert growth_checked >= 10
