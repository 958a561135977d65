import numpy as np
import pytest

from strongmin._simplex import solve_lp


def test_box_lp():
    # max s with d + s <= 0, |d| <= 1: optimum s = 1 at d = -1
    res = solve_lp([0.0, 1.0], A_ub=[[1, 1], [1, 0], [-1, 0]], b_ub=[0, 1, 1])
    assert res.status == "optimal"
    assert abs(res.value - 1.0) < 1e-9


def test_unbounded_with_ray():
    res = solve_lp([1.0, 0.0], A_ub=[[0.0, 1.0]], b_ub=[1.0])
    assert res.status == "unbounded"
    assert res.ray is not None and res.ray[0] > 0


def test_infeasible_eq():
    res = solve_lp([0.0], A_ub=[[-1.0]], b_ub=[0.0], A_eq=[[1.0], [1.0]],
                   b_eq=[0.0, 1.0])
    assert res.status == "infeasible"


def test_nonneg_feasibility_system():
    # lam >= 0 (rows -lam <= 0), sum lam = 1, lam1 - lam2 = 0 is feasible
    # at (1/2, 1/2)
    res = solve_lp([0.0, 0.0], A_ub=-np.eye(2), b_ub=np.zeros(2),
                   A_eq=[[1, 1], [1, -1]], b_eq=[1.0, 0.0])
    assert res.status == "optimal"
    assert np.allclose(res.x, [0.5, 0.5])


def test_degenerate_vertex_no_cycling():
    # many redundant rows through the optimum; Bland's rule must terminate
    A = [[1, 0], [0, 1], [1, 1], [2, 1], [1, 2], [-1, 0], [0, -1]]
    b = [1, 1, 2, 3, 3, 0, 0]
    res = solve_lp([1.0, 1.0], A_ub=A, b_ub=b)
    assert res.status == "optimal"
    assert abs(res.value - 2.0) < 1e-9


def test_random_against_vertex_enumeration():
    rng = np.random.default_rng(0)
    from itertools import combinations
    for _ in range(40):
        n = 2
        m = 6
        A = rng.standard_normal((m, n))
        b = rng.uniform(0.2, 1.5, size=m)  # interior point at 0
        c = rng.standard_normal(n)
        res = solve_lp(c, A_ub=A, b_ub=b)
        # brute-force vertex enumeration
        best = None
        for i, j in combinations(range(m), 2):
            M = A[[i, j]]
            if abs(np.linalg.det(M)) < 1e-9:
                continue
            x = np.linalg.solve(M, b[[i, j]])
            if np.all(A @ x <= b + 1e-9):
                v = c @ x
                best = v if best is None else max(best, v)
        if best is None:
            assert res.status == "unbounded"
        elif res.status == "optimal":
            assert abs(res.value - best) < 1e-7
        else:
            # unbounded: verify a genuine improving ray exists
            assert res.status == "unbounded"
            r = res.ray
            assert np.all(A @ r <= 1e-9) and c @ r > 0


def random_lp(rng):
    """A random LP with at most 5 variables and 8 rows: inequality rows, and
    equality rows whose last one is the sum of the others, so that phase 1
    leaves an artificial basic on a redundant row.  Returns the objective,
    the rows and whether the variables are nonnegative; one draw in five
    makes the redundant row inconsistent, and so the LP infeasible."""
    n = int(rng.integers(1, 6))
    n_eq = int(rng.integers(0, 4))
    n_ub = int(rng.integers(0, 9 - n_eq))
    nonneg = bool(rng.integers(2))
    x0 = rng.uniform(0.0, 2.0, n) if nonneg else rng.standard_normal(n)
    A_ub = rng.standard_normal((n_ub, n))
    b_ub = A_ub @ x0 + rng.uniform(0.0, 1.0, n_ub) * rng.integers(0, 2, n_ub)
    A_eq = rng.standard_normal((n_eq, n))
    if n_eq >= 2:
        A_eq[-1] = A_eq[:-1].sum(axis=0)
    b_eq = A_eq @ x0
    if n_eq >= 2 and rng.integers(5) == 0:
        b_eq[-1] += 1.0
    return rng.standard_normal(n), A_ub, b_ub, A_eq, b_eq, nonneg


def test_agrees_with_highs():
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(0)
    seen = set()
    for _ in range(300):
        f, A_ub, b_ub, A_eq, b_eq, nonneg = random_lp(rng)
        # solve_lp's variables are free: x >= 0 is the rows -x <= 0, while
        # HiGHS takes it as bounds
        sign = -np.eye(len(f))[:len(f) if nonneg else 0]
        res = solve_lp(f, A_ub=np.vstack([A_ub, sign]),
                       b_ub=np.concatenate([b_ub, np.zeros(len(sign))]),
                       A_eq=A_eq, b_eq=b_eq)
        ref = optimize.linprog(-f, A_ub=A_ub if len(b_ub) else None,
                               b_ub=b_ub if len(b_ub) else None,
                               A_eq=A_eq if len(b_eq) else None,
                               b_eq=b_eq if len(b_eq) else None,
                               bounds=(0, None) if nonneg else (None, None),
                               method="highs")
        assert res.status == {0: "optimal", 2: "infeasible", 3: "unbounded"}[ref.status]
        seen.add(res.status)
        if res.status == "optimal":
            v = -ref.fun
            assert abs(res.value - v) <= 1e-9 * max(1.0, abs(v))
        elif res.status == "unbounded":
            r = res.ray
            scale = max(1.0, float(np.max(np.abs(r))))
            assert np.all(A_ub @ r <= 1e-9 * scale)
            assert np.all(np.abs(A_eq @ r) <= 1e-9 * scale)
            assert not nonneg or np.all(r >= -1e-12 * scale)
            assert f @ r > 0
    assert seen == {"optimal", "unbounded", "infeasible"}
