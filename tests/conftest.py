import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
CORPUS = os.path.join(REPO, "corpus")


def corpus_path(name: str, filename: str) -> str:
    return os.path.join(CORPUS, name, filename)


@pytest.fixture(scope="session")
def ex44():
    from strongmin import problem
    return problem.load(corpus_path("ex44", "problem.prob"))


@pytest.fixture(scope="session")
def ex46():
    from strongmin import problem
    return problem.load(corpus_path("ex46", "problem.prob"))


@pytest.fixture(scope="session")
def ex47():
    from strongmin import problem
    return problem.load(corpus_path("ex47", "problem.prob"))


@pytest.fixture(scope="session")
def socb():
    from strongmin import problem
    return problem.load(corpus_path("socb", "problem.prob"))


@pytest.fixture(scope="session")
def licq():
    from strongmin import problem
    return problem.load(corpus_path("licq", "problem.prob"))


# a soc(3) vertex block beside an active orthant row: the presolved
# critical cone keeps the row w1 <= 0, so its projection runs ADMM
MIXED_SOC_AND_ORTHANT = ("vars: x1 x2 x3\nobjective: 0.5*x1^2 + x2^2\n"
                         "block soc 3:\n  row: 2*x2^2\n  row: x2^2 - x3\n"
                         "  row: x2^2 + x3\n"
                         "block orthant 1:\n  row: x1\npoint: 0 0 0\n")


def mfcq_dual(pd):
    """Reference for cq.check_mfcq on orthant-only problems, by Gordan's
    alternative: no convex combination of active gradients vanishes."""
    from strongmin._simplex import solve_lp
    assert all(b.cone.kind == "orthant" for b in pd.blocks)
    active = pd.face.nonneg
    if not active.size:
        return True
    grads = pd.full_jacobian()[active]
    k = grads.shape[0]
    A_eq = np.vstack([np.ones((1, k)), grads.T])
    b_eq = np.concatenate([[1.0], np.zeros(pd.n)])
    res = solve_lp(np.zeros(k), A_eq=A_eq, b_eq=b_eq, nonneg=True)
    return bool(res.status == "infeasible")


def pipeline(p, samples=4000, seed=0):
    """evaluate -> stationarity -> multiplier set, shared across tests."""
    from strongmin import kkt, problem
    pd = problem.evaluate(p, p.point)
    st = kkt.stationarity_check(pd)
    assert st.is_stationary
    ms = kkt.build_multiplier_set(pd, st.witness)
    return pd, st, ms


def sample_members(ms, count, seed=0, scale=2.0, max_tries=200):
    """Rejection-sample feasible members of a kkt.MultiplierSet."""
    rng = np.random.default_rng(seed)
    out = []
    if ms.k == 0:
        return [ms.lam0.copy()] if ms.face.contains(ms.lam0[:, None], tol=1e-8)[0] else []
    for _ in range(max_tries * count):
        lam = ms.member(scale * rng.standard_normal(ms.k))
        if ms.face.contains(lam[:, None], tol=1e-10)[0]:
            out.append(lam)
            if len(out) >= count:
                break
    return out


def random_quadratic_problem(rng, n):
    """Unconstrained strictly convex quadratic with a known Hessian."""
    from strongmin import expr, problem
    A = rng.standard_normal((n, n))
    H = A @ A.T + 0.5 * np.eye(n)
    names = tuple(f"x{i+1}" for i in range(n))
    obj = quadratic_expr(np.zeros(n), H)
    p = problem.Problem(names, obj, (), np.zeros(n))
    return p, H


def quadratic_expr(c, Q):
    """Expression tree for c.x + 0.5 x.Q.x."""
    from strongmin import expr
    n = len(c)
    e = expr.Const(0.0)
    for i in range(n):
        if c[i] != 0.0:
            e = expr.Binary("add", e, expr.Binary("mul", expr.Const(float(c[i])),
                                                  expr.Var(i)))
    for i in range(n):
        for j in range(i, n):
            coef = 0.5 * Q[i][j] if i == j else Q[i][j]
            if coef != 0.0:
                term = expr.Binary("mul", expr.Const(float(coef)),
                                   expr.Binary("mul", expr.Var(i), expr.Var(j)))
                e = expr.Binary("add", e, term)
    return e


def random_licq_instance(rng):
    """Acceptance criterion 7's random orthant instance: k <= 3 active rows
    with independent gradients (LICQ) at the origin, some multipliers 0."""
    from strongmin import cones, problem
    n = int(rng.integers(2, 5))
    k = int(rng.integers(1, min(3, n) + 1))
    while True:
        A = rng.standard_normal((k, n))
        if np.linalg.svd(A, compute_uv=False)[-1] >= 0.3:
            break
    rows = []
    for i in range(k):
        B = 0.4 * rng.standard_normal((n, n))
        B = B + B.T
        rows.append(quadratic_expr(A[i], B))
    lam = np.abs(rng.standard_normal(k))
    lam[rng.random(k) < 0.3] = 0.0
    Hvecs = np.linalg.qr(rng.standard_normal((n, n)))[0]
    Heig = rng.uniform(-0.5, 2.5, size=n)
    H = Hvecs @ np.diag(Heig) @ Hvecs.T
    g = quadratic_expr(-(lam @ A), H)
    names = tuple(f"x{i+1}" for i in range(n))
    blocks = (problem.Block(tuple(rows), cones.orthant(k)),)
    return problem.Problem(names, g, blocks, np.zeros(n))
