import os
import sys

import numpy as np
import pytest
from hypothesis import strategies as st

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
CORPUS = os.path.join(REPO, "corpus")


CONIC_CORPUS = ("ex44", "ex46", "ex47", "licq", "quad3", "socb")


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


# a soc(3) vertex block whose multiplier set is the segment lam = (-1, s,
# -s), |s| <= 1/sqrt(2), while the polyhedral relaxation of maximize_linear's
# first LP reaches |s| <= 1: both relaxation vertices leave -soc, so every
# bounded inner maximum runs the cut loop.  The critical cone is the x2
# axis, where sigma is 2 + 4 s at best: the modulus is 2 + 2 sqrt(2)
SOC_SEGMENT = ("vars: x1 x2 x3\nobjective: x3 + 0.5*x1^2 + x2^2 + x3^2\n"
               "block soc 3:\n  row: x3\n  row: x1 + x2^2\n  row: x1 - x2^2\n"
               "point: 0 0 0\n")


# five orthant rows x1 - c x2^2, c = 0.1 ... 0.5, all active: the multiplier
# set is the simplex {lam >= 0, sum lam = 1}, whose k = 4 parameters are too
# many for enumerate_polyhedron, so every inner maximum runs
# maximize_linear.  The critical cone is the x2 axis, where sigma is
# w2^2 (1 - 2 min c): the modulus is 0.8
NO_VERTEX_GEOMETRY = ("vars: x1 x2\nobjective: -x1 + 0.5*x2^2\nblock orthant 5:\n"
                      + "".join(f"  row: x1 - {c}*x2^2\n"
                                for c in ("0.1", "0.2", "0.3", "0.4", "0.5"))
                      + "point: 0 0\n")


# a soc(3) block slicing the plane w2 = 0.8 w1 of the stationary point's
# gradient: the cone {w2 = 0.8 w1} with w1 >= ||(0.8 w1, w2)|| is {0}, yet
# the block's polyhedral relaxation keeps the ray (1, 0.8)
SOC_SLICE_ZERO_CONE = ("vars: x1 x2\nobjective: 0.8*x1 - x2 + x1^2 + x2^2\n"
                       "block soc 3:\n  row: x1\n  row: 0.8*x1\n  row: x2\n"
                       "point: 0 0\n")


# a soc(2) block on its boundary beside an active orthant row: lam = (-1, 1,
# 0.25), the ray (-1, 1) with 0.25 on the row, lies in the normal cone and
# in ker J^T, so Robinson's condition fails
RAY_AND_ORTHANT = ("vars: x1\nobjective: x1^2\nblock soc 2:\n  row: 1\n"
                   "  row: 0.25*x1 + 1\nblock orthant 1:\n  row: -x1\npoint: 0\n")


# one active orthant row of gradient 2.95e244: d = -1 is a strict descent
# direction, so MFCQ holds; the critical cone is the half-line w <= 0
HUGE_ROW = ("vars: x1\nobjective: 0\nblock orthant 1:\n"
            "  row: x1 / 3.3886258853730173e-245\npoint: 0\n")


# an objective gradient of 1.3e176 at a soc(2) vertex: the multipliers are
# as large and their squares overflow, so evaluate refuses the point
HUGE_GRADIENT = ("vars: x1\nobjective: x1 / 7.549894264661701e-177\n"
                 "block soc 2:\n  row: 0\n  row: x1\npoint: 0\n")


# thirteen active rows x1 - c x2^2, c = 0.01 ... 0.13: more than cq's CRCQ
# subset enumeration takes; the modulus is 1 - 2 * 0.01
THIRTEEN_ROWS = ("vars: x1 x2\nobjective: -x1 + 0.5*x2^2\nblock orthant 13:\n"
                 + "".join(f"  row: x1 - {c / 100:g}*x2^2\n" for c in range(1, 14))
                 + "point: 0 0\n")


def probe_mscq_per_radius(p, radius=0.1, samples=128, seed=0):
    """Reference for cq.probe_mscq: each radius's live samples pushed by a
    descent of their own."""
    from strongmin import cq
    from strongmin._descent import _KEEP_TOL, feasibility_residuals, push_to_feasible
    from strongmin._sampling import ball
    from strongmin.cones import column_sum
    if not p.blocks:
        return cq.MscqProbe(0.0, (0.0, 0.0), samples, "Supported")
    bounds = []
    usable = True
    for i, r in enumerate((radius, radius / 4.0)):
        X = ball(p.point, r, samples, seed=seed + 7 * i)
        denom = feasibility_residuals(p, X)
        live = denom > 1e-12
        X, denom = X[:, live], denom[live]
        Y, res = push_to_feasible(p, X)
        kept = res <= _KEEP_TOL
        if np.sum(res > _KEEP_TOL) > 0.5 * max(1, X.shape[1]):
            usable = False
        D = Y - X
        numer = np.sqrt(column_sum(D * D))
        bounds.append(float(np.max(numer[kept] / denom[kept])) if np.any(kept) else 0.0)
    hi, lo = max(bounds), min(bounds)
    if not usable:
        verdict = "Inconclusive"
    elif hi == 0.0:
        verdict = "Supported"
    elif lo == 0.0:
        verdict = "Inconclusive"
    else:
        verdict = "Supported" if hi / lo <= 4.0 else "Inconclusive"
    return cq.MscqProbe(hi, tuple(bounds), samples, verdict)


def mfcq_primal(pd):
    """Reference for cq.check_mfcq on orthant-only problems: the largest s
    with grad.d + s <= 0 on every active row over the box |d_i| <= 1 is
    positive.  Its LP reads absolute tolerances, so a huge row fails it."""
    from strongmin._simplex import solve_lp
    assert all(b.cone.kind == "orthant" for b in pd.problem.blocks)
    active = pd.face.nonneg
    if not active.size:
        return True
    n = pd.n
    grads = pd.J[active]
    k = grads.shape[0]
    A = np.vstack([
        np.hstack([grads, np.ones((k, 1))]),
        np.hstack([np.eye(n), np.zeros((n, 1))]),
        np.hstack([-np.eye(n), np.zeros((n, 1))]),
        np.hstack([np.zeros((1, n)), -np.ones((1, 1))]),
    ])
    b = np.concatenate([np.zeros(k), np.ones(2 * n), np.zeros(1)])
    res = solve_lp(np.concatenate([np.zeros(n), [1.0]]), A_ub=A, b_ub=b)
    return bool(res.status == "optimal" and res.value > 1e-9)


def mfcq_dual(pd):
    """Reference for cq.check_mfcq on orthant-only problems, by Gordan's
    alternative: no convex combination of active gradients vanishes."""
    from strongmin._simplex import solve_lp
    assert all(b.cone.kind == "orthant" for b in pd.problem.blocks)
    active = pd.face.nonneg
    if not active.size:
        return True
    grads = pd.J[active]
    k = grads.shape[0]
    A_eq = np.vstack([np.ones((1, k)), grads.T])
    b_eq = np.concatenate([[1.0], np.zeros(pd.n)])
    # the combination's weights are nonnegative: rows -I w <= 0
    res = solve_lp(np.zeros(k), A_ub=-np.eye(k), b_ub=np.zeros(k),
                   A_eq=A_eq, b_eq=b_eq)
    return bool(res.status == "infeasible")


# ----------------------------------------------------------------------
# references that the library does not need: blockwise normal and tangent
# cone tests, the normal-cone projection, the one-call-per-step tilt walk,
# a shifted objective and rescaled rays
# ----------------------------------------------------------------------

def _soc_position(y, tol):
    """Where y sits in soc(m): "vertex", "interior" or "boundary", within tol."""
    t, r = y[0], float(np.linalg.norm(y[1:]))
    if r <= tol and abs(t) <= tol:
        return "vertex"
    if t > r + tol:
        return "interior"
    return "boundary"


def _boundary_ray(y):
    """Generator (-1, ybar/||ybar||) of the normal ray at a soc boundary point."""
    return np.concatenate([[-1.0], y[1:] / float(np.linalg.norm(y[1:]))])


def normal_cone_test(k, y, v, tol=1e-9):
    """True iff v lies in the normal cone to the cone k at y, within tol.

    Orthant: v >= 0 with v_i = 0 on rows where y_i < 0.  Soc: {0} at
    interior points, the polar cone -soc(m) at the vertex, and the single
    ray spanned by (-1, ybar/||ybar||) at nonzero boundary points.
    """
    from strongmin import cones
    y = np.asarray(y, dtype=float)
    v = np.asarray(v, dtype=float)
    if cones.distance(k, y) > tol:
        raise ValueError("base point is outside the cone beyond tolerance")
    if k.kind == "orthant":
        if np.any(v < -tol):
            return False
        return bool(np.all(np.abs(v[y < -tol]) <= tol))
    position = _soc_position(y, tol)
    if position == "vertex":  # v in -soc(m)
        return -v[0] >= float(np.linalg.norm(v[1:])) - tol
    if position == "interior":
        return float(np.linalg.norm(v)) <= tol
    d = _boundary_ray(y)
    mu = float(v @ d) / float(d @ d)
    return mu >= -tol and float(np.linalg.norm(v - mu * d)) <= tol


def tangent_cone_test(k, y, w, tol=1e-9):
    """True iff w lies in the tangent cone to the cone k at y, within tol."""
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    if k.kind == "orthant":
        return bool(np.all(w[np.abs(y) <= tol] <= tol))
    position = _soc_position(y, tol)
    if position == "vertex":
        return w[0] >= float(np.linalg.norm(w[1:])) - tol
    if position == "interior":
        return True
    return float(_boundary_ray(y) @ w) <= tol


def project_normal(k, y, v):
    """Projection of v onto the normal cone to the cone k at y (y in k)."""
    from strongmin import cones
    y = np.asarray(y, dtype=float)
    v = np.asarray(v, dtype=float)
    if k.kind == "orthant":
        out = np.maximum(v, 0.0)
        out[y < -1e-9] = 0.0
        return out
    position = _soc_position(y, 1e-9)
    if position == "vertex":
        return -cones.project(k, -v)
    if position == "interior":
        return np.zeros_like(v)
    d = _boundary_ray(y)
    return max(float(v @ d) / float(d @ d), 0.0) * d


def with_shifted_objective(p, rho):
    """p with objective g + (rho/2) ||x - p.point||^2, as a tree."""
    from strongmin import expr, problem
    out = p.objective
    for i, ci in enumerate(p.point):
        term = expr.Power(expr.Binary("sub", expr.Var(i), expr.Const(float(ci))), 2)
        out = expr.Binary("add", out, expr.Binary("mul", expr.Const(rho / 2.0), term))
    return problem.Problem(p.variables, out, p.blocks, p.point)


def rescaled_rays(pd, c):
    """pd with each soc boundary ray d of its face replaced by c d, the
    gradient of the equally valid reduction c h."""
    import dataclasses
    rays = tuple((sl, c * d) for sl, d in pd.face.rays)
    return dataclasses.replace(pd, face=dataclasses.replace(pd.face, rays=rays))


def sequential_tilt_probe(p, seed=0):
    """Reference for oracle.tilt_probe: the bisection walk with one
    _solve_tilts call per refinement, each solving only the midpoint the
    walk reached.  Calls go through the oracle module, so a monkeypatched
    _solve_tilts reaches them."""
    from strongmin import oracle
    center = p.point
    tilts = oracle._tilt_grid(p.n, seed)
    solved = {}

    def solve(vcols):
        res = oracle._solve_tilts(p, vcols, center, seed)
        for j in range(vcols.shape[1]):
            solved[vcols[:, j].tobytes()] = res[j]

    def multi():
        return any(r is not None and len(r[1]) > 1 for r in solved.values())

    def ratio(va, vb):
        ra, rb = solved.get(va.tobytes()), solved.get(vb.tobytes())
        if ra is None or rb is None:
            return 0.0
        dv = np.linalg.norm(va - vb)
        return float(np.linalg.norm(ra[0] - rb[0]) / dv) if dv > 1e-15 else 0.0

    solve(tilts)
    multivalued = multi()
    cols = [tilts[:, j] for j in range(tilts.shape[1])]
    pairs = [(a, b) for i, a in enumerate(cols) for b in cols[i + 1:]]
    base_ratio = max((ratio(a, b) for a, b in pairs), default=0.0)
    best_pair = None if multivalued else max(pairs, key=lambda ab: ratio(*ab),
                                             default=None)
    refined = base_ratio
    where = "on the tilt grid"
    for step in range(oracle._REFINE):
        if best_pair is None:
            break
        a, b = best_pair
        mid = 0.5 * (a + b)
        solve(mid[:, None])
        best_pair = max([(a, mid), (mid, b), (a, b)], key=lambda ab: ratio(*ab))
        refined = max(refined, ratio(*best_pair))
        if multi():
            where = f"at refinement {step + 1}"
            multivalued = True
            break
        if np.linalg.norm(best_pair[0] - best_pair[1]) < 1e-12:
            break
    lip = np.inf if multivalued else refined
    threshold = oracle._RATIO_THRESHOLD
    note = (f"solution map multivalued {where}" if multivalued else
            f"max displacement ratio {refined:.3g} after refinement "
            f"(threshold {threshold:g})")
    return oracle.TiltReport(not multivalued, float(lip), float(refined),
                             float(base_ratio),
                             bool(multivalued or refined > threshold), note)


def full_budget_stationarity(pd, tol=1e-7):
    """Reference for kkt.stationarity_check: all _STATIONARITY_ITERS
    accelerated projected-gradient iterations, with no fixed-point exit,
    then the same active-face polish."""
    from strongmin import kkt
    grad_g = pd.g.gradient
    J = pd.J
    m = J.shape[0]
    if m == 0:
        res = float(np.linalg.norm(grad_g))
        return kkt.StationarityResult(res <= tol, res,
                                      np.zeros(0) if res <= tol else None)
    JT = J.T
    nrm = float(np.linalg.norm(J, 2))
    step = 1.0 / max(nrm * nrm, 1e-12)
    lam = np.zeros(m)
    y = lam.copy()
    t_acc = 1.0
    for _ in range(kkt._STATIONARITY_ITERS):
        nxt = pd.face.project(y - step * (J @ (grad_g + JT @ y)))
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc * t_acc))
        y = nxt + ((t_acc - 1.0) / t_next) * (nxt - lam)
        lam, t_acc = nxt, t_next
    lam = kkt._active_face_polish(pd.face, lam, grad_g, JT)
    res = float(np.linalg.norm(grad_g + JT @ lam))
    return kkt.StationarityResult(res <= tol, res, lam if res <= tol else None)


# ----------------------------------------------------------------------
# references that left the library, which no report calls: sigma at one
# direction, and the tangent test of one direction of a pw1d graph
# ----------------------------------------------------------------------

def sigma(pd, ms, w, cone=None):
    """Curvature functional at a critical direction; +inf when the inner
    maximization is unbounded.  Raises NotInCriticalCone outside the cone.

    The value is the one `analyze` scores w with: `_SigmaEvaluator`'s
    batch where it settles w, its ``inner_max`` where it does not."""
    from strongmin import sosc
    w = np.asarray(w, dtype=float)
    if cone is None:
        cone = sosc.build_critical_cone(pd)
    if not cone.contains(w):
        raise sosc.NotInCriticalCone(
            f"direction violates the critical cone by {float(cone.violation(w)):.3e}")
    evaluator = sosc._SigmaEvaluator(pd, ms)
    values, _, settled = evaluator(w[:, None])
    if not settled[0]:
        values, _ = evaluator.inner_max(w[:, None])
    return float(values[0])


def tangent_direction_test(f, xbar, vbar, w, z):
    """Is (w, z) tangent to the subgradient graph at (xbar, vbar)?

    For every scale t of ``f.scales`` the normalized distance from
    (xbar, vbar) + t (w, z) to the graph is measured against analytic
    segments (no sampling).  Acceptance: the final normalized distance is
    below pw1d._TANGENT_TOL, or the distances decay monotonically by a
    factor of at least two down to 0.15 (the decay branch captures
    directions approached along breakpoint subsequences, at the resolution
    of the scale list).

    Tangent cones are cones, so the direction is first normalized to unit
    x-component (unit slope component when w = 0): acceptance is invariant
    under positive rescaling of (w, z), and scale lists matched to the
    function's breakpoints keep their meaning for every direction.
    """
    from strongmin import pw1d
    if w == 0.0 and z == 0.0:
        return True
    iv = f.prox_subdiff(xbar)
    if iv is None or not (iv[0] - 1e-12 <= vbar <= iv[1] + 1e-12):
        raise ValueError("vbar is not a proximal subgradient at xbar")
    s = abs(w) if w != 0.0 else abs(z)
    w, z = w / s, z / s
    deltas = pw1d._delta_profile(f, xbar, vbar, w, np.array([z]))[:, 0]
    return pw1d._accept_profile(deltas)


# ----------------------------------------------------------------------
# hypothesis strategies
# ----------------------------------------------------------------------

def expression_trees(nvars, levels, smooth=False):
    """Trees shaped like test_expr's random_polynomial, or random_smooth's
    operations with ``smooth``, with at most ``levels`` levels of
    operations.  The arguments of smooth trees are not kept in any domain,
    so sqrt, log and '/' meet nonpositive arguments and zero divisors."""
    from strongmin import expr
    leaf = st.one_of(st.floats(-2, 2).map(expr.Const),
                     st.integers(0, nvars - 1).map(expr.Var))
    if levels == 0:
        return leaf
    sub = expression_trees(nvars, levels - 1, smooth)
    options = [
        leaf,
        st.builds(expr.Binary, st.sampled_from(["add", "sub", "mul"]), sub, sub),
        st.builds(expr.Power, sub, st.integers(0, 3)),
        st.builds(expr.Unary, st.just("neg"), sub)]
    if smooth:
        options += [st.builds(expr.Binary, st.just("div"), sub, sub),
                    st.builds(expr.Unary, st.sampled_from(expr.FUNCTIONS), sub)]
    return st.one_of(*options)


@st.composite
def problems(draw):
    """Problems of 1-3 variables with up to three orthant or soc blocks,
    rows over every operation, with or without a point."""
    from strongmin import cones, problem
    n = draw(st.integers(1, 3))
    rows = expression_trees(n, 2, smooth=True)
    blocks = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["orthant", "soc"]))
        m = draw(st.integers(1 if kind == "orthant" else 2, 3))
        blocks.append(problem.Block(tuple(draw(rows) for _ in range(m)),
                                    cones.Cone(kind, m)))
    point = draw(st.none() | st.lists(
        st.floats(allow_nan=False, allow_infinity=False),
        min_size=n, max_size=n).map(np.array))
    return problem.Problem(tuple(f"x{i + 1}" for i in range(n)), draw(rows),
                           tuple(blocks), point)


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


# ----------------------------------------------------------------------
# the penalty descent as it was written before its fused step: the
# reference that push_to_feasible and minimize_tilted must repeat
# ----------------------------------------------------------------------

def _reference_residual(p, Q):
    """q - Pi_K(q) for the stacked block values Q (m, N), block by block."""
    from strongmin import cones
    R = np.empty_like(Q)
    for b, sl in zip(p.blocks, p.block_slices):
        R[sl] = Q[sl] - cones.project(b.cone, Q[sl])
    return R


def _reference_pullback(stack, X, fn, out, objective=False):
    """R from a row stack's pullback program into out, with its own value
    array and np.errstate, as RowStack.pullback and objective_pullback
    ran it then."""
    V = np.empty((len(stack.rows), X.shape[1]))
    with np.errstate(all="ignore"):
        return (stack.objective_pullback if objective else stack.pullback)(X, V, fn, out)


def _penalty(R, out):
    """The penalty rows from the cone residual R (m, N): out[:-1], which
    holds G = J^T R, becomes the gradient 2 G of dist^2(q(y); cones), and
    out[-1] becomes dist^2 = ||R||^2, columnwise, with each |R| capped at
    `_PENALTY_CAP`."""
    from strongmin._descent import _PENALTY_CAP
    from strongmin.cones import column_sum
    out[:-1] *= 2.0
    R = np.minimum(np.abs(R), _PENALTY_CAP)
    out[-1] = column_sum(R * R)


def _filled(fill, Y):
    """The descent state at the columns of Y (y, then the rows fill writes
    at y) and fill's cone residual R."""
    n = Y.shape[0]
    state = np.empty((3 * n + 2, Y.shape[1]))
    state[:n] = Y
    return state, fill(state[n:], state[:n])


def _select(kept, new, mask):
    """kept = new, in place, in the columns where the int64 ``mask`` is -1
    (all bits set; 0 elsewhere): a branch-free select of the float bits."""
    k = kept.view(np.int64)
    diff = np.bitwise_xor(k, new.view(np.int64))
    diff &= mask
    k ^= diff


def _descend(fill, state, steps, rho, iters, rho_doubling, clip=None):
    """Columnwise adaptive-step descent on base(y) + rho * d2(y) from the
    state `_filled` gives; returns the final y.

    fill(out, Z) writes base, base_grad (n rows), d2_grad (n rows) and d2
    at the columns of Z into the rows of out, in that order.  Each column
    steps along its normalized gradient; an improving candidate is
    accepted and grows the step by 1.2, otherwise the step halves.  rho
    doubles every `rho_doubling` iterations, and `clip`, if given, maps
    each candidate back into the admissible set.  y and fill's rows are
    row blocks of one state array: one select per step.
    """
    from strongmin._descent import _STEP_FACTORS, _improves
    from strongmin.cones import column_sum
    n = (state.shape[0] - 2) // 3
    cand = np.empty(state.shape)
    y, base, base_grad = state[:n], state[n], state[n + 1:2 * n + 1]
    d2_grad, d2 = state[2 * n + 1:3 * n + 1], state[3 * n + 1]
    for it in range(iters):
        if it and it % rho_doubling == 0:
            rho *= 2.0
        grad = base_grad + rho * d2_grad
        gn = np.sqrt(column_sum(grad * grad))
        gn = np.where(gn > 1e-14, gn, 1.0)
        Z = y - steps * grad / gn
        cand[:n] = Z if clip is None else clip(Z)
        fill(cand[n:], cand[:n])
        better = _improves(cand[n] + rho * cand[3 * n + 1], base + rho * d2)
        _select(state, cand, -better.astype(np.int64))
        steps *= _STEP_FACTORS.take(better.view(np.int8))
    return y


def reference_push_to_feasible(p, X):
    """push_to_feasible through the reference loop."""
    from strongmin import _descent
    from strongmin.cones import column_sum
    Y = X.copy()
    cols = np.flatnonzero(~(_descent.feasibility_residuals(p, X) > _descent._SQRT_FMAX))
    X = X.take(cols, axis=1)
    n = X.shape[0]

    def fill(out, Z):
        D = Z - X
        out[0] = column_sum(D * D)
        np.multiply(2.0, D, out=out[1:n + 1])
        R = _reference_pullback(p.row_stack, Z, lambda V: _reference_residual(p, V),
                                out[n + 1:2 * n + 1])
        _penalty(R, out[n + 1:])
        return R

    steps = 0.05 * np.maximum(1.0, np.max(np.abs(X), axis=0))
    Y[:, cols] = _descend(fill, _filled(fill, X)[0], steps, _descent._PUSH_RHO0,
                          _descent._PUSH_ITERS, _descent._PUSH_RHO_DOUBLING)
    return _descent._restore(p, Y, _descent._RESTORE_ITERS)


def reference_minimize_tilted(p, V, starts, center, ball_radius):
    """minimize_tilted through the reference loop."""
    from strongmin import _descent
    from strongmin.cones import column_norm, column_sum
    from strongmin.problem import batch_objective_values
    n = V.shape[0]

    def tilted(Vt):
        def fill(out, Z):
            R = _reference_pullback(p.row_stack, Z, lambda Q: _reference_residual(p, Q),
                                    out, objective=True)
            out[0] -= column_sum(Vt * Z)
            out[1:n + 1] -= Vt
            _penalty(R, out[n + 1:])
            return R
        return fill

    def clip(Z):
        diff = Z - center[:, None]
        nrm = np.sqrt(column_sum(diff * diff))
        factor = np.where(nrm > ball_radius,
                          ball_radius / np.where(nrm > 0, nrm, 1.0), 1.0)
        return center[:, None] + diff * factor

    Y = clip(starts)
    state, R = _filled(tilted(V), Y)
    cols = np.flatnonzero(~(column_norm(R) > _descent._SQRT_FMAX))
    steps = np.full(cols.size, 0.05 * max(ball_radius, 1e-6))
    Y[:, cols] = _descend(tilted(V[:, cols]), state.take(cols, axis=1), steps,
                          _descent._TILT_RHO0, _descent._TILT_ITERS,
                          _descent._TILT_RHO_DOUBLING, clip)
    if p.blocks:
        Y = clip(_descent._restore(p, Y, _descent._RESTORE_ITERS)[0])
    gfinal = batch_objective_values(p, Y) - column_sum(V * Y)
    return Y, gfinal, _descent.feasibility_residuals(p, Y)


# ----------------------------------------------------------------------
# pw1d as it was written before its graph was built once per function:
# the per-window segment loop, the distances over it, and the per-point
# growth and second-order quotient loops that the array passes repeat
# ----------------------------------------------------------------------

def reference_graph_segments(f, lo, hi):
    """Straight segments ((x0,v0),(x1,v1)) of the graph with x in [lo, hi]."""
    from bisect import bisect_left, bisect_right
    from strongmin import pw1d
    segs = []
    first = max(bisect_right(f._starts, lo) - 1, 0)
    for p in f.pieces[first:bisect_left(f._starts, hi)]:
        a, b_ = max(p.lo, lo), min(p.hi, hi)
        if a < b_:
            segs.append(((a, p.slope(a)), (b_, p.slope(b_))))
    acc = f.accumulation
    for x in f._starts[max(bisect_left(f._starts, lo), 1):
                       bisect_right(f._starts, hi)]:
        if acc is not None and x == acc[0]:
            continue
        iv = f.prox_subdiff(x)
        if iv is not None:
            segs.append(((x, max(iv[0], -pw1d._VCAP)), (x, min(iv[1], pw1d._VCAP))))
    if acc is not None:
        x0, iv = acc
        if lo <= x0 <= hi:
            segs.append(((x0, iv[0]), (x0, iv[1])))
    return segs


def reference_graph_distances(f, X, Vs, window):
    """Distances from (X, v) to the graph for every v in Vs at once."""
    segs = reference_graph_segments(f, X - window, X + window)
    if not segs:
        return np.full(Vs.shape[0], np.inf)
    arr = np.array([[a[0], a[1], b[0], b[1]] for a, b in segs])
    x0, v0, x1, v1 = arr[:, 0:1], arr[:, 1:2], arr[:, 2:3], arr[:, 3:4]
    dx, dv = x1 - x0, v1 - v0
    L2 = dx * dx + dv * dv
    L2 = np.where(L2 > 0, L2, 1.0)
    V = Vs[None, :]
    t = ((X - x0) * dx + (V - v0) * dv) / L2
    t = np.clip(t, 0.0, 1.0)
    px, pv = x0 + t * dx, v0 + t * dv
    d = np.sqrt((X - px) ** 2 + (V - pv) ** 2)
    return np.min(d, axis=0)


def reference_delta_profile(f, xbar, vbar, w, zs):
    """pw1d._delta_profile over the reference distances."""
    ts = sorted(f.scales, reverse=True)
    nrm = np.hypot(w, zs)
    out = np.empty((len(ts), zs.shape[0]))
    for i, t in enumerate(ts):
        d = reference_graph_distances(f, xbar + t * w, vbar + t * zs,
                                      6.0 * t * (abs(w) + 1.0))
        out[i] = d / (t * nrm)
    return out


def reference_qgc_per_radius(f, xbar, radii):
    """(per_radius, distinct points per radius) of pw1d.estimate_qgc_1d,
    one point at a time."""
    from strongmin import pw1d
    per_radius, counts = [], []
    for r in radii:
        offs = np.geomspace(r * pw1d._QGC_FLOOR_REL, r, pw1d._QGC_GRID)
        xs = set()
        for o in offs:
            xs.add(xbar + o)
            xs.add(xbar - o)
        for bp in f.breakpoints:
            if abs(bp - xbar) <= r and abs(bp - xbar) >= r * pw1d._QGC_FLOOR_REL:
                xs.add(bp)
        best = np.inf
        for x in xs:
            d = x - xbar
            val = 2.0 * f.diff(x, xbar) / (d * d)
            if val < best:
                best = val
        per_radius.append(float(best))
        counts.append(len(xs))
    return per_radius, counts


def reference_second_subderivative_per_tau(f, xbar, v, w):
    """The per-scale minima of pw1d.second_subderivative, one point at a time."""
    from strongmin import pw1d
    per_tau = []
    for t in sorted(f.scales, reverse=True):
        best = np.inf
        for rel in pw1d._WPRIME_REL:
            wp = w * (1.0 + rel)
            q = 2.0 * (f.diff(xbar + t * wp, xbar) - t * v * wp) / (t * t)
            best = min(best, q)
        per_tau.append(best)
    return per_tau
