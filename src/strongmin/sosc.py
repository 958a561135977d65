"""Critical cone, curvature functional, second-order verdicts and modulus.

The critical cone is realized as the linearized cone
{w : ∇q(x̄) w ∈ T_Θ(q(x̄))} ∩ {∇g(x̄)}^⊥, which agrees with the tangent
description under the metric-subregularity constraint qualification that
every report assumes and records.  The curvature functional sigma(w) is
the objective Hessian form plus the exact maximum of a multiplier-linear
functional over the multiplier set, whose coefficients come from one
tensor per point: the row Hessians plus, on each active second-order-cone
boundary block, the curvature of the reduction whose gradient is the
block's ray in the normal face.

`analyze` first presolves the cone: an inequality row, or a soc block's
axis row, that one LP shows to vanish on a polyhedral relaxation becomes
equality rows (the whole block, for an axis row).  A cone left with
equality rows only is a subspace and is projected exactly; every conic
corpus cone ends up so.  A cone whose relaxation is {0}, or with one soc
block that admits only w = 0 on the equality rows' null space, ends up
{0}, where both verdicts hold vacuously (Exact).

The infimum of sigma over unit directions of the cone is certified two
ways: an eigenvalue reduction when the presolved cone is a subspace and
the multiplier set is a singleton (Exact), and a deterministic
low-discrepancy sphere search with coordinate-descent polishing otherwise
(Sampled).  With one multiplier, sigma is the quadratic form
`_SigmaEvaluator.form` of that multiplier, whose Q already carries the
boundary-curvature correction, so the Exact path covers boundary-active
soc blocks too.  Every sigma value comes from one `_SigmaEvaluator`.
Sigma is scored only at unit directions that violate the cone by at most
_MEMBERSHIP_TOL; `CriticalCone.project` may leave a column outside, and
`analyze` raises NotInCriticalCone when no direction is left.

The search settles each direction it can in one batch and solves an LP
loop for each other one, so `analyze` strides only unsettled candidates,
and `_polish` tries trials in the order of a lower bound on sigma (exact
where settled) and solves only down to the first that improves.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import cones
from ._sampling import signed_axes, sphere
from ._simplex import solve_lp
from .kkt import (MultiplierSet, VertexMaximizer, enumerate_polyhedron,
                  maximize_linear)
from .problem import PointData

__all__ = [
    "CriticalCone",
    "SoscReport",
    "NotInCriticalCone",
    "build_critical_cone",
    "presolve",
    "analyze",
    "VERDICT_TOL",
]

VERDICT_TOL = 1e-7
_MEMBERSHIP_TOL = 1e-9
_GRAD_TOL = 1e-10  # a smaller objective gradient adds no equality row
# presolve: an inequality row F_i whose largest -F_i.w over the box and the
# relaxed cone is at most this times ||F_i|| is an implicit equality
_PRESOLVE_TOL = 1e-12
# presolve: a soc block whose quadratic form on the equality rows' null
# space has its largest eigenvalue below -_SOC_EMPTY_TOL times its largest
# eigenvalue magnitude admits only w = 0
_SOC_EMPTY_TOL = 1e-9
# ADMM projection: a column stops once its primal and dual residuals are
# both at most _ADMM_TOL, and every column stops after _ADMM_MAX_ITERS
_ADMM_TOL = 1e-12
_ADMM_MAX_ITERS = 1200
# ADMM scales a row to unit norm outside cones.UNIT_ROW_RANGE.  Unit rows
# everywhere would be slower on longer rows (test_sosc's planted cones).
# sampled path: coordinate-descent rounds, their first step and the step
# below which a candidate stops
_POLISH_ROUNDS = 60
_POLISH_STEP0 = 0.1
_POLISH_STEP_FLOOR = 1e-10


class NotInCriticalCone(Exception):
    pass


@dataclass
class CriticalCone:
    """Rows of the linearized critical cone {w : M w in D}.

    eq: stacked equality rows (E w = 0); ineq: rows with F w <= 0;
    soc: list of (matrix B, cone dim) with B w constrained to soc(m).
    """

    n: int
    eq: np.ndarray
    ineq: np.ndarray
    soc: List[Tuple[np.ndarray, int]]

    def __post_init__(self):
        self._null = _null_basis(self.eq, self.n) if self.is_subspace else None
        rows = [self.eq, self.ineq] + [B for B, _ in self.soc]
        self._M = np.vstack(rows)
        ends = np.cumsum([r.shape[0] for r in rows]).tolist()
        self._eq_sl, self._ineq_sl = slice(0, ends[0]), slice(ends[0], ends[1])
        self._soc_sl = [(slice(a, b), m) for a, b, (_, m)
                        in zip(ends[1:], ends[2:], self.soc)]
        # ADMM runs on the rows of ``_admm_rows``, the same cone, with the
        # x-update operator formed once per cone (Boyd et al. 2011, section
        # 4.2): I + A^T A has eigenvalues >= 1, so its inverse is well
        # conditioned and one matrix product replaces two solves.
        self._A = np.vstack([_admm_rows(self.eq), _admm_rows(self.ineq)]
                            + [_admm_rows(B, per_row=False) for B, _ in self.soc])
        self._K = np.linalg.inv(np.eye(self.n) + self._A.T @ self._A)
        self._KMt = self._K @ self._A.T

    @property
    def is_subspace(self) -> bool:
        return self.ineq.shape[0] == 0 and not self.soc

    def subspace_basis(self) -> np.ndarray:
        if not self.is_subspace:
            raise ValueError("cone is not a subspace")
        return self._null

    def _box_maxima(self, C: np.ndarray):
        """For each row c of C, the maximum of c.w over the box |w_i| <= 1
        intersected with a polyhedral outer relaxation of the cone, or None
        where the LP does not reach an optimum.

        Each soc constraint B w in soc(m) is relaxed by
        ``cones.soc_relaxation``, so the relaxation is a cone that contains
        this one (and equals it when there is no soc block).  Lazy: a caller
        may stop after the first answer it needs.
        """
        relax = [self.ineq] + [cones.soc_relaxation(B) for B, _ in self.soc]
        box = np.eye(self.n)
        A_ub = np.vstack(relax + [box, -box])
        b_ub = np.concatenate([np.zeros(A_ub.shape[0] - 2 * self.n),
                               np.ones(2 * self.n)])
        b_eq = np.zeros(self.eq.shape[0])
        for c in C:
            res = solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=self.eq, b_eq=b_eq)
            yield res.value if res.status == "optimal" else None

    def violation(self, W: np.ndarray) -> np.ndarray:
        """Columnwise distance of M w to the target set D."""
        single = W.ndim == 1
        Z = self._M @ (W[:, None] if single else W)
        out = cones.column_norm(Z - self._proj_D(Z))
        return float(out[0]) if single else out

    def contains(self, w, tol: float = _MEMBERSHIP_TOL) -> bool:
        return float(self.violation(np.asarray(w, dtype=float))) <= tol

    def _proj_D(self, Z: np.ndarray) -> np.ndarray:
        out = Z.copy()
        out[self._eq_sl] = 0.0
        out[self._ineq_sl] = np.minimum(out[self._ineq_sl], 0.0)
        for sl, m in self._soc_sl:
            out[sl] = cones.project(cones.soc(m), out[sl])
        return out

    def project(self, W: np.ndarray) -> np.ndarray:
        """Euclidean projection onto the cone, columnwise.

        Subspaces are projected exactly by P P^T, other cones by ADMM on
        M x = z, z in D.  A column stops at the first iteration where its
        primal residual ||M x - z|| and dual residual ||M^T (z - z_prev)||
        are both at most _ADMM_TOL (Boyd et al. 2011, section 3.3) and
        keeps that x; one still running after _ADMM_MAX_ITERS may lie
        outside the cone.
        """
        single = W.ndim == 1
        W2 = np.asarray(W, dtype=float)
        W2 = W2[:, None] if single else W2
        if self.is_subspace:
            P = self._null
            out = P @ (P.T @ W2)
        else:
            out = self._admm(W2)
        return out[:, 0] if single else out

    def _admm(self, W2: np.ndarray) -> np.ndarray:
        X = W2.copy()
        M = self._A
        live = np.arange(W2.shape[1])  # columns that have not stopped
        KW = self._K @ W2
        Z = self._proj_D(M @ W2)
        U = np.zeros_like(Z)
        for _ in range(_ADMM_MAX_ITERS):
            Xl = KW + self._KMt @ (Z - U)
            MX = M @ Xl
            Z_prev = Z
            Z = self._proj_D(MX + U)
            U += MX
            U -= Z
            X[:, live] = Xl
            go = ((np.linalg.norm(MX - Z, axis=0) > _ADMM_TOL)
                  | (np.linalg.norm(M.T @ (Z - Z_prev), axis=0) > _ADMM_TOL))
            if not go.all():
                live, KW, Z, U = live[go], KW[:, go], Z[:, go], U[:, go]
            if not live.size:
                break
        return X


def _admm_rows(R: np.ndarray, per_row: bool = True) -> np.ndarray:
    """R with each row whose norm lies outside cones.UNIT_ROW_RANGE scaled to
    unit norm; without ``per_row``, all rows by their largest norm, one
    positive scalar that keeps a soc block's cone.  hypot does not overflow."""
    norm = np.hypot.reduce(R, axis=1, keepdims=True)
    if not per_row:
        norm = np.max(norm, initial=0.0, keepdims=True)
    lo, hi = cones.UNIT_ROW_RANGE
    far = (norm > 0.0) & ((norm < lo) | (norm > hi))
    return np.where(far, R / np.where(far, norm, 1.0), R)


def _null_basis(E: np.ndarray, n: int) -> np.ndarray:
    """Orthonormal basis (n, n - rank) of {w : E w = 0}."""
    if not E.shape[0]:
        return np.eye(n)
    _, s, vt = np.linalg.svd(E)
    rank = int(np.sum(s > max(1e-12, s[0] * 1e-12)))
    return vt[rank:].T


@dataclass(frozen=True)
class SoscReport:
    sonc_holds: bool
    sosc_holds: bool
    predicted_modulus: float           # may be +inf for the trivial cone
    worst_direction: Optional[np.ndarray]
    certification: str                 # "Exact" | "Sampled"
    sample_count: int
    seed: int
    empty_cone: bool = False
    inner_max_warning: bool = False    # some inner maximization hit its cut limit


def build_critical_cone(pd: PointData) -> CriticalCone:
    """Linearized critical cone at the evaluated point."""
    n = pd.n
    g = pd.g.gradient
    eq = g[None, :] if np.linalg.norm(g) > _GRAD_TOL else np.zeros((0, n))
    ineq = pd.face.inequality_rows(pd.J)
    soc_rows = [(pd.J[sl], sl.stop - sl.start) for sl in pd.face.socs]
    return CriticalCone(n, eq, ineq, soc_rows)


def presolve(cone: CriticalCone) -> CriticalCone:
    """The same cone with its implicit equalities written as equality rows.

    An inequality row F_i becomes one when -F_i.w has maximum at most
    _PRESOLVE_TOL * ||F_i|| over the box and relaxation of
    ``CriticalCone._box_maxima``: the relaxation contains the cone, so
    F_i.w = 0 on all of it.  A soc block becomes the equality rows B when
    its axis row B_0 has such a maximum, since B_0.w >= ||(B w)_2..m|| on
    the cone; B_0 = 0 is the special case, which keeps the rows B[1:].
    This is one step of facial reduction (Borwein & Wolkowicz 1981).  A
    cone left with no inequality row and no soc block is a subspace,
    projected exactly by ``P P^T``; when the relaxation is {0} every row
    vanishes on it, so the cone presolves to {0}, an empty basis.

    The relaxation keeps rays that a soc block alone excludes.  So each
    soc block left is also tested on the null space P of the equality
    rows: when G = P^T (B_0 B_0^T - Bbar^T Bbar) P has
    lambda_max(G) < -_SOC_EMPTY_TOL * max|lambda(G)|, then B_0.w <
    ||Bbar w|| for every w = P z != 0, and the cone presolves to {0}.
    """
    C = np.vstack([-cone.ineq] + [B[:1] for B, _ in cone.soc])
    vanish = np.array([v is not None and v <= _PRESOLVE_TOL * s for v, s in
                       zip(cone._box_maxima(C), np.hypot.reduce(C, axis=1))],
                      dtype=bool)
    if vanish.any():
        implicit, vertex = np.split(vanish, [cone.ineq.shape[0]])
        eq = [cone.eq, cone.ineq[implicit]]
        eq += [B if np.any(B[0]) else B[1:] for (B, _), v in zip(cone.soc, vertex) if v]
        soc = [block for block, v in zip(cone.soc, vertex) if not v]
        cone = CriticalCone(cone.n, np.vstack(eq), cone.ineq[~implicit], soc)
    if cone.soc:
        P = _null_basis(cone.eq, cone.n)
        for B, _ in cone.soc:
            BP = B @ P
            lam = np.linalg.eigvalsh(np.outer(BP[0], BP[0]) - BP[1:].T @ BP[1:])
            if not lam.size or lam[-1] < -_SOC_EMPTY_TOL * np.max(np.abs(lam)):
                return CriticalCone(cone.n, np.eye(cone.n), np.zeros((0, cone.n)), [])
    return cone


# ----------------------------------------------------------------------
# curvature functional
# ----------------------------------------------------------------------

def _curvature_tensor(pd: PointData) -> np.ndarray:
    """T (m, n, n) with sigma(w) = w.H_g.w + max over lam of sum_i lam_i w.T_i.w:
    row i's Hessian, plus d_i / (d.d) J^T H J on a soc boundary block with
    face ray d and Jacobian J, where H = -d_1 (I - ybar ybar^T / r^2) / r on
    the ybar rows and columns, r = ||ybar||, is the Hessian of the reduction
    whose gradient is d.  Rescaling d rescales H alike and leaves T as is."""
    T = pd.hessians.copy()
    for sl, d in pd.face.rays:
        ybar = pd.q[sl][1:]
        r = float(np.linalg.norm(ybar))
        H = np.zeros((d.size, d.size))
        H[1:, 1:] = -d[0] * ((np.eye(ybar.size) - np.outer(ybar, ybar) / (r * r)) / r)
        T[sl] += np.multiply.outer(d / float(d @ d), pd.J[sl].T @ H @ pd.J[sl])
    return T


@functools.lru_cache(maxsize=64)
def _einsum_path(subscripts: str, *shapes) -> list:
    """np.einsum's optimize=True contraction path for operands of these
    shapes, planned once; only the shapes enter the plan."""
    ops = [np.broadcast_to(0.0, shape) for shape in shapes]
    return np.einsum_path(subscripts, *ops, optimize=True)[0]


def _einsum(subscripts: str, *ops: np.ndarray) -> np.ndarray:
    """np.einsum(subscripts, *ops, optimize=True) on a cached path."""
    path = _einsum_path(subscripts, *(op.shape for op in ops))
    return np.einsum(subscripts, *ops, optimize=path)


def _lambda_coefficients_batch(T: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Columnwise coefficient vectors C (m x N) of the inner maximization."""
    return _einsum("ijk,jN,kN->iN", T, W, W)


# ----------------------------------------------------------------------
# sigma evaluator over direction batches
# ----------------------------------------------------------------------

class _SigmaEvaluator:
    """Columnwise sigma, settled per direction where the batch can.

    Calling it on directions W gives (values, lams, settled): sigma and a
    maximizing multiplier of each column that the batch settles, NaN in
    the others.  A singleton multiplier set settles every column with one
    quadratic form.  Sets with k <= 3 read the inner maximum off cached
    vertices and rays (``VertexMaximizer``): of the set itself when it is
    polyhedral, which settles every column, and of ``maximize_linear``'s
    first-LP relaxation when it has soc blocks, which settles the columns
    whose best vertex lies in the set or whose rising rays all recede in
    it.  Larger sets settle nothing.  ``inner_max`` solves each column's
    own ``maximize_linear``; ``form`` is the fixed-multiplier quadratic
    form, from the cached curvature tensor, and the objective Hessian
    itself when there are no multipliers.
    """

    def __init__(self, pd: PointData, ms: MultiplierSet):
        self.pd = pd
        self.ms = ms
        self._T = _curvature_tensor(pd)
        self.cut_warning = False
        self._Q = self._vmax = None
        if ms.k == 0:
            self._Q = self.form(ms.lam0)
            return
        geom = enumerate_polyhedron(ms)
        if geom is not None:
            self._vmax = VertexMaximizer(ms, geom)

    def form(self, lam: np.ndarray) -> np.ndarray:
        if not self.ms.m:
            return self.pd.g.hessian
        return self.pd.g.hessian + np.einsum("i,ijk->jk", lam, self._T)

    def __call__(self, W: np.ndarray):
        N = W.shape[1]
        if self._Q is not None:
            return (_einsum("iN,ij,jN->N", W, self._Q, W),
                    np.repeat(self.ms.lam0[:, None], N, axis=1), np.ones(N, dtype=bool))
        if self._vmax is None:
            return (np.full(N, np.nan), np.full((self.ms.m, N), np.nan),
                    np.zeros(N, dtype=bool))
        base = _einsum("iN,ij,jN->N", W, self.pd.g.hessian, W)
        values, best, settled = self._vmax(_lambda_coefficients_batch(self._T, W))
        return (np.where(settled, base + values, np.nan),
                self._vmax.vertices[:, best], settled)

    def inner_max(self, W: np.ndarray):
        """(values, lams) of the columns of W from one ``maximize_linear``
        call each, on coefficients formed over W; +inf and a NaN multiplier
        where the inner maximum is unbounded."""
        base = _einsum("iN,ij,jN->N", W, self.pd.g.hessian, W)
        C = _lambda_coefficients_batch(self._T, W)
        values = np.full(W.shape[1], math.inf)
        lams = np.full((self.ms.m, W.shape[1]), np.nan)
        for j in range(W.shape[1]):
            res = maximize_linear(self.ms, C[:, j])
            if res.status == "unbounded":
                continue
            self.cut_warning |= res.cuts_exceeded
            values[j], lams[:, j] = base[j] + res.value, res.argmax
        return values, lams


# ----------------------------------------------------------------------
# analysis: infimum of sigma over unit directions
# ----------------------------------------------------------------------

def analyze(pd: PointData, ms: MultiplierSet, samples: int = 20000,
            seed: int = 0, force: Optional[str] = None) -> SoscReport:
    """Second-order verdicts and the predicted quadratic-growth modulus.

    A cone that presolves to the subspace {0} makes both verdicts hold
    vacuously (Exact), whatever the path.  The Exact path applies when the
    presolved critical cone is a linear subspace and the multiplier set is
    a singleton (the modulus is then the smallest eigenvalue of P^T Q P,
    boundary curvature included in Q); everything else is Sampled with the
    seed recorded.  The sampled path scores every candidate the evaluator
    settles, and of the u it leaves unsettled, each of which costs an LP
    loop, every ceil(u / 400)-th when u > 400.  Raises NotInCriticalCone
    when the sampled path has no direction left in the cone.
    """
    cone = presolve(build_critical_cone(pd))
    if cone.is_subspace and cone.subspace_basis().shape[1] == 0:
        return SoscReport(True, True, math.inf, None, "Exact", 0, seed,
                          empty_cone=True)

    evaluator = _SigmaEvaluator(pd, ms)
    if cone.is_subspace and ms.k == 0 and force != "sampled":
        P = cone.subspace_basis()
        vals, vecs = np.linalg.eigh(P.T @ evaluator.form(ms.lam0) @ P)
        modulus = float(vals[0])
        worst = P @ vecs[:, 0]
        return _verdicts(modulus, worst, "Exact", 0, seed)

    # ---- sampled path ----
    n = pd.n
    dirs = sphere(n, samples, seed=seed)
    proj = cone.project(dirs)
    norms = np.linalg.norm(proj, axis=0)
    # the presolve decides polyhedral cones exactly and finds a {0} that one
    # soc block cuts from the equality rows' null space; a {0} met only by
    # intersecting a block with inequality rows or other blocks is left to
    # the samples
    if cone.soc and float(np.max(norms, initial=0.0)) < 1e-6:
        return SoscReport(True, True, math.inf, None, "Sampled", samples, seed,
                          empty_cone=True)
    keep = np.flatnonzero(norms >= 0.999)
    if keep.size < 50:
        keep = np.argsort(-norms)[:200]
        keep = keep[norms[keep] >= 1e-6]
    cand = proj[:, keep] / norms[keep]

    # axis seeds: cheap insurance for axis-aligned worst directions
    cand = np.column_stack([cand, signed_axes(n)])
    cand, ok = _unit_members(cone, cone.project(cand))
    if not ok.any():
        raise NotInCriticalCone("no projected direction lies in the critical cone")
    cand = cand[:, ok]

    values, lams, settled = evaluator(cand)
    todo = np.flatnonzero(~settled)
    if todo.size > 400:
        scored = settled.copy()
        scored[todo[::int(np.ceil(todo.size / 400))]] = True
        cand, values, lams, settled = (cand[:, scored], values[scored],
                                       lams[:, scored], settled[scored])
        todo = np.flatnonzero(~settled)
    if todo.size:
        values[todo], lams[:, todo] = evaluator.inner_max(cand[:, todo])
    finite = np.isfinite(values)
    if not np.any(finite):
        return SoscReport(True, True, math.inf, None, "Sampled", samples, seed)

    order = np.argsort(np.where(finite, values, np.inf))
    top = order[: min(10, int(np.sum(finite)))]
    best_w, best_v = _polish(cone, evaluator, cand[:, top], values[top], lams[:, top])
    return _verdicts(best_v, best_w, "Sampled", samples, seed,
                     warning=evaluator.cut_warning)


def _polish(cone, evaluator, W0, v0, lams0):
    """Lockstep projected coordinate descent on the cone's unit sphere.

    All candidates advance together, so each round projects and batch
    evaluates their trial points at once.  A candidate tries its trials
    in the stable order of a lower bound on sigma and moves to the first
    that improves on it by more than 1e-15, stopping at the first bound
    that cannot.  The bound is sigma itself where the batch settled the
    trial, and otherwise the quadratic form at the candidate's last
    maximizing multiplier, which is at most sigma; only then does the
    trial solve its own inner maximization.  A candidate that does not
    move halves its step.
    """
    n, K = W0.shape
    W = W0.copy()
    V = np.asarray(v0, dtype=float).copy()
    lams = np.array(lams0, dtype=float)
    models = [None] * K  # forms at lams, built when a trial needs one
    steps = np.full(K, _POLISH_STEP0)
    offsets = signed_axes(n)
    n_trials = offsets.shape[1]

    for _ in range(_POLISH_ROUNDS):
        if np.all(steps < _POLISH_STEP_FLOOR):
            break
        trials = (W[:, :, None] + offsets[:, None, :] * steps[None, :, None])
        Pn, good = _unit_members(cone, cone.project(trials.reshape(n, K * n_trials)))
        values, trial_lams, settled = evaluator(Pn)
        unsettled = ~settled.reshape(K, n_trials)
        bound = values.copy()
        for j in np.flatnonzero(unsettled.any(axis=1)):
            if models[j] is None:
                models[j] = evaluator.form(lams[:, j])
            cols = j * n_trials + np.flatnonzero(unsettled[j])
            bound[cols] = np.einsum("iN,ik,kN->N", Pn[:, cols], models[j], Pn[:, cols])
        bound = np.where(good, bound, np.inf).reshape(K, n_trials)

        for j, order in enumerate(np.argsort(bound, axis=1, kind="stable")):
            for t in order:
                if bound[j, t] >= V[j] - 1e-15:
                    steps[j] *= 0.5
                    break
                col = j * n_trials + t
                if settled[col]:
                    val, lam = values[col], trial_lams[:, col]
                else:
                    val, lam = evaluator.inner_max(Pn[:, col:col + 1])
                    val, lam = val[0], lam[:, 0]
                if val < V[j] - 1e-15:
                    V[j], W[:, j], lams[:, j], models[j] = val, Pn[:, col], lam, None
                    break
            else:
                steps[j] *= 0.5

    jbest = int(np.argmin(V))
    return W[:, jbest].copy(), float(V[jbest])


def _unit_members(cone, P):
    """The columns of P scaled to unit norm, and the mask of those that are
    cone members to _MEMBERSHIP_TOL; a column of norm below 1e-9 is not."""
    nrm = np.linalg.norm(P, axis=0)
    Pn = P / np.where(nrm >= 1e-9, nrm, 1.0)
    return Pn, (nrm >= 1e-9) & (cone.violation(Pn) <= _MEMBERSHIP_TOL)


def _verdicts(modulus, worst, certification, count, seed, warning=False):
    sonc = modulus >= -VERDICT_TOL
    sosc = modulus >= VERDICT_TOL
    return SoscReport(sonc, sosc, modulus, worst, certification, count, seed,
                      inner_max_warning=warning)
