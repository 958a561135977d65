"""Critical cone, curvature functional, second-order verdicts and modulus.

The critical cone is realized as the linearized cone
{w : ∇q(x̄) w ∈ T_Θ(q(x̄))} ∩ {∇g(x̄)}^⊥, which agrees with the tangent
description under the metric-subregularity constraint qualification that
every report assumes and records.  The curvature functional sigma(w) is
the objective Hessian form plus the exact maximum of a multiplier-linear
functional over the multiplier set, whose coefficients come from one
tensor per point: the row Hessians plus the reduction curvature of each
active second-order-cone boundary block.

`analyze` first presolves the cone: an inequality row, or a soc block's
axis row, that one LP shows to vanish on a polyhedral relaxation becomes
equality rows (the whole block, for an axis row).  A cone left with
equality rows only is a subspace and is projected exactly; every conic
corpus cone ends up so, and a cone whose relaxation is {0} ends up {0},
where both verdicts hold vacuously (Exact).

The infimum of sigma over unit directions of the cone is certified two
ways: an eigenvalue reduction when the presolved cone is a subspace and
the multiplier set is a singleton (Exact), and a deterministic
low-discrepancy sphere search with coordinate-descent polishing otherwise
(Sampled).  With one multiplier, sigma is the quadratic form of
`_fixed_multiplier_matrix`, whose Q already carries the boundary-curvature
correction, so the Exact path covers boundary-active soc blocks too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import cones
from ._sampling import sphere
from ._simplex import solve_lp
from .kkt import MultiplierSet, enumerate_polyhedron, maximize_linear
from .problem import PointData

__all__ = [
    "CriticalCone",
    "SoscReport",
    "NotInCriticalCone",
    "build_critical_cone",
    "presolve",
    "sigma",
    "analyze",
    "VERDICT_TOL",
]

VERDICT_TOL = 1e-7
_MEMBERSHIP_TOL = 1e-9
_GRAD_TOL = 1e-10  # a smaller objective gradient adds no equality row
# presolve: an inequality row F_i whose largest -F_i.w over the box and the
# relaxed cone is at most this times ||F_i|| is an implicit equality
_PRESOLVE_TOL = 1e-12
_INTERIOR, _VERTEX, _BOUNDARY = 0, 1, 2  # position of B w in a soc block
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
        if self.is_subspace and self.eq.shape[0]:
            _, s, vt = np.linalg.svd(self.eq)
            rank = int(np.sum(s > max(1e-12, (s[0] if s.size else 0) * 1e-12)))
            self._null = vt[rank:].T  # orthonormal basis of the subspace
        elif self.is_subspace:
            self._null = np.eye(self.n)
        else:
            self._null = None
        rows = [self.eq, self.ineq] + [B for B, _ in self.soc]
        self._M = np.vstack([r for r in rows if r.shape[0]]) if any(
            r.shape[0] for r in rows) else np.zeros((0, self.n))
        start = 0
        self._eq_sl = slice(start, start + self.eq.shape[0])
        start += self.eq.shape[0]
        self._ineq_sl = slice(start, start + self.ineq.shape[0])
        start += self.ineq.shape[0]
        self._soc_sl = []
        for _, m in self.soc:
            self._soc_sl.append((slice(start, start + m), m))
            start += m
        # ADMM x-update operator, formed once per cone (Boyd et al. 2011,
        # section 4.2): I + M^T M has eigenvalues >= 1, so its inverse is
        # well conditioned and one matrix product replaces two solves.
        self._K = np.linalg.inv(np.eye(self.n) + self._M.T @ self._M)
        self._KMt = self._K @ self._M.T

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
        W2 = W[:, None] if single else W
        Z = self._M @ W2
        out = np.zeros(W2.shape[1])
        if self._eq_sl.stop > self._eq_sl.start:
            out += np.sum(Z[self._eq_sl] ** 2, axis=0)
        if self._ineq_sl.stop > self._ineq_sl.start:
            out += np.sum(np.maximum(Z[self._ineq_sl], 0.0) ** 2, axis=0)
        for sl, m in self._soc_sl:
            P = cones.project(cones.soc(m), Z[sl])
            out += np.sum((Z[sl] - P) ** 2, axis=0)
        out = np.sqrt(out)
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

    def project(self, W: np.ndarray, iters: int = 1200,
                polish: bool = True) -> np.ndarray:
        """Euclidean projection onto the cone.

        ADMM splitting handles the general case; an active-set polish makes
        the result exact whenever the guessed active rows are right (always
        true on the polyhedral part).  Subspaces are projected exactly.
        """
        single = W.ndim == 1
        W2 = np.asarray(W, dtype=float)
        W2 = W2[:, None] if single else W2
        if self.is_subspace:
            P = self._null
            out = P @ (P.T @ W2)
            return out[:, 0] if single else out
        out = self._admm(W2, iters)
        if polish:
            out = self._polish_batch(W2, out)
        return out[:, 0] if single else out

    def _admm(self, W2: np.ndarray, iters: int) -> np.ndarray:
        if self._M.shape[0] == 0:
            return W2.copy()
        M = self._M
        KW = self._K @ W2
        Z = self._proj_D(M @ W2)
        U = np.zeros_like(Z)
        X = W2.copy()
        for _ in range(iters):
            X = KW + self._KMt @ (Z - U)
            MX = M @ X
            Z = self._proj_D(MX + U)
            U += MX
            U -= Z
        return X

    def _soc_states(self, Wa: np.ndarray) -> np.ndarray:
        """Per soc block and column: interior, vertex or boundary of B w."""
        state = np.full((len(self.soc), Wa.shape[1]), _INTERIOR, dtype=np.int8)
        for b, (B, _) in enumerate(self.soc):
            Z = B @ Wa
            nz = np.linalg.norm(Z, axis=0)
            on_facet = np.abs(Z[0] - np.linalg.norm(Z[1:], axis=0)) \
                <= 1e-6 * np.maximum(1.0, nz)
            state[b, on_facet] = _BOUNDARY
            state[b, nz <= 1e-7] = _VERTEX
        return state

    def _polish_batch(self, W0: np.ndarray, Wa: np.ndarray) -> np.ndarray:
        """Exact projection on the active set guessed from the ADMM points
        Wa, one least-squares solve per group of columns that share it; a
        column keeps its ADMM point where the candidate is infeasible or
        farther from W0.

        Held at zero: equalities, tight inequality rows, soc vertex blocks
        and the facet row of a boundary soc block, which depends on the
        column, so such a column is a group of its own.
        """
        tight = self.ineq @ Wa >= -1e-7
        state = self._soc_states(Wa)
        alone = np.where(np.any(state == _BOUNDARY, axis=0),
                         np.arange(Wa.shape[1]), -1)
        keys, group = np.unique(np.vstack([tight, state, alone]).T, axis=0,
                                return_inverse=True)
        group = group.ravel()
        n_ineq = self.ineq.shape[0]
        cand = W0.copy()
        for g, key in enumerate(keys):
            cols = np.flatnonzero(group == g)
            rows = [self.eq, self.ineq[key[:n_ineq].astype(bool)]]
            for (B, _), s in zip(self.soc, key[n_ineq:-1]):
                if s == _VERTEX:
                    rows.append(B)
                elif s == _BOUNDARY:  # cols is one column
                    rows.append((cones._boundary_ray(B @ Wa[:, cols[0]]) @ B)[None, :])
            A = np.vstack(rows)
            if A.shape[0] == 0:
                continue  # nothing active: the projection is w0 if feasible
            W0g = W0[:, cols]
            lam, *_ = np.linalg.lstsq(A @ A.T, A @ W0g, rcond=None)
            cand[:, cols] = W0g - A.T @ lam
        accept = (self.violation(cand) <= 1e-11) & (
            np.linalg.norm(cand - W0, axis=0)
            <= np.linalg.norm(Wa - W0, axis=0) + 1e-9)
        return np.where(accept, cand, Wa)


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
    J = pd.full_jacobian()
    ineq = pd.face.inequality_rows(J)
    soc_rows = [(J[sl], sl.stop - sl.start) for sl in pd.face.socs]
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
    """
    C = np.vstack([-cone.ineq] + [B[:1] for B, _ in cone.soc])
    vanish = np.array([v is not None and v <= _PRESOLVE_TOL * s for v, s in
                       zip(cone._box_maxima(C), np.linalg.norm(C, axis=1))],
                      dtype=bool)
    if not vanish.any():
        return cone
    implicit, vertex = np.split(vanish, [cone.ineq.shape[0]])
    eq = [cone.eq, cone.ineq[implicit]]
    eq += [B if np.any(B[0]) else B[1:] for (B, _), v in zip(cone.soc, vertex) if v]
    soc = [block for block, v in zip(cone.soc, vertex) if not v]
    return CriticalCone(cone.n, np.vstack(eq), cone.ineq[~implicit], soc)


# ----------------------------------------------------------------------
# curvature functional
# ----------------------------------------------------------------------

def _curvature_tensor(pd: PointData) -> np.ndarray:
    """T (m, n, n) with sigma(w) = w.H_g.w + max over lam of sum_i lam_i w.T_i.w:
    row i's Hessian, plus d_i / (d.d) J^T H J on an active soc boundary
    block whose reduction has gradient d and Hessian H, J its Jacobian."""
    T = np.concatenate([np.zeros((0, pd.n, pd.n))] + [bd.hessians for bd in pd.blocks])
    for bd, sl in zip(pd.blocks, pd.block_slices()):
        red = bd.activity
        if red.case == "soc_boundary":
            d = red.grad_h(bd.value)[0]
            H = red.hess_h(bd.value)[0]
            T[sl] += np.multiply.outer(d / float(d @ d),
                                       bd.jacobian.T @ H @ bd.jacobian)
    return T


def _lambda_coefficients_batch(T: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Columnwise coefficient vectors C (m x N) of the inner maximization."""
    return np.einsum("ijk,jN,kN->iN", T, W, W, optimize=True)


def sigma(pd: PointData, ms: MultiplierSet, w,
          cone: Optional[CriticalCone] = None,
          membership_tol: float = _MEMBERSHIP_TOL):
    """Curvature functional at a critical direction; +inf when the inner
    maximization is unbounded.  Raises NotInCriticalCone outside the cone."""
    w = np.asarray(w, dtype=float)
    if cone is None:
        cone = build_critical_cone(pd)
    if not cone.contains(w, tol=membership_tol):
        raise NotInCriticalCone(
            f"direction violates the critical cone by {float(cone.violation(w)):.3e}")
    base = float(w @ pd.g.hessian @ w)
    if ms.m == 0:
        return base
    C = _lambda_coefficients_batch(_curvature_tensor(pd), w[:, None])[:, 0]
    res = maximize_linear(ms, C)
    if res.status == "unbounded":
        return math.inf
    return base + res.value


def _fixed_multiplier_matrix(pd: PointData, lam: np.ndarray) -> np.ndarray:
    """Full quadratic form Q with sigma(w) = w.Q.w for a fixed multiplier."""
    return pd.g.hessian + np.einsum("i,ijk->jk", lam, _curvature_tensor(pd))


# ----------------------------------------------------------------------
# sigma evaluators over direction batches
# ----------------------------------------------------------------------

class _SigmaEvaluator:
    """Columnwise sigma with the fastest exact backend available.

    Singleton multiplier sets reduce to one quadratic form; polyhedral sets
    with few parameters use cached vertex/ray geometry; everything else
    solves one inner maximization per direction, with a fixed-multiplier
    quadratic model available for pruning.
    """

    def __init__(self, pd: PointData, ms: MultiplierSet):
        self.pd = pd
        self.ms = ms
        self._T = _curvature_tensor(pd)
        self.cut_warning = False
        self.mode = "generic"
        if ms.m == 0 or ms.k == 0:
            lam = ms.lam0 if ms.m else np.zeros(0)
            self._Q = _fixed_multiplier_matrix(pd, lam) if ms.m else pd.g.hessian
            self.mode = "singleton"
            return
        geom = enumerate_polyhedron(ms)
        if geom is not None:
            self._verts, self._rays = geom
            self.mode = "enumerated"

    def __call__(self, W: np.ndarray) -> np.ndarray:
        if self.mode == "singleton":
            return np.einsum("iN,ij,jN->N", W, self._Q, W, optimize=True)
        base = np.einsum("iN,ij,jN->N", W, self.pd.g.hessian, W, optimize=True)
        C = _lambda_coefficients_batch(self._T, W)
        if self.mode == "enumerated":
            vals = base + np.max(self._verts.T @ C, axis=0)
            if self._rays.shape[1]:
                scale = 1.0 + np.linalg.norm(C, axis=0)
                unbounded = np.any(self._rays.T @ C > 1e-9 * scale, axis=0)
                vals = np.where(unbounded, math.inf, vals)
            return vals
        out = np.empty(W.shape[1])
        for j in range(W.shape[1]):
            res = maximize_linear(self.ms, C[:, j])
            if res.status == "unbounded":
                out[j] = math.inf
            else:
                out[j] = base[j] + res.value
                if res.cuts_exceeded:
                    self.cut_warning = True
        return out

    def single_with_argmax(self, w: np.ndarray):
        """Value plus a maximizing multiplier (None when unbounded), by one
        inner maximization; the generic mode's per-direction path."""
        base = float(w @ self.pd.g.hessian @ w)
        C = _lambda_coefficients_batch(self._T, w[:, None])[:, 0]
        res = maximize_linear(self.ms, C)
        if res.status == "unbounded":
            return math.inf, None
        if res.cuts_exceeded:
            self.cut_warning = True
        return base + res.value, res.argmax

    @property
    def cheap(self) -> bool:
        return self.mode in ("singleton", "enumerated")


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
    seed recorded.
    """
    cone = presolve(build_critical_cone(pd))
    if cone.is_subspace and cone.subspace_basis().shape[1] == 0:
        return SoscReport(True, True, math.inf, None, "Exact", 0, seed,
                          empty_cone=True)

    if cone.is_subspace and ms.k == 0 and force != "sampled":
        P = cone.subspace_basis()
        Q = _fixed_multiplier_matrix(pd, ms.lam0) if ms.m else pd.g.hessian
        vals, vecs = np.linalg.eigh(P.T @ Q @ P)
        modulus = float(vals[0])
        worst = P @ vecs[:, 0]
        return _verdicts(modulus, worst, "Exact", 0, seed)

    # ---- sampled path ----
    n = pd.n
    dirs = sphere(n, samples, seed=seed)
    proj = cone.project(dirs, iters=250, polish=False)
    norms = np.linalg.norm(proj, axis=0)
    # the presolve decides polyhedral cones exactly; only a soc block whose
    # relaxation is not {0} leaves emptiness to the samples
    if cone.soc and float(np.max(norms, initial=0.0)) < 1e-6:
        return SoscReport(True, True, math.inf, None, "Sampled", samples, seed,
                          empty_cone=True)
    keep = np.flatnonzero(norms >= 0.999)
    if keep.size < 50:
        keep = np.argsort(-norms)[:200]
        keep = keep[norms[keep] >= 1e-6]
    cand = proj[:, keep] / norms[keep]

    # axis seeds: cheap insurance for axis-aligned worst directions
    axes = []
    for i in range(n):
        for sgn in (1.0, -1.0):
            e = np.zeros(n)
            e[i] = sgn
            axes.append(e)
    cand = np.column_stack([cand, np.column_stack(axes)])
    cand = cone.project(cand, iters=1200)
    nrm = np.linalg.norm(cand, axis=0)
    ok = nrm >= 1e-9
    cand = cand[:, ok] / nrm[ok]

    evaluator = _SigmaEvaluator(pd, ms)
    if not evaluator.cheap and cand.shape[1] > 400:
        stride = int(np.ceil(cand.shape[1] / 400))
        cand = cand[:, ::stride]
    values = evaluator(cand)
    finite = np.isfinite(values)
    if not np.any(finite):
        return SoscReport(True, True, math.inf, None, "Sampled", samples, seed)

    order = np.argsort(np.where(finite, values, np.inf))
    top = order[: min(10, int(np.sum(finite)))]
    best_w, best_v = _polish(cone, evaluator, cand[:, top], values[top])
    return _verdicts(best_v, best_w, "Sampled", samples, seed,
                     warning=evaluator.cut_warning)


def _polish(cone, evaluator, W0, v0):
    """Lockstep projected coordinate descent on the cone's unit sphere.

    All polish candidates advance together so projections batch; for
    expensive inner maximizations a fixed-multiplier quadratic model prunes
    trial points that provably cannot improve.
    """
    n, K = W0.shape
    W = W0.copy()
    V = np.asarray(v0, dtype=float).copy()
    steps = np.full(K, _POLISH_STEP0)
    models = None
    if not evaluator.cheap:
        models = []
        for j in range(K):
            _, lam = evaluator.single_with_argmax(W[:, j])
            models.append(None if lam is None
                          else _fixed_multiplier_matrix(evaluator.pd, lam))

    n_trials = 2 * n
    offsets = np.zeros((n, n_trials))
    for i in range(n):
        offsets[i, 2 * i] = 1.0
        offsets[i, 2 * i + 1] = -1.0

    for _ in range(_POLISH_ROUNDS):
        if np.all(steps < _POLISH_STEP_FLOOR):
            break
        trials = (W[:, :, None] + offsets[:, None, :] * steps[None, :, None])
        T = trials.reshape(n, K * n_trials)
        P = cone.project(T, iters=250)
        nrm = np.linalg.norm(P, axis=0)
        good = nrm >= 1e-9
        Pn = np.where(good[None, :], P / np.where(good, nrm, 1.0), 0.0)

        if evaluator.cheap:
            vals = np.where(good, evaluator(Pn), np.inf)
            vals = vals.reshape(K, n_trials)
            improved = np.min(vals, axis=1) < V - 1e-15
            for j in range(K):
                if improved[j]:
                    tj = int(np.argmin(vals[j]))
                    V[j] = float(vals[j, tj])
                    W[:, j] = Pn[:, j * n_trials + tj]
                else:
                    steps[j] *= 0.5
        else:
            for j in range(K):
                block = slice(j * n_trials, (j + 1) * n_trials)
                Pj = Pn[:, block]
                gj = good[block]
                if models[j] is not None:
                    cheap = np.einsum("iN,ik,kN->N", Pj, models[j], Pj)
                else:
                    cheap = np.full(n_trials, -np.inf)
                cheap = np.where(gj, cheap, np.inf)
                order = np.argsort(cheap)
                accepted = False
                for t in order:
                    if cheap[t] >= V[j] - 1e-15:
                        break  # quadratic model is a lower bound on sigma
                    val, lam = evaluator.single_with_argmax(Pj[:, t])
                    if val < V[j] - 1e-15:
                        V[j] = val
                        W[:, j] = Pj[:, t]
                        if lam is not None:
                            models[j] = _fixed_multiplier_matrix(evaluator.pd, lam)
                        accepted = True
                        break
                if not accepted:
                    steps[j] *= 0.5

    jbest = int(np.argmin(V))
    return W[:, jbest].copy(), float(V[jbest])


def _verdicts(modulus, worst, certification, count, seed, warning=False):
    sonc = modulus >= -VERDICT_TOL
    sosc = modulus >= VERDICT_TOL
    return SoscReport(sonc, sosc, modulus, worst, certification, count, seed,
                      inner_max_warning=warning)
