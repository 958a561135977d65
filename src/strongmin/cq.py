"""Constraint-qualification diagnostics.

MFCQ (strict descent direction for the active inequalities), CRCQ
(constant rank of every active-gradient subset on a sampled neighborhood),
the dual characterization of the Robinson condition (normal cone meets
the Jacobian kernel only at zero), and an empirical metric-subregularity
probe.  The probe is evidence, never proof: reports say so explicitly.
Each ``Verdict`` carries its own certification.  The Robinson condition
is decided exactly, by LP, or by projected least squares where a soc
vertex block's curved cone leaves the LP's relaxation open.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import List, Optional, Tuple

import numpy as np

from ._descent import _KEEP_TOL, feasibility_residuals, push_to_feasible
# sphere has no caller here; bench/test_bench.py rebinds cq.sphere
from ._sampling import ball, sphere  # noqa: F401
from ._simplex import solve_lp
from .cones import column_sum, project, soc, soc_relaxation
from .kkt import STATIONARITY_TOL, face_least_squares
from .problem import PointData, Problem, batch_constraint_grads

__all__ = [
    "CqReport",
    "MscqProbe",
    "Verdict",
    "check_mfcq",
    "check_crcq",
    "check_rcq_dual",
    "probe_mscq",
    "run_cq",
]


# CRCQ: radius and size of the sampled ball, and the largest active set
# whose subsets are enumerated
_CRCQ_RADIUS = 1e-2
_CRCQ_SAMPLES = 64
_MAX_ACTIVE = 12
# a generator image below this fraction of J's largest row is 0 (rounded
# zeros on 1200 planted instances: <= 2.7e-15)
_ZERO_IMAGE = 1e-12
_CUT_ROUNDS = 24  # cutting-plane rounds on the RCQ LP's soc relaxation
_LP, _LSQ, _BALL = "Exact (LP)", "Exact (projected least squares)", "Sampled (ball)"


@dataclass(frozen=True)
class Verdict:
    holds: Optional[bool]  # None = not applicable
    certification: str


_NOT_APPLICABLE = Verdict(None, "NotApplicable")


@dataclass(frozen=True)
class MscqProbe:
    ratio_bound: float
    per_radius: Tuple[float, ...]
    samples: int
    verdict: str  # "Supported" | "Inconclusive"


@dataclass(frozen=True)
class CqReport:
    mfcq: Verdict
    crcq: Verdict
    rcq: Verdict
    mscq: MscqProbe
    notes: Tuple[str, ...]


def _orthant_only(pd: PointData) -> bool:
    return all(b.cone.kind == "orthant" for b in pd.problem.blocks)


def check_mfcq(pd: PointData) -> Verdict:
    """Strict descent direction for all active rows: on orthant-only
    problems the Robinson condition (Gordan's alternative), and not
    applicable with a soc block."""
    return check_rcq_dual(pd) if _orthant_only(pd) else _NOT_APPLICABLE


def check_crcq(pd: PointData, seed: int = 0) -> Verdict:
    """Constant rank of every subset of active gradients on a sampled ball.

    Not applicable with soc blocks, or with more than _MAX_ACTIVE active
    rows, whose 2^k subsets are not enumerated.
    """
    if not _orthant_only(pd):
        return _NOT_APPLICABLE
    active = pd.face.nonneg
    if not active.size:
        return Verdict(True, _BALL)
    if active.size > _MAX_ACTIVE:
        return Verdict(None, f"NotApplicable ({active.size} active rows; "
                             f"subset enumeration capped at {_MAX_ACTIVE})")
    pts = np.column_stack([pd.x[:, None], ball(pd.x, _CRCQ_RADIUS, _CRCQ_SAMPLES, seed=seed)])
    G = batch_constraint_grads(pd.problem, pts)[1][active]  # (k, n, N)
    for size in range(1, active.size + 1):
        for subset in combinations(range(active.size), size):
            mats = G[list(subset)].transpose(2, 0, 1)  # (N, |J|, n)
            s = np.linalg.svd(mats, compute_uv=False)
            smax = s[:, 0]
            cutoff = 1e-8 * np.where(smax > 0, smax, 1.0)
            ranks = np.sum(s > cutoff[:, None], axis=1)
            if not np.all(ranks == ranks[0]):
                return Verdict(False, _BALL)
    return Verdict(True, _BALL)


def check_rcq_dual(pd: PointData) -> Verdict:
    """Robinson condition via its dual: N_Θ(q(x̄)) ∩ ker ∇q(x̄)^T = {0}.

    An LP on the rows of ``_face_rows`` asks for lam in the face, generated
    by e_i on active orthant rows and each boundary ray, with c.lam = 1 (c
    the face's positive functional) and J^T lam = 0; a soc vertex block
    ranges over the relaxation -lam_0 >= |lam_i| of its cone.  Infeasible
    means the condition holds; without a vertex block, feasible means it
    fails.  With one it fails iff the least ||(J^T lam, c.lam - 1)|| over
    the face is at most STATIONARITY_TOL (on 800 planted instances it was
    <= 7.1e-9 where the condition fails, >= 0.034 where it holds).  The
    LP's point projected onto the face bounds that least value; up to
    _CUT_ROUNDS times, planes supporting -soc cut the point off and the LP
    runs again, before ``face_least_squares`` computes the value.
    """
    face = pd.face
    J = _face_rows(pd)
    c = np.zeros(pd.m)  # 1 on active orthant rows, d / d.d on rays, -e_0 at vertices
    c[face.nonneg] = 1.0
    for sl, d in face.rays:
        c[sl] = d / float(d @ d)
    for sl in face.socs:
        c[sl.start] = -1.0
    A = face.inequality_rows(J)  # one generator's image per row
    segs, at = [], A.shape[0]  # each vertex block's lam among the LP variables
    for sl in face.socs:
        segs.append(slice(at, at + sl.stop - sl.start))
        at = segs[-1].stop
    if not at:
        return Verdict(True, _LP)
    V = [i for sl in face.socs for i in range(sl.start, sl.stop)]
    E = np.eye(at)
    A_ub = np.vstack([-E[:A.shape[0]]] + [soc_relaxation(-E[s]) for s in segs])
    A_eq = np.vstack([np.concatenate([np.ones(A.shape[0]), c[V]]),
                      np.hstack([A.T, J[V].T])])
    b_eq = np.concatenate([[1.0], np.zeros(pd.n)])
    for _ in range(_CUT_ROUNDS + 1):
        lp = solve_lp(np.zeros(at), A_ub=A_ub, b_ub=np.zeros(A_ub.shape[0]),
                      A_eq=A_eq, b_eq=b_eq)
        if lp.status == "infeasible" or not segs:
            return Verdict(lp.status == "infeasible", _LP)
        x = np.maximum(lp.x, 0.0)  # the LP's point, projected onto the face
        cuts = []
        for s in segs:  # a.(-lam_B) <= 0 for a = y - P(y), y = -lam_B
            y = -lp.x[s]
            x[s] = -project(soc(y.size), y)
            a = y + x[s]
            na = np.hypot.reduce(a)
            if na > STATIONARITY_TOL:
                cuts.append(np.zeros(at))
                cuts[-1][s] = -a / na
        if np.hypot.reduce(A_eq @ x - b_eq) <= STATIONARITY_TOL:
            return Verdict(False, _LSQ)
        if not cuts:
            break
        A_ub = np.vstack([A_ub] + cuts)
    grad = np.zeros(pd.n + 1)
    grad[-1] = -1.0
    res = face_least_squares(grad, np.column_stack([J, c]), face)[1]
    return Verdict(res > STATIONARITY_TOL, _LSQ)


def _face_rows(pd: PointData) -> np.ndarray:
    """pd.J with rows scaled by positive factors, which keep N ∩ ker J^T:
    each active orthant row and each ray's image d @ J_B to unit norm, each
    vertex block by its largest row norm, since the LP's and the residual's
    thresholds are absolute.  Fixed rows, and images below _ZERO_IMAGE of
    J's largest row (rounding error, which unit norm would make a
    generator), are 0.  hypot does not overflow."""
    face = pd.face
    scale = np.hypot.reduce(pd.J, axis=1)
    tiny = _ZERO_IMAGE * np.max(scale, initial=0.0)
    for sl, d in face.rays:
        scale[sl] = np.hypot.reduce(d @ pd.J[sl])
    for sl in face.socs:
        scale[sl] = np.max(scale[sl])
    scale[face.fixed] = np.inf
    return pd.J / np.where(scale > tiny, scale, np.inf)[:, None]


def probe_mscq(p: Problem, radius: float = 0.1, samples: int = 128,
               seed: int = 0) -> MscqProbe:
    """Empirical metric-subregularity ratio d(x;feasible)/d(q(x);cone).

    Numerators are upper estimates from projected penalty descent, so the
    bound is conservative; only the samples with a residual above 1e-12
    are pushed, those of both radii in one descent, which gives each
    column the bits a descent of its own radius would.  Supported requires
    finite bounds at the probe radius and radius/4 within a factor of 4 of
    each other.
    """
    if p.point is None:
        raise ValueError("problem has no candidate point")
    if not p.blocks:
        return MscqProbe(0.0, (0.0, 0.0), samples, "Supported")
    X = np.hstack([ball(p.point, r, samples, seed=seed + 7 * i)
                   for i, r in enumerate((radius, radius / 4.0))])
    denom = feasibility_residuals(p, X)
    live = np.flatnonzero(denom > 1e-12)
    X, denom = X.take(live, axis=1), denom[live]
    Y, res = push_to_feasible(p, X)
    D = Y - X
    numer = np.sqrt(column_sum(D * D))
    kept = res <= _KEEP_TOL
    bounds = []
    usable = True
    for i in (0, 1):  # the probe radius, then radius/4
        mine = live // samples == i
        if np.count_nonzero(mine & (res > _KEEP_TOL)) > 0.5 * max(1, np.count_nonzero(mine)):
            usable = False
        sel = mine & kept
        bounds.append(float(np.max(numer[sel] / denom[sel])) if sel.any() else 0.0)
    hi, lo = max(bounds), min(bounds)
    if not usable:
        verdict = "Inconclusive"
    elif hi == 0.0:
        verdict = "Supported"
    elif lo == 0.0:
        verdict = "Inconclusive"
    else:
        verdict = "Supported" if hi / lo <= 4.0 else "Inconclusive"
    return MscqProbe(hi, tuple(bounds), samples, verdict)


def run_cq(pd: PointData, probe_radius: float = 0.1, probe_samples: int = 128,
           seed: int = 0) -> CqReport:
    mfcq = check_mfcq(pd)
    crcq = check_crcq(pd, seed=seed)
    # one LP decides both on orthant-only problems, where they coincide
    rcq = mfcq if mfcq.holds is not None else check_rcq_dual(pd)
    mscq = probe_mscq(pd.problem.with_point(pd.x), radius=probe_radius,
                      samples=probe_samples, seed=seed)
    notes: List[str] = [
        "metric subregularity is assumed by the second-order analysis; "
        "the probe supplies evidence, not proof",
    ]
    if crcq.holds:
        notes.append("constant-rank condition implies metric subregularity")
    if rcq.holds:
        notes.append("Robinson condition implies metric subregularity")
    if mfcq.holds is not None:
        notes.append("for inequality blocks the Robinson condition "
                     "specializes to the strict-descent condition")
    if rcq.holds and mscq.verdict != "Supported":
        notes.append("warning: Robinson condition holds but the "
                     "subregularity probe was inconclusive")
    return CqReport(mfcq, crcq, rcq, mscq, tuple(notes))
