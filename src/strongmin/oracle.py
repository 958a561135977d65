"""Brute-force ground truth: empirical quadratic growth and tilt behavior.

Nothing here trusts the analytic machinery.  Feasible points are placed
by Gauss-Newton restoration from the ball samples first, and by projected
penalty descent for the samples it does not place; the growth modulus is
an infimum of raw difference quotients, and the tilt probe watches
minimizers of linearly perturbed problems move.  Verdict thresholds are
recorded in the report: any finite-sample check of an asymptotic property
needs cutoffs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from . import expr
from ._descent import (_KEEP_TOL, _RESTORE_ITERS, _restore, minimize_tilted,
                       push_to_feasible)
from ._sampling import ball, signed_axes, sphere
from .problem import Problem, batch_objective_values

__all__ = [
    "QgcEstimate",
    "TiltReport",
    "sample_feasible",
    "estimate_qg_modulus",
    "tilt_probe",
    "qgc_verdict",
    "DEFAULT_RADII",
]

DEFAULT_RADII = (0.2, 0.05, 0.0125)

# verdict thresholds (ours, recorded): hold floor, fail floor, trend decay
HOLD_FLOOR = 1e-4
FAIL_FLOOR = 1e-6
TREND_DECAY = 1.25
TREND_SLACK = 1.05

# tilt probe: tilt grid radius and size, minimizer ball radius, descent
# starts per tilt, bisection refinements, and the displacement ratio above
# which the probe counts as evidence against tilt stability
_TILT_RADIUS = 0.01
_GRID = 16
_BALL_RADIUS = 0.25
_STARTS = 10
_REFINE = 24
_RATIO_THRESHOLD = 100.0


@dataclass(frozen=True)
class QgcEstimate:
    radii: Tuple[float, ...]
    per_radius: Tuple[float, ...]     # empirical modulus at each radius
    sample_counts: Tuple[int, ...]
    kept_counts: Tuple[int, ...]
    verdict: str                      # "Holds" | "Fails" | "Inconclusive"
    kappa_hat: float                  # min over radii (conservative)
    seed: int


@dataclass(frozen=True)
class TiltReport:
    single_valued: bool
    lipschitz_estimate: float         # +inf when multivalued
    refined_ratio: float              # max ratio after bisection refinement
    base_ratio: float                 # max ratio on the initial grid
    evidence_against: bool
    note: str


def sample_feasible(p: Problem, radius: float, count: int, seed: int = 0):
    """Feasible points near the candidate, their residuals, and a usable flag.

    A ball sample is placed when its final residual is <= ``_KEEP_TOL`` and
    it lies within 1.05 radius.  Gauss-Newton restoration runs first, from
    the samples themselves; only the samples it does not place are pushed
    by penalty descent, and those the descent does not place either are
    discarded.  Returns (Y, residuals, ok), with ok False (inconclusive)
    when fewer than half the requested points survive.
    """
    if p.point is None:
        raise ValueError("problem has no candidate point")
    X = ball(p.point, radius, count, seed=seed)
    if not p.blocks:
        return X, np.zeros(count), True

    def placed(Y, res):
        dist = np.linalg.norm(Y - p.point[:, None], axis=0)
        return (res <= _KEEP_TOL) & (dist <= 1.05 * radius)

    Y, res = _restore(p, X.copy(), _RESTORE_ITERS)
    keep = placed(Y, res)
    rest = np.flatnonzero(~keep)
    if rest.size:
        Y[:, rest], res[rest] = push_to_feasible(p, X[:, rest])
        keep[rest] = placed(Y[:, rest], res[rest])
    return Y[:, keep], res[keep], keep.sum() >= 0.5 * count


def qgc_verdict(per_radius, usable=True):
    """Shared verdict logic for the conic and univariate growth estimators.

    The per-radius modulus is monotone nondecreasing as the radius shrinks
    whenever growth holds, so a nonincreasing sequence with total decay
    beyond TREND_DECAY is failure evidence even while still positive.
    """
    if not usable or not per_radius:
        return "Inconclusive"
    ks = list(per_radius)
    if ks[-1] < FAIL_FLOOR:
        return "Fails"
    if len(ks) >= 3:
        nonincreasing = all(ks[i + 1] <= ks[i] * TREND_SLACK for i in range(len(ks) - 1))
        if nonincreasing and ks[0] >= TREND_DECAY * ks[-1]:
            return "Fails"
    if ks[-1] >= HOLD_FLOOR and (len(ks) < 2 or ks[-1] >= 0.5 * ks[-2]):
        return "Holds"
    return "Inconclusive"


def estimate_qg_modulus(p: Problem, radii=DEFAULT_RADII, count: int = 20000,
                        seed: int = 0) -> QgcEstimate:
    """Empirical growth modulus: inf of 2(g(x)-g(x̄))/||x-x̄||² over feasible samples.

    Samples too close to the base point are excluded: the difference
    quotient there is dominated by rounding and by the feasibility
    tolerance (points that project onto the base point itself report a
    0/0 ratio).  The floor is residual-aware (distance at least
    150 sqrt(residual)) plus an absolute 1e-7 times the problem scale.
    """
    if p.point is None:
        raise ValueError("problem has no candidate point")
    xbar = p.point
    g0 = expr.eval_value(p.objective, xbar)
    scale = max(1.0, float(np.linalg.norm(xbar)))
    per_radius: List[float] = []
    kept: List[int] = []
    usable = True
    for i, r in enumerate(radii):
        Y, res, ok = sample_feasible(p, r, count, seed=seed + 31 * i)
        usable = usable and ok
        kept.append(Y.shape[1])
        if Y.shape[1] == 0:
            per_radius.append(np.inf)
            continue
        d2 = np.sum((Y - xbar[:, None]) ** 2, axis=0)
        floor = np.maximum(150.0 * np.sqrt(np.maximum(res, 0.0)), 1e-7 * scale)
        mask = d2 > floor * floor
        if not np.any(mask):
            per_radius.append(np.inf)
            continue
        vals = batch_objective_values(p, Y[:, mask])
        ratios = 2.0 * (vals - g0) / d2[mask]
        per_radius.append(float(np.min(ratios)))
    verdict = qgc_verdict(per_radius, usable=usable)
    kappa = float(min(per_radius)) if per_radius else np.inf
    return QgcEstimate(tuple(float(r) for r in radii), tuple(per_radius),
                       tuple([count] * len(radii)), tuple(kept), verdict,
                       kappa, seed)


# ----------------------------------------------------------------------
# tilt probe
# ----------------------------------------------------------------------

def _solve_tilts(p: Problem, tilts: np.ndarray, center: np.ndarray, seed: int):
    """Global minimizers (clusters) per tilt column."""
    n, T = tilts.shape
    S = np.column_stack([center[:, None], ball(center, 0.9 * _BALL_RADIUS,
                                               _STARTS - 1, seed=seed)])
    V = np.repeat(tilts, _STARTS, axis=1)
    X0 = np.tile(S, (1, T))
    Y, vals, res = minimize_tilted(p, V, X0, center, _BALL_RADIUS)
    out = []
    for t in range(T):
        sl = slice(t * _STARTS, (t + 1) * _STARTS)
        ys, vs, rs = Y[:, sl], vals[sl], res[sl]
        ok = rs <= 1e-7
        if not np.any(ok):
            out.append(None)
            continue
        ys, vs = ys[:, ok], vs[ok]
        vbest = float(np.min(vs))
        tie = vs <= vbest + 1e-9 * max(1.0, abs(vbest))
        pts = ys[:, tie]
        clusters = _cluster(pts, tol=1e-5)
        best = pts[:, int(np.argmin(vs[tie]))]
        out.append((best, clusters, vbest))
    return out


def _cluster(pts: np.ndarray, tol: float):
    reps: List[np.ndarray] = []
    for j in range(pts.shape[1]):
        x = pts[:, j]
        if not any(np.linalg.norm(x - r) <= tol for r in reps):
            reps.append(x)
    return reps


def _tilt_grid(n: int, seed: int) -> np.ndarray:
    """The probe's coarse tilts: 0, the signed axes and sphere points up
    to _GRID columns, scaled to the tilt radius."""
    dirs = np.column_stack([np.zeros(n), signed_axes(n)])
    extra = sphere(n, max(_GRID - dirs.shape[1], 0), seed=seed + 5)
    return _TILT_RADIUS * np.column_stack([dirs, extra])


def _midpoint_tree(a: np.ndarray, b: np.ndarray, depth: int) -> List[np.ndarray]:
    """The 2**depth - 1 midpoints that bisecting (a, b) can reach in
    `depth` steps, each formed as the walk forms it, 0.5 * (x + y)."""
    if depth == 0:
        return []
    mid = 0.5 * (a + b)
    return ([mid] + _midpoint_tree(a, mid, depth - 1)
            + _midpoint_tree(mid, b, depth - 1))


def tilt_probe(p: Problem, seed: int = 0) -> TiltReport:
    """Watch minimizers of tilted problems: single-valued and Lipschitz?

    A coarse tilt grid seeds the probe; bisection then refines the tilt
    pair with the worst displacement ratio.  A genuine jump of the solution
    map makes the refined ratio blow up, which (like an observed
    multivalued solution set) counts as evidence against tilt stability.
    A grid that is already multivalued settles the verdict and is not
    walked, so its refined ratio is the base ratio.  The walk stops early
    once its best pair is the pair it just bisected: every later step
    would repeat that one.  The note says where the map was first seen
    multivalued: on the grid, or at which refinement step.

    Refinements are solved ahead: when the walk reaches a midpoint it has
    not solved, one descent solves every midpoint it can reach over the
    next `depth` steps (the largest tree no wider than the grid, capped
    at the steps left).  Since a column's minimizer does not depend on
    the rest of its batch, this gives the tilts the walk visits exactly
    the minimizers of one call per step.  A solved-ahead tilt counts, in
    the ratios and in the multivalued check, only once the walk reaches
    it; the others are discarded.
    """
    if p.point is None:
        raise ValueError("problem has no candidate point")
    center = p.point
    tilts = _tilt_grid(p.n, seed)

    def solve(vcols: np.ndarray):
        res = _solve_tilts(p, vcols, center, seed)
        return {vcols[:, j].tobytes(): res[j] for j in range(vcols.shape[1])}

    solved = solve(tilts)
    multivalued = any(r is not None and len(r[1]) > 1 for r in solved.values())

    def ratio(va, vb):
        ra, rb = solved.get(va.tobytes()), solved.get(vb.tobytes())
        if ra is None or rb is None:
            return 0.0
        dv = np.linalg.norm(va - vb)
        return float(np.linalg.norm(ra[0] - rb[0]) / dv) if dv > 1e-15 else 0.0

    cols = [tilts[:, j] for j in range(tilts.shape[1])]
    pairs = [(a, b) for i, a in enumerate(cols) for b in cols[i + 1:]]
    base_ratio = max((ratio(a, b) for a, b in pairs), default=0.0)

    # a multivalued grid settles the verdict: there is no walk
    best_pair = None if multivalued else max(pairs, key=lambda ab: ratio(*ab),
                                             default=None)
    refined = base_ratio
    depth = _GRID.bit_length() - 1
    ahead = {}
    where = "on the tilt grid"
    for step in range(_REFINE):
        if best_pair is None:
            break
        a, b = best_pair
        mid = 0.5 * (a + b)
        key = mid.tobytes()
        if key not in ahead:
            tree = _midpoint_tree(a, b, min(depth, _REFINE - step))
            ahead = solve(np.column_stack(tree))
        solved[key] = ahead.pop(key)
        cand = [(a, mid), (mid, b), (a, b)]
        best_pair = max(cand, key=lambda ab: ratio(*ab))
        refined = max(refined, ratio(*best_pair))
        if any(r is not None and len(r[1]) > 1 for r in solved.values()):
            where = f"at refinement {step + 1}"
            multivalued = True
            break
        if np.linalg.norm(best_pair[0] - best_pair[1]) < 1e-12:
            break
        if best_pair is cand[2]:
            break

    lip = np.inf if multivalued else refined
    evidence = bool(multivalued or refined > _RATIO_THRESHOLD)
    note = (f"solution map multivalued {where}" if multivalued else
            f"max displacement ratio {refined:.3g} after refinement "
            f"(threshold {_RATIO_THRESHOLD:g})")
    return TiltReport(not multivalued, float(lip), float(refined),
                      float(base_ratio), evidence, note)
