"""Constraint-qualification diagnostics.

MFCQ (strict descent direction for the active inequalities), CRCQ
(constant rank of every active-gradient subset on a sampled neighborhood),
the dual characterization of the Robinson condition (normal cone meets
the Jacobian kernel only at zero), and an empirical metric-subregularity
probe.  The probe is evidence, never proof: reports say so explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import List, Optional, Tuple

import numpy as np

from ._descent import _KEEP_TOL, feasibility_residuals, push_to_feasible
from ._sampling import ball, sphere
from ._simplex import solve_lp
from .cones import column_sum
from .problem import PointData, Problem, batch_constraint_grads

__all__ = [
    "CqReport",
    "MscqProbe",
    "TooManyActiveConstraints",
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
# dual Robinson condition: kernel-sphere grid size and membership tolerance
_RCQ_GRID = 10000
_RCQ_TOL = 1e-7


class TooManyActiveConstraints(Exception):
    pass


@dataclass(frozen=True)
class MscqProbe:
    ratio_bound: float
    per_radius: Tuple[float, ...]
    samples: int
    verdict: str  # "Supported" | "Inconclusive"


@dataclass(frozen=True)
class CqReport:
    mfcq: Optional[bool]   # None = not applicable (soc blocks present)
    crcq: Optional[bool]   # None = not applicable
    rcq: bool
    mscq: MscqProbe
    notes: Tuple[str, ...]


def _orthant_only(pd: PointData) -> bool:
    return all(b.cone.kind == "orthant" for b in pd.problem.blocks)


def check_mfcq(pd: PointData) -> Optional[bool]:
    """Strict descent direction for all active rows, via an LP over the unit box.

    Returns None when a second-order-cone block is present (the condition
    is stated for inequality systems only).
    """
    if not _orthant_only(pd):
        return None
    active = pd.face.nonneg
    if not active.size:
        return True
    n = pd.n
    grads = pd.J[active]
    # variables (d, s): maximize s with grad.d + s <= 0 and |d| <= 1, s >= 0
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


def check_crcq(pd: PointData, seed: int = 0) -> Optional[bool]:
    """Constant rank of every subset of active gradients on a sampled ball."""
    if not _orthant_only(pd):
        return None
    active = pd.face.nonneg
    if not active.size:
        return True
    if active.size > _MAX_ACTIVE:
        raise TooManyActiveConstraints(
            f"{active.size} active rows; subset enumeration capped at {_MAX_ACTIVE}")
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
                return False
    return True


def check_rcq_dual(pd: PointData, seed: int = 0) -> bool:
    """Robinson condition via its dual: N_Θ(q(x̄)) ∩ ker ∇q(x̄)^T = {0}.

    On orthant-only problems this is MFCQ (Gordan's alternative: no
    nonnegative nonzero combination of active gradients vanishes), so it
    returns ``check_mfcq``; with second-order-cone blocks the kernel's unit
    sphere is scanned with a membership test, plus the exact ray directions
    of boundary-active blocks.
    """
    if pd.m == 0:
        return True
    J = pd.J
    _, s, vt = np.linalg.svd(J.T, full_matrices=True)
    rank = int(np.sum(s > max(1e-12, (s[0] if s.size else 0.0) * 1e-10)))
    null = vt[rank:].T  # (m, kappa): basis of ker J^T
    kappa = null.shape[1]
    if kappa == 0:
        return True

    if _orthant_only(pd):
        return check_mfcq(pd)

    # scan the kernel sphere for a nonzero normal-cone member
    cands = null @ sphere(kappa, _RCQ_GRID, seed=seed)
    # include exact boundary-ray directions when they lie in the kernel
    extra = []
    for sl, ray in pd.face.rays:
        d = np.zeros(pd.m)
        d[sl] = ray
        d /= np.linalg.norm(d)
        if np.linalg.norm(J.T @ d) <= _RCQ_TOL:
            extra.append(d)
    if extra:
        cands = np.column_stack([cands] + extra)
    return not bool(np.any(pd.face.contains(cands, _RCQ_TOL)))


def probe_mscq(p: Problem, radius: float = 0.1, samples: int = 128,
               seed: int = 0) -> MscqProbe:
    """Empirical metric-subregularity ratio d(x;feasible)/d(q(x);cone).

    Numerators are upper estimates from projected penalty descent, so the
    bound is conservative; only the samples with a residual above 1e-12
    are pushed.  Supported requires finite bounds at the probe radius and
    radius/4 within a factor of 4 of each other.
    """
    if p.point is None:
        raise ValueError("problem has no candidate point")
    if not p.blocks:
        return MscqProbe(0.0, (0.0, 0.0), samples, "Supported")
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
    return MscqProbe(hi, tuple(bounds), samples, verdict)


def run_cq(pd: PointData, probe_radius: float = 0.1, probe_samples: int = 128,
           seed: int = 0) -> CqReport:
    mfcq = check_mfcq(pd)
    crcq = check_crcq(pd, seed=seed)
    # one LP decides both on orthant-only problems, where they coincide
    rcq = check_rcq_dual(pd, seed=seed) if mfcq is None else mfcq
    mscq = probe_mscq(pd.problem.with_point(pd.x), radius=probe_radius,
                      samples=probe_samples, seed=seed)
    notes: List[str] = [
        "metric subregularity is assumed by the second-order analysis; "
        "the probe supplies evidence, not proof",
    ]
    if crcq:
        notes.append("constant-rank condition implies metric subregularity")
    if rcq:
        notes.append("Robinson condition implies metric subregularity")
    if mfcq is not None:
        notes.append("for inequality blocks the Robinson condition "
                     "specializes to the strict-descent condition")
    if rcq and mscq.verdict != "Supported":
        notes.append("warning: Robinson condition holds but the "
                     "subregularity probe was inconclusive")
    return CqReport(mfcq, crcq, rcq, mscq, tuple(notes))
