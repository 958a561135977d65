"""Batched projected penalty descent and Gauss-Newton restoration shared by
the sampling oracles.

One loop, `_descend`, minimizes base(y) + rho * dist^2(q(y); K) over the
sample columns with a per-column adaptive step.  Its two penalties are
`push_to_feasible` (base ||y - x||^2: distance estimation and feasible
sampling) and `minimize_tilted` (base g(y) - v.y inside a ball: the tilt
probe).  `_residual` forms R = q - Pi_K(q) for the stacked blocks; the
descent, the Gauss-Newton restoration and `feasibility_residuals` (also
the cq probe's denominator) all read it.

A descent step is one pass of ufunc calls under one np.errstate held
around the loop: the normalized step, the ball clip, the rows' pullback
program (whose residual callback projects each block into the
preallocated R), the penalty, the base, the accept test and a
branch-free select of the float bits.  Its own arrays are allocated
once per call and every one of its ufuncs writes into them; only the
row program's shared subexpressions and a soc block's projection still
allocate temporaries.  At a few hundred columns a step costs numpy's
per-call dispatch, not arithmetic, so the pass saves calls and
temporaries and keeps every float operation.

`_restore` is a damped minimum-norm Gauss-Newton (Ben-Israel 1966) on the
violated part of R alone; both descents end with it, and the growth
oracle runs it first, from the ball samples themselves.  Each column
solves (J J^T + D + 1e-12 I) mu = r and steps by -J^T mu, where
- an orthant row enters, as its Jacobian row and residual, only in the
  columns where its residual is nonzero;
- a soc block whose residual R_b is nonzero enters as the one row
  n_b^T J_b with n_b = R_b / ||R_b|| and right-hand side ||R_b||: a Newton
  step on dist(q_b; K_b);
- a row that does not enter is 0 in J, 1 in D and 0 in r, so its mu is 0;
- a row whose norm lies outside `cones.UNIT_ROW_RANGE` enters scaled to
  unit norm with its right-hand side, so JJ^T does not overflow.
A satisfied row therefore holds nothing in place: parallel active
gradients or a soc vertex leave a solvable system where the full one was
singular.  The m x m systems (m <= the number of rows) are built as one
(m, m, N) array and solved by `_cholesky_solve`: a Cholesky factor, then
forward and back substitution, elementwise over the columns with only
+ - * / and sqrt in a fixed order, so no LAPACK kernel, which would be
picked per CPU, touches the restored points.  A column whose pivot is
not > 0 is refactored with 1e-8 in place of the 1e-12 regularization.
A column takes no step once its residual is <= 1e-13, and keeps a
candidate only where it lowers the residual.  A rejected
candidate halves that column's next step, and an accepted one restores
the full step: a step that fixes one row may violate a nearly active one
by more, and the same step again would be rejected again.

Every reduction over rows -- the residual and step norms, D.D and V.Z,
a soc block's norm and contraction, JJ^T and J^T mu, the ball clip -- is
`cones.column_sum`, a sum in row order from +0.0; everything else,
the Gauss-Newton solve included, is elementwise.  So a column's result does
not depend on the other columns of its batch, whatever the batch's width:
`_restore` steps only the columns still above 1e-13, callers pass only the
columns that need work, and the tilt probe solves the midpoints its
bisection may reach in one batch and takes each visited tilt's minimizer
to be the one a call of its own gives.

A residual or Gauss-Newton row norm whose sum of squares overflows is
recomputed by `cones.column_norm` for that column alone.  The penalty
dist^2 has no such repair: both descents leave a start whose squared
residual is not a float to the restoration, and a candidate that steps
that far enters dist^2 with its residual entries capped at
`_PENALTY_CAP`, so its penalty stays a float and it is rejected.
"""

from __future__ import annotations

import numpy as np

from . import cones
from .cones import column_norm, column_sum
from .problem import (Problem, batch_constraint_grads, batch_constraint_values,
                      batch_objective_values)

__all__ = ["push_to_feasible", "feasibility_residuals", "minimize_tilted"]


def _cone_residual(cone: cones.Cone, q: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = q - Pi_K(q) for one block's values q, the projection formed in
    out itself."""
    return np.subtract(q, cones.project(cone, q, out=out), out=out)


def _residual(p: Problem, Q: np.ndarray) -> np.ndarray:
    """q - Pi_K(q) for the stacked block values Q (m, N), block by block."""
    R = np.empty_like(Q)
    for b, sl in zip(p.blocks, p.block_slices):
        _cone_residual(b.cone, Q[sl], R[sl])
    return R


def feasibility_residuals(p: Problem, Y: np.ndarray) -> np.ndarray:
    """Columnwise distance of q(y) to the cone product."""
    return column_norm(_residual(p, batch_constraint_values(p, Y)))


# The step factors of a rejected and of an accepted candidate.
_STEP_FACTORS = np.array([0.5, 1.2])
# push_to_feasible: descent iterations, initial penalty and the iterations
# between penalty doublings; minimize_tilted: the same three
_PUSH_ITERS, _PUSH_RHO0, _PUSH_RHO_DOUBLING = 200, 10.0, 16
_TILT_ITERS, _TILT_RHO0, _TILT_RHO_DOUBLING = 300, 100.0, 20
_RESTORE_ITERS = 20  # Gauss-Newton restoration steps after either descent
_RESTORE_TOL = 1e-13  # residual at which a column takes no further GN step
_KEEP_TOL = 1e-9  # largest residual of a pushed sample that counts as feasible
_FMAX = np.finfo(float).max
_SQRT_FMAX = np.sqrt(_FMAX)  # the largest residual whose square is a float
# A residual entry above this enters dist^2 at this size: dist^2 and rho *
# dist^2 stay floats for up to 2^40 rows and rho up to 2^40, and a
# candidate that far out is rejected.  Entries below it keep their bits
_PENALTY_CAP = _SQRT_FMAX / 2.0 ** 40


def _improves(new: np.ndarray, old: np.ndarray) -> np.ndarray:
    """new < old, with ±inf in new read as ±_FMAX and NaN as no improvement:
    the booleans of ``np.nan_to_num(new, nan=np.inf) < old`` for every
    input (a NaN stays NaN through the clamp and compares False), at a
    quarter to a half of its cost."""
    return np.minimum(np.maximum(new, -_FMAX), _FMAX) < old


def _clip(Z: np.ndarray, center: np.ndarray, radius: float, D: np.ndarray,
          nrm: np.ndarray, rows) -> np.ndarray:
    """Each column of Z mapped into the ball, in place:
    center + (Z - center) * min(radius / ||Z - center||, 1), where a NaN
    quotient (0 / 0, or a NaN norm) reads as 1.  center is (n, 1) or
    (n, N), D (n, N) and nrm (N,) are scratch, and rows lists Z's rows."""
    np.subtract(Z, center, out=D)
    np.multiply(D, D, out=Z)
    np.sqrt(column_sum(rows, out=nrm), out=nrm)
    np.fmin(np.divide(radius, nrm, out=nrm), 1.0, out=nrm)
    return np.add(center, np.multiply(D, nrm, out=D), out=Z)


def _descend(p: Problem, Y: np.ndarray, steps: np.ndarray, rho: float, iters: int,
             rho_doubling: int, tilt=None) -> np.ndarray:
    """Columnwise adaptive-step descent on base(y) + rho * d2(y) from the
    columns of Y (n, N); returns the final y.

    base is ||y - Y||^2 (push_to_feasible) or, with ``tilt`` = (V (n, N),
    center (n, 1), radius), g(y) - V.y (minimize_tilted), whose candidates
    are clipped into the ball of that center and radius.  Each column
    steps along its normalized gradient; an improving candidate is
    accepted and grows the step by 1.2, otherwise the step halves.  rho doubles every
    `rho_doubling` iterations.  The state and the candidate each hold y,
    base, base_grad (n rows), d2_grad (n rows), d2 and the penalty
    base + rho * d2 as row blocks of one array, so the accepted columns
    are one select.
    """
    n, N = Y.shape
    state, cand = np.empty((2, 3 * n + 3, N))
    flips = np.empty(state.shape, dtype=np.int64)
    Q, R = np.empty((2, p.m, N))  # the row values and their cone residual
    grad, W = np.empty((2, n, N))
    col = np.empty(N)
    better = np.empty(N, dtype=bool)
    mask = np.empty(N, dtype=np.int64)
    blocks = [(b.cone, Q[sl], R[sl]) for b, sl in zip(p.blocks, p.block_slices)]
    W_rows, R_rows, cy_rows = list(W), list(R), list(cand[:n])  # column_sum's rows
    if tilt is None:
        program = p.row_stack.pullback
    else:
        program = p.row_stack.objective_pullback
        tilts, center, radius = tilt
        center = np.repeat(center, N, axis=1)  # a broadcast operand costs 2.5 times as much

    def residual(_):  # the program's fn: its values are Q
        for cone, q, r in blocks:
            _cone_residual(cone, q, r)
        return R

    def fill(T):
        """base, base_grad, d2_grad = 2 J^T R and d2 = ||R||^2 at the
        columns of y, into the rows T of the state or the candidate, with
        each |R| capped at `_PENALTY_CAP`."""
        y, base, base_grad, d2_grad, d2, pulled, _ = T
        if tilt is None:
            program(y, Q, residual, d2_grad)
            np.subtract(y, Y, out=W)
            np.multiply(2.0, W, out=base_grad)
            np.multiply(W, W, out=W)
            column_sum(W_rows, out=base)
        else:
            # the objective's value and gradient and the rows' pullback
            # come from one program
            program(y, Q, residual, pulled)
            np.multiply(tilts, y, out=W)
            np.subtract(base, column_sum(W_rows, out=col), out=base)
            np.subtract(base_grad, tilts, out=base_grad)
        np.multiply(d2_grad, 2.0, out=d2_grad)
        np.minimum(np.abs(R, out=R), _PENALTY_CAP, out=R)
        np.multiply(R, R, out=R)
        column_sum(R_rows, out=d2)

    def rows(T):
        """y, base, base_grad, d2_grad, d2, the rows of the objective
        program and the penalty, as views of T."""
        return (T[:n], T[n], T[n + 1:2 * n + 1], T[2 * n + 1:3 * n + 1], T[3 * n + 1],
                T[n:3 * n + 1], T[3 * n + 2])

    y, base, base_grad, d2_grad, d2, _, penalty = state_rows = rows(state)
    cy, cbase, _, _, cd2, _, cand_penalty = cand_rows = rows(cand)
    kept, new = state.view(np.int64), cand.view(np.int64)
    y[...] = Y
    with np.errstate(all="ignore"):
        fill(state_rows)
        for it in range(iters):
            if it % rho_doubling == 0:
                if it:
                    rho *= 2.0
                np.add(base, np.multiply(rho, d2, out=penalty), out=penalty)
            # cy = y - steps * grad / ||grad||, with 1 for a norm <= 1e-14
            np.add(base_grad, np.multiply(rho, d2_grad, out=grad), out=grad)
            np.multiply(grad, grad, out=W)
            np.sqrt(column_sum(W_rows, out=col), out=col)
            np.greater(col, 1e-14, out=better)
            np.multiply(steps, grad, out=cy)
            np.divide(cy, col, out=cy, where=better)
            np.subtract(y, cy, out=cy)
            if tilt is not None:
                _clip(cy, center, radius, grad, col, cy_rows)
            fill(cand_rows)
            # accept where _improves(cand's penalty, state's)
            np.add(cbase, np.multiply(rho, cd2, out=cand_penalty), out=cand_penalty)
            np.minimum(np.maximum(cand_penalty, -_FMAX, out=col), _FMAX, out=col)
            np.less(col, penalty, out=better)
            np.copyto(mask, better)  # 1 where accepted
            # (take's default mode copies through a buffer; mask is 0 or 1)
            np.multiply(steps, _STEP_FACTORS.take(mask, out=col, mode="clip"), out=steps)
            # state = cand in the accepted columns, a branch-free select of
            # the float bits: a masked copy branches per element and costs
            # five to seven times as much on the descent's mixed masks
            np.negative(mask, out=mask)
            np.bitwise_and(np.bitwise_xor(kept, new, out=flips), mask, out=flips)
            np.bitwise_xor(kept, flips, out=kept)
    return y


def push_to_feasible(p: Problem, X: np.ndarray):
    """Pull every column of X toward the nearest feasible point.

    Returns (Y, residuals).  The distance ||Y - X|| is an upper estimate of
    the true distance to the feasible set; final feasibility residuals are
    driven to ~1e-12 by a Gauss-Newton restoration whenever possible.  A
    column's initial step is 0.05 * max(1, max_i |x_i|).  A column whose
    residual at X exceeds sqrt(max float) has no float penalty: the descent
    leaves it at X, and only the restoration moves it.
    """
    Y = X.copy()
    cols = np.flatnonzero(~(feasibility_residuals(p, X) > _SQRT_FMAX))
    X = X.take(cols, axis=1)
    steps = 0.05 * np.maximum(1.0, np.max(np.abs(X), axis=0))
    Y[:, cols] = _descend(p, X, steps, _PUSH_RHO0, _PUSH_ITERS, _PUSH_RHO_DOUBLING)
    return _restore(p, Y, _RESTORE_ITERS)


def _violated_rows(p: Problem, q: np.ndarray, jacs: np.ndarray):
    """The Gauss-Newton rows (m, n, N), right-hand sides (m, N) and idle
    flags (m, N) of the violated part of the cone residual at q."""
    R = _residual(p, q)
    J = np.zeros_like(jacs)
    rhs = np.zeros_like(R)
    idle = np.ones_like(R)
    for b, sl in zip(p.blocks, p.block_slices):
        if b.cone.kind == "orthant":
            on = R[sl] != 0.0
            J[sl] = np.where(on[:, None], jacs[sl], 0.0)
            rhs[sl] = R[sl]
            idle[sl] = ~on
        else:
            norm = column_norm(R[sl])
            on = norm != 0.0
            nb = R[sl] / np.where(on, norm, 1.0)
            J[sl.start] = np.where(on, column_sum(nb[:, None] * jacs[sl]), 0.0)
            rhs[sl.start] = norm
            idle[sl.start] = ~on
    # a row far from unit norm is scaled to it with its right-hand side, as
    # sosc scales the ADMM rows: the minimum-norm step is the same, and JJ^T
    # neither overflows nor loses the row to the 1e-12 regularization
    lo, hi = cones.UNIT_ROW_RANGE
    for row, r in zip(J, rhs):
        norm = column_norm(row)
        far = (norm > 0.0) & ((norm < lo) | (norm > hi))
        if far.any():
            scale = np.where(far, norm, 1.0)
            row /= scale
            r /= scale
    return J, rhs, idle


def _cholesky_solve(A: np.ndarray, b: np.ndarray):
    """x with A x = b for each column of A (m, m, N) and b (m, N), A
    symmetric and read from its lower triangle alone: the Cholesky factor
    L of A = L L^T, then forward and back substitution, elementwise over
    the columns with + - * / and sqrt in a fixed order, so a column's x
    does not depend on its batch or on the machine.  Returns (x,
    factored); a column whose pivot is not > 0 is not factored and its x
    is NaN.  Non-finite inputs give non-finite x, which the Gauss-Newton
    step reads as no step, as it read LAPACK's.
    """
    m = b.shape[0]
    L = np.empty_like(A)
    factored = np.ones(b.shape[1], dtype=bool)
    x = np.empty_like(b)
    with np.errstate(all="ignore"):
        for j in range(m):
            for i in range(j, m):
                s = A[i, j]
                for k in range(j):
                    s = s - L[i, k] * L[j, k]
                if i == j:
                    pivot = s > 0.0
                    factored &= pivot
                    L[j, j] = np.sqrt(np.where(pivot, s, np.nan))
                else:
                    L[i, j] = s / L[j, j]
        for i in range(m):
            s = b[i]
            for k in range(i):
                s = s - L[i, k] * x[k]
            x[i] = s / L[i, i]
        for i in reversed(range(m)):
            s = x[i]
            for k in range(i + 1, m):
                s = s - L[k, i] * x[k]
            x[i] = s / L[i, i]
    return x, factored


def _gauss_newton_step(p: Problem, Z: np.ndarray) -> np.ndarray:
    """The minimum-norm Gauss-Newton step J^T mu at the columns of Z, mu
    solving (J J^T + D + 1e-12 I) mu = r (see the module docstring), with
    non-finite entries read as by np.nan_to_num."""
    diag = np.arange(p.m)
    J, rhs, idle = _violated_rows(p, *batch_constraint_grads(p, Z))
    A = np.empty((p.m, p.m, Z.shape[1]))  # J J^T, its lower triangle
    for i in range(p.m):
        for j in range(i + 1):
            A[i, j] = column_sum(J[i] * J[j])
    A[diag, diag] += idle
    ridged = A[diag, diag]  # the diagonal of J J^T + D, a copy
    A[diag, diag] += 1e-12
    mu, factored = _cholesky_solve(A, rhs)
    if not factored.all():
        # regularize more only the columns whose pivot is not > 0
        bad = np.flatnonzero(~factored)
        A = A[:, :, bad]
        A[diag, diag] = ridged[:, bad] + 1e-8
        mu[:, bad] = _cholesky_solve(A, rhs[:, bad])[0]
    return np.nan_to_num(column_sum(J * mu[:, None, :]))


def _restore(p: Problem, Y: np.ndarray, iters: int):
    """Damped minimum-norm Gauss-Newton on the violated part of the cone
    residual of q(y) (see the module docstring), in place on Y.

    A column takes no step once its residual is <= 1e-13, keeps a
    candidate only where it lowers the residual, and halves its step after
    each rejected one.  Returns (Y, residuals), the residuals bit for bit
    those `feasibility_residuals` gives at Y.
    """
    res = feasibility_residuals(p, Y)
    scale = np.ones(Y.shape[1])
    for _ in range(iters):
        cols = np.flatnonzero(res > _RESTORE_TOL)
        if not cols.size:
            break
        Z = Y.take(cols, axis=1)
        cand = Z - scale[cols] * _gauss_newton_step(p, Z)
        res_c = feasibility_residuals(p, cand)
        better = _improves(res_c, res[cols])
        Y[:, cols[better]] = cand[:, better]
        res[cols[better]] = res_c[better]
        scale[cols] = np.where(better, 1.0, 0.5 * scale[cols])
    return Y, res


def minimize_tilted(p: Problem, V: np.ndarray, starts: np.ndarray,
                    center: np.ndarray, ball_radius: float):
    """Columnwise minimization of g(y) - v.y over the feasible set ∩ ball.

    V (n, N) holds one tilt per column, starts (n, N) the initial points,
    and ball_radius is positive.  Returns (Y, objective values,
    feasibility residuals).  A start whose residual exceeds sqrt(max
    float) skips the descent for the restoration.
    """
    ball = center[:, None], ball_radius
    scratch = np.empty(starts.shape), np.empty(starts.shape[1])

    def clip(Y):
        with np.errstate(divide="ignore", invalid="ignore"):  # r / 0 and 0 / 0 read as 1
            return _clip(Y, *ball, *scratch, list(Y))

    Y = clip(starts.copy())
    # a start whose residual exceeds sqrt(max float) is left to the
    # restoration, as in push_to_feasible
    cols = np.flatnonzero(~(feasibility_residuals(p, Y) > _SQRT_FMAX))
    steps = np.full(cols.size, 0.05 * max(ball_radius, 1e-6))
    Y[:, cols] = _descend(p, Y.take(cols, axis=1), steps, _TILT_RHO0, _TILT_ITERS,
                          _TILT_RHO_DOUBLING, tilt=(V.take(cols, axis=1), *ball))
    if p.blocks:
        Y = clip(_restore(p, Y, _RESTORE_ITERS)[0])
    gfinal = batch_objective_values(p, Y) - column_sum(V * Y)
    return Y, gfinal, feasibility_residuals(p, Y)
