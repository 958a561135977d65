"""Problem model: objective, cone-tagged constraint blocks, candidate point.

The text format is line oriented (sections in fixed order, ``#`` comments)::

    vars: x1 x2 x3
    objective: 0.5*x1^2 + x2^2
    block soc 3:
      row: 2*x2^2
      row: x2^2 - x3
      row: x2^2 + x3
    point: 0 0 0

A problem may declare any number of blocks (including none) and the point
line is optional in files, but required before analysis.  ``evaluate``
gives the stacked constraint values, Jacobian and row Hessians at a point,
each block's residual, and the normal-cone face of ``cones.normal_face``
that kkt, cq and sosc read.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import re
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from . import cones, expr
from .cones import Cone, NormalFace
from .expr import EvalBundle, Expression

__all__ = [
    "Problem",
    "Block",
    "PointData",
    "ProblemFormatError",
    "load",
    "loads",
    "save_text",
    "evaluate",
    "batch_constraint_values",
    "batch_constraint_grads",
    "batch_objective_values",
    "FEASIBILITY_TOL",
    "ACTIVITY_TOL",
]

# x-bar is treated as exactly feasible; analysis refuses to run above this.
FEASIBILITY_TOL = 1e-8
# |q_i(x)| <= ACTIVITY_TOL marks an orthant row active.
ACTIVITY_TOL = 1e-8


class ProblemFormatError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Block:
    rows: Tuple[Expression, ...]
    cone: Cone


@dataclass(frozen=True)
class Problem:
    variables: Tuple[str, ...]
    objective: Expression
    blocks: Tuple[Block, ...]
    point: Optional[np.ndarray]

    @property
    def n(self) -> int:
        return len(self.variables)

    @property
    def m(self) -> int:
        return sum(b.cone.m for b in self.blocks)

    # Compiled on the first batched call, not by load.
    @functools.cached_property
    def row_stack(self) -> expr.RowStack:
        """Every block's rows, stacked in block order, with the objective for
        ``RowStack.objective_pullback``."""
        return expr.RowStack([r for b in self.blocks for r in b.rows], self.n,
                             self.objective)

    @functools.cached_property
    def block_slices(self) -> Tuple[slice, ...]:
        """Each block's rows in the stacked coordinates, in block order."""
        ends = list(itertools.accumulate((b.cone.m for b in self.blocks), initial=0))
        return tuple(map(slice, ends[:-1], ends[1:]))

    @functools.cached_property
    def objective_stack(self) -> expr.RowStack:
        return expr.RowStack([self.objective], self.n)

    def digest(self) -> str:
        return hashlib.sha256(save_text(self).encode()).hexdigest()


@dataclass(frozen=True)
class PointData:
    """Derivative data at x, stacked in block order: block i owns the rows
    ``problem.block_slices[i]`` of q, J and hessians."""

    problem: Problem
    x: np.ndarray
    g: EvalBundle
    q: np.ndarray              # q(x), shape (m,)
    J: np.ndarray              # shape (m, n)
    hessians: np.ndarray       # shape (m, n, n)
    residuals: Tuple[float, ...]  # each block's distance to its cone
    face: NormalFace           # normal cone at the classified block values

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def m(self) -> int:
        return self.q.shape[0]

    @property
    def max_residual(self) -> float:
        return max(self.residuals, default=0.0)

    @property
    def feasible(self) -> bool:
        return self.max_residual <= FEASIBILITY_TOL


# ----------------------------------------------------------------------
# parsing / serialization
# ----------------------------------------------------------------------

def _strip(line: str) -> str:
    cut = line.find("#")
    if cut >= 0:
        line = line[:cut]
    return line.rstrip("\n").rstrip()


def loads(text: str) -> Problem:
    lines = text.splitlines()
    idx = 0
    total = len(lines)

    def next_content():
        nonlocal idx
        while idx < total:
            stripped = _strip(lines[idx])
            if stripped.strip():
                return stripped, idx + 1
            idx += 1
        return None, total

    # vars
    line, lineno = next_content()
    if line is None or not line.strip().startswith("vars:"):
        raise ProblemFormatError("expected 'vars:' section", lineno)
    names = line.strip()[len("vars:"):].split()
    if not names:
        raise ProblemFormatError("no variables declared", lineno)
    if len(set(names)) != len(names):
        raise ProblemFormatError("duplicate variable name", lineno)
    try:
        expr.check_variables(names)
    except expr.ParseError as err:
        raise ProblemFormatError(f"vars: {err}", lineno) from err
    idx += 1

    # objective
    line, lineno = next_content()
    if line is None or not line.strip().startswith("objective:"):
        raise ProblemFormatError("expected 'objective:' section", lineno)
    try:
        objective = expr.parse(line.strip()[len("objective:"):], names)
    except expr.ParseError as err:
        raise ProblemFormatError(f"objective: {err}", lineno) from err
    idx += 1

    # blocks
    blocks: List[Block] = []
    point = None
    seen_point = False
    while True:
        line, lineno = next_content()
        if line is None:
            break
        stripped = line.strip()
        if stripped.startswith("block "):
            if seen_point:
                raise ProblemFormatError("block after point section", lineno)
            head = re.fullmatch(r"block\s+(\S+)\s+([0-9]+):", stripped)
            if head is None:
                raise ProblemFormatError("expected 'block <orthant|soc> <m>:'", lineno)
            try:
                cone = Cone(head[1], int(head[2]))
            except ValueError as err:
                raise ProblemFormatError(str(err), lineno) from err
            idx += 1
            rows: List[Expression] = []
            while len(rows) < cone.m:
                line, lineno = next_content()
                if line is None or not line.strip().startswith("row:"):
                    raise ProblemFormatError(
                        f"block needs {cone.m} rows, found {len(rows)}", lineno)
                try:
                    rows.append(expr.parse(line.strip()[len("row:"):], names))
                except expr.ParseError as err:
                    raise ProblemFormatError(f"row: {err}", lineno) from err
                idx += 1
            # a stray extra row is a dimension mismatch
            line, lineno = next_content()
            if line is not None and line.strip().startswith("row:"):
                raise ProblemFormatError(
                    f"block declared {cone.m} rows but more follow", lineno)
            blocks.append(Block(tuple(rows), cone))
        elif stripped.startswith("point:"):
            if seen_point:
                raise ProblemFormatError("duplicate point section", lineno)
            values = stripped[len("point:"):].split()
            if len(values) != len(names):
                raise ProblemFormatError(
                    f"point needs {len(names)} coordinates, got {len(values)}", lineno)
            try:
                point = np.array([expr.parse_number(v) for v in values])
            except ValueError as err:
                raise ProblemFormatError(f"bad point coordinate: {err}", lineno) from err
            if not np.all(np.isfinite(point)):
                raise ProblemFormatError("point coordinates must be finite", lineno)
            seen_point = True
            idx += 1
        else:
            raise ProblemFormatError(f"unexpected line {stripped!r}", lineno)

    return Problem(tuple(names), objective, tuple(blocks), point)


def load(path: str) -> Problem:
    """Load a problem from a file; ``loads`` parses text."""
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def save_text(p: Problem) -> str:
    out = [f"vars: {' '.join(p.variables)}"]
    out.append(f"objective: {expr.to_text(p.objective, p.variables)}")
    for b in p.blocks:
        out.append(f"block {b.cone.kind} {b.cone.m}:")
        for row in b.rows:
            out.append(f"  row: {expr.to_text(row, p.variables)}")
    if p.point is not None:
        out.append("point: " + " ".join(repr(float(v)) for v in p.point))
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------

def evaluate(p: Problem, x) -> PointData:
    """All derivative data, per-block residuals and the normal face at x.

    The PointData's problem carries x as its point: it is p itself when
    p.point has x's bits, so a report compiles p's row programs once.
    Each block is classified at its value, or at the value's projection
    onto the cone when the residual exceeds FEASIBILITY_TOL; a residual
    that is not finite, or an objective gradient whose squared norm
    overflows, raises expr.NonFiniteError.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (p.n,):
        raise ValueError(f"point must have length {p.n}")
    if p.point is None or p.point.tobytes() != x.tobytes():
        p = replace(p, point=x)
    g = expr.eval_bundle(p.objective, x)
    with np.errstate(over="ignore"):
        if not np.isfinite(np.sum(g.gradient * g.gradient)):
            # the multipliers are as large, and the second-order analysis
            # squares them
            raise expr.NonFiniteError("the objective's gradient is out of range: "
                                      "its squared norm overflows")
    bundles, residuals, classified = [], [], []
    for b in p.blocks:
        rows = [expr.eval_bundle(row, x) for row in b.rows]
        value = np.array([bu.value for bu in rows])
        with np.errstate(over="ignore", invalid="ignore"):
            residual = cones.distance(b.cone, value)
        if not np.isfinite(residual):
            raise expr.NonFiniteError("a block's cone residual is not finite")
        bundles += rows
        residuals.append(residual)
        classified.append((b.cone, value if residual <= FEASIBILITY_TOL
                           else cones.project(b.cone, value)))
    q = np.array([bu.value for bu in bundles], dtype=float)
    J = np.array([bu.gradient for bu in bundles]).reshape(-1, p.n)
    hessians = np.array([bu.hessian for bu in bundles]).reshape(-1, p.n, p.n)
    return PointData(p, x, g, q, J, hessians, tuple(residuals),
                     cones.normal_face(classified, ACTIVITY_TOL))


def batch_constraint_values(p: Problem, X: np.ndarray) -> np.ndarray:
    """Stacked q(x) over columns of X; shape (m, N)."""
    return p.row_stack.values(X)


def batch_constraint_grads(p: Problem, X: np.ndarray):
    """Stacked (values (m,N), jacobians (m,n,N)) over columns of X."""
    return p.row_stack.grads(X)


def batch_objective_values(p: Problem, X: np.ndarray) -> np.ndarray:
    """g(x) over columns of X; shape (N,)."""
    return p.objective_stack.values(X)[0]

