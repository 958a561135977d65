"""The benchmark's workloads: their inputs and the check on every report.

A workload hands run.py a list of inputs for each pass.  An input
names a file, the report function that analyses it, that function's flags,
and a check that returns the reasons the report is wrong (empty when it is
right).  run.py adds the checks common to every report: no exception,
no ``failed_stage`` and the same bytes on every pass.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from strongmin import cones, corpus, expr, problem


@dataclass(frozen=True)
class Input:
    name: str
    path: str
    kind: str                      # "problem" -> analyze_report, "pw1d" -> pw1d_report
    flags: dict
    check: Callable[[dict], List[str]]


def _expectations(spec: dict) -> Callable[[dict], List[str]]:
    """Check a report against expected.json with the corpus module's rules."""
    def check(rep):
        wrong = []
        for exp in spec["expectations"]:
            try:
                actual = corpus._extract(rep, exp["field"])
            except (KeyError, IndexError, TypeError):
                wrong.append(f"{exp['field']} missing")
                continue
            ok, desc = corpus._check(exp, actual)
            if not ok:
                wrong.append(f"{exp['field']} expected {desc}, got {actual!r}")
        return wrong
    return check


class CorpusAnalyze:
    """Conic corpus entries at the flags of their expected.json."""

    def __init__(self, root: str, names: Sequence[str] = ()):
        entries = [e for e in corpus.discover(root) if e.kind == "problem"]
        if names:
            entries = [e for e in entries if e.name in names]
        self._inputs = [
            Input(e.name, e.input_file, "problem",
                  {"seed": e.spec.get("seed", 0),
                   "samples": e.spec.get("samples", 20000),
                   "tilt": e.spec.get("tilt", False)},
                  _expectations(e.spec))
            for e in entries]

    def inputs(self, pass_index: int) -> List[Input]:
        return self._inputs


# ----------------------------------------------------------------------
# licq-sweep
# ----------------------------------------------------------------------

# Every (n, k) shape acceptance criterion 7's recipe can draw (n = 2-4
# variables, k = 1-min(3, n) active rows), LICQ_PER_SHAPE instances of each
# per pass: a fixed shape mix keeps the pass's cost from swinging with the
# seed's shape draws, and sixteen reports steady its median.  The rest of
# each instance is drawn as criterion 7 draws it.
LICQ_SHAPES: Tuple[Tuple[int, int], ...] = (
    (2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3))
LICQ_PER_SHAPE = 2
# Half criterion 7's oracle count (4000), so that a pass of sixteen reports
# fits in one run; the width stays far below corpus-analyze's 20000.
LICQ_SAMPLES = 2000


def _quadratic(c, Q) -> expr.Expression:
    """Expression tree for c.x + 0.5 x.Q.x, built term by term."""
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


def licq_instance(rng: np.random.Generator, n: int, k: int) -> problem.Problem:
    """Criterion 7's random LICQ orthant instance, at a given shape."""
    while True:
        A = rng.standard_normal((k, n))
        if np.linalg.svd(A, compute_uv=False)[-1] >= 0.3:
            break
    rows = []
    for i in range(k):
        B = 0.4 * rng.standard_normal((n, n))
        rows.append(_quadratic(A[i], B + B.T))
    lam = np.abs(rng.standard_normal(k))
    lam[rng.random(k) < 0.3] = 0.0
    Hvecs = np.linalg.qr(rng.standard_normal((n, n)))[0]
    H = Hvecs @ np.diag(rng.uniform(-0.5, 2.5, size=n)) @ Hvecs.T
    g = _quadratic(-(lam @ A), H)
    names = tuple(f"x{i + 1}" for i in range(n))
    blocks = (problem.Block(tuple(rows), cones.orthant(k)),)
    return problem.Problem(names, g, blocks, np.zeros(n))


def _no_gap(rep: dict) -> List[str]:
    """Stationarity plus criterion 7's two no-gap implications."""
    wrong = []
    if rep["stationarity"]["holds"] is not True:
        return ["stationarity.holds is not true"]
    so, orc = rep["sosc"], rep["oracle"]
    if orc["verdict"] == "Holds" and orc["kappa_hat"] >= 1e-2 \
            and so["sonc"]["holds"] is not True:
        wrong.append("oracle growth holds but sonc fails")
    kappa = so["predicted_modulus"]
    if so["sosc"]["holds"] is True and math.isfinite(kappa) \
            and not orc["per_radius"][-1] >= kappa - 0.05:
        wrong.append(f"oracle per_radius[-1] {orc['per_radius'][-1]!r} "
                     f"below predicted modulus {kappa!r} - 0.05")
    return wrong


class LicqSweep:
    """Fresh random LICQ instances each pass, written as .prob files."""

    def __init__(self, seed: int, workdir: str,
                 shapes: Sequence[Tuple[int, int]] = LICQ_SHAPES,
                 per_shape: int = LICQ_PER_SHAPE):
        self.seed = seed
        self.workdir = workdir
        self.shapes = [s for s in shapes for _ in range(per_shape)]

    def inputs(self, pass_index: int) -> List[Input]:
        rng = np.random.default_rng((self.seed, pass_index))
        out = []
        for i, (n, k) in enumerate(self.shapes):
            name = f"licq-p{pass_index}-{i}-n{n}k{k}"
            path = os.path.join(self.workdir, name + ".prob")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(problem.save_text(licq_instance(rng, n, k)))
            out.append(Input(name, path, "problem",
                             {"seed": 0, "samples": LICQ_SAMPLES}, _no_gap))
        return out


# ----------------------------------------------------------------------
# pw1d-lab
# ----------------------------------------------------------------------

STAIRCASES = 6
STAIRCASE_RANGE = (1.5, 4.0)


def _staircase_ok(rep: dict) -> List[str]:
    wrong = []
    if rep["proximally_stationary"] is not True:
        wrong.append("not proximally stationary")
    cond = rep["conditions"]
    for key in ("pd_34", "pd_36"):
        if key not in cond or cond[key]["holds"] is not False:
            wrong.append(f"conditions.{key}.holds is not false")
    if rep.get("qgc", {}).get("verdict") != "Holds":
        wrong.append("qgc.verdict is not Holds")
    return wrong


def staircase_params(seed: int, count: int):
    """(base, slope) pairs in STAIRCASE_RANGE, Latin-hypercube stratified.

    Each of ``count`` equal strata of the range holds one base and one
    slope, so the workload always spans the range whatever the seed.
    """
    rng = np.random.default_rng(seed)
    lo, hi = STAIRCASE_RANGE
    u = (np.stack([rng.permutation(count), rng.permutation(count)])
         + rng.random((2, count))) / count
    return [(float(b), float(s)) for b, s in (lo + (hi - lo) * u).T]


class Pw1dLab:
    """Univariate corpus entries plus seeded binary staircases, with d2."""

    def __init__(self, root: str, seed: int, workdir: str,
                 names: Sequence[str] = (), staircases: int = STAIRCASES):
        entries = [e for e in corpus.discover(root) if e.kind == "pw1d"]
        if names:
            entries = [e for e in entries if e.name in names]
        self._inputs = [
            Input(e.name, e.input_file, "pw1d",
                  {"point": e.spec.get("point", 0.0), "with_d2": True},
                  _expectations(e.spec))
            for e in entries]
        for i, (base, slope) in enumerate(staircase_params(seed, staircases)):
            path = os.path.join(workdir, f"staircase{i}.pw")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(f"pw1d\ngenerator: binary-staircase {base!r} {slope!r}\n")
            self._inputs.append(Input(f"staircase{i}({base:.4f},{slope:.4f})",
                                      path, "pw1d", {"with_d2": True},
                                      _staircase_ok))

    def inputs(self, pass_index: int) -> List[Input]:
        return self._inputs
