"""Analysis pipeline driver and machine-readable report assembly.

A report is one JSON document, reproducible byte for byte from
(input file, flags, seed): floats are rendered with 17 significant
digits, non-finite values as the strings "inf"/"-inf"/"nan", and wall
clock timings are opt-in so the default output is deterministic.  Every
boolean verdict carries a self-describing condition tag plus its
certification level (Exact / Sampled), making explicit where numerics
stand in for analysis.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from typing import Optional

import numpy as np

from . import __version__, cq, expr, kkt, oracle, problem, pw1d, sosc

__all__ = ["analyze_report", "cq_report", "qgc_report", "pw1d_report",
           "dumps_report", "InputError"]


_SUBDIFF_COUNT = 6  # breakpoints nearest the point listed in a pw1d report


class InputError(Exception):
    """Bad input file or candidate point; maps to exit code 1."""


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

def _fmt_float(v: float) -> str:
    if math.isnan(v):
        return '"nan"'
    if math.isinf(v):
        return '"inf"' if v > 0 else '"-inf"'
    return format(v, ".17g")


def _render(obj, out):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(float(obj)))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _render(v, out)
        out.append("]")
    elif isinstance(obj, np.ndarray):
        _render(obj.tolist(), out)
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            _render(str(k), out)
            out.append(": ")
            _render(v, out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj)}")


def dumps_report(report: dict) -> str:
    out = []
    _render(report, out)
    return "".join(out) + "\n"


def _verdict(holds, condition: str, certification: str, **extra) -> dict:
    d = {"holds": holds, "condition": condition, "certification": certification}
    d.update(extra)
    return d


def _vec(v) -> Optional[list]:
    return None if v is None else [float(x) for x in np.asarray(v).ravel()]


# ----------------------------------------------------------------------
# stages
# ----------------------------------------------------------------------

@contextmanager
def _stage(clocks: dict, name: str):
    """Record the wall-clock milliseconds of the enclosed block as clocks[name]."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        clocks[name] = 1000.0 * (time.perf_counter() - t0)


def _run_stages(rep: dict, clocks: dict, stages) -> None:
    """Run (name, build) stages in order, storing each section as rep[name].

    The first stage that raises ends the run with
    rep["failed_stage"] = "<name>: <error>"; the sections before it stay,
    so a numeric failure still leaves a partial report.
    """
    for name, build in stages:
        try:
            with _stage(clocks, name):
                rep[name] = build()
        except Exception as err:
            rep["failed_stage"] = f"{name}: {err}"
            return


def _require_positive(**values) -> None:
    """Raise InputError unless every named count or radius is finite and > 0,
    and every named list of them is nonempty."""
    for name, value in values.items():
        items = value if isinstance(value, (list, tuple)) else [value]
        if not items:
            raise InputError(f"{name} must not be empty")
        for v in items:
            if not (math.isfinite(v) and v > 0):
                raise InputError(f"{name} must be finite and positive, got {v!r}")


def _require_seed(seed) -> None:
    """Raise InputError unless the seed is an integer in [0, 2**32)."""
    if not (isinstance(seed, (int, np.integer)) and 0 <= seed < 2 ** 32):
        raise InputError(f"seed must be an integer in [0, 2**32), got {seed!r}")


def _load(load, format_error, path: str):
    """load(path), with a missing, unreadable or malformed file raised as
    InputError."""
    try:
        return load(path)
    except (OSError, UnicodeDecodeError) as err:
        raise InputError(f"cannot read {path!r}: {err}") from err
    except format_error as err:
        raise InputError(f"{path}: {err}") from err


# ----------------------------------------------------------------------
# conic pipeline
# ----------------------------------------------------------------------

def _conic_report(path: str, flags: dict, stages, timings: bool = False) -> dict:
    """Load the problem, evaluate it at its point, write the header, run the stages.

    An unreadable file, a missing point, a point outside the domain of the
    data or an infeasible point raises InputError, so every conic
    subcommand refuses the same inputs.  Every stage reads its inputs from
    `flags`, which the header records; sosc also reads the stationarity
    section before it.
    """
    _require_seed(flags["seed"])
    clocks: dict = {}
    with _stage(clocks, "load"):
        p = _load(problem.load, problem.ProblemFormatError, path)
    if p.point is None:
        raise InputError(f"{path}: analysis needs a 'point:' line")
    with _stage(clocks, "evaluate"):
        try:
            pd = problem.evaluate(p, p.point)
        except expr.ExprError as err:
            raise InputError(f"{path}: cannot evaluate at the candidate point: "
                             f"{err}") from err
    if not pd.feasible:
        raise InputError(
            f"{path}: candidate point is infeasible "
            f"(residual {pd.max_residual:.3e} > {problem.FEASIBILITY_TOL:g})")
    rep: dict = {
        "tool": {"name": "strongmin", "version": __version__},
        "problem": {
            "digest": p.digest(),
            "variables": list(p.variables),
            "blocks": [{"cone": b.cone.kind, "dim": b.cone.m} for b in p.blocks],
            "point": _vec(p.point),
        },
        "flags": flags,
        "failed_stage": None,
        "feasibility": {
            "max_residual": pd.max_residual,
            "feasible": pd.feasible,
            "tolerance": problem.FEASIBILITY_TOL,
        },
    }
    seed = flags["seed"]
    # analyze records no probe flags and runs the probe at run_cq's defaults
    probe = {k: v for k, v in flags.items() if k.startswith("probe_")}

    def sosc_section():
        st = rep["stationarity"]
        if not st["holds"]:
            return {"skipped": "point is not stationary",
                    "sonc": None, "sosc": None, "predicted_modulus": None}
        ms = kkt.build_multiplier_set(pd, np.asarray(st["witness"]))
        return _sosc_dict(sosc.analyze(pd, ms, samples=flags["samples"], seed=seed))

    build = {
        "stationarity": lambda: _stationarity_dict(
            kkt.stationarity_check(pd, tol=flags["tol"])),
        "cq": lambda: _cq_dict(cq.run_cq(pd, seed=seed, **probe)),
        "sosc": sosc_section,
        "oracle": lambda: _qgc_dict(oracle.estimate_qg_modulus(
            p, radii=tuple(flags["radii"]), count=flags["samples"], seed=seed)),
        "tilt": lambda: _tilt_dict(oracle.tilt_probe(p, seed=seed)),
    }
    _run_stages(rep, clocks, [(name, build[name]) for name in stages])
    if timings:
        rep["timings_ms"] = clocks
    return rep


def _oracle_flags(seed: int, samples: int, radii) -> dict:
    """The checked flags of the growth oracle: seed, samples and radii."""
    radii = [float(r) for r in (oracle.DEFAULT_RADII if radii is None else radii)]
    _require_positive(samples=samples, radii=radii)
    return {"seed": seed, "samples": samples, "radii": radii}


def analyze_report(path: str, seed: int = 0, samples: int = 20000,
                   radii=None, tol: float = 1e-7, tilt: bool = False,
                   timings: bool = False) -> dict:
    """Full pipeline: evaluate, stationarity, multipliers, CQ, curvature, oracle."""
    _require_positive(tol=tol)
    flags = dict(_oracle_flags(seed, samples, radii), tol=tol, tilt=tilt)
    stages = ("stationarity", "cq", "sosc", "oracle") + (("tilt",) if tilt else ())
    return _conic_report(path, flags, stages, timings)


def cq_report(path: str, seed: int = 0, probe_samples: int = 128,
              probe_radius: float = 0.1) -> dict:
    """The cq stage of analyze alone, with the subregularity probe's flags."""
    _require_positive(probe_samples=probe_samples, probe_radius=probe_radius)
    flags = {"seed": seed, "probe_samples": probe_samples,
             "probe_radius": probe_radius}
    return _conic_report(path, flags, ("cq",))


def qgc_report(path: str, seed: int = 0, samples: int = 20000,
               radii=None) -> dict:
    """The oracle stage of analyze alone."""
    return _conic_report(path, _oracle_flags(seed, samples, radii), ("oracle",))


def _stationarity_dict(st: kkt.StationarityResult) -> dict:
    return _verdict(
        st.is_stationary,
        "a multiplier in the normal cone solves the first-order equation",
        "Exact (projected least squares)",
        residual=st.residual, witness=_vec(st.witness))


def _cq_dict(cqr: cq.CqReport) -> dict:
    return {
        "mfcq": _verdict(
            cqr.mfcq.holds,
            "strict descent direction for all active inequalities",
            cqr.mfcq.certification),
        "crcq": _verdict(
            cqr.crcq.holds,
            "constant rank of every active-gradient subset near the point",
            cqr.crcq.certification),
        "rcq": _verdict(
            cqr.rcq.holds,
            "normal cone meets the Jacobian kernel only at zero",
            cqr.rcq.certification),
        "mscq_probe": {
            "verdict": cqr.mscq.verdict,
            "condition": "metric subregularity assumed by the analysis; "
                         "sampling can only support or fail to support it",
            "certification": "Sampled",
            "ratio_bound": cqr.mscq.ratio_bound,
            "per_radius": list(cqr.mscq.per_radius),
            "samples": cqr.mscq.samples,
        },
        "notes": list(cqr.notes),
    }


def _qgc_dict(est: oracle.QgcEstimate) -> dict:
    return {
        "verdict": est.verdict,
        "condition": "empirical quadratic growth over feasible samples",
        "certification": "Sampled",
        "kappa_hat": est.kappa_hat,
        "radii": list(est.radii),
        "per_radius": list(est.per_radius),
        "sample_counts": list(est.sample_counts),
        "kept_counts": list(est.kept_counts),
        "seed": est.seed,
        "thresholds": {"hold_floor": oracle.HOLD_FLOOR,
                       "fail_floor": oracle.FAIL_FLOOR,
                       "trend_decay": oracle.TREND_DECAY},
    }


def _sosc_dict(sr: sosc.SoscReport) -> dict:
    return {
        "sonc": _verdict(
            sr.sonc_holds,
            "max of the multiplier curvature form is nonnegative "
            "on the critical cone",
            sr.certification),
        "sosc": _verdict(
            sr.sosc_holds,
            "max of the multiplier curvature form is positive "
            "on the critical cone",
            sr.certification),
        "predicted_modulus": sr.predicted_modulus,
        "worst_direction": _vec(sr.worst_direction),
        "certification": sr.certification,
        "empty_cone": sr.empty_cone,
        "inner_max_warning": sr.inner_max_warning,
        "samples": sr.sample_count,
        "seed": sr.seed,
        "note": "critical cone taken in linearized form; exact under "
                "the assumed metric subregularity",
    }


def _tilt_dict(tr: oracle.TiltReport) -> dict:
    return {
        "single_valued": tr.single_valued,
        "lipschitz_estimate": tr.lipschitz_estimate,
        "refined_ratio": tr.refined_ratio,
        "base_ratio": tr.base_ratio,
        "evidence_against_tilt_stability": tr.evidence_against,
        "condition": "tilted solution map single-valued and Lipschitz "
                     "near the point",
        "certification": "Sampled",
        "note": tr.note,
    }


# ----------------------------------------------------------------------
# univariate pipeline
# ----------------------------------------------------------------------

def pw1d_report(path: str, point: float = 0.0, radii=None,
                with_d2: bool = False, seed: int = 0,
                timings: bool = False) -> dict:
    if not math.isfinite(point):
        raise InputError(f"point must be finite, got {point!r}")
    _require_seed(seed)
    clocks: dict = {}
    with _stage(clocks, "load"):
        f = _load(pw1d.load, pw1d.Pw1dFormatError, path)
    if radii is None or radii == "auto":
        radii_t = f.radii
    else:
        radii_t = tuple(float(r) for r in radii)
        _require_positive(radii=radii_t)

    rep: dict = {
        "tool": {"name": "strongmin", "version": __version__},
        "function": {"name": f.name, "even": f.even,
                     "breakpoints": len(f.breakpoints)},
        "point": point,
        "flags": {"seed": seed, "radii": [float(r) for r in radii_t]},
        "failed_stage": None,
    }

    iv = f.prox_subdiff(point)
    rep["prox_subdifferential"] = {
        "at_point": None if iv is None else [iv[0], iv[1]],
        "nearby": _subdiff_summary(f, point),
    }
    stationary = iv is not None and iv[0] <= 1e-12 and iv[1] >= -1e-12
    rep["proximally_stationary"] = stationary

    not_stationary = {"skipped": "zero is not a proximal subgradient at the point"}

    def conditions():
        if not stationary:
            return not_stationary
        cond = pw1d.check_conditions(f, point)
        return {
            "pd_34": _verdict(cond.pd_lower_bound,
                              "every tangent slope pair satisfies "
                              "z.w >= c w^2 for some c > 0",
                              "Sampled (direction grid)"),
            "pd_36": _verdict(cond.pd_strict,
                              "every tangent slope pair satisfies z.w > 0",
                              "Sampled (direction grid)"),
            "second_kind": _verdict(cond.second_kind,
                                    "each tangent direction admits a slope "
                                    "with z.w bounded below",
                                    "Sampled (direction grid)",
                                    kappa=cond.second_kind_kappa),
            "min_ratio": cond.min_ratio,
            "accepted_pairs": [[w, z] for w, z in cond.accepted],
        }

    def qgc():
        est = pw1d.estimate_qgc_1d(f, point, radii=radii_t)
        return {
            "verdict": est.verdict,
            "condition": "empirical quadratic growth on a geometric grid",
            "certification": "Sampled",
            "kappa_hat": est.kappa_hat,
            "radii": list(est.radii),
            "per_radius": list(est.per_radius),
        }

    def second_subderivative():
        if not stationary:
            return not_stationary
        out = {}
        for w in (1.0, -1.0):
            r = pw1d.second_subderivative(f, point, 0.0, w)
            out[f"w={w:g}"] = {"value": r.value, "trend": r.trend}
        return out

    stages = [("conditions", conditions), ("qgc", qgc)]
    if with_d2:
        stages.append(("second_subderivative", second_subderivative))
    _run_stages(rep, clocks, stages)
    if timings:
        rep["timings_ms"] = clocks
    return rep


def _subdiff_summary(f: pw1d.Piecewise1D, point: float):
    near = sorted(f.breakpoints, key=lambda b: abs(b - point))[:_SUBDIFF_COUNT]
    out = []
    for b in sorted(near):
        iv = f.prox_subdiff(b)
        out.append({"x": b, "interval": None if iv is None else [iv[0], iv[1]]})
    return out
