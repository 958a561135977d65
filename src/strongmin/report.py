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

from . import __version__, cq, kkt, oracle, problem, pw1d, sosc

__all__ = ["analyze_report", "cq_report", "qgc_report", "pw1d_report",
           "dumps_report", "InputError"]


class InputError(Exception):
    """Bad input file or candidate point; maps to exit code 1."""


class _SkipConditions(Exception):
    """Internal: slope conditions need a proximally stationary base point."""


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
# conic pipeline
# ----------------------------------------------------------------------

@contextmanager
def _stage(clocks: dict, name: str):
    """Record the wall-clock milliseconds of the enclosed block as clocks[name]."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        clocks[name] = 1000.0 * (time.perf_counter() - t0)


def _evaluated(path: str, clocks: dict):
    """Load the problem and evaluate it at its point: (problem, PointData).

    Raises InputError for an unreadable file, a missing point or an
    infeasible point, so every conic subcommand refuses the same inputs.
    """
    with _stage(clocks, "load"):
        try:
            p = problem.load(path)
        except FileNotFoundError as err:
            raise InputError(f"cannot open {path!r}: {err}") from err
        except problem.ProblemFormatError as err:
            raise InputError(f"{path}: {err}") from err
    if p.point is None:
        raise InputError(f"{path}: analysis needs a 'point:' line")
    with _stage(clocks, "evaluate"):
        pd = problem.evaluate(p, p.point)
    if not pd.feasible:
        raise InputError(
            f"{path}: candidate point is infeasible "
            f"(residual {pd.max_residual:.3e} > {problem.FEASIBILITY_TOL:g})")
    return p, pd


def analyze_report(path: str, seed: int = 0, samples: int = 20000,
                   radii=None, tol: float = 1e-7, tilt: bool = False,
                   timings: bool = False) -> dict:
    """Full pipeline: evaluate, stationarity, multipliers, CQ, curvature, oracle."""
    clocks: dict = {}
    p, pd = _evaluated(path, clocks)
    radii = tuple(radii) if radii else oracle.DEFAULT_RADII

    rep: dict = {
        "tool": {"name": "strongmin", "version": __version__},
        "problem": {
            "digest": p.digest(),
            "variables": list(p.variables),
            "blocks": [{"cone": b.cone.kind, "dim": b.cone.m} for b in p.blocks],
            "point": _vec(p.point),
        },
        "flags": {"seed": seed, "samples": samples,
                  "radii": [float(r) for r in radii], "tol": tol, "tilt": tilt},
        "failed_stage": None,
        "feasibility": {
            "max_residual": pd.max_residual,
            "feasible": pd.feasible,
            "tolerance": problem.FEASIBILITY_TOL,
        },
    }

    try:
        with _stage(clocks, "stationarity"):
            st = kkt.stationarity_check(pd, tol=max(tol, 1e-12))
        rep["stationarity"] = _verdict(
            st.is_stationary,
            "a multiplier in the normal cone solves the first-order equation",
            "Exact (projected least squares)",
            residual=st.residual, witness=_vec(st.witness))
    except Exception as err:  # pragma: no cover - defensive
        rep["failed_stage"] = f"stationarity: {err}"
        return rep

    try:
        with _stage(clocks, "cq"):
            cqr = cq.run_cq(pd, seed=seed)
        rep["cq"] = _cq_dict(cqr, pd)
    except Exception as err:
        rep["failed_stage"] = f"cq: {err}"
        return rep

    if st.is_stationary:
        try:
            with _stage(clocks, "sosc"):
                ms = kkt.build_multiplier_set(pd, st.witness)
                sr = sosc.analyze(pd, ms, samples=samples, seed=seed)
            rep["sosc"] = {
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
        except Exception as err:
            rep["failed_stage"] = f"sosc: {err}"
            return rep
    else:
        rep["sosc"] = {
            "skipped": "point is not stationary",
            "sonc": None, "sosc": None, "predicted_modulus": None,
        }

    try:
        with _stage(clocks, "oracle"):
            est = oracle.estimate_qg_modulus(p, radii=radii, count=samples,
                                             seed=seed)
        rep["oracle"] = _qgc_dict(est)
    except Exception as err:
        rep["failed_stage"] = f"oracle: {err}"
        return rep

    if tilt:
        try:
            with _stage(clocks, "tilt"):
                tr = oracle.tilt_probe(p, seed=seed)
            rep["tilt"] = {
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
        except Exception as err:
            rep["failed_stage"] = f"tilt: {err}"
            return rep

    if timings:
        rep["timings_ms"] = clocks
    return rep


def _cq_dict(cqr: cq.CqReport, pd: problem.PointData) -> dict:
    return {
        "mfcq": _verdict(
            cqr.mfcq,
            "strict descent direction for all active inequalities",
            "Exact (LP)" if cqr.mfcq is not None else "NotApplicable"),
        "crcq": _verdict(
            cqr.crcq,
            "constant rank of every active-gradient subset near the point",
            "Sampled (ball)" if cqr.crcq is not None else "NotApplicable"),
        "rcq": _verdict(
            cqr.rcq,
            "normal cone meets the Jacobian kernel only at zero",
            "Exact (LP)" if all(b.cone.kind == "orthant" for b in pd.blocks)
            else "Sampled (kernel sphere grid)"),
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


def cq_report(path: str, seed: int = 0, probe_samples: int = 128,
              probe_radius: float = 0.1) -> dict:
    p, pd = _evaluated(path, {})
    cqr = cq.run_cq(pd, probe_radius=probe_radius, probe_samples=probe_samples,
                    seed=seed)
    return {
        "tool": {"name": "strongmin", "version": __version__},
        "problem": {"digest": p.digest()},
        "flags": {"seed": seed, "probe_samples": probe_samples,
                  "probe_radius": probe_radius},
        "cq": _cq_dict(cqr, pd),
    }


def qgc_report(path: str, seed: int = 0, samples: int = 20000,
               radii=None) -> dict:
    p, _ = _evaluated(path, {})
    radii = tuple(radii) if radii else oracle.DEFAULT_RADII
    est = oracle.estimate_qg_modulus(p, radii=radii, count=samples, seed=seed)
    return {
        "tool": {"name": "strongmin", "version": __version__},
        "problem": {"digest": p.digest()},
        "oracle": _qgc_dict(est),
    }


# ----------------------------------------------------------------------
# univariate pipeline
# ----------------------------------------------------------------------

def pw1d_report(path: str, point: float = 0.0, radii=None,
                with_d2: bool = False, seed: int = 0) -> dict:
    try:
        f = pw1d.load(path)
    except FileNotFoundError as err:
        raise InputError(f"cannot open {path!r}: {err}") from err
    except pw1d.Pw1dFormatError as err:
        raise InputError(f"{path}: {err}") from err

    if radii is None or radii == "auto":
        radii_t = f.suggested_radii()
    else:
        radii_t = tuple(float(r) for r in radii)

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

    try:
        if not stationary:
            raise _SkipConditions
        cond = pw1d.check_conditions(f, point)
        rep["conditions"] = {
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
    except _SkipConditions:
        rep["conditions"] = {
            "skipped": "zero is not a proximal subgradient at the point"}
    except Exception as err:
        rep["failed_stage"] = f"conditions: {err}"
        return rep

    try:
        est = pw1d.estimate_qgc_1d(f, point, radii=radii_t)
        rep["qgc"] = {
            "verdict": est.verdict,
            "condition": "empirical quadratic growth on a geometric grid",
            "certification": "Sampled",
            "kappa_hat": est.kappa_hat,
            "radii": list(est.radii),
            "per_radius": list(est.per_radius),
        }
    except Exception as err:
        rep["failed_stage"] = f"qgc: {err}"
        return rep

    if with_d2:
        out = {}
        for w in (1.0, -1.0):
            r = pw1d.second_subderivative(f, point, 0.0, w)
            out[f"w={w:g}"] = {"value": r.value, "trend": r.trend}
        rep["second_subderivative"] = out
    return rep


def _subdiff_summary(f: pw1d.Piecewise1D, point: float, count: int = 6):
    near = sorted(f.breakpoints, key=lambda b: abs(b - point))[:count]
    out = []
    for b in sorted(near):
        iv = f.prox_subdiff(b)
        out.append({"x": b, "interval": None if iv is None else [iv[0], iv[1]]})
    return out
