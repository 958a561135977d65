"""Golden-file corpus runner.

Each corpus entry is a directory holding one input file (problem.prob or
function.pw) and an expected.json listing field expectations against the
analysis report.  Fields are dotted paths; supported checks are equals,
approx (with tol), range, ge and le.  Every expectation carries a
provenance tag: "analytic" (hand-derived closed form) or "oracle" (named
independent numerical oracle).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import List, Optional

from . import report as _report

__all__ = ["CorpusEntry", "CheckResult", "discover", "run_entry", "run_corpus",
           "default_root"]


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    path: str          # directory
    input_file: str
    kind: str          # "problem" | "pw1d"
    spec: dict


@dataclass(frozen=True)
class CheckResult:
    entry: str
    field: str
    expected: str
    actual: object
    passed: bool


def default_root() -> str:
    """Locate the corpus directory next to the repository sources."""
    here = os.path.dirname(os.path.abspath(__file__))
    for base in (os.getcwd(), os.path.join(here, "..", ".."),
                 os.path.join(here, "..", "..", "..")):
        cand = os.path.abspath(os.path.join(base, "corpus"))
        if os.path.isdir(cand):
            return cand
    raise FileNotFoundError("no corpus/ directory found")


def discover(root: Optional[str] = None) -> List[CorpusEntry]:
    root = root or default_root()
    entries = []
    for name in sorted(os.listdir(root)):
        d = os.path.join(root, name)
        if not os.path.isdir(d):
            continue
        expected = os.path.join(d, "expected.json")
        if not os.path.isfile(expected):
            continue
        with open(expected, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
        files = [f for f in os.listdir(d) if f.endswith((".prob", ".pw"))]
        if len(files) != 1:
            raise ValueError(f"{d}: expected exactly one input file")
        entries.append(CorpusEntry(name, d, os.path.join(d, files[0]),
                                   spec.get("kind", "problem"), spec))
    return entries


def _extract(report: dict, field: str):
    cur = report
    for part in field.split("."):
        if isinstance(cur, dict):
            cur = cur[part]
        elif isinstance(cur, (list, tuple)):
            cur = cur[int(part)]
        else:
            raise KeyError(field)
    return cur


def _check(exp: dict, actual) -> (bool, str):
    if "equals" in exp:
        return actual == exp["equals"], f"== {exp['equals']!r}"
    if "approx" in exp:
        tol = exp.get("tol", 1e-9)
        ok = actual is not None and abs(actual - exp["approx"]) <= tol
        return ok, f"~ {exp['approx']} +- {tol}"
    if "range" in exp:
        lo, hi = exp["range"]
        return actual is not None and lo <= actual <= hi, f"in [{lo}, {hi}]"
    if "ge" in exp:
        return actual is not None and actual >= exp["ge"], f">= {exp['ge']}"
    if "le" in exp:
        return actual is not None and actual <= exp["le"], f"<= {exp['le']}"
    raise ValueError(f"expectation without a check: {exp}")


def run_entry(entry: CorpusEntry) -> List[CheckResult]:
    spec = entry.spec
    if entry.kind == "problem":
        rep = _report.analyze_report(
            entry.input_file,
            seed=spec.get("seed", 0),
            samples=spec.get("samples", 20000),
            tilt=spec.get("tilt", False))
    else:
        rep = _report.pw1d_report(entry.input_file, point=spec.get("point", 0.0))
    results = []
    for exp in spec["expectations"]:
        field = exp["field"]
        try:
            actual = _extract(rep, field)
        except (KeyError, IndexError, TypeError):
            results.append(CheckResult(entry.name, field, "present", None, False))
            continue
        ok, desc = _check(exp, actual)
        results.append(CheckResult(entry.name, field, desc, actual, ok))
    return results


def run_corpus(root: Optional[str] = None):
    """Run every entry; returns (all_passed, results)."""
    results: List[CheckResult] = []
    for entry in discover(root):
        results.extend(run_entry(entry))
    return all(r.passed for r in results), results


def format_table(results: List[CheckResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.entry:8s} {r.field:40s} "
                     f"expected {r.expected}; got {r.actual!r}")
    return "\n".join(lines)
