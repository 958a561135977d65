"""strongmin benchmark runner.

    python3 bench/run.py --workload corpus-analyze --seed 0 --seconds 45 --trace 0

Runs one workload in this process through the public report API
(``analyze_report``/``pw1d_report`` plus ``dumps_report``), pass after
pass, until the next pass would end after ``--seconds``; at least one pass
always runs.  Every report is checked (see workloads.py) and must have the
same bytes on every pass.  With ``--trace 0`` the end-to-end metrics are
printed; with ``--trace 1`` each pass runs untraced and then traced on the
same inputs, and the per-layer metrics come from the traced passes.  The
last line of stdout is one JSON object; the lines before it are for people.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: one process with one BLAS thread makes all load.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("corpus-analyze", "licq-sweep", "pw1d-lab")
SETUP_REPEATS = 9

# Printed for people but left out of the result object, so BENCHMARK.json
# does not bound it: a corpus-analyze run holds six reports, so its tail is
# one report's time, whose ten-seed spread on a shared 2-CPU host reached
# 0.23, at the 0.25 cap on any bound.
PRINTED_ONLY = ("report_tail_s",)

# What a CLI call pays before its first report: a fresh interpreter that
# imports the CLI and parses every input file of the workload.
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import strongmin.cli
from strongmin import problem, pw1d
for path in sys.argv[2:]:
    (pw1d.load if path.endswith(".pw") else problem.load)(path)
"""


def _import_program():
    """Import strongmin from this checkout's src/, or exit 1 without a result."""
    if not os.path.isfile(os.path.join(SRC, "strongmin", "__init__.py")):
        sys.exit(f"bench: no strongmin sources under {SRC}")
    sys.path.insert(0, SRC)
    import strongmin
    if not os.path.abspath(strongmin.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: imported strongmin from {strongmin.__file__}, not {SRC}")


@dataclass
class Tally:
    """Everything measured over the passes of one run."""
    pass_s: List[float] = field(default_factory=list)
    report_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: Dict[str, str] = field(default_factory=dict)   # input -> first reason
    digests: Dict[str, str] = field(default_factory=dict)    # input -> sha256
    oracle_sampled: int = 0
    oracle_kept: int = 0

    def record(self, inp, seconds, rep, text, wrong):
        self.attempted += 1
        self.report_s.append(seconds)
        if rep is not None:
            if rep.get("failed_stage") is not None:
                wrong.append(f"failed_stage: {rep['failed_stage']}")
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            if self.digests.setdefault(inp.name, digest) != digest:
                wrong.append("report bytes differ from an earlier pass")
            if "oracle" in rep:
                self.oracle_sampled += sum(rep["oracle"]["sample_counts"])
                self.oracle_kept += sum(rep["oracle"]["kept_counts"])
        if wrong:
            self.failed += 1
            self.failures.setdefault(inp.name, "; ".join(wrong))


def run_pass(workload, index: int, tally: Tally, tracer=None) -> None:
    from strongmin import report
    entry = {"problem": "analyze_report", "pw1d": "pw1d_report"}
    inputs = workload.inputs(index)
    t_pass = time.perf_counter()
    for n, inp in enumerate(inputs):
        if tracer is not None:
            tracer.report_id = (index, n)
        t0 = time.perf_counter()
        try:
            # looked up per call so that tracer wrappers are the ones called
            rep = getattr(report, entry[inp.kind])(inp.path, **inp.flags)
            text = report.dumps_report(rep)
        except Exception as err:  # a failing report is counted, not fatal
            seconds = time.perf_counter() - t0
            tally.record(inp, seconds, None, None,
                         [f"raised {type(err).__name__}: {err}"])
            continue
        seconds = time.perf_counter() - t0
        try:
            wrong = inp.check(rep)
        except (KeyError, IndexError, TypeError) as err:  # a section is missing
            wrong = [f"check could not read the report: {err!r}"]
        tally.record(inp, seconds, rep, text, wrong)
    tally.pass_s.append(time.perf_counter() - t_pass)


def measure_setup(files: List[str]) -> float:
    """Median wall seconds of SETUP_REPEATS fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # no timeout: with one, subprocess polls the child in steps of up to
        # 50 ms, which would quantize a 0.3 s measurement
        subprocess.run([sys.executable, "-c", SETUP_CODE, SRC, *files], check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def tail(values: List[float]):
    """Highest percentile with at least ten values beyond it, and its label.

    With fewer than eleven values no percentile qualifies; the maximum is
    reported and labelled as such.
    """
    v = sorted(values)
    if len(v) < 11:
        return v[-1], f"max of {len(v)} reports, fewer than 11"
    i = len(v) - 11
    return v[i], f"p{100.0 * i / (len(v) - 1):.1f} of {len(v)} reports"


def make_workload(name: str, seed: int, workdir: str):
    from workloads import CorpusAnalyze, LicqSweep, Pw1dLab
    corpus_root = os.path.join(ROOT, "corpus")
    if name == "corpus-analyze":
        return CorpusAnalyze(corpus_root)
    if name == "licq-sweep":
        return LicqSweep(seed, workdir)
    return Pw1dLab(corpus_root, seed, workdir)


def run_untraced(workload, seconds: float) -> Tally:
    tally = Tally()
    start = time.perf_counter()
    index = 0
    while True:
        run_pass(workload, index, tally)
        index += 1
        if time.perf_counter() - start + statistics.median(tally.pass_s) > seconds:
            return tally


def run_traced(workload, seconds: float):
    """Untraced then traced pass on the same inputs, repeated; (plain, traced, tracer)."""
    from tracing import Tracer
    plain, tracer = Tally(), Tracer()
    # shared digests: a traced report must have its untraced report's bytes
    traced = Tally(digests=plain.digests)
    start = time.perf_counter()
    index = 0
    while True:
        run_pass(workload, index, plain)
        with tracer.installed():
            run_pass(workload, index, traced, tracer)
        index += 1
        pair = plain.pass_s[-1] + traced.pass_s[-1]
        if time.perf_counter() - start + pair > seconds:
            return plain, traced, tracer


def end_to_end(tally: Tally, setup_s: float):
    tail_s, tail_label = tail(tally.report_s)
    pass_s = statistics.median(tally.pass_s)
    spread = ""
    if len(tally.pass_s) > 1:
        q1, _, q3 = statistics.quantiles(tally.pass_s, n=4)
        spread = f", quartile spread {(q3 - q1) / pass_s:.4f} of the median"
    metrics = {
        "pass_s": (pass_s, "s"),
        "report_p50_s": (statistics.median(tally.report_s), "s"),
        "report_tail_s": (tail_s, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "pass_s": f"median of {len(tally.pass_s)} passes{spread}: "
                  + ", ".join(f"{v:.4f}" for v in tally.pass_s),
        "report_p50_s": f"median of {len(tally.report_s)} reports",
        "report_tail_s": tail_label,
        "setup_s": f"median of {SETUP_REPEATS} fresh interpreters",
        "peak_rss_mb": "ru_maxrss of the report process",
    }
    return metrics, notes


def per_layer(plain: Tally, traced: Tally, tracer) -> dict:
    metrics = tracer.layer_metrics(len(traced.pass_s), sum(traced.report_s))
    metrics["oracle.kept_frac"] = (
        traced.oracle_kept / traced.oracle_sampled if traced.oracle_sampled else 0.0,
        "ratio")
    metrics["trace.overhead_frac"] = (sum(traced.pass_s) / sum(plain.pass_s) - 1.0,
                                      "ratio")
    return metrics


def provenance() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "strongmin"))):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                with open(os.path.join(base, f), "rb") as fh:
                    src.update(f.encode() + b"\0" + fh.read())
    git_rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        git_rev = out.stdout.strip() or None
    return {
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_rev": git_rev,
        "src_sha256": src.hexdigest(),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        workload=None) -> dict:
    """One benchmark run; returns the result object and prints the report lines.

    ``workload`` replaces the named workload's inputs (the benchmark's
    tests pass smoke-sized ones).
    """
    _import_program()
    workdir = os.path.join(BENCH_DIR, "_work", f"{workload_name}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if workload is None:
            workload = make_workload(workload_name, seed, workdir)
        print(f"workload {workload_name} seed {seed} seconds {seconds} trace {int(trace)}")
        if trace:
            plain, traced, tracer = run_traced(workload, seconds)
            metrics, notes = per_layer(plain, traced, tracer), {}
            tallies = (plain, traced)
            spans = os.path.join(BENCH_DIR, "_spans", f"{workload_name}-seed{seed}.jsonl")
            os.makedirs(os.path.dirname(spans), exist_ok=True)
            tracer.write(spans)
            print(f"spans {os.path.relpath(spans, ROOT)}")
        else:
            setup_s = measure_setup([i.path for i in workload.inputs(0)])
            tallies = (run_untraced(workload, seconds),)
            metrics, notes = end_to_end(tallies[0], setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}" + (f" ({notes[name]})" if name in notes else ""))
    print(f"failed_frac {failed / attempted!r} ratio ({failed} of {attempted} reports)")
    for t in tallies:
        for name, reason in t.failures.items():
            print(f"FAILED {name}: {reason}")
    print("provenance " + json.dumps(provenance(), sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                    if k not in PRINTED_ONLY},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
