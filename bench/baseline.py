"""Record a BENCH_<n>.json: every workload on several seeds, plus one traced run.

    python3 bench/baseline.py --out bench/BENCH_0.json --seeds 1-10

Runs bench/run.py once per (workload, seed) with tracing off, one after
another, then once per workload with tracing on (first seed), all at the
run_seconds of BENCHMARK.json.  The file holds each run's result object as
run.py prints it, with its seed and the human-readable lines, and per
metric the median and the spread: the distance between the first and third
quartile as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result.update(seed=seed, trace=trace, lines=lines[:-1])
    return result


def summarize(runs):
    values = {}
    for r in runs:
        for name, m in r["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    out = {}
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
        out[name] = {"median": med, "spread": (q3 - q1) / med if med else None}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--workloads", default=None, help="comma list; default: those in BENCHMARK.json")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        contract = json.load(fh)
    seconds = contract["run_seconds"]
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in contract["workloads"]])
    seeds = _seeds(args.seeds)
    doc = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    for name in names:
        runs = []
        for seed in seeds:
            runs.append(run_once(name, seed, seconds, 0))
            print(name, seed, json.dumps(runs[-1]["metrics"]), flush=True)
        traced = run_once(name, seeds[0], seconds, 1)
        doc["workloads"][name] = {
            "summary": summarize(runs),
            "correct_runs": sum(r["correct"] for r in runs),
            "runs": runs,
            "traced": traced,
        }
        print(name, json.dumps(doc["workloads"][name]["summary"]), flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
