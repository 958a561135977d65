"""Smoke-size tests of the benchmark itself:  python3 -m pytest bench -q"""

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

run._import_program()
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    CONTRACT = json.load(_fh)
CORPUS = os.path.join(run.ROOT, "corpus")

# Names bound by "from .x import y" outside the defining module: wrapping
# only the definition would leave calls through these untimed.
REBOUND = (
    ("oracle", "push_to_feasible"), ("cq", "push_to_feasible"),
    ("oracle", "minimize_tilted"),
    ("kkt", "solve_lp"), ("cq", "solve_lp"),
    ("sosc", "maximize_linear"), ("sosc", "enumerate_polyhedron"),
    ("_descent", "batch_constraint_grads"), ("_descent", "batch_constraint_values"),
    ("sosc", "sphere"), ("cq", "ball"), ("cq", "sphere"),
    ("oracle", "ball"), ("oracle", "sphere"),
)


def _smoke(name, workdir, corpus_root=CORPUS):
    if name == "corpus-analyze":
        return workloads.CorpusAnalyze(corpus_root, names=["quad3"])
    if name == "licq-sweep":
        return workloads.LicqSweep(3, str(workdir), shapes=[(2, 1)], per_shape=1)
    return workloads.Pw1dLab(corpus_root, 3, str(workdir), names=["sq"], staircases=1)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(name, trace, tmp_path, capsys):
    result = run.run(name, 3, 0.01, trace, workload=_smoke(name, tmp_path))
    wanted = {m["name"]: m["unit"] for m in CONTRACT["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == wanted
    printed = {}
    for line in capsys.readouterr().out.splitlines():
        parts = line.split()
        if len(parts) >= 3:
            printed[parts[0]] = parts[2]
    wanted["failed_frac"] = "ratio"
    if not trace:
        wanted["report_tail_s"] = "s"
    assert {k: printed.get(k) for k in wanted} == wanted
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_wrong_expectation_counts_as_failed(tmp_path, capsys):
    root = tmp_path / "corpus"
    shutil.copytree(os.path.join(CORPUS, "quad3"), root / "quad3")
    spec = json.loads((root / "quad3" / "expected.json").read_text())
    for exp in spec["expectations"]:
        if exp["field"] == "sosc.predicted_modulus":
            exp["approx"] = 5.0
    (root / "quad3" / "expected.json").write_text(json.dumps(spec))
    result = run.run("corpus-analyze", 0, 0.01, False,
                     workload=_smoke("corpus-analyze", tmp_path, str(root)))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    out = capsys.readouterr().out
    assert "FAILED quad3: sosc.predicted_modulus expected ~ 5.0" in out
    assert "failed_frac 1.0 ratio" in out


def test_binding_sites_are_wrapped_while_installed():
    mods = {m: sys.modules["strongmin." + m] for m, _ in REBOUND}
    before = {(m, a): getattr(mods[m], a) for m, a in REBOUND}
    tracer = tracing.Tracer()
    with tracer.installed():
        for (m, a), original in before.items():
            wrapper = getattr(mods[m], a)
            assert wrapper is not original and wrapper.__wrapped__ is original, (m, a)
            defining = sys.modules[original.__module__]
            assert getattr(defining, original.__name__) is wrapper, (m, a)
    for (m, a), original in before.items():
        assert getattr(mods[m], a) is original


def test_pw1d_lab_never_calls_the_conic_layers(tmp_path):
    result = run.run("pw1d-lab", 3, 0.01, True, workload=_smoke("pw1d-lab", tmp_path))
    metrics = result["metrics"]
    for name, m in metrics.items():
        if name.split(".")[0] in ("expr", "sosc", "kkt", "cq", "_descent"):
            assert m["value"] == 0, name
    assert metrics["pw1d.check_conditions.self_s"]["value"] > 0


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.spans = [(1, "b", 1.0, 3.0, 0, None, None),
                    (2, "c", 3.5, 4.0, 0, None, None),
                    (0, "report.analyze_report", 0.0, 5.0, -1, None, None)]
    agg, covered = tracer.summary()
    assert agg["report.analyze_report"]["self_s"] == pytest.approx(2.5)
    assert agg["b"]["self_s"] == pytest.approx(2.0)
    assert covered == pytest.approx(2.5)


def test_tail_keeps_ten_reports_beyond_it():
    value, label = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and label.endswith("of 100 reports")
    assert run.tail([3.0, 1.0])[0] == 3.0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pw1d-lab", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
