import os

from conftest import CORPUS
from strongmin import corpus, report


# the oracle's kept counts per radius before Gauss-Newton placed the ball
# samples; no count may fall below them (20000 for the entries not listed)
_KEPT_FLOOR = {"ex44": [13090, 19999, 19995], "ex46": [19996, 19968, 19999],
               "ex47": [19998, 19993, 19972]}


def test_corpus_passes_at_seed_zero(monkeypatch):
    kept = {}
    analyze = report.analyze_report

    def recording(path, **kwargs):
        rep = analyze(path, **kwargs)
        kept[os.path.basename(os.path.dirname(path))] = rep["oracle"]["kept_counts"]
        return rep

    monkeypatch.setattr(report, "analyze_report", recording)
    ok, results = corpus.run_corpus(CORPUS)
    table = corpus.format_table(results)
    print()
    print(table)
    failing = [r for r in results if not r.passed]
    assert ok, f"{len(failing)} corpus expectations failed:\n" + table
    problems = {e.name for e in corpus.discover(CORPUS) if e.kind == "problem"}
    assert set(kept) == problems
    for name, counts in kept.items():
        floor = _KEPT_FLOOR.get(name, [20000] * 3)
        assert all(k >= f for k, f in zip(counts, floor)), (name, counts)


def test_discovery_finds_all_entries():
    entries = corpus.discover(CORPUS)
    names = {e.name for e in entries}
    assert {"ex31", "ex33", "ex44", "ex46", "ex47",
            "licq", "quad3", "socb", "sq"} <= names
    for e in entries:
        assert e.kind in ("problem", "pw1d")
        for exp in e.spec["expectations"]:
            assert exp.get("provenance") in ("analytic", "oracle")
            if exp["provenance"] == "oracle":
                assert "oracle" in exp  # names its oracle


def test_sonc_necessary_on_verified_minima():
    # wherever the growth oracle certifies a strong minimum, the
    # second-order necessary condition must hold
    for entry in corpus.discover(CORPUS):
        if entry.kind != "problem":
            continue
        rep = report.analyze_report(entry.input_file, samples=4000)
        if rep["oracle"]["verdict"] == "Holds" and rep["oracle"]["kappa_hat"] >= 1e-2:
            assert rep["sosc"]["sonc"]["holds"], entry.name
