import importlib
import json
import os
import subprocess
import sys
import warnings

import pytest

from conftest import (HUGE_GRADIENT, HUGE_ROW, MIXED_SOC_AND_ORTHANT, REPO, SOC_SLICE_ZERO_CONE,
                      THIRTEEN_ROWS, corpus_path)
from strongmin import cli, problem, report, sosc


def run_cli(args):
    return cli.main(args)


# (subcommand, file name, file bytes) of inputs that must exit 1; bytes None
# makes the path a directory
MALFORMED = [
    ("pw1d", "bp.pw", b"pw1d\nbreakpoints: a\npiece 0: 0 0 1\npiece 1: 0 0 1\n"),
    ("pw1d", "coef.pw", b"pw1d\nbreakpoints: 0\npiece 0: 0 x 1\npiece 1: 0 0 1\n"),
    ("pw1d", "nanbp.pw", b"pw1d\nbreakpoints: nan\npiece 0: 0 0 1\npiece 1: 0 0 1\n"),
    ("pw1d", "index.pw", b"pw1d\nbreakpoints: 0\npiece x: 0 0 1\npiece 1: 0 0 1\n"),
    ("pw1d", "gen_ab.pw", b"pw1d\ngenerator: binary-staircase a b\n"),
    ("pw1d", "gen_11.pw", b"pw1d\ngenerator: binary-staircase 1 1\n"),
    # a slope this close to 1 rounds flats to zero width
    ("pw1d", "gen_flat.pw",
     b"pw1d\ngenerator: binary-staircase 1.5 1.0000000000000002\n"),
    ("pw1d", "even.pw", b"pw1d\nbreakpoints: 1\npiece 0: 0 0 1\npiece 1: 0 0 1\n"
                        b"even: ture\n"),
    ("pw1d", "gen_tail.pw", b"pw1d\ngenerator: example33\npiece 0: 0 0 1\n"),
    ("pw1d", "bp_twice.pw", b"pw1d\nbreakpoints: 0\nbreakpoints: 0 1\n"
                            b"piece 0: 0 0 1\npiece 1: 0 0 1\npiece 2: 0 0 1\n"),
    ("pw1d", "gen_arg.pw", b"pw1d\ngenerator: example31 7\n"),
    ("pw1d", "dir.pw", None),
    ("analyze", "dir.prob", None),
    ("pw1d", "latin1.pw", b"pw1d\nbreakpoints: 0\xff\n"),
    ("analyze", "latin1.prob", b"vars: x1\nobjective: x1^2\npoint: \xff\n"),
    ("analyze", "nan.prob", b"vars: x1\nobjective: x1^2\npoint: nan\n"),
    ("qgc", "inf.prob", b"vars: x1\nobjective: x1^2\npoint: inf\n"),
    ("analyze", "log0.prob", b"vars: x1\nobjective: log(x1)\npoint: 0\n"),
    ("cq", "log0.prob", b"vars: x1\nobjective: x1\n"
                        b"block orthant 1:\n  row: log(x1)\npoint: 0\n"),
    # a number is ASCII digits: "²" is no literal, in a term or an exponent
    ("analyze", "sup_term.prob", "vars: x1\nobjective: x1^2 + ²\npoint: 0\n".encode()),
    ("analyze", "sup_exp.prob", "vars: x1\nobjective: x1^²\npoint: 0\n".encode()),
    # a variable name is one identifier; each of these was read as a variable
    ("analyze", "var_num.prob", b"vars: x1 2\nobjective: 2*x1^2\npoint: 0 0\n"),
    ("analyze", "var_comma.prob", b"vars: x1 x1,y\nobjective: x1^2\npoint: 0 0\n"),
    # a block header is 'block <kind> <ASCII digits>:'; each of these was read
    # as a block of the rows that follow
    ("analyze", "hd_colon.prob", b"vars: x1\nobjective: x1^2\n"
                                 b"block orthant 1\n  row: -1\npoint: 0\n"),
    ("analyze", "hd_colons.prob", b"vars: x1\nobjective: x1^2\n"
                                  b"block orthant 1::\n  row: -1\npoint: 0\n"),
    ("analyze", "hd_plus.prob", b"vars: x1\nobjective: x1^2\n"
                                b"block orthant +1:\n  row: -1\npoint: 0\n"),
    ("analyze", "hd_under.prob", b"vars: x1\nobjective: x1^2\nblock orthant 1_0:\n"
                                 + b"  row: -1\n" * 10 + b"point: 0\n"),
    ("analyze", "hd_digit.prob", "vars: x1\nobjective: x1^2\n"
                                 "block orthant ١:\n  row: -1\npoint: 0\n".encode()),
    # so is a number field outside expressions; each of these was read as
    # 10, 3 or 0
    ("analyze", "pt_under.prob", b"vars: x1\nobjective: x1^2\npoint: 1_0\n"),
    ("analyze", "pt_digit.prob", "vars: x1\nobjective: x1^2\npoint: ٣\n".encode()),
    ("pw1d", "bp_under.pw", b"pw1d\nbreakpoints: 1_0\npiece 0: 0 0 1\npiece 1: 0 0 1\n"),
    ("pw1d", "coef_digit.pw", "pw1d\nbreakpoints: 0\npiece 0: 0 0 ٣\n"
                              "piece 1: 0 0 1\n".encode()),
    ("pw1d", "index_digit.pw", "pw1d\nbreakpoints: 0\npiece ٠: 0 0 1\n"
                               "piece 1: 0 0 1\n".encode()),
    ("pw1d", "gen_under.pw", b"pw1d\ngenerator: binary-staircase 2_0 2\n"),
]


class TestExitCodes:
    def test_missing_file_is_input_error(self, capsys):
        assert run_cli(["analyze", "missing.prob"]) == 1
        assert "error" in capsys.readouterr().err

    def test_file_argument_is_never_parsed_as_text(self, capsys):
        # a path that holds a newline names a file like any other path
        text = "vars: x\nobjective: x^2\npoint: 0"
        assert run_cli(["qgc", text, "--samples", "100"]) == 1
        out = capsys.readouterr()
        assert out.out == "" and "cannot read" in out.err
        assert run_cli(["pw1d", "pw1d\nbreakpoints: 0\nmissing.pw"]) == 1
        out = capsys.readouterr()
        assert out.out == "" and "cannot read" in out.err

    def test_malformed_file_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.prob"
        bad.write_text("vars: x1\nobjective: x1 +\npoint: 0\n")
        assert run_cli(["analyze", str(bad)]) == 1

    @pytest.mark.parametrize("command", ["analyze", "cq", "qgc"])
    def test_missing_point_is_input_error(self, command, tmp_path, capsys):
        p = tmp_path / "nopoint.prob"
        p.write_text("vars: x1\nobjective: x1^2\n")
        assert run_cli([command, str(p)]) == 1
        out = capsys.readouterr()
        assert "needs a 'point:' line" in out.err
        assert out.out == ""

    @pytest.mark.parametrize("command", ["analyze", "cq", "qgc"])
    def test_infeasible_point_is_input_error(self, command, tmp_path, capsys):
        p = tmp_path / "infeas.prob"
        p.write_text("vars: x1\nobjective: x1\n"
                     "block orthant 1:\n  row: x1\npoint: 1\n")
        assert run_cli([command, str(p)]) == 1
        out = capsys.readouterr()
        assert "candidate point is infeasible" in out.err
        assert out.out == ""

    @pytest.mark.parametrize("command", ["analyze", "cq", "qgc"])
    def test_unprojectable_point_is_input_error(self, command, tmp_path, capsys):
        """x1 = 1.34e154 squares to inf in the soc norm: the residual is
        NaN, and the point is refused rather than reported feasible."""
        p = tmp_path / "huge.prob"
        p.write_text("vars: x1\nobjective: 0.0\n"
                     "block soc 2:\n  row: 0.0\n  row: x1^1\n"
                     "point: 1.3407807929942597e+154\n")
        assert run_cli([command, str(p)]) == 1
        out = capsys.readouterr()
        assert "cone residual is not finite" in out.err
        assert out.out == ""

    @pytest.mark.parametrize("command", ["analyze", "cq", "qgc"])
    def test_out_of_range_gradient_is_input_error(self, command, tmp_path, capsys):
        """An objective gradient of 1.3e176 at a soc vertex: the multipliers'
        squares overflow in the multiplier set and the second-order stages,
        so the point is refused with one message and no warning."""
        p = tmp_path / "grad.prob"
        p.write_text(HUGE_GRADIENT)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli([command, str(p)]) == 1
        out = capsys.readouterr()
        assert out.err == (f"error: {p}: cannot evaluate at the candidate point: the "
                           "objective's gradient is out of range: its squared norm "
                           "overflows\n")
        assert out.out == ""

    @pytest.mark.parametrize("command, name, content", MALFORMED,
                             ids=[f"{c}-{n}" for c, n, _ in MALFORMED])
    def test_malformed_input_is_input_error(self, command, name, content,
                                            tmp_path, capsys):
        path = tmp_path / name
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        assert run_cli([command, str(path)]) == 1
        out = capsys.readouterr()
        assert out.err.startswith("error: ") and out.out == ""

    def test_completed_analysis_is_zero_even_when_not_stationary(self, tmp_path,
                                                                 capsys):
        p = tmp_path / "nonstat.prob"
        p.write_text("vars: x1\nobjective: x1^2\npoint: 1\n")
        code = run_cli(["analyze", str(p), "--samples", "500"])
        out = capsys.readouterr().out
        assert code == 0
        rep = json.loads(out)
        assert rep["stationarity"]["holds"] is False
        assert rep["sosc"]["skipped"] == "point is not stationary"

    def test_zero_cone_kept_by_a_soc_block_completes(self, tmp_path, capsys):
        # the polyhedral relaxation keeps a ray, so only the presolve's
        # per-block test, not its LPs, shows this cone to be {0}
        p = tmp_path / "slice.prob"
        p.write_text(SOC_SLICE_ZERO_CONE)
        code = run_cli(["analyze", str(p), "--samples", "500"])
        rep = json.loads(capsys.readouterr().out)
        assert code == 0 and rep["failed_stage"] is None
        assert rep["sosc"]["empty_cone"] is True
        assert rep["sosc"]["certification"] == "Exact"
        assert rep["sosc"]["sonc"]["holds"] and rep["sosc"]["sosc"]["holds"]


    def test_too_many_active_rows_complete(self, tmp_path, capsys):
        # CRCQ is not applicable past its subset cap; sosc and oracle still run
        p = tmp_path / "rows13.prob"
        p.write_text(THIRTEEN_ROWS)
        code = run_cli(["analyze", str(p), "--samples", "500"])
        rep = json.loads(capsys.readouterr().out)
        assert code == 0 and rep["failed_stage"] is None
        assert rep["cq"]["crcq"]["holds"] is None
        assert "capped at 12" in rep["cq"]["crcq"]["certification"]
        assert abs(rep["sosc"]["predicted_modulus"] - 0.98) <= 1e-9
        assert rep["oracle"]["verdict"] == "Holds"

    def test_huge_row_completes(self, tmp_path, capsys):
        # the ADMM operator is built from unit rows, so it does not overflow
        p = tmp_path / "huge_row.prob"
        p.write_text(HUGE_ROW)
        code = run_cli(["analyze", str(p), "--samples", "500"])
        rep = json.loads(capsys.readouterr().out)
        assert code == 0 and rep["failed_stage"] is None
        assert rep["cq"]["mfcq"]["holds"] is True
        assert rep["sosc"]["sonc"]["holds"] is True

    @pytest.mark.parametrize("argv", [["analyze", "--tilt"], ["cq"], ["qgc"]])
    def test_long_sum_completes(self, argv, tmp_path, capsys):
        # a 3000-term objective and row, each a sum 3000 levels deep: no
        # stage recurses on a tree
        terms = " + ".join(["x1^2", "x2^2"] * 1500)
        p = tmp_path / "long.prob"
        p.write_text(f"vars: x1 x2\nobjective: {terms}\n"
                     f"block orthant 1:\n  row: -({terms})\npoint: 0 0\n")
        assert run_cli(argv + [str(p), "--samples", "200"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["failed_stage"] is None and rep["feasibility"]["feasible"] is True

    def test_over_nested_expression_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "nested.prob"
        p.write_text("vars: x1\nobjective: " + "(" * 300 + "x1^2" + ")" * 300
                     + "\npoint: 0\n")
        assert run_cli(["analyze", str(p), "--samples", "500"]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1
        assert out.err.startswith(f"error: {p}: line 2: objective: expression nested too deeply")


class TestReports:
    def test_report_to_file(self, tmp_path):
        out = tmp_path / "rep.json"
        code = run_cli(["qgc", corpus_path("licq", "problem.prob"),
                        "--samples", "500", "--report", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["oracle"]["verdict"] == "Holds"

    def test_byte_identical_reports(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code = run_cli(["analyze", corpus_path("quad3", "problem.prob"),
                            "--samples", "1000", "--seed", "3",
                            "--report", str(path)])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    # socb takes the Exact path, ex44 the sampled path with cutting-plane
    # inner maxima, and the mixed problem the sampled path with ADMM
    # projections and the batched active-set polish
    @pytest.mark.parametrize("name", ["socb", "ex44", "mixed_soc_and_orthant"])
    def test_bytes_do_not_depend_on_blas_threads(self, name, tmp_path):
        if name == "mixed_soc_and_orthant":
            path = tmp_path / "mixed.prob"
            path.write_text(MIXED_SOC_AND_ORTHANT)
            p = problem.load(str(path))
            cone = sosc.presolve(sosc.build_critical_cone(
                problem.evaluate(p, p.point)))
            assert cone.ineq.shape[0] and not cone.is_subspace
        else:
            path = corpus_path(name, "problem.prob")
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                       PYTHONPATH=os.path.join(REPO, "src"))
            proc = subprocess.run(
                [sys.executable, "-m", "strongmin", "analyze", str(path),
                 "--samples", "2000"],
                env=env, capture_output=True, check=True)
            outputs.append(proc.stdout)
        assert outputs[0] and outputs[0] == outputs[1]

    def test_byte_identical_pw1d(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert run_cli(["pw1d", corpus_path("ex31", "function.pw"),
                            "--report", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seventeen_digit_floats(self, tmp_path):
        out = tmp_path / "rep.json"
        run_cli(["pw1d", corpus_path("ex31", "function.pw"),
                 "--report", str(out)])
        text = out.read_text()
        # a representative value that needs full precision round-trips
        rep = json.loads(text)
        val = rep["qgc"]["per_radius"][0]
        assert format(val, ".17g") in text

    def test_verdicts_carry_condition_and_certification(self, capsys):
        run_cli(["analyze", corpus_path("quad3", "problem.prob"),
                 "--samples", "500"])
        rep = json.loads(capsys.readouterr().out)
        for key in ("stationarity",):
            assert rep[key]["condition"]
            assert rep[key]["certification"]
        for key in ("mfcq", "crcq", "rcq"):
            assert "condition" in rep["cq"][key]
        assert rep["sosc"]["sonc"]["condition"]
        assert rep["sosc"]["certification"] in ("Exact", "Sampled")
        assert rep["oracle"]["certification"] == "Sampled"

    def test_timings_flag_adds_field(self, capsys):
        args = ["analyze", corpus_path("quad3", "problem.prob"), "--samples", "500"]
        run_cli(args + ["--timings"])
        rep = json.loads(capsys.readouterr().out)
        timings = rep.pop("timings_ms")
        assert list(timings) == ["load", "evaluate", "stationarity", "cq",
                                 "sosc", "oracle"]
        assert all(isinstance(v, float) and v >= 0.0 for v in timings.values())
        # apart from the timings the report is the one written without them
        run_cli(args)
        assert capsys.readouterr().out == report.dumps_report(rep)

    def test_pw1d_d2_flag(self, capsys):
        run_cli(["pw1d", corpus_path("sq", "function.pw"), "--d2"])
        rep = json.loads(capsys.readouterr().out)
        assert abs(rep["second_subderivative"]["w=1"]["value"] - 2.0) <= 1e-4

    def test_pw1d_nonstationary_point_completes(self, capsys):
        code = run_cli(["pw1d", corpus_path("sq", "function.pw"),
                        "--point", "0.5", "--radii", "0.1"])
        rep = json.loads(capsys.readouterr().out)
        assert code == 0
        assert rep["proximally_stationary"] is False
        assert "skipped" in rep["conditions"]
        assert rep["qgc"]["verdict"] == "Fails"  # no growth at a slope point

    def test_pw1d_d2_skipped_at_nonstationary_point(self, capsys):
        # the second subderivative at v = 0 means nothing where 0 is not a
        # proximal subgradient; ex31's subdifferential at 0.001 is {1/5040}
        code = run_cli(["pw1d", corpus_path("ex31", "function.pw"),
                        "--point", "0.001", "--d2"])
        rep = json.loads(capsys.readouterr().out)
        assert code == 0
        assert rep["proximally_stationary"] is False
        assert rep["second_subderivative"] == rep["conditions"] == {
            "skipped": "zero is not a proximal subgradient at the point"}

    def test_digest_matches_canonical_form(self, capsys):
        from strongmin import problem
        run_cli(["cq", corpus_path("licq", "problem.prob")])
        rep = json.loads(capsys.readouterr().out)
        p = problem.load(corpus_path("licq", "problem.prob"))
        assert rep["problem"]["digest"] == p.digest()


    def test_cq_section_matches_analyze(self, capsys):
        # cq and qgc run single stages of analyze under the same header
        path = corpus_path("licq", "problem.prob")
        assert run_cli(["cq", path, "--seed", "2"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["flags"] == {"seed": 2, "probe_samples": 128,
                                "probe_radius": 0.1}
        args = ["--seed", "2", "--samples", "500", "--radii", "0.2,0.05"]
        assert run_cli(["qgc", path] + args) == 0
        growth = json.loads(capsys.readouterr().out)
        assert growth["flags"] == {"seed": 2, "samples": 500,
                                   "radii": [0.2, 0.05]}
        assert growth["oracle"]["radii"] == [0.2, 0.05]
        assert run_cli(["analyze", path] + args) == 0
        full = json.loads(capsys.readouterr().out)
        assert rep["cq"] == full["cq"]
        assert growth["oracle"] == full["oracle"]
        for partial in (rep, growth):
            assert partial["failed_stage"] is None
            for key in ("tool", "problem", "feasibility"):
                assert partial[key] == full[key]
        for key in ("mfcq", "crcq", "rcq"):
            assert rep["cq"][key]["condition"]
            assert rep["cq"][key]["certification"]


class TestFlags:
    @pytest.mark.parametrize("argv", [
        ["pw1d", "f.pw", "--tilt"],
        ["pw1d", "f.pw", "--tol", "1e-6"],
        ["pw1d", "f.pw", "--samples", "10"],
        ["qgc", "f.prob", "--tilt"],
        ["qgc", "f.prob", "--tol", "1e-6"],
        ["cq", "f.prob", "--tilt"],
        ["cq", "f.prob", "--tol", "1e-6"],
        ["cq", "f.prob", "--radii", "0.1,0.05"],
    ])
    def test_ignored_flags_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(argv)
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["analyze", "f.prob", "--tol", "1e-6", "--tilt", "--timings",
         "--samples", "10", "--radii", "0.1,0.05", "--radius", "0.1"],
        ["cq", "f.prob", "--samples", "10", "--radius", "0.2"],
        ["qgc", "f.prob", "--samples", "10", "--radii", "0.1,0.05"],
        ["pw1d", "f.pw", "--point", "0.5", "--d2", "--radii", "0.1"],
    ])
    def test_read_flags_are_accepted(self, argv):
        cli.build_parser().parse_args(argv + ["--seed", "1", "--report", "r.json"])


# each case: the failing stage, a section written before it and one after it
@pytest.mark.parametrize("argv, module, call, stage, kept, dropped", [
    (["analyze", corpus_path("quad3", "problem.prob"), "--samples", "500",
      "--tilt"], "oracle", "estimate_qg_modulus", "oracle", "sosc", "tilt"),
    (["cq", corpus_path("licq", "problem.prob")], "cq", "run_cq", "cq",
     "feasibility", None),
    (["qgc", corpus_path("licq", "problem.prob"), "--samples", "500"],
     "oracle", "estimate_qg_modulus", "oracle", "feasibility", None),
    (["pw1d", corpus_path("sq", "function.pw"), "--d2"], "pw1d",
     "estimate_qgc_1d", "qgc", "conditions", "second_subderivative"),
], ids=["analyze", "cq", "qgc", "pw1d"])
def test_numeric_failure_maps_to_exit_two(argv, module, call, stage, kept,
                                          dropped, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise FloatingPointError("synthetic blowup")

    monkeypatch.setattr(importlib.import_module(f"strongmin.{module}"), call, boom)
    assert run_cli(argv) == 2
    out = capsys.readouterr()
    rep = json.loads(out.out)
    assert rep["failed_stage"] == f"{stage}: synthetic blowup"
    assert kept in rep
    assert stage not in rep and dropped not in rep
    assert f"numeric failure in stage: {stage}" in out.err


@pytest.mark.parametrize("argv", [
    ["analyze", "--samples", "0"],
    ["analyze", "--radii", "0.2,-0.05"],
    ["cq", "--radius", "0"],
    ["cq", "--samples", "-3"],
    ["qgc", "--samples", "0"],
    ["qgc", "--radius", "-0.1"],
    ["qgc", "--radii", "0.2,nan"],
    ["qgc", "--samples", "abc"],
    ["analyze", "--radii", ","],
    ["qgc", "--radii", ","],
    ["pw1d", "--radii", ","],
    ["pw1d", "--radius", "0"],
    ["pw1d", "--radii", "0.1,inf"],
    ["pw1d", "--radii", "0.1,x"],
    ["pw1d", "--point", "nan"],
    ["pw1d", "--point", "inf"],
    ["analyze", "--tol", "nan"],
    ["analyze", "--tol", "-1"],
    ["analyze", "--tol", "0"],
    ["analyze", "--seed", "-1"],
    ["cq", "--seed", "4294967296"],
    ["qgc", "--seed", "-1"],
    ["pw1d", "--seed", "4294967296"],
], ids="_".join)
def test_invalid_numeric_flags_are_input_errors(argv, capsys):
    command, flags = argv[0], argv[1:]
    path = (corpus_path("sq", "function.pw") if command == "pw1d"
            else corpus_path("licq", "problem.prob"))
    assert run_cli([command, path] + flags) == 1
    out = capsys.readouterr()
    assert out.err.startswith("error: ")
    assert out.out == ""


def test_nonfinite_serialization():
    text = report.dumps_report({"a": float("inf"), "b": float("-inf"),
                                "c": float("nan"), "d": 1.5})
    rep = json.loads(text)
    assert rep == {"a": "inf", "b": "-inf", "c": "nan", "d": 1.5}
