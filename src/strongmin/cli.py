"""Command-line front end.

Subcommands: analyze, cq, qgc (conic problem files) and pw1d (univariate
piecewise files).  Exit codes: 0 = analysis completed (whatever the
verdicts), 1 = input error or usage error, 2 = numeric failure inside a
stage.
"""

from __future__ import annotations

import argparse
import sys

from . import report as _report

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, the input-error code."""

    def error(self, message):
        self.exit(1, f"error: {message}\n{self.format_usage()}")


def _common(sub):
    """Add the input file and the flags every subcommand reads."""
    sub.add_argument("file", help="input file")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--report", default=None, metavar="PATH",
                     help="write the JSON report here (default: stdout)")


def _radius_flags(sub):
    """Add --radius and --radii for the subcommands that test growth radii."""
    sub.add_argument("--radius", type=float, default=None,
                     help="single radius (overrides --radii)")
    sub.add_argument("--radii", default=None, help="comma list, e.g. 0.2,0.05")


def _timings_flag(sub):
    """Add --timings for the subcommands that can report their stage clocks."""
    sub.add_argument("--timings", action="store_true",
                     help="include wall-clock timings (breaks byte-identical reports)")


def _radii(args):
    """The radii to test: --radius, else --radii, else None for the default."""
    if args.radius is not None:
        return [args.radius]
    if args.radii is None or args.radii == "auto":
        return None
    try:
        return [float(v) for v in args.radii.split(",") if v.strip()]
    except ValueError as err:
        raise _report.InputError(f"--radii: {err}") from err


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="strongmin",
        description="Second-order optimality and quadratic-growth verdicts "
                    "at a candidate point, cross-checked by sampling oracles.")
    sp = ap.add_subparsers(dest="command", required=True)

    a = sp.add_parser("analyze", help="full second-order analysis")
    _common(a)
    a.add_argument("--samples", type=int, default=20000)
    _radius_flags(a)
    a.add_argument("--tol", type=float, default=1e-7)
    a.add_argument("--tilt", action="store_true", help="run the tilt probe")
    _timings_flag(a)

    c = sp.add_parser("cq", help="constraint-qualification diagnostics only")
    _common(c)
    c.add_argument("--samples", type=int, default=128)
    c.add_argument("--radius", type=float, default=0.1,
                   help="subregularity probe radius (default 0.1)")

    q = sp.add_parser("qgc", help="empirical quadratic-growth estimate only")
    _common(q)
    q.add_argument("--samples", type=int, default=20000)
    _radius_flags(q)

    w = sp.add_parser("pw1d", help="univariate piecewise analysis")
    _common(w)
    _radius_flags(w)
    w.add_argument("--point", type=float, default=0.0)
    w.add_argument("--d2", action="store_true",
                   help="include second-order difference quotients")
    _timings_flag(w)
    return ap


def _emit(rep: dict, path) -> None:
    text = _report.dumps_report(rep)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as stop:  # --help (0) or a usage error (1)
        return stop.code
    try:
        if args.command == "analyze":
            rep = _report.analyze_report(
                args.file, seed=args.seed, samples=args.samples,
                radii=_radii(args), tol=args.tol, tilt=args.tilt,
                timings=args.timings)
        elif args.command == "cq":
            rep = _report.cq_report(args.file, seed=args.seed,
                                    probe_samples=args.samples,
                                    probe_radius=args.radius)
        elif args.command == "qgc":
            rep = _report.qgc_report(args.file, seed=args.seed,
                                     samples=args.samples, radii=_radii(args))
        else:
            rep = _report.pw1d_report(args.file, point=args.point,
                                      radii=_radii(args), with_d2=args.d2,
                                      seed=args.seed, timings=args.timings)
    except _report.InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # numeric failure inside a stage
        print(f"numeric failure: {err}", file=sys.stderr)
        return 2
    _emit(rep, args.report)
    if rep.get("failed_stage"):
        print(f"numeric failure in stage: {rep['failed_stage']}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
