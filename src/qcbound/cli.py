"""Command-line front end.

Subcommands
-----------
``bound``    single complexity bound for one target system
``figure``   curve CSVs for the standard figures (fig2..fig7)
``verify``   run the self-check suites, emit a JSON report
``algebra``  export a structure-constant table as JSON

Exit codes: 0 success, 2 usage error (including a periodic reduction that
keeps no digits), 3 divergent or ``nan`` single-point bound, 4 verification
failure.  CSV output uses the fixed header
``t,value,branch,divergent`` (plus a trailing ``series`` column for the
multi-series figures), 12 significant digits and LF line endings, so files
regenerate byte-identically.  Rows are formatted with ``%.12g``, which gives
the same text as ``format(x, ".12g")``, in one ``%`` pass per curve.
:func:`main` builds its parser once per process, on its first call.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

import numpy as np

from . import __version__
from .algebra import builtin, table_to_json
from .bounds import POSITIVITY_CAVEAT, bound, bound_curve
from .errors import NotRegistered, QcBoundError
from .matching import TargetSpec
from .verification import SUITES, run_suite

_FIGURES = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7")


def _fmt(x: float) -> str:
    return f"{x:.12g}"


# ---------------------------------------------------------------------------
# target construction from CLI arguments
# ---------------------------------------------------------------------------

def _target_from_args(args) -> TargetSpec:
    s = args.system
    if s == "ho":
        return TargetSpec.ho(args.omega, args.t)
    if s == "sp2_ho":
        return TargetSpec.sp2_ho(args.omega, args.t)
    if s == "displacement":
        return TargetSpec.displacement(complex(args.re, args.im))
    if s == "iho":
        return TargetSpec.iho(args.Omega, args.t)
    if s == "ho_linear":
        return TargetSpec.ho_linear(args.omega, args.lam, args.t)
    if s == "ho_quadratic":
        return TargetSpec.ho_quadratic(args.omega, args.lam, args.t)
    if s == "free_particle":
        return TargetSpec.free_particle(args.m, args.t)
    if s == "coupled":
        return TargetSpec.coupled(args.omega1, args.omega2, args.mu, args.t,
                                  q=args.q, p=args.p)
    if s in ("anharm", "anharm_cubic"):
        return TargetSpec.anharm_cubic(args.omega, args.lam, args.t,
                                       g11=args.g11, p=args.p)
    raise NotRegistered(f"unknown system {s!r}")


def cmd_bound(args) -> int:
    try:
        target = _target_from_args(args)
        result = bound(target)
    except (QcBoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not math.isfinite(result.value):
        if result.is_divergent:
            location = next((c[len("divergent: "):] for c in result.caveats
                             if c.startswith("divergent: ")), "matching pole")
        else:
            location = POSITIVITY_CAVEAT
        print(f"{_fmt(result.value)} {location}")
        for c in result.caveats:
            print(f"# {c}")
        return 3
    print(_fmt(result.value))
    if "product_form_value" in result.extras:
        print(f"# product-form alternate value: "
              f"{_fmt(result.extras['product_form_value'])}")
    for c in result.caveats:
        print(f"# {c}")
    return 0


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

def _parse_floats(text: str, flag: str) -> list[float]:
    values = [float(x) for x in text.split(",") if x.strip()]
    if not values:
        raise ValueError(f"{flag} needs at least one value")
    return values


def _figure_series(name, args):
    """Return (series list of (label, TargetSpec), default grid)."""
    omega = args.omega if args.omega is not None else 1.0
    grid_default = (0.0, 8 * math.pi, 1601)
    if name == "fig2":
        return [("", TargetSpec.ho(omega, 0.0))], grid_default
    if name == "fig3":
        lam = args.lam if args.lam is not None else 0.3
        return [("", TargetSpec.ho_linear(omega, lam, 0.0))], grid_default
    if name == "fig4":
        lam = args.lam if args.lam is not None else 0.2
        return [("", TargetSpec.ho_quadratic(omega, lam, 0.0))], grid_default
    if name == "fig7":
        lam = args.lam if args.lam is not None else 0.05
        p = args.p if args.p is not None else 100.0
        return [("", TargetSpec.anharm_cubic(omega, lam, 0.0,
                                             g11=args.g11, p=p))], grid_default
    omega1 = args.omega1 if args.omega1 is not None else 2.0
    omega2 = args.omega2 if args.omega2 is not None else 1.0
    grid_default = (0.0, 2 * math.pi, 501)
    if name == "fig5":
        mu = args.mu if args.mu is not None else 3.0
        series = [(f"p={_fmt(p)}",
                   TargetSpec.coupled(omega1, omega2, mu, 0.0, q=args.q, p=p))
                  for p in _parse_floats(args.p_values, "--p-values")]
        return series, grid_default
    if name == "fig6":
        p = args.p if args.p is not None else 10.0
        series = [(f"mu={_fmt(mu)}",
                   TargetSpec.coupled(omega1, omega2, mu, 0.0, q=args.q, p=p))
                  for mu in _parse_floats(args.mu_values, "--mu-values")]
        return series, grid_default
    raise NotRegistered(f"unknown figure {name!r}")


def _csv_text(grid: np.ndarray, curves) -> tuple[str, int]:
    """CSV text and row count of ``[(label, BoundCurve)]``: one ``%`` pass per
    curve, where ``%.0s`` prints a divergent row's value as the empty text."""
    multi = len(curves) > 1
    n = len(grid)
    t_text = ("%.12g\n" * n % tuple(grid.tolist())).splitlines()
    parts = ["t,value,branch,divergent" + (",series" if multi else "") + "\n"]
    for label, curve in curves:
        suffix = f",{label}".replace("%", "%%") if multi else ""
        rows = np.where(np.isfinite(curve.value),
                        f"%s,%.12g,%d,0{suffix}\n", f"%s,%.0s,%d,1{suffix}\n")
        flat = [None] * (3 * n)
        flat[0::3], flat[1::3], flat[2::3] = (
            t_text, curve.value.tolist(), curve.branch.tolist())
        parts.append("".join(rows.tolist()) % tuple(flat))
    return "".join(parts), n * len(curves)


def _write(path: str, text: str) -> int:
    """Write ``text`` with LF line endings: 0, or 2 after an error message."""
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0


def cmd_figure(args) -> int:
    if args.name not in _FIGURES:
        print(f"error: unknown figure {args.name!r}; choose from {_FIGURES}",
              file=sys.stderr)
        return 2
    try:
        series, (t0, t1, steps) = _figure_series(args.name, args)
        t_min = args.t_min if args.t_min is not None else t0
        t_max = args.t_max if args.t_max is not None else t1
        t_steps = args.t_steps if args.t_steps is not None else steps
        if not (math.isfinite(t_min) and math.isfinite(t_max) and t_min < t_max) \
                or t_steps < 2:
            raise ValueError("need finite t_min < t_max and t_steps >= 2")
        grid = np.linspace(t_min, t_max, t_steps)
        curves = [(label, bound_curve(target, grid)) for label, target in series]
    except (QcBoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for c in dict.fromkeys(c for _, curve in curves for c in curve.caveats):
        if c.startswith("precision:"):
            print(f"warning: {c}", file=sys.stderr)

    text, rows = _csv_text(grid, curves)
    out = args.out or f"{args.name}.csv"
    if _write(out, text):
        return 2
    print(f"wrote {out} ({rows} rows)")
    return 0


# ---------------------------------------------------------------------------
# verify / algebra export
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    report = run_suite(args.suite)
    text = json.dumps(report, indent=2)
    if args.out and _write(args.out, text + "\n"):
        return 2
    print(text)
    failed = [c for c in report["checks"] if not c["pass"]]
    if failed:
        print(f"{len(failed)} check(s) failed", file=sys.stderr)
        return 4
    return 0


def cmd_algebra_export(args) -> int:
    try:
        spec = builtin(args.name)
    except NotRegistered as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(table_to_json(spec), indent=2)
    if args.out and _write(args.out, text + "\n"):
        return 2
    print(text)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reads negative numbers in exponent notation (``-8.6e-05``) as values.

    argparse takes an argument that starts with ``-`` for an option unless
    it matches the parser's negative-number pattern, which has no exponent.
    Subparsers inherit the class, and so the pattern.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _add_target_options(p: argparse.ArgumentParser):
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--Omega", type=float, default=1.0,
                   help="frequency of the inverted oscillator")
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--lambda", dest="lam", type=float, default=0.0,
                   help="perturbation coupling")
    p.add_argument("--re", type=float, default=0.0, help="Re(alpha)")
    p.add_argument("--im", type=float, default=0.0, help="Im(alpha)")
    p.add_argument("--m", type=float, default=1.0, help="free-particle mass")
    p.add_argument("--omega1", type=float, default=2.0)
    p.add_argument("--omega2", type=float, default=1.0)
    p.add_argument("--mu", type=float, default=1.0, help="mode coupling")
    p.add_argument("--q", type=float, default=1.0, help="soft-direction penalty")
    p.add_argument("--p", type=float, default=1.0, help="hard-direction penalty")
    p.add_argument("--g11", type=float, default=1.0,
                   help="penalty of the quadratic-energy direction")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qc-bound",
        description="Geodesic complexity bounds for oscillator evolution operators",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="single complexity bound")
    p_bound.add_argument("system", choices=[
        "ho", "displacement", "iho", "sp2_ho", "ho_linear", "ho_quadratic",
        "free_particle", "coupled", "anharm", "anharm_cubic",
    ])
    _add_target_options(p_bound)
    p_bound.set_defaults(func=cmd_bound)

    p_fig = sub.add_parser("figure", help="emit a curve CSV")
    p_fig.add_argument("name")
    p_fig.add_argument("--out", default=None)
    p_fig.add_argument("--t-min", dest="t_min", type=float, default=None)
    p_fig.add_argument("--t-max", dest="t_max", type=float, default=None)
    p_fig.add_argument("--t-steps", dest="t_steps", type=int, default=None)
    p_fig.add_argument("--omega", type=float, default=None)
    p_fig.add_argument("--lambda", dest="lam", type=float, default=None)
    p_fig.add_argument("--omega1", type=float, default=None)
    p_fig.add_argument("--omega2", type=float, default=None)
    p_fig.add_argument("--mu", type=float, default=None)
    p_fig.add_argument("--q", type=float, default=1.0)
    p_fig.add_argument("--p", type=float, default=None)
    p_fig.add_argument("--g11", type=float, default=1.0)
    p_fig.add_argument("--p-values", dest="p_values", default="1,5,10,100",
                       help="comma-separated penalty sweep (fig5)")
    p_fig.add_argument("--mu-values", dest="mu_values", default="0,1,2,3",
                       help="comma-separated coupling sweep (fig6)")
    p_fig.set_defaults(func=cmd_figure)

    p_ver = sub.add_parser("verify", help="run self-check suites")
    p_ver.add_argument("suite", choices=list(SUITES))
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_alg = sub.add_parser("algebra", help="algebra table utilities")
    alg_sub = p_alg.add_subparsers(dest="algebra_command", required=True)
    p_exp = alg_sub.add_parser("export", help="export a table as JSON")
    p_exp.add_argument("name")
    p_exp.add_argument("--out", default=None)
    p_exp.set_defaults(func=cmd_algebra_export)

    return parser


# main() reuses one parser, built on its first call; build_parser() stays fresh
_main_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _main_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
