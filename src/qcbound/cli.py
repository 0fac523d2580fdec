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
from .systems import (ANHARM_CUBIC, CLI_NAMES, COUPLED, HO, HO_LINEAR,
                      HO_QUADRATIC, SYSTEMS, TargetSpec)
from .verification import SUITES, run_suite


def _fmt(x: float) -> str:
    return f"{x:.12g}"


# ---------------------------------------------------------------------------
# targets from CLI arguments: systems, flags and defaults come from the registry
# ---------------------------------------------------------------------------

# option -> its flag (systems that share an option declare it alike); the
# flag's name is the argparse dest
_BOUND_OPTIONS = {f.option: f for spec in SYSTEMS.values() for f in spec.cli_flags}


def _target_from_args(args) -> TargetSpec:
    """The target of ``bound``; a flag its system does not take is an error."""
    spec = CLI_NAMES[args.system]
    taken = {f.option for f in spec.cli_flags}
    unused = [option for option, f in _BOUND_OPTIONS.items()
              if option not in taken and getattr(args, f.name) is not None]
    if unused:
        raise ValueError(f"{args.system} does not take {', '.join(unused)}")
    values = [f.default if getattr(args, f.name) is None else getattr(args, f.name)
              for f in spec.cli_flags]
    if spec.from_flags is not None:
        values = spec.from_flags(*values)
    return getattr(TargetSpec, spec.tag)(*values)


def cmd_bound(args) -> int:
    try:
        target = _target_from_args(args)
        result = bound(target)
    except (QcBoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finite = math.isfinite(result.value)
    if finite:
        print(_fmt(result.value))
        if "product_form_value" in result.extras:
            print(f"# product-form alternate value: "
                  f"{_fmt(result.extras['product_form_value'])}")
    else:
        location = POSITIVITY_CAVEAT
        if result.is_divergent:
            location = next((c[len("divergent: "):] for c in result.caveats
                             if c.startswith("divergent: ")), "matching pole")
        print(f"{_fmt(result.value)} {location}")
    for c in result.caveats:
        print(f"# {c}")
    return 0 if finite else 3


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

_WIDE, _NARROW = (0.0, 8 * math.pi, 1601), (0.0, 2 * math.pi, 501)
# figure -> (system, parameters that differ from its defaults,
#            swept parameter and its default values or None, default grid)
_FIGURES = {
    "fig2": (HO, {}, None, _WIDE),
    "fig3": (HO_LINEAR, {"lam": 0.3}, None, _WIDE),
    "fig4": (HO_QUADRATIC, {"lam": 0.2}, None, _WIDE),
    "fig5": (COUPLED, {"mu": 3.0}, ("p", "1,5,10,100"), _NARROW),
    "fig6": (COUPLED, {"p": 10.0}, ("mu", "0,1,2,3"), _NARROW),
    "fig7": (ANHARM_CUBIC, {"lam": 0.05}, None, _WIDE),
}
# the parameter options of the figures' systems, except --t
_FIGURE_OPTIONS = {f.option: f for spec, *_ in _FIGURES.values()
                   for f in spec.params if f.name != "t"}


def _parse_floats(text: str, flag: str) -> list[float]:
    values = [float(x) for x in text.split(",") if x.strip()]
    if not values:
        raise ValueError(f"{flag} needs at least one value")
    return values


def _figure_series(name, args):
    """Return (series list of (label, TargetSpec), default grid)."""
    spec, defaults, sweep, grid = _FIGURES[name]
    values = {p.name: p.default for p in spec.params} | defaults
    values.update({p.name: getattr(args, p.name) for p in spec.params
                   if getattr(args, p.name, None) is not None})
    values["t"] = 0.0
    make = getattr(TargetSpec, spec.tag)
    if sweep is None:
        return [("", make(**values))], grid
    swept = sweep[0]
    return [(f"{swept}={_fmt(x)}", make(**{**values, swept: x}))
            for x in _parse_floats(getattr(args, f"{swept}_values"),
                                   f"--{swept}-values")], grid


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


def _open(path: str):
    """``path`` opened for text with LF line endings, or None after an error
    message."""
    try:
        return open(path, "w", newline="\n")
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return None


def _write(path: str, text: str) -> int:
    """Write ``text`` to ``path``: 0, or 2 after an error message."""
    fh = _open(path)
    if fh is None:
        return 2
    with fh:
        fh.write(text)
    return 0


def cmd_figure(args) -> int:
    if args.name not in _FIGURES:
        print(f"error: unknown figure {args.name!r}; choose from "
              f"{tuple(_FIGURES)}", file=sys.stderr)
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
    out = _open(args.out) if args.out else None
    if args.out and out is None:
        return 2                  # before the suite spends its time
    report = run_suite(args.suite)
    text = json.dumps(report, indent=2)
    if out is not None:
        with out:
            out.write(text + "\n")
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qc-bound",
        description="Geodesic complexity bounds for oscillator evolution operators",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="single complexity bound")
    p_bound.add_argument("system", choices=list(CLI_NAMES))
    for option, f in _BOUND_OPTIONS.items():
        p_bound.add_argument(option, dest=f.name, type=float, default=None,
                             help=f.help)
    p_bound.set_defaults(func=cmd_bound)

    p_fig = sub.add_parser("figure", help="emit a curve CSV")
    p_fig.add_argument("name")
    p_fig.add_argument("--out", default=None)
    p_fig.add_argument("--t-min", dest="t_min", type=float, default=None)
    p_fig.add_argument("--t-max", dest="t_max", type=float, default=None)
    p_fig.add_argument("--t-steps", dest="t_steps", type=int, default=None)
    for option, f in _FIGURE_OPTIONS.items():
        p_fig.add_argument(option, dest=f.name, type=float, default=None,
                           help=f.help)
    for name, (_, _, sweep, _) in _FIGURES.items():
        if sweep is not None:
            p_fig.add_argument(f"--{sweep[0]}-values", dest=f"{sweep[0]}_values",
                               default=sweep[1],
                               help=f"comma-separated {sweep[0]} sweep ({name})")
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
