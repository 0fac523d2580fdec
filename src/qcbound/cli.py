"""Command-line front end.

Subcommands
-----------
``bound``    single complexity bound for one target system
``figure``   curve CSVs for the standard figures (fig2..fig7)
``verify``   run the self-check suites, emit a JSON report
``algebra``  export a structure-constant table as JSON

Exit codes: 0 success, 2 usage error (including a periodic reduction that
keeps no digits or an arithmetic overflow), 3 divergent or ``nan``
single-point bound, or a ``nan`` in a figure (which then writes no file),
4 verification failure.  CSV output uses the fixed header
``t,value,branch,divergent`` (plus a trailing ``series`` column for the
multi-series figures), 12 significant digits and LF line endings, so files
regenerate byte-identically.  Every number is written as ``%.12g`` (the text
of ``format(x, ".12g")``: the correctly rounded 12-digit decimal, ties to
even).  A curve's rows come from the C writer ``csv_rows`` of ``_rk4.c``
(:mod:`._kernel`) once it has written the Python twin's exact text on a
fixed corpus in this process (:func:`_csv_agrees`), else from the twin
itself, one ``%`` pass per curve.  Both give the same bytes; a 1601-row
curve took 0.14 ms from the writer and 1.1 ms from the twin on a 2-vCPU
x86-64 host.
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

from . import __version__, _kernel
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
# the most grid points a figure takes, as integrate_rk4 takes a million steps
_MAX_T_STEPS = 1_000_000
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
# swept parameter -> its default values
_SWEEPS = dict(sweep for _, _, sweep, _ in _FIGURES.values() if sweep)


def _parse_floats(text: str, flag: str) -> list[float]:
    values = [float(x) for x in text.split(",") if x.strip()]
    if not values:
        raise ValueError(f"{flag} needs at least one value")
    return values


def _figure_series(name, args):
    """Return (series list of (label, TargetSpec), default grid).

    A parameter flag the figure's system does not take, another figure's
    sweep list, or the single flag of the swept parameter is an error.
    """
    spec, defaults, sweep, grid = _FIGURES[name]
    swept = sweep[0] if sweep else None
    taken = {p.name for p in spec.params} - {swept}
    unused = [option for option, f in _FIGURE_OPTIONS.items()
              if f.name not in taken and getattr(args, f.name) is not None]
    unused += [f"--{other}-values" for other in _SWEEPS
               if other != swept and getattr(args, f"{other}_values") is not None]
    if unused:
        raise ValueError(f"{name} does not take {', '.join(unused)}")
    values = {p.name: p.default for p in spec.params} | defaults
    values.update({p.name: getattr(args, p.name) for p in spec.params
                   if getattr(args, p.name, None) is not None})
    values["t"] = 0.0
    make = getattr(TargetSpec, spec.tag)
    if sweep is None:
        return [("", make(**values))], grid
    text = getattr(args, f"{swept}_values")
    return [(f"{swept}={_fmt(x)}", make(**{**values, swept: x}))
            for x in _parse_floats(_SWEEPS[swept] if text is None else text,
                                   f"--{swept}-values")], grid


def _twin_rows(grid: np.ndarray, value: np.ndarray, branch: np.ndarray,
               suffix: str) -> str:
    """One curve's rows in one ``%`` pass, where ``%.0s`` prints a divergent
    row's value as the empty text: the twin of the C writer ``csv_rows``."""
    n = len(grid)
    t_text = ("%.12g\n" * n % tuple(grid.tolist())).splitlines()
    suffix = suffix.replace("%", "%%")
    rows = np.where(np.isfinite(value), f"%s,%.12g,%d,0{suffix}\n",
                    f"%s,%.0s,%d,1{suffix}\n")
    flat = [None] * (3 * n)
    flat[0::3], flat[1::3], flat[2::3] = t_text, value.tolist(), branch.tolist()
    return "".join(rows.tolist()) % tuple(flat)


# the most bytes a row of csv_rows takes besides its suffix: a 19-character
# t and value, a 20-character branch, three commas, the flag and the newline
_ROW_BYTES = 64


def _kernel_rows(kernel, grid: np.ndarray, value: np.ndarray,
                 branch: np.ndarray, suffix: str):
    """:func:`_twin_rows` from the C writer, or None where the writer
    declines (a C library text that is not Python's)."""
    label = suffix.encode()
    value = np.ascontiguousarray(value, dtype=np.float64)
    branch = np.ascontiguousarray(branch, dtype=np.int64)
    out = np.empty(len(grid) * (_ROW_BYTES + len(label)), dtype=np.uint8)
    size = kernel.csv_rows(len(grid), grid.ctypes.data, value.ctypes.data,
                           branch.ctypes.data, label, len(label), out.ctypes.data)
    return None if size < 0 else str(out[:size].data, "utf-8")


def _csv_agrees(kernel) -> bool:
    """Whether ``kernel``'s ``csv_rows`` writes :func:`_twin_rows`'s text,
    byte for byte, on a corpus: +-0.0, subnormals, 1e-300 and +-1.797e308
    (the C library's path), exact 12-digit ties to even and odd, 10^k and
    its neighbours for k = -20 .. 40 (the ends of the exact integer path),
    the fixed-to-exponent switches, inf, -inf and nan values, int64
    branches up to +-2^63 and a suffix holding ``%`` and ``,``."""
    decades = 10.0 ** np.arange(-20, 41)
    finite = np.concatenate([
        [0.0, 5e-324, 2.5e-310, 1e-300, 1.797e308, 1234567890125.0,
         1234567890135.0, 12345678901.25, 12345678901.75, 999999999999.5,
         9999999999995.0, 1e-4, 1e-5, 123456.789, 2.0 ** 62],
        np.nextafter(decades, 0.0), decades, np.nextafter(decades, math.inf)])
    grid = np.concatenate([finite, -finite])
    value = grid[::-1].copy()
    value[[1, 7, 40]] = math.inf, -math.inf, math.nan
    branch = np.resize(np.array([0, -1, 7, 2 ** 62, -2 ** 62, 2 ** 63 - 1,
                                 -2 ** 63], dtype=np.int64), len(grid))
    suffix = ",p=5%,a%d"
    return (_kernel_rows(kernel, grid, value, branch, suffix)
            == _twin_rows(grid, value, branch, suffix))


def _csv_text(grid: np.ndarray, curves) -> tuple[str, int]:
    """CSV text and row count of ``[(label, BoundCurve)]``, each curve's
    rows from the C writer once it passes :func:`_csv_agrees`, else from
    the twin."""
    multi = len(curves) > 1
    grid = np.ascontiguousarray(grid, dtype=np.float64)
    kernel = _kernel.checked(_csv_agrees)
    parts = ["t,value,branch,divergent" + (",series" if multi else "") + "\n"]
    for label, curve in curves:
        suffix = f",{label}" if multi else ""
        rows = (None if kernel is None
                else _kernel_rows(kernel, grid, curve.value, curve.branch, suffix))
        parts.append(_twin_rows(grid, curve.value, curve.branch, suffix)
                     if rows is None else rows)
    return "".join(parts), len(grid) * len(curves)


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
        # the span too is finite, or np.linspace overflows
        if not (math.isfinite(t_max - t_min) and t_min < t_max) \
                or not 2 <= t_steps <= _MAX_T_STEPS:
            raise ValueError("need finite t_min < t_max and "
                             f"2 <= t_steps <= {_MAX_T_STEPS}")
        grid = np.linspace(t_min, t_max, t_steps)
        curves = [(label, bound_curve(target, grid)) for label, target in series]
    except (QcBoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for label, curve in curves:
        nan = np.isnan(curve.value)
        if nan.any():
            series = f" ({label})" if label else ""
            print(f"error: nan bound at t={_fmt(grid[nan.argmax()])}{series}: "
                  f"{POSITIVITY_CAVEAT}", file=sys.stderr)
            return 3
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
    p_fig.add_argument("--t-steps", dest="t_steps", type=int, default=None,
                       help=f"grid points, 2 to {_MAX_T_STEPS}")
    for option, f in _FIGURE_OPTIONS.items():
        p_fig.add_argument(option, dest=f.name, type=float, default=None,
                           help=f.help)
    for name, (_, _, sweep, _) in _FIGURES.items():
        if sweep is not None:
            p_fig.add_argument(f"--{sweep[0]}-values", dest=f"{sweep[0]}_values",
                               default=None, help=f"comma-separated {sweep[0]} "
                               f"sweep ({name}; default {sweep[1]})")
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
