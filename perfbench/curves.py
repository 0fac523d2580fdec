"""``curves`` workload: the six standard figures through ``cli.main``.

A round runs every figure once at its default parameters and once as a
seeded variant built from the figure flags.  Default CSVs must match the
sha256 recorded in ``expected.json``; variant rows must equal a scalar
``bound()`` at 12 significant digits.  Both checks run outside the timed
region.

The benchmark keeps its own copy of the documented figure conventions
(systems, fixed parameters, default grids) so that it needs nothing from
``cli`` beyond ``main``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from pathlib import Path

import numpy as np

from qcbound import TargetSpec, bound, bound_curve, cli

from harness import Samples, now, paired_run
from points import replay_point

FIGURES = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7")
EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())

TRACED_ROUNDS = 10
PROBE_ROUNDS = 1
# per-point replays in the traced run: about this many points per series
REPLAY_POINTS = 50

HEADER = "t,value,branch,divergent"


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def series(name: str, opts: dict):
    """[(label, system, t -> TargetSpec)] and the default (t0, t1, steps)."""
    omega = opts.get("omega", 1.0)
    wide = (0.0, 8 * math.pi, 1601)
    if name == "fig2":
        return [("", "ho", lambda t: TargetSpec.ho(omega, t))], wide
    if name == "fig3":
        lam = opts.get("lambda", 0.3)
        return [("", "ho_linear", lambda t: TargetSpec.ho_linear(omega, lam, t))], wide
    if name == "fig4":
        lam = opts.get("lambda", 0.2)
        return [("", "ho_quadratic",
                 lambda t: TargetSpec.ho_quadratic(omega, lam, t))], wide
    if name == "fig7":
        lam = opts.get("lambda", 0.05)
        return [("", "anharm_cubic",
                 lambda t: TargetSpec.anharm_cubic(omega, lam, t, 1.0, 100.0))], wide
    narrow = (0.0, 2 * math.pi, 501)
    if name == "fig5":
        return [(f"p={_fmt(p)}", "coupled",
                 lambda t, p=p: TargetSpec.coupled(2.0, 1.0, 3.0, t, 1.0, p))
                for p in opts.get("p-values", [1.0, 5.0, 10.0, 100.0])], narrow
    return [(f"mu={_fmt(mu)}", "coupled",
             lambda t, mu=mu: TargetSpec.coupled(2.0, 1.0, mu, t, 1.0, 10.0))
            for mu in opts.get("mu-values", [0.0, 1.0, 2.0, 3.0])], narrow


def variant_opts(name: str, rng) -> dict:
    """Seeded figure flags, every value inside its constructor's domain."""
    opts: dict = {}
    if name in ("fig2", "fig3", "fig4", "fig7"):
        opts["omega"] = float(rng.uniform(0.5, 2.0))
        if name == "fig3":
            opts["lambda"] = float(rng.uniform(-0.5, 0.5))
        elif name == "fig4":
            opts["lambda"] = float(rng.uniform(-0.3, 0.3))
        elif name == "fig7":
            opts["lambda"] = float(rng.uniform(0.01, 0.1))
        t0 = float(rng.uniform(0.0, 2 * math.pi))
        opts.update({"t-min": t0, "t-max": t0 + float(rng.uniform(2, 8)) * math.pi,
                     "t-steps": int(rng.integers(800, 2401))})
    else:
        if name == "fig5":
            opts["p-values"] = [float(x) for x in rng.uniform(1.0, 100.0, 4)]
        else:
            opts["mu-values"] = [float(x) for x in rng.uniform(0.0, 3.0, 4)]
        t0 = float(rng.uniform(0.0, math.pi))
        opts.update({"t-min": t0, "t-max": t0 + float(rng.uniform(1, 2)) * math.pi,
                     "t-steps": int(rng.integers(250, 751))})
    return opts


def argv_for(name: str, opts: dict, out: str) -> list[str]:
    argv = ["figure", name, "--out", out]
    for key, value in opts.items():
        if isinstance(value, list):
            value = ",".join(repr(v) for v in value)
        argv += [f"--{key}", repr(value) if isinstance(value, float) else str(value)]
    return argv


def grid_for(name: str, opts: dict) -> np.ndarray:
    _, (t0, t1, steps) = series(name, opts)
    return np.linspace(opts.get("t-min", t0), opts.get("t-max", t1),
                       opts.get("t-steps", steps))


def expected_rows(name: str, opts: dict) -> list[str]:
    """CSV rows built from scalar bound() calls, one per grid point."""
    ser, _ = series(name, opts)
    multi = len(ser) > 1
    rows = []
    for label, _, make in ser:
        for t in grid_for(name, opts):
            t = float(t)
            res = bound(make(t))
            if math.isnan(res.value):
                rows.append("nan")        # never matches a CSV row
                continue
            good = math.isfinite(res.value)
            row = [_fmt(t), _fmt(res.value) if good else "", str(res.branch),
                   "0" if good else "1"]
            rows.append(",".join(row + [label] if multi else row))
    return rows


def check_csv(name: str, opts: dict, text: str) -> tuple[bool, str]:
    if not opts:
        digest = hashlib.sha256(text.encode()).hexdigest()
        return digest == EXPECTED["figure_sha256"][name], f"{name} sha256 {digest}"
    lines = text.split("\n")
    multi = len(series(name, opts)[0]) > 1
    if lines[0] != HEADER + (",series" if multi else "") or lines[-1] != "":
        return False, f"{name} variant header or line ending"
    got = lines[1:-1]
    want = expected_rows(name, opts)
    bad = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
    if len(got) != len(want) or bad:
        return False, f"{name} variant {opts}: {len(bad)} rows differ"
    return True, ""


def csv_counts(text: str) -> tuple[int, int]:
    rows = text.split("\n")[1:-1]
    return len(rows), sum(1 for r in rows if r.split(",")[3] == "1")


class Workload:
    """Rounds of twelve figure calls: six defaults, then six seeded variants."""

    op_name = "op.figure"
    MAX_S = 20.0           # stop waiting for fast-host rounds here
    TAIL = 90
    WORK = "rows"
    PASS = "six default figures"
    LABELS = {"rate_per_s": ("curve_points_per_s", "rows/s"),
              "op_ms_p50": ("figure_ms_p50", "ms"),
              "op_ms_tail": ("figure_ms_p90", "ms"),
              "pass_s_p50": ("figure_set_s_p50", "s")}

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.out = os.path.join(workdir, "figure.csv")
        self.op_times = Samples(10_000)      # a run makes a few hundred calls
        self.pass_times = Samples(1_000)

    def make_round(self, r: int) -> list[tuple[str, dict]]:
        rng = np.random.default_rng([self.seed, r])
        return ([(name, {}) for name in FIGURES]
                + [(name, variant_opts(name, rng)) for name in FIGURES])

    def _call(self, argv) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"qc-bound {' '.join(argv)} exited {rc}")

    def _main_span(self, tracer, argv) -> None:
        with tracer.span("cli.main", figure=argv[1]):
            self._call(argv)

    def _checked(self, name, opts, outcome) -> str | None:
        try:
            with open(self.out) as fh:
                text = fh.read()
            ok, why = check_csv(name, opts, text)
        except Exception as exc:  # a failed check never aborts the run
            ok, why, text = False, f"{name}: {exc!r}", None
        outcome.record(ok, why)
        return text if ok else None

    def run_round(self, plan, r: int, outcome) -> None:
        pass_s = 0.0
        for name, opts in plan:
            argv = argv_for(name, opts, self.out)
            try:
                t0 = now()
                self._call(argv)
                dt = now() - t0
            except Exception as exc:
                outcome.record(False, f"{name}: {exc!r}")
                continue
            text = self._checked(name, opts, outcome)
            if text is None:
                continue
            self.op_times.add(dt, r, csv_counts(text)[0])
            if not opts:
                pass_s += dt
        self.pass_times.add(pass_s, r)

    def trace_round(self, plan, r: int, tracer, outcome, pairs, paired: bool) -> None:
        for i, (name, opts) in enumerate(plan):
            argv = argv_for(name, opts, self.out)
            ser, _ = series(name, opts)
            grid = grid_for(name, opts)
            try:
                with tracer.op(self.op_name, figure=name, variant=bool(opts)):
                    u, t, _ = paired_run(
                        tracer, (r + i) % 2 == 0 if paired else None,
                        lambda: self._call(argv), lambda: self._main_span(tracer, argv))
                    step = max(1, len(grid) // REPLAY_POINTS)
                    for _, system, make in ser:
                        with tracer.span("bounds.bound_curve", system=system,
                                         points=len(grid)):
                            bound_curve(make(0.0), grid)
                        for tt in grid[::step]:
                            replay_point(tracer, system,
                                         lambda tt=float(tt): make(tt))
            except Exception as exc:
                outcome.record(False, f"{name}: {exc!r}")
                continue
            text = self._checked(name, opts, outcome)
            if text is None:
                continue
            if paired:
                pairs.append((u, t))
            rows, div = csv_counts(text)
            tracer.counts["cli.rows"] += rows
            tracer.counts["cli.divergent_rows"] += div

