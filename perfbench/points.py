"""``points`` workload: a seeded stream of single-point ``bound`` calls.

A block is 36 points: four shuffled passes over the nine systems.  In the
first pass of every block the three systems with documented matching poles
get a point exactly on a pole, so planted poles are a fixed 1/12 of the
stream.  Every other point is drawn inside its constructor's domain.

One timed operation is ``bound(TargetSpec.<system>(...))``.  Outside the
timed region each value is checked: a planted pole must come back ``inf``;
anything else must be finite, non-negative and round-trip through
``verify_match`` to 1e-9.
"""

from __future__ import annotations

import math

import numpy as np

from qcbound import TargetSpec, anharm_length, bound, match, verify_match

from harness import Samples, now, paired_run

SYSTEMS = ("displacement", "ho", "sp2_ho", "iho", "ho_linear", "ho_quadratic",
           "free_particle", "coupled", "anharm_cubic")
POLE_SYSTEMS = ("ho_linear", "ho_quadratic", "anharm_cubic")
BLOCK_PASSES = 4

TRACED_ROUNDS = 100
PROBE_ROUNDS = 20

MATCH_TOL = 1e-9
T_MAX = 30.0


def draw(system: str, rng) -> tuple:
    """Constructor arguments of one ordinary point."""
    u = rng.uniform
    if system == "displacement":
        return (complex(u(-3, 3), u(-3, 3)),)
    if system in ("ho", "sp2_ho", "iho"):
        return (u(0.2, 3.0), u(0.0, T_MAX))
    if system == "ho_linear":
        return (u(0.2, 3.0), u(-1.0, 1.0), u(0.0, T_MAX))
    if system == "ho_quadratic":
        return (u(0.6, 3.0), u(-0.5, 0.5), u(0.0, T_MAX))
    if system == "free_particle":
        return (u(0.2, 5.0), u(0.0, T_MAX))
    if system == "coupled":
        q = u(0.5, 2.0)
        return (u(0.2, 3.0), u(0.2, 3.0), u(0.0, 3.0), u(0.0, T_MAX), q,
                u(q, 100.0))
    return (u(0.2, 3.0), u(-0.2, 0.2), u(0.0, T_MAX), u(0.5, 2.0),
            10.0 ** u(0.0, 6.0))


def draw_pole(system: str, rng) -> tuple:
    """Constructor arguments exactly on a pole documented in ``match``."""
    u = rng.uniform
    k = int(rng.integers(0, 3))
    if system == "ho_linear":                 # omega t = 2 pi (mod 4 pi)
        omega = u(0.2, 3.0)
        return (omega, u(-1.0, 1.0), (2 * math.pi + 4 * math.pi * k) / omega)
    if system == "ho_quadratic":              # v3 = n pi / 2, n != 0 (mod 8)
        omega, lam = u(0.6, 3.0), u(-0.5, 0.5)
        n = int(rng.integers(1, 8)) + 8 * k
        return (omega, lam, n * math.pi / (2 * (omega + lam)))
    # anharm_cubic: 1 + 2 cos v1 = 0, v1 = omega t (mod 4 pi)
    omega = u(0.2, 3.0)
    v1 = (2 * math.pi / 3) * int(rng.choice([1, 2, 4, 5])) + 4 * math.pi * k
    return (omega, u(-0.2, 0.2), v1 / omega, u(0.5, 2.0), 10.0 ** u(0.0, 6.0))


def check(target, value: float, planted: bool) -> tuple[bool, str]:
    if planted:
        return value == math.inf, f"planted pole {target} gave {value!r}"
    if not (math.isfinite(value) and value >= 0.0):
        return False, f"{target} gave {value!r}"
    resid = verify_match(match(target), target)
    return resid <= MATCH_TOL, f"{target} round trip {resid:.3g}"


def staged_bound(tracer, system: str, make) -> tuple:
    """The stages of one timed point: ``TargetSpec``, then ``bound``."""
    with tracer.span("matching.TargetSpec", system=system):
        target = make()
    with tracer.span("bounds.bound", system=system):
        return target, bound(target)


def staged_match(tracer, system: str, target, res) -> None:
    """``match`` on a point already bounded, its counts, and for a finite
    ``anharm_cubic`` point the anharmonic length."""
    with tracer.span("matching.match", system=system):
        m = match(target)
    tracer.counts["matching.attempts"] += 1
    tracer.counts["matching.divergent"] += m.is_divergent
    if system == "anharm_cubic" and not m.is_divergent:
        with tracer.span("bounds.anharm_length"):
            anharm_length(res.v0, target.params["g11"], target.params["p"])


def replay_point(tracer, system: str, make) -> None:
    """Every stage of one point, untimed as a whole."""
    staged_match(tracer, system, *staged_bound(tracer, system, make))


class Workload:
    op_name = "op.bound"
    MAX_S = 20.0           # stop waiting for fast-host rounds here
    TAIL = 99
    WORK = "points"
    PASS = "36-point blocks"
    LABELS = {"rate_per_s": ("points_per_s", "points/s"),
              "op_ms_p50": ("bound_us_p50", "us"),
              "op_ms_tail": ("bound_us_p99", "us"),
              "pass_s_p50": ("block_s_p50", "s")}

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        # a run fills about 55k samples in its 20 s before giving up on
        # fast-host rounds
        self.op_times = Samples(200_000)
        self.pass_times = Samples(10_000)

    def make_round(self, r: int) -> list[tuple]:
        """One block: [(system, constructor, args, planted_pole)]."""
        rng = np.random.default_rng([self.seed, r])
        block = []
        for j in range(BLOCK_PASSES):
            for i in rng.permutation(len(SYSTEMS)):
                system = SYSTEMS[i]
                planted = j == 0 and system in POLE_SYSTEMS
                args = (draw_pole if planted else draw)(system, rng)
                args = tuple(a if isinstance(a, complex) else float(a) for a in args)
                block.append((system, getattr(TargetSpec, system), args, planted))
        return block

    def run_round(self, plan, r: int, outcome) -> None:
        pass_s = 0.0
        times = self.op_times
        for system, ctor, args, planted in plan:
            if times.full:
                break
            try:
                t0 = now()
                target = ctor(*args)
                res = bound(target)
                dt = now() - t0
                ok, why = check(target, res.value, planted)
            except Exception as exc:  # a failure never aborts the run
                ok, why, dt = False, f"{system}{args}: {exc!r}", None
            outcome.record(ok, why)
            if ok:
                times.add(dt, r)
                pass_s += dt
        self.pass_times.add(pass_s, r)

    def trace_round(self, plan, r: int, tracer, outcome, pairs, paired: bool) -> None:
        for i, (system, ctor, args, planted) in enumerate(plan):
            try:
                with tracer.op(self.op_name, system=system):
                    u, t, (target, res) = paired_run(
                        tracer, (r + i) % 2 == 0 if paired else None,
                        lambda: bound(ctor(*args)),
                        lambda: staged_bound(tracer, system, lambda: ctor(*args)))
                    staged_match(tracer, system, target, res)
                ok, why = check(target, res.value, planted)
            except Exception as exc:
                ok, why = False, f"{system}{args}: {exc!r}"
            outcome.record(ok, why)
            if ok and paired:
                pairs.append((u, t))
