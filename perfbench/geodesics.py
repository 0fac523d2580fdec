"""``geodesics`` workload: ``verify all`` and seeded random-``v0`` trajectories.

Each cycle is one ``run_suite("all")`` followed by one trajectory per
family in seeded order.  A trajectory runs the closed form, RK4 at
``DEFAULT_STEP``, the length, the leading-order coefficients and the
path-ordered exponential on the family's matrix representation where one
exists.  ``sp4_T10`` has no closed form and is integrated numerically only.
``anharm_p`` solves a reduced system, so its RK4 reference integrates the
family's own right-hand side instead of calling ``solve_numeric``.

Checks use the thresholds of ``qc-bound verify``: closed form vs RK4 1e-7,
speed drift 1e-9, coefficients vs Simpson 1e-9; |det U - 1| <= 1e-10 holds
because every matrix representation is traceless.  Lengths are checked
against the conserved speed (constant-speed families, at the drift
threshold) or against the elliptic closed form (``anharm_p``, at the 1e-8
quadrature agreement documented in the README).
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
from scipy.integrate import simpson

from qcbound import (ClosedFormFamily, PenaltyMatrix, anharm_length, builtin,
                     commutator_closure_residual, fock_rep, integrate_rk4,
                     leading_order_coeffs, length, matrix_rep,
                     path_ordered_exponential, run_suite, solve_closed_form,
                     solve_numeric, validate)
from qcbound.euler_arnold import DEFAULT_STEP

from harness import Samples, now, paired_run

CYCLE = 6                  # verify, then one trajectory per family
TRACED_ROUNDS = 8 * CYCLE
PROBE_ROUNDS = CYCLE

POE_STEPS = 4000           # the oracle suite's step count
RK4_STEPS = max(1, round(1.0 / DEFAULT_STEP))
ANHARM_P = 100.0

# family -> (ClosedFormFamily or None, algebra, matrix representation or None)
FAMILIES = {
    "ho4": (ClosedFormFamily("ho4_equal_penalty"), "ho4", None),
    "sp2_J": (ClosedFormFamily("sp2_J_equal_penalty"), "sp2_J", "sp2_J"),
    "coupled_pq": (ClosedFormFamily("coupled_pq", q=1.0, p=10.0), "coupled_M4",
                   "coupled_M4"),
    "anharm_p": (ClosedFormFamily("anharm_p", p=ANHARM_P), "anharm5", None),
    "sp4_T10": (None, "sp4_T10", "sp4_T10"),
}
S_PROBE = np.linspace(0.0, 1.0, 101)
DENSE = np.linspace(0.0, 1.0, 1001)

# inputs of the verify suites, replayed layer by layer in the traced run
SUITE_ALGEBRAS = (("ho4", {}), ("sp2_K", {}), ("sp2_J", {}), ("coupled_M4", {}),
                  ("sp4_T10", {}), ("ho4_general", {"m": 1.7, "omega": 0.6}),
                  ("anharm5", {}))
SUITE_MATRIX_REPS = ("sp2_J", "sp2_K", "sp4_T10", "coupled_M4")
SUITE_FOCK_REPS = ("ho4", "sp2_J", "anharm5")


def _no_span(name, **attrs):
    return nullcontext()


def trajectory(family: str, v0: np.ndarray, reps: dict, span=_no_span) -> dict:
    """Run one trajectory's stages; returns what the checks need."""
    fam, alg_name, rep_name = FAMILIES[family]
    out = {}
    if fam is not None:
        G = fam.default_penalties()
        with span("euler_arnold.solve_closed_form", family=family):
            sol = out["closed"] = solve_closed_form(fam, v0)
    else:
        G = PenaltyMatrix.identity(len(v0))
        sol = None
    if family == "anharm_p":
        with span("euler_arnold.integrate_rk4", family=family):
            out["grid"], out["states"] = integrate_rk4(fam.governing_rhs(), v0,
                                                       DEFAULT_STEP)
        with span("bounds.length", family=family, path="quad"):
            out["length"] = length(sol, G)
    else:
        with span("algebra.builtin", algebra=alg_name):
            alg = builtin(alg_name)
        with span("euler_arnold.solve_numeric", family=family):
            num = solve_numeric(alg, G, v0)
        out["grid"], out["states"] = num.grid, num.states
        with span("bounds.length", family=family, path="simpson"):
            out["length"] = length(num, G)
        sol = sol or num
    if fam is not None:
        with span("geodesic.leading_order_coeffs", family=family):
            out["c1"] = leading_order_coeffs(out["closed"])(1.0)
    if rep_name is not None:
        with span("oracle.path_ordered_exponential", family=family):
            out["U"] = path_ordered_exponential(reps[rep_name], sol, steps=POE_STEPS)
    out["G"] = G
    return out


def check_trajectory(family: str, v0, out: dict) -> tuple[bool, str]:
    G, grid, states = out["G"], out["grid"], out["states"]
    bad = []
    if "closed" in out:
        sol = out["closed"]
        idx = np.clip(np.searchsorted(grid, S_PROBE), 0, len(grid) - 1)
        dev = float(np.max(np.abs(np.atleast_2d(sol(grid[idx])) - states[idx])))
        if not dev <= 1e-7:
            bad.append(f"closed vs rk4 {dev:.3g}")
        V = np.atleast_2d(sol(DENSE))
        quad_c = np.array([simpson(V[:, i], x=DENSE) for i in range(V.shape[1])])
        cerr = float(np.max(np.abs(quad_c - out["c1"])))
        if not cerr <= 1e-9:
            bad.append(f"coeffs vs simpson {cerr:.3g}")
    if family == "anharm_p":
        want = anharm_length(v0, 1.0, ANHARM_P)
        if not abs(out["length"] - want) <= 1e-8 * abs(want):
            bad.append(f"length {out['length']!r} vs elliptic {want!r}")
    else:
        speeds = np.einsum("i,ni->n", G.weights, states ** 2)
        drift = float(np.max(np.abs(speeds - speeds[0]))) / (1.0 + speeds[0])
        if not drift <= 1e-9:
            bad.append(f"speed drift {drift:.3g}")
        lerr = abs(out["length"] ** 2 - speeds[0]) / (1.0 + speeds[0])
        if not lerr <= 1e-9:
            bad.append(f"length vs conserved speed {lerr:.3g}")
    if "U" in out:
        det_err = abs(np.linalg.det(out["U"]) - 1.0)
        if not det_err <= 1e-10:
            bad.append(f"|det U - 1| {det_err:.3g}")
    return not bad, f"{family} v0={list(v0)}: {'; '.join(bad)}"


def check_report(report: dict) -> tuple[bool, str]:
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    return not failed, f"verify all failed {failed}"


class Workload:
    """Rounds of one operation each, cycling through ``verify`` and the families.

    Cycle ``c`` (rounds ``6c .. 6c+5``) is one ``run_suite("all")`` followed
    by one trajectory per family in an order and with ``v0`` seeded by
    ``(seed, c)``.  One operation per round keeps the host-speed gate fine
    grained.
    """

    op_name = "op.trajectory"
    # 20 verify runs and 100 trajectories already take about a minute, so a
    # run has little time to replace the rounds measured on a slow host
    MAX_S = 70.0           # stop waiting for fast-host rounds here
    TAIL = 90
    WORK = "trajectories"
    PASS = "run_suite('all')"
    LABELS = {"rate_per_s": ("trajectories_per_s", "1/s"),
              "op_ms_p50": ("trajectory_ms_p50", "ms"),
              "op_ms_tail": ("trajectory_ms_p90", "ms"),
              "pass_s_p50": ("verify_s_p50", "s")}

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.reps = {name: matrix_rep(name) for name in ("sp2_J", "coupled_M4",
                                                         "sp4_T10")}
        self.op_times = Samples(2_000)       # a run makes about 100 trajectories
        self.pass_times = Samples(1_000)

    def make_round(self, r: int) -> list[tuple]:
        """[(family, v0)], with family "verify" and v0 None for the suite."""
        cycle, pos = divmod(r, CYCLE)
        if pos == 0:
            return [("verify", None)]
        rng = np.random.default_rng([self.seed, cycle])
        names = list(FAMILIES)
        cases = []
        for i in rng.permutation(len(names)):
            family = names[i]
            dim = builtin(FAMILIES[family][1]).dim
            cases.append((family, rng.uniform(-2.0, 2.0, size=dim)))
        return [cases[pos - 1]]

    def run_round(self, plan, r: int, outcome) -> None:
        for family, v0 in plan:
            try:
                t0 = now()
                if v0 is None:
                    out = run_suite("all")
                else:
                    out = trajectory(family, v0, self.reps)
                dt = now() - t0
                ok, why = (check_report(out) if v0 is None
                           else check_trajectory(family, v0, out))
            except Exception as exc:  # a failure never aborts the run
                ok, why = False, f"{family}: {exc!r}"
            outcome.record(ok, why)
            if ok:
                (self.pass_times if v0 is None else self.op_times).add(dt, r)

    def trace_round(self, plan, r: int, tracer, outcome, pairs, paired: bool) -> None:
        for family, v0 in plan:
            is_traj = v0 is not None
            try:
                with tracer.op("op.verify" if v0 is None else self.op_name,
                               family=family):
                    if is_traj:
                        u, t, out = paired_run(
                            tracer, r % 2 == 0 if paired else None,
                            lambda: trajectory(family, v0, self.reps),
                            lambda: trajectory(family, v0, self.reps, tracer.span))
                        self._count_trajectory(tracer, family)
                        replay_rk4(tracer, family, v0)
                    else:
                        with tracer.span("verification.run_suite", suite="all"):
                            out = run_suite("all")
                        replay_suites(tracer)
                ok, why = (check_trajectory(family, v0, out) if is_traj
                           else check_report(out))
            except Exception as exc:
                ok, why = False, f"{family}: {exc!r}"
            outcome.record(ok, why)
            if ok and paired and is_traj:
                pairs.append((u, t))

    @staticmethod
    def _count_trajectory(tracer, family: str) -> None:
        tracer.counts["euler_arnold.rk4_steps"] += RK4_STEPS
        if FAMILIES[family][2] is not None:
            tracer.counts["oracle.expm_calls"] += POE_STEPS


def replay_rk4(tracer, family: str, v0) -> None:
    """RK4 on the closed-form family's own right-hand side, as ``verify`` runs it.

    The anharmonic trajectory already did this inside the operation.
    """
    fam = FAMILIES[family][0]
    if fam is None or family == "anharm_p":
        return
    with tracer.span("euler_arnold.integrate_rk4", family=family):
        integrate_rk4(fam.governing_rhs(), v0, DEFAULT_STEP)
    tracer.counts["euler_arnold.rk4_steps"] += RK4_STEPS


def replay_suites(tracer) -> None:
    """Each verify suite on its own, then the suites' layer calls one by one."""
    for suite in ("algebra", "geodesic", "oracle"):
        with tracer.span("verification.run_suite", suite=suite):
            run_suite(suite)
    for name, params in SUITE_ALGEBRAS:
        with tracer.span("algebra.builtin", algebra=name):
            spec = builtin(name, **params)
        with tracer.span("algebra.validate", algebra=name):
            validate(spec)
    for name in SUITE_MATRIX_REPS:
        rep = matrix_rep(name)
        with tracer.span("oracle.commutator_closure_residual", rep=name):
            commutator_closure_residual(rep)
    for name in SUITE_FOCK_REPS:
        with tracer.span("oracle.fock_rep", rep=name):
            rep = fock_rep(name, levels=32)
        with tracer.span("oracle.commutator_closure_residual", rep=f"fock_{name}"):
            commutator_closure_residual(rep)
