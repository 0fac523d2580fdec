"""Self-check suites behind ``qc-bound verify``.

Each suite returns a report dict
{suite, checks: [{name, residual, threshold, margin, pass}]} with
deterministic inputs (fixed seeds, fixed grids), so repeated runs produce
identical numbers; ``margin = threshold - residual`` shows how close each
check came to failing, and ``pass`` is ``margin >= 0``.  Thresholds mirror
the package-level accuracy contracts: exact-zero Jacobi residuals, 1e-9
speed-conservation drift, 1e-7 closed-form/numeric agreement, 1e-9
boundary-match round trips.
"""

from __future__ import annotations

import math

import numpy as np

from . import algebra, bounds, euler_arnold, geodesic, matching, oracle, systems

__all__ = ["run_suite", "SUITES"]


def _check(name, residual, threshold):
    margin = float(threshold) - float(residual)
    return {"name": name, "residual": float(residual),
            "threshold": float(threshold), "margin": margin,
            "pass": bool(margin >= 0)}


# ---------------------------------------------------------------------------
# algebra suite
# ---------------------------------------------------------------------------

def _suite_algebra():
    checks = []
    for name in ("ho4", "sp2_K", "sp2_J", "coupled_M4", "sp4_T10"):
        rep = algebra.validate(algebra.builtin(name))
        checks.append(_check(f"jacobi_{name}", rep.max_jacobi_residual, 0.0))
        checks.append(_check(f"antisymmetry_{name}",
                             float(len(rep.antisymmetry_violations)), 0.0))
    rep = algebra.validate(algebra.builtin("ho4_general", m=1.7, omega=0.6))
    checks.append(_check("jacobi_ho4_general", rep.max_jacobi_residual, 0.0))

    rep = algebra.validate(algebra.builtin("anharm5"))
    checks.append(_check("jacobi_anharm5_closed_subtable",
                         rep.max_jacobi_residual, 0.0))
    checks.append(_check("anharm5_open_pairs",
                         abs(len(rep.open_pairs) - 6), 0.0))

    got = algebra.change_basis(algebra.builtin("sp2_K"), algebra.KJ_BASIS_CHANGE)
    diff = float(np.max(np.abs(got.f - algebra.builtin("sp2_J").f)))
    checks.append(_check("basis_change_K_to_J", diff, 0.0))

    # coupled table decomposition: M1+M2 central, (M1-M2, M3, M4) su(2)-like
    f = algebra.builtin("coupled_M4").f
    center = np.array([1.0, 1.0, 0.0, 0.0])
    central_resid = float(np.max(np.abs(np.einsum("i,ijk->jk", center, f))))
    checks.append(_check("coupled_center_commutes", central_resid, 0.0))
    mdiff = np.array([1.0, -1.0, 0.0, 0.0])
    su2 = max(
        float(np.max(np.abs(np.einsum("i,ik->k", mdiff, f[:, 2, :])
                            - np.array([0, 0, 0, -2.0])))),
        float(np.max(np.abs(np.einsum("i,ik->k", mdiff, f[:, 3, :])
                            - np.array([0, 0, 2.0, 0])))),
        float(np.max(np.abs(f[2, 3] - np.array([-2.0, 2.0, 0, 0])))),
    )
    checks.append(_check("coupled_su2_block", su2, 0.0))
    return checks


# ---------------------------------------------------------------------------
# geodesic suite
# ---------------------------------------------------------------------------

def _family_cases(rng):
    ho = euler_arnold.ClosedFormFamily("ho4_equal_penalty")
    sp = euler_arnold.ClosedFormFamily("sp2_J_equal_penalty")
    cp = euler_arnold.ClosedFormFamily("coupled_pq", q=1.0, p=10.0)
    an = euler_arnold.ClosedFormFamily("anharm_p", p=100.0)
    return [
        (ho, rng.uniform(-2, 2, size=4)),
        (sp, rng.uniform(-2, 2, size=3)),
        (cp, rng.uniform(-2, 2, size=4)),
        (an, rng.uniform(-2, 2, size=5)),
    ]


def _suite_geodesic():
    rng = np.random.default_rng(20240901)
    checks = []
    s_probe = np.linspace(0.0, 1.0, 101)

    for fam, v0 in _family_cases(rng):
        sol = euler_arnold.solve_closed_form(fam, v0)
        # for the rotation families this is the table flow that
        # solve_numeric integrates, so one run serves both checks
        grid, states = euler_arnold.integrate_rk4(fam.governing_rhs(), v0,
                                                  euler_arnold.DEFAULT_STEP)
        idx = np.searchsorted(grid, s_probe)
        idx = np.clip(idx, 0, len(grid) - 1)
        dev = float(np.max(np.abs(np.atleast_2d(sol(grid[idx])) - states[idx])))
        checks.append(_check(f"closed_vs_rk4_{fam.tag}", dev, 1e-7))

        if fam.constant_speed:
            G = fam.default_penalties()
            speeds = np.einsum("i,ni->n", G.weights, states ** 2)
            drift = float(np.max(np.abs(speeds - speeds[0])))
            checks.append(_check(
                f"speed_drift_{fam.tag}",
                drift / (1.0 + speeds[0]), 1e-9))

        coeffs = geodesic.leading_order_coeffs(sol)
        dense = np.linspace(0.0, 1.0, 1001)
        V = np.atleast_2d(sol(dense))
        cerr = 0.0
        for k in (250, 500, 1000):
            quad_c = np.array([bounds.simpson(V[: k + 1, i], dense[: k + 1])
                               for i in range(V.shape[1])])
            cerr = max(cerr, float(np.max(np.abs(quad_c - coeffs(dense[k])))))
        checks.append(_check(f"coeffs_vs_simpson_{fam.tag}", cerr, 1e-9))

    # boundary-match round trips over all systems
    targets = [
        systems.TargetSpec.ho(1.0, 2.2),
        systems.TargetSpec.ho(1.0, 9.7),
        systems.TargetSpec.displacement(0.8 - 1.1j),
        systems.TargetSpec.ho_linear(1.0, 0.3, 2.0),
        systems.TargetSpec.sp2_ho(1.0, 5.0),
        systems.TargetSpec.iho(2.0, 3.0),
        systems.TargetSpec.ho_quadratic(1.0, 0.2, 1.3),
        systems.TargetSpec.free_particle(1.0, 2.4),
        systems.TargetSpec.coupled(2.0, 1.0, 3.0, 0.4, q=1.0, p=10.0),
        systems.TargetSpec.anharm_cubic(1.0, 0.1, 1.0, g11=1.0, p=1e6),
    ]
    worst = 0.0
    for tgt in targets:
        res = matching.match(tgt)
        worst = max(worst, matching.verify_match(res, tgt))
    checks.append(_check("match_round_trip", worst, 1e-9))

    # pole scan: large values only next to the known pole
    ts = np.arange(1e-3, 4 * math.pi, 1e-3)
    vals = bounds.bound_curve(systems.TargetSpec.ho_linear(1.0, 0.3, ts[0]),
                              ts).value
    big = ts[vals > 50.0]
    off_pole = big[np.abs(big - 2 * math.pi) > 0.25] if len(big) else np.array([])
    checks.append(_check("ho_linear_pole_location", float(len(off_pole)), 0.0))

    # product form solves its own coefficient equations
    v0 = np.array([0.0, 0.9, -0.7, 0.4])
    fam = euler_arnold.ClosedFormFamily("ho4_equal_penalty")
    sol = euler_arnold.solve_closed_form(fam, v0)
    pf = geodesic.product_form_coeffs_ho4(v0)
    resid = geodesic.residual_product_form(pf, sol, np.linspace(0, 1, 101))
    checks.append(_check("product_form_ode_residual", resid, 1e-10))
    return checks


# ---------------------------------------------------------------------------
# oracle suite
# ---------------------------------------------------------------------------

def _suite_oracle():
    rng = np.random.default_rng(20240902)
    checks = []
    for name in ("sp2_J", "sp2_K", "sp4_T10", "coupled_M4"):
        rep = oracle.matrix_rep(name)
        checks.append(_check(f"closure_matrix_{name}",
                             oracle.commutator_closure_residual(rep), 1e-12))
    for name in ("ho4", "sp2_J", "anharm5"):
        rep = oracle.fock_rep(name, levels=32)
        checks.append(_check(f"closure_fock_{name}",
                             oracle.commutator_closure_residual(rep), 1e-10))

    # period pair: 2 pi at matrix level, 4 pi on the half-integer spectrum
    rep2 = oracle.matrix_rep("sp2_J")
    mat_period_defect = float(np.max(np.abs(oracle.exponential_of_coefficients(
        rep2, [0.0, 0.0, 2 * math.pi]) - np.eye(2))))
    checks.append(_check("sp2_matrix_period_2pi", mat_period_defect, 1e-12))
    fockJ = oracle.fock_rep("sp2_J", levels=16)
    T = oracle.spectrum_period_check(fockJ, omega=1.0)
    checks.append(_check("fock_spectrum_period_4pi",
                         abs(T - 4 * math.pi), 1e-12))

    # line element: normalization at the identity and right-invariance
    G = euler_arnold.PenaltyMatrix.diagonal([1.0, 2.0, 3.0])
    eps = 1e-3
    norm_err = 0.0
    for i in range(3):
        ds2 = oracle.line_element(rep2, np.eye(2, dtype=complex),
                                  -1j * eps * rep2.matrices[i], G)
        norm_err = max(norm_err, abs(ds2 - G.weights[i] * eps ** 2))
    checks.append(_check("line_element_identity_normalization", norm_err, 1e-15))
    U = oracle.random_group_element(rep2, rng)
    dU = sum(float(c) * (-1j) * M @ U
             for c, M in zip(rng.uniform(-0.1, 0.1, 3), rep2.matrices))
    base = oracle.line_element(rep2, U, dU, G)
    inv_err = 0.0
    for _ in range(5):
        g = oracle.random_group_element(rep2, rng)
        inv_err = max(inv_err, abs(oracle.line_element(rep2, U @ g, dU @ g, G) - base))
    checks.append(_check("line_element_right_invariance", inv_err, 1e-10))

    # leading-order truncation error scales cubically in the velocity
    fam = euler_arnold.ClosedFormFamily("sp2_J_equal_penalty")
    direction = np.array([0.5, -0.3, 0.8])
    direction /= np.linalg.norm(direction)
    errs = []
    radii = (0.02, 0.04, 0.08)
    for r in radii:
        sol = euler_arnold.solve_closed_form(fam, r * direction)
        U_po = oracle.path_ordered_exponential(rep2, sol)
        c1 = geodesic.leading_order_coeffs(sol)(1.0)
        U_lo = oracle.exponential_of_coefficients(rep2, c1)
        errs.append(np.linalg.norm(U_po - U_lo, 2))
    slope = np.polyfit(np.log(radii), np.log(errs), 1)[0]
    checks.append(_check("dyson_error_cubic_exponent", abs(slope - 3.0), 0.5))

    # moderate-velocity deviation quantifies the dropped Dyson terms; the
    # exact gap at this point is 3.96e-3 (checked against a tight-tolerance
    # ODE integration), so the threshold only guards against regressions
    sol = euler_arnold.solve_closed_form(fam, np.array([0.1, 0.0, 0.2]))
    U_po = oracle.path_ordered_exponential(rep2, sol)
    U_lo = oracle.exponential_of_coefficients(
        rep2, geodesic.leading_order_coeffs(sol)(1.0))
    checks.append(_check("dyson_error_moderate_velocity",
                         float(np.linalg.norm(U_po - U_lo, 2)), 5e-3))
    return checks


# suite name -> the check functions it runs, in order
_SUITE_FNS = {
    "algebra": (_suite_algebra,),
    "geodesic": (_suite_geodesic,),
    "oracle": (_suite_oracle,),
    "all": (_suite_algebra, _suite_geodesic, _suite_oracle),
}
SUITES = tuple(_SUITE_FNS)


def run_suite(name: str) -> dict:
    """Run one suite (or ``all``) and return the JSON-ready report."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    checks = [check for suite in _SUITE_FNS[name] for check in suite()]
    return {"suite": name, "checks": checks}
