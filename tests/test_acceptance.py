"""Acceptance suite: one test per exit criterion, each printing a verdict.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.  Tolerances are fixed here, not calibrated elsewhere.
"""

import math
import time

import numpy as np
from scipy.linalg import expm

import qcbound as qb
from qcbound import oracle
from qcbound.bounds import anharm_integrand_coeffs
from qcbound.cli import main
from qcbound.euler_arnold import ClosedFormFamily, integrate_rk4

from quadrature_reference import anharm_length_quadrature

PI = math.pi


def _verdict(num: int, label: str, ok: bool, detail: str = ""):
    tail = f"  [{detail}]" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'}  criterion {num}: {label}{tail}")
    assert ok, f"criterion {num}: {label}{tail}"


def _sawtooth(x):
    return np.abs(x - 4 * PI * np.floor((x + 2 * PI) / (4 * PI)))


# ---------------------------------------------------------------------------

def test_criterion_1_harmonic_sawtooth():
    grid = np.linspace(0.0, 16 * PI, 2001)
    t0 = time.perf_counter()
    vals = np.array([qb.bound(qb.TargetSpec.ho(1.0, float(t))).value
                     for t in grid])
    elapsed = time.perf_counter() - t0
    want = _sawtooth(grid)
    err = float(np.max(np.abs(vals - want)))
    peak_ok = abs(np.max(vals) - 2 * PI) <= 1e-12
    zeros_ok = all(
        qb.bound(qb.TargetSpec.ho(1.0, 4 * PI * n)).value == 0.0
        for n in range(5)
    )
    _verdict(1, "harmonic-oscillator sawtooth pointwise to 1e-12, runtime < 1 s",
             err <= 1e-12 and peak_ok and zeros_ok and elapsed < 1.0,
             f"max err {err:.2e}, {elapsed:.2f} s")


def test_criterion_2_displacement():
    rng = np.random.default_rng(123)
    worst = 0.0
    alt_ok = True
    for _ in range(100):
        alpha = complex(rng.normal(), rng.normal())
        res = qb.bound(qb.TargetSpec.displacement(alpha))
        worst = max(worst, abs(res.value - math.sqrt(2) * abs(alpha)))
        alt = res.extras["product_form_value"]
        alt_ok &= abs(alt - 2 * abs(alpha)) <= 1e-12
        alt_ok &= abs(qb.match_displacement_product_form(alpha)["value"]
                      - 2 * abs(alpha)) <= 1e-12
    _verdict(2, "displacement bound sqrt(2)|alpha| with 2|alpha| alternate reported",
             worst <= 1e-12 and alt_ok, f"max err {worst:.2e}")


def test_criterion_3_inverted_oscillator():
    ok = True
    for Omega in (0.5, 1.0, 2.0):
        for t in np.linspace(0.0, 100.0 / Omega, 101):
            res = qb.bound(qb.TargetSpec.iho(Omega, float(t)))
            ok &= abs(res.value - Omega * t) <= 1e-12 * max(1.0, Omega * t)
            ok &= res.branch == 0
    _verdict(3, "inverted oscillator grows linearly, no periodicity branch", ok)


def test_criterion_4_linear_perturbation_poles():
    lam = 0.25
    # poles exactly where the reduced energy coordinate hits half a period
    pole_ok = all(
        qb.bound(qb.TargetSpec.ho_linear(1.0, lam, (4 * n + 2) * PI)).is_divergent
        for n in range(4)
    )
    # the reduced matching at full periods has the finite limit |lam t|
    finite_ok = all(
        not qb.bound(qb.TargetSpec.ho_linear(1.0, lam, 4 * n * PI)).is_divergent
        for n in range(1, 4)
    )
    # lambda -> 0 recovers the sawtooth through a decreasing sequence
    ts = np.array([0.7, 2.0, 3.5, 5.0, 9.0, 11.0])
    saw = _sawtooth(ts)
    diffs = []
    for lam_k in (1e-2, 1e-4, 1e-6):
        vals = np.array([qb.bound(qb.TargetSpec.ho_linear(1.0, lam_k, float(t))).value
                         for t in ts])
        diffs.append(float(np.max(np.abs(vals - saw))))
    monotone = diffs[0] > diffs[1] > diffs[2]
    _verdict(4, "linear-perturbation poles at half periods, sawtooth recovered "
                "as the coupling vanishes",
             pole_ok and finite_ok and monotone and diffs[-1] <= 1e-9,
             f"final gap {diffs[-1]:.2e}")


def test_criterion_5_quadratic_perturbation_limits():
    iho_ok = True
    for omega, t in [(1.0, 0.3), (1.3, 2.7), (0.7, 9.0)]:
        res = qb.bound(qb.TargetSpec.ho_quadratic(omega, -omega, t))
        iho_ok &= abs(res.value - omega * t) <= 1e-12 * max(1.0, omega * t)
    m = 1.0
    omega = 1.0 / m
    fp_ok = True
    for t in (0.4, 2.0, 5.5, 9.0, 20.0):
        v3 = 0.5 * abs(omega * t - 8 * PI * math.floor((omega * t + 4 * PI) / (8 * PI)))
        if abs(math.sin(2 * v3)) < 1e-9:
            continue
        want = v3 * math.sqrt(1 + t ** 2 / (m ** 2 * math.sin(2 * v3) ** 2))
        got = qb.bound(qb.TargetSpec.free_particle(m, t)).value
        fp_ok &= abs(got - want) <= 1e-12 * max(1.0, want)
    # 8 pi periodicity of the free-particle compact coordinate
    v_a = qb.match(qb.TargetSpec.free_particle(m, 1.7)).v0[2]
    v_b = qb.match(qb.TargetSpec.free_particle(m, 1.7 + 8 * PI)).v0[2]
    fp_ok &= abs(v_a - v_b) <= 1e-12
    _verdict(5, "inverted limit |omega t| and free-particle formula with 8 pi period",
             iho_ok and fp_ok)


def test_criterion_6_coupled_oscillators(tmp_path):
    spread = 0.0
    for t in (0.3, 0.8, 1.9):
        vals = [qb.bound(qb.TargetSpec.coupled(1.5, 1.5, 2.0, t, q=1.0, p=p)).value
                for p in (1.0, 5.0, 10.0, 100.0)]
        spread = max(spread, max(vals) - min(vals))
    f5 = tmp_path / "fig5.csv"
    f6 = tmp_path / "fig6.csv"
    csv_ok = main(["figure", "fig5", "--out", str(f5), "--t-steps", "51"]) == 0
    csv_ok &= main(["figure", "fig6", "--out", str(f6), "--t-steps", "51"]) == 0
    head5 = f5.read_text().splitlines()
    csv_ok &= head5[0] == "t,value,branch,divergent,series"
    csv_ok &= {ln.rsplit(",", 1)[1] for ln in head5[1:]} == {
        "p=1", "p=5", "p=10", "p=100"}
    # spot-check one fig5 row against the direct evaluation with the caption
    # parameters omega1=2, omega2=1, mu=3, q=1
    row = head5[1 + 25]  # middle of the first series
    t_row, v_row = float(row.split(",")[0]), float(row.split(",")[1])
    direct = qb.bound(qb.TargetSpec.coupled(2.0, 1.0, 3.0, t_row, q=1.0, p=1.0)).value
    csv_ok &= abs(v_row - direct) <= 1e-9 * max(1.0, direct)
    _verdict(6, "equal-frequency bound independent of penalties; sweep CSVs "
                "regenerate with caption parameters",
             spread <= 1e-10 and csv_ok, f"spread {spread:.2e}")


def test_criterion_7_anharmonic():
    rng = np.random.default_rng(77)
    worst_rel = 0.0
    checked = 0
    while checked < 200:
        v = rng.normal(size=5) * rng.uniform(0.2, 2.0)
        g11 = rng.uniform(0.5, 2.0)
        p = rng.uniform(1.0, 500.0)
        A, B, C = anharm_integrand_coeffs(v, g11, p)
        if A - abs(B) - abs(C) <= 1e-9:
            continue
        le = qb.anharm_length(v, g11, p)
        lq = anharm_length_quadrature(v, g11, p)
        worst_rel = max(worst_rel, abs(le - lq) / abs(lq))
        checked += 1
    elliptic_ok = worst_rel <= 1e-8

    ts = np.array([0.9, 3.1, 5.0, 7.3, 11.0])
    saw = _sawtooth(ts)
    vals = np.array([qb.bound(qb.TargetSpec.anharm_cubic(1.0, 1e-7, float(t),
                                                         g11=1.0, p=100.0)).value
                     for t in ts])
    limit_ok = float(np.max(np.abs(vals - saw))) <= 1e-8

    pole_ts = [2 * PI / 3, 4 * PI / 3, 2 * PI, 8 * PI / 3, 10 * PI / 3]
    poles_ok = all(qb.bound(qb.TargetSpec.anharm_cubic(1.0, 0.05, t)).is_divergent
                   for t in pole_ts)
    regular_ok = all(
        not qb.bound(qb.TargetSpec.anharm_cubic(1.0, 0.05, float(t))).is_divergent
        for t in np.linspace(0.05, 4.0, 37)
        if min(abs(t - tp) for tp in pole_ts) > 1e-3
    )
    _verdict(7, "elliptic length vs quadrature 1e-8 over 200 draws; harmonic "
                "limit; poles only at the flagged set",
             elliptic_ok and limit_ok and poles_ok and regular_ok,
             f"worst rel {worst_rel:.2e}")


def test_criterion_8_property_suites():
    from qcbound.algebra import jacobi_tensor
    jac_ok = all(
        np.max(np.abs(jacobi_tensor(qb.builtin(n).f))) == 0.0
        for n in ("ho4", "sp2_K", "sp2_J", "coupled_M4", "sp4_T10")
    )

    rng = np.random.default_rng(88)
    drift_ok = True
    for name in ("ho4", "sp2_J", "coupled_M4", "sp4_T10"):
        alg = qb.builtin(name)
        G = qb.PenaltyMatrix.identity(alg.dim)
        v0 = rng.uniform(-2, 2, size=alg.dim)
        sol = qb.solve_numeric(alg, G, v0)
        speeds = np.einsum("i,ni->n", G.weights, sol.states ** 2)
        drift_ok &= float(np.max(np.abs(speeds - speeds[0]))) <= 1e-9 * (1 + speeds[0])

    dev_ok = True
    for fam, dim in [(ClosedFormFamily("ho4_equal_penalty"), 4),
                     (ClosedFormFamily("sp2_J_equal_penalty"), 3),
                     (ClosedFormFamily("coupled_pq", q=1.0, p=10.0), 4),
                     (ClosedFormFamily("anharm_p", p=100.0), 5)]:
        v0 = rng.uniform(-2, 2, size=dim)
        grid, states = integrate_rk4(fam.governing_rhs(), v0,
                                     qb.euler_arnold.DEFAULT_STEP)
        sol = qb.solve_closed_form(fam, v0)
        sample = slice(0, len(grid), 100)
        dev = np.max(np.abs(np.atleast_2d(sol(grid[sample])) - states[sample]))
        dev_ok &= dev <= 1e-7

    rt_ok = True
    for _ in range(25):
        tgt = qb.TargetSpec.coupled(rng.uniform(0.5, 2), rng.uniform(0.5, 2),
                                    rng.uniform(0, 3), rng.uniform(0, 3),
                                    q=1.0, p=rng.uniform(1, 20))
        rt_ok &= qb.verify_match(qb.match(tgt), tgt) <= 1e-9
        tgt = qb.TargetSpec.anharm_cubic(rng.uniform(0.5, 2), rng.uniform(-0.3, 0.3),
                                         rng.uniform(0, 10))
        res = qb.match(tgt)
        if not res.is_divergent:
            rt_ok &= qb.verify_match(res, tgt) <= 1e-9

    _verdict(8, "Jacobi exact, speed drift <= 1e-9, closed-vs-RK4 <= 1e-7, "
                "round trips <= 1e-9",
             jac_ok and drift_ok and dev_ok and rt_ok)


def test_criterion_9_oracle_periods_and_scaling():
    fockJ = oracle.fock_rep("sp2_J", levels=16)
    period_fock = oracle.spectrum_period_check(fockJ, omega=1.0)
    rep2 = oracle.matrix_rep("sp2_J")
    two_pi_defect = float(np.max(np.abs(
        expm(-2j * PI * rep2.matrices[2]) - np.eye(2))))
    periods_ok = abs(period_fock - 4 * PI) <= 1e-12 and two_pi_defect <= 1e-12

    fam = ClosedFormFamily("sp2_J_equal_penalty")
    direction = np.array([0.5, -0.3, 0.8])
    direction /= np.linalg.norm(direction)
    radii = np.array([0.02, 0.04, 0.08])
    errs = []
    for r in radii:
        sol = qb.solve_closed_form(fam, r * direction)
        U_po = oracle.path_ordered_exponential(rep2, sol, steps=4000)
        U_lo = oracle.exponential_of_coefficients(
            rep2, qb.leading_order_coeffs(sol)(1.0))
        errs.append(np.linalg.norm(U_po - U_lo, 2))
    slope = float(np.polyfit(np.log(radii), np.log(errs), 1)[0])
    _verdict(9, "metaplectic period pair (2 pi matrix / 4 pi spectrum) and "
                "cubic Dyson-gap scaling",
             periods_ok and 2.5 <= slope <= 3.5, f"exponent {slope:.3f}")
