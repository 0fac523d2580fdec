"""Lengths and complexity-bound values for all target systems."""

import math

import numpy as np
import pytest

import qcbound as qb
from qcbound.bounds import anharm_integrand_coeffs
from qcbound.euler_arnold import ClosedFormFamily

from quadrature_reference import anharm_length_quadrature

PI = math.pi


def _sawtooth(x):
    return abs(x - 4 * PI * math.floor((x + 2 * PI) / (4 * PI)))


# ---------------------------------------------------------------------------
# length
# ---------------------------------------------------------------------------

def test_length_pure_energy_geodesic():
    fam = ClosedFormFamily("ho4_equal_penalty")
    sol = qb.solve_closed_form(fam, np.array([0.0, 0.0, 0.0, 2.4]))
    assert qb.length(sol, qb.PenaltyMatrix.identity(4)) == 2.4


def test_length_zero_solution():
    fam = ClosedFormFamily("sp2_J_equal_penalty")
    sol = qb.solve_closed_form(fam, np.zeros(3))
    assert qb.length(sol, qb.PenaltyMatrix.identity(3)) == 0.0


def test_length_coupled_weighted_norm():
    q, p = 2.0, 7.0
    fam = ClosedFormFamily("coupled_pq", q=q, p=p)
    v0 = np.array([1.0, -0.5, 0.8, 0.3])
    sol = qb.solve_closed_form(fam, v0)
    G = qb.PenaltyMatrix.diagonal([q, q, p, p])
    want = math.sqrt(q * (v0[0] ** 2 + v0[1] ** 2) + p * (v0[2] ** 2 + v0[3] ** 2))
    assert qb.length(sol, G) == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("name,dim", [("ho4", 4), ("sp2_J", 3), ("coupled_M4", 4)])
def test_length_of_numeric_solution_matches_initial_speed(name, dim):
    rng = np.random.default_rng(dim)
    alg = qb.builtin(name)
    G = qb.PenaltyMatrix.identity(dim)
    v0 = rng.uniform(-1.5, 1.5, size=dim)
    sol = qb.solve_numeric(alg, G, v0)
    assert qb.length(sol, G) == pytest.approx(np.linalg.norm(v0), abs=1e-8)


@pytest.mark.parametrize("route", ["constant_speed", "simpson", "gauss_legendre"])
def test_length_rejects_penalties_of_the_wrong_dimension(route):
    # each used to end in numpy's "shapes not aligned"
    if route == "constant_speed":
        sol = qb.solve_closed_form(ClosedFormFamily("ho4_equal_penalty"),
                                   np.array([0.0, 0.3, -0.2, 1.0]))
    elif route == "simpson":
        sol = qb.solve_numeric(qb.builtin("ho4"), qb.PenaltyMatrix.identity(4),
                               np.array([0.0, 0.3, -0.2, 1.0]))
    else:
        sol = qb.solve_closed_form(ClosedFormFamily("anharm_p", p=10.0),
                                   np.array([0.5, 0.1, -0.2, 0.3, 0.1]))
    with pytest.raises(qb.DimMismatch):
        qb.length(sol, qb.PenaltyMatrix.identity(3))


# ---------------------------------------------------------------------------
# harmonic family bounds
# ---------------------------------------------------------------------------

def test_ho_bound_sawtooth_points():
    assert qb.bound(qb.TargetSpec.ho(1.0, PI)).value == pytest.approx(PI, abs=1e-15)
    assert qb.bound(qb.TargetSpec.ho(1.0, 3 * PI)).value == pytest.approx(PI, abs=1e-12)
    assert qb.bound(qb.TargetSpec.ho(1.0, 4 * PI)).value == 0.0
    assert qb.bound(qb.TargetSpec.ho(1.0, 0.0)).value == 0.0


def test_sp2_route_agrees_with_oscillator_group_route():
    for t in (0.3, 2.0, 7.0, 13.0):
        a = qb.bound(qb.TargetSpec.ho(1.0, t)).value
        b = qb.bound(qb.TargetSpec.sp2_ho(1.0, t)).value
        assert a == pytest.approx(b, abs=1e-12)


def test_displacement_bound_and_alternate():
    rng = np.random.default_rng(1)
    for _ in range(20):
        alpha = complex(rng.normal(), rng.normal())
        res = qb.bound(qb.TargetSpec.displacement(alpha))
        assert res.value == pytest.approx(math.sqrt(2) * abs(alpha), abs=1e-12)
        assert res.extras["product_form_value"] == pytest.approx(
            2 * abs(alpha), abs=1e-12)
        assert (res.extras["product_form_value"]
                == qb.match_displacement_product_form(alpha)["value"])


def test_iho_bound_linear_growth():
    for t in (0.1, 1.0, 10.0, 50.0):
        res = qb.bound(qb.TargetSpec.iho(2.0, t))
        assert res.value == pytest.approx(2.0 * t, rel=1e-15)
        assert res.branch == 0


def test_ho_linear_bound_closed_form():
    omega, lam, t = 1.0, 0.3, 2.0
    res = qb.bound(qb.TargetSpec.ho_linear(omega, lam, t))
    vh = _sawtooth(omega * t)
    want = vh * math.sqrt(1 + lam ** 2 * t ** 2 / (4 * math.sin(vh / 2) ** 2))
    assert res.value == pytest.approx(want, rel=1e-14)


def test_ho_linear_pole_bound_is_infinite():
    res = qb.bound(qb.TargetSpec.ho_linear(1.0, 0.3, 2 * PI))
    assert res.is_divergent
    assert res.value == math.inf


def test_ho_quadratic_bound_closed_form_and_monotonicity():
    omega, t = 1.0, 1.1
    base = qb.bound(qb.TargetSpec.ho_quadratic(omega, 0.0, t)).value
    assert base == pytest.approx(_sawtooth(omega * t), abs=1e-14)
    for lam in (0.05, 0.1, 0.2):
        res = qb.bound(qb.TargetSpec.ho_quadratic(omega, lam, t))
        v3 = _sawtooth((omega + lam) * t)
        want = v3 * math.sqrt(1 + 4 * lam ** 2 * t ** 2 / math.sin(2 * v3) ** 2)
        assert res.value == pytest.approx(want, rel=1e-14)
        assert res.value >= base


def test_ho_quadratic_inverted_limit_bound():
    omega, t = 1.3, 2.7
    assert qb.bound(qb.TargetSpec.ho_quadratic(omega, -omega, t)).value == \
        pytest.approx(omega * t, abs=1e-12)


def test_free_particle_formula_and_period():
    m = 1.0
    omega = 1.0 / m
    for t in (0.4, 2.0, 9.0, 20.0):
        v3 = 0.5 * abs(omega * t - 8 * PI * math.floor((omega * t + 4 * PI) / (8 * PI)))
        res = qb.bound(qb.TargetSpec.free_particle(m, t))
        if v3 == 0 or abs(math.sin(2 * v3)) < 1e-12:
            continue
        want = v3 * math.sqrt(1 + t ** 2 / (m ** 2 * math.sin(2 * v3) ** 2))
        assert res.value == pytest.approx(want, rel=1e-12)
    # the compact coordinate is 8 pi periodic in omega t
    t0 = 1.7
    a = qb.match(qb.TargetSpec.free_particle(m, t0)).v0[2]
    b = qb.match(qb.TargetSpec.free_particle(m, t0 + 8 * PI / omega)).v0[2]
    assert a == pytest.approx(b, abs=1e-12)


# ---------------------------------------------------------------------------
# coupled bounds
# ---------------------------------------------------------------------------

def test_coupled_bound_matches_reference_expression():
    w1, w2, mu, t, q, p = 2.0, 1.0, 3.0, 0.7, 1.0, 10.0
    res = qb.bound(qb.TargetSpec.coupled(w1, w2, mu, t, q=q, p=p))
    sp = (w1 + w2) * t - 4 * PI * math.floor(((w1 + w2) * t + 2 * PI) / (4 * PI))
    sm = (w1 - w2) * t - 4 * PI * math.floor(((w1 - w2) * t + 2 * PI) / (4 * PI))
    h = (p - 2 * q) * sm / (2 * p)
    want = math.sqrt(0.5 * (sp ** 2 + sm ** 2)
                     + mu ** 4 * t ** 2 * h ** 2 / math.sin(h) ** 2)
    assert res.value == pytest.approx(want, rel=1e-13)


def test_coupled_equal_frequency_penalty_independence():
    vals = [qb.bound(qb.TargetSpec.coupled(1.5, 1.5, 2.0, 0.8, q=1.0, p=p)).value
            for p in (1.0, 5.0, 10.0, 100.0)]
    assert max(vals) - min(vals) <= 1e-10
    t, mu = 0.8, 2.0
    v_sum = 2 * abs(1.5 * t - 2 * PI * math.floor((1.5 * t + PI) / (2 * PI)))
    want = math.sqrt(0.5 * v_sum ** 2 + mu ** 4 * t ** 2)
    assert vals[0] == pytest.approx(want, rel=1e-13)


def test_coupled_zero_coupling_reduces_to_two_oscillators():
    w1, w2, t = 2.0, 1.0, 0.9
    res = qb.bound(qb.TargetSpec.coupled(w1, w2, 0.0, t, q=1.0, p=10.0))
    sp = _sawtooth((w1 + w2) * t)
    sm = _sawtooth((w1 - w2) * t)
    assert res.value == pytest.approx(math.sqrt(0.5 * (sp ** 2 + sm ** 2)),
                                      rel=1e-13)


# ---------------------------------------------------------------------------
# anharmonic bounds
# ---------------------------------------------------------------------------

def test_anharm_elliptic_matches_quadrature_randomized():
    rng = np.random.default_rng(9)
    checked = 0
    while checked < 60:
        v = rng.normal(size=5)
        g11 = rng.uniform(0.5, 2.0)
        p = rng.uniform(1.0, 200.0)
        A, B, C = anharm_integrand_coeffs(v, g11, p)
        if A - abs(B) - abs(C) <= 1e-9:
            continue
        le = qb.anharm_length(v, g11, p)
        lq = anharm_length_quadrature(v, g11, p)
        assert abs(le - lq) <= 1e-8 * abs(lq)
        checked += 1


def test_anharm_integrand_positivity_on_matched_velocities():
    rng = np.random.default_rng(10)
    for _ in range(50):
        t = rng.uniform(0.1, 12.0)
        tgt = qb.TargetSpec.anharm_cubic(1.0, rng.uniform(-0.2, 0.2), t, p=100.0)
        res = qb.match(tgt)
        if res.is_divergent:
            continue
        A, B, C = anharm_integrand_coeffs(res.v0, 1.0, 100.0)
        assert A - math.hypot(B, C) > 0.0


def test_anharm_harmonic_limit():
    for t in (1.0, 3.0, 7.0, 11.0):
        res = qb.bound(qb.TargetSpec.anharm_cubic(1.0, 1e-7, t, g11=1.0, p=100.0))
        assert res.value == pytest.approx(_sawtooth(t), abs=1e-8)


def test_anharm_divergences_flagged():
    res = qb.bound(qb.TargetSpec.anharm_cubic(1.0, 0.05, 2 * PI / 3))
    assert res.is_divergent
    res = qb.bound(qb.TargetSpec.anharm_cubic(1.0, 0.05, 1.0))
    assert not res.is_divergent
    assert res.value > 0


def test_anharm_frozen_phase_value():
    # at omega t = 4 pi only the cubic coefficient is left to build
    lam, t, p = 0.01, 4 * PI, 100.0
    res = qb.bound(qb.TargetSpec.anharm_cubic(1.0, lam, t, g11=1.0, p=p))
    assert res.value == pytest.approx(math.sqrt(p) * lam * t, rel=1e-10)


# ---------------------------------------------------------------------------
# curves and zero time
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda: qb.TargetSpec.ho(1.0, 0.0),
    lambda: qb.TargetSpec.ho_linear(1.0, 0.3, 0.0),
    lambda: qb.TargetSpec.sp2_ho(1.0, 0.0),
    lambda: qb.TargetSpec.iho(2.0, 0.0),
    lambda: qb.TargetSpec.ho_quadratic(1.0, 0.2, 0.0),
    lambda: qb.TargetSpec.free_particle(1.0, 0.0),
    lambda: qb.TargetSpec.coupled(2.0, 1.0, 3.0, 0.0, q=1.0, p=10.0),
    lambda: qb.TargetSpec.anharm_cubic(1.0, 0.1, 0.0),
])
def test_zero_time_bound_vanishes(make):
    res = qb.bound(make())
    assert res.value == 0.0
    assert np.allclose(res.v0, 0.0)


def test_bound_curve_sawtooth_shape():
    grid = np.linspace(0.0, 16 * PI, 801)
    curve = qb.bound_curve(qb.TargetSpec.ho(1.0, 0.0), grid)
    vals = curve.value
    assert np.max(vals) <= 2 * PI + 1e-12
    for n in range(5):
        k = np.argmin(np.abs(grid - 4 * PI * n))
        assert vals[k] == pytest.approx(0.0, abs=1e-9)


def test_bound_curve_emits_pole_records():
    grid = np.array([2 * PI - 0.1, 2 * PI, 2 * PI + 0.1])
    curve = qb.bound_curve(qb.TargetSpec.ho_linear(1.0, 0.3, 0.0), grid)
    flags = curve.divergent.tolist()
    assert flags == [False, True, False]


def test_bound_curve_requires_sorted_grid():
    with pytest.raises(ValueError):
        qb.bound_curve(qb.TargetSpec.ho(1.0, 0.0), np.array([1.0, 0.5]))


def test_bound_curve_anharm_gap_at_cubic_pole():
    grid = np.array([2 * PI / 3 - 0.1, 2 * PI / 3, 2 * PI / 3 + 0.1])
    curve = qb.bound_curve(qb.TargetSpec.anharm_cubic(1.0, 0.05, 0.0), grid)
    assert curve.divergent.tolist() == [False, True, False]


def test_bound_curve_shared_fields():
    grid = np.array([0.5, PI, 4.0])     # m = 0.5: v3 = (omega + lambda) t = t
    curve = qb.bound_curve(qb.TargetSpec.free_particle(0.5, 0.0), grid)
    assert curve.formula_id == "quadratic_cot"
    assert curve.caveats[0] == qb.bounds.STANDARD_CAVEAT
    assert any("free particle wired" in c for c in curve.caveats)
    assert curve.pole.tolist() == [
        None, "sin(2 v3) = 0 at v3 = 2*pi/2: quadratic coupling cannot be matched",
        None]


def test_bound_curve_applies_the_precision_contract():
    target = qb.TargetSpec.ho(1.0, 0.0)
    assert not any(c.startswith("precision:")
                   for c in qb.bound_curve(target, [0.0, 6e4]).caveats)
    assert any(c.startswith("precision:")
               for c in qb.bound_curve(target, [0.0, 7e4]).caveats)
    with pytest.raises(qb.PrecisionLoss):
        qb.bound_curve(target, [0.0, 1.0, 2.0 ** 56])
    with pytest.raises(ValueError):
        qb.bound_curve(target, [0.0, math.nan])


def test_bound_curve_rejects_timeless_target():
    with pytest.raises(qb.Unsupported):
        qb.bound_curve(qb.TargetSpec.displacement(1.0 + 0.0j), [0.0, 1.0])


def test_time_sweep_rejects_timeless_target():
    with pytest.raises(qb.Unsupported):
        qb.TargetSpec.displacement(1.0 + 0.0j).with_time(2.0)


def test_generic_length_quadrature_agrees_with_elliptic_form():
    # three independent routes to the anharmonic length: adaptive quadrature
    # of the speed of the closed-form solution, the elliptic-integral form,
    # and quadrature of the reduced A/B/C integrand
    rng = np.random.default_rng(12)
    v0 = rng.uniform(-1, 1, size=5)
    g11, p = 1.3, 40.0
    sol = qb.solve_closed_form(ClosedFormFamily("anharm_p", p=p), v0)
    G = qb.PenaltyMatrix.diagonal([g11, p, p, p, p])
    l_generic = qb.length(sol, G)
    assert l_generic == pytest.approx(qb.anharm_length(v0, g11, p), rel=1e-10)
    assert l_generic == pytest.approx(anharm_length_quadrature(v0, g11, p),
                                      rel=1e-10)


@pytest.mark.parametrize("target", [
    qb.TargetSpec.coupled(2.0, 1.0, 1e200, 0.0),      # mu * mu * t = inf * 0
    qb.TargetSpec.iho(1e160, 1e160),                  # v0 = -inf
    qb.TargetSpec.ho_linear(1.0, 1e300, 1e10),        # lambda * t = inf
])
def test_overflow_raises_in_bound_and_bound_curve(target):
    with pytest.raises(ValueError, match="arithmetic overflow"):
        qb.bound(target)
    t = target.params["t"]
    with pytest.raises(ValueError, match="arithmetic overflow"):
        qb.bound_curve(target, np.array([t, t + 1.0]))


def test_overflowing_length_raises():
    with pytest.raises(ValueError, match="arithmetic overflow"):
        qb.bound(qb.TargetSpec.displacement(1e308 + 1e308j))


@pytest.mark.parametrize("lam", [
    1e200,      # A, B and C overflow to nan, nan and -inf
    5.6e152,    # A, B and C are finite, A + sqrt(B^2 + C^2) is not
])
def test_cubic_integrand_overflow_raises_in_bound_and_bound_curve(lam):
    # the matched v0 is finite: the nan length used to pass as a failed
    # positivity guard, and the curve wrote it as a pole
    target = qb.TargetSpec.anharm_cubic(1.0, lam, 1.0)
    assert np.isfinite(qb.match(target).v0).all()
    with pytest.raises(ValueError, match="arithmetic overflow"):
        qb.bound(target)
    with pytest.raises(ValueError, match="arithmetic overflow"):
        qb.bound_curve(target, np.array([0.5, 0.75, 1.0]))


def test_nan_length_from_finite_v0_keeps_the_positivity_caveat(monkeypatch):
    spec = qb.systems.SYSTEMS["anharm_cubic"]
    monkeypatch.setitem(qb.systems.SYSTEMS, "anharm_cubic",
                        spec._replace(length=lambda p, v0: v0[0] * math.nan))
    target = qb.TargetSpec.anharm_cubic(1.0, 0.05, 1.0)
    res = qb.bound(target)
    assert math.isnan(res.value)
    assert qb.bounds.POSITIVITY_CAVEAT in res.caveats
    curve = qb.bound_curve(target, np.array([0.5, 1.0]))
    assert np.isnan(curve.value).all()
    assert qb.bounds.POSITIVITY_CAVEAT in curve.caveats
