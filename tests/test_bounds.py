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
    # each used to end in numpy's "shapes not aligned"; a constant-speed
    # family's closed form takes the Gauss-Legendre route too
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


def test_bound_curve_divergence_is_read_off_the_value():
    grid = np.array([2 * PI - 0.1, 2 * PI, 2 * PI + 0.1])
    curve = qb.bound_curve(qb.TargetSpec.ho_linear(1.0, 0.3, 0.0), grid)
    assert np.array_equal(curve.divergent, np.isinf(curve.value))
    with pytest.raises(AttributeError):
        curve.divergent = np.zeros(3, dtype=bool)
    with pytest.raises(TypeError):
        qb.BoundCurve(t=grid, value=curve.value, branch=curve.branch,
                      divergent=curve.divergent, pole=curve.pole,
                      formula_id=curve.formula_id)


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


def test_cubic_coefficient_overflow_is_not_a_positivity_failure():
    # C = 2 p (v5 v7 - v4 v6) overflows to -inf, so R = hypot(B, C) is inf and
    # A - R <= 0 would trip the positivity guard before the overflow test
    target = qb.TargetSpec.anharm_cubic(1.0, 0.1, 1.0, 1.0, 1e308)
    v0 = qb.match(target).v0
    assert np.isfinite(v0).all()
    assert anharm_integrand_coeffs(v0, 1.0, 1e308)[2] == -math.inf
    assert qb.anharm_length(v0, 1.0, 1e308) == math.inf
    with pytest.raises(ValueError, match="arithmetic overflow"):
        qb.bound(target)
    with pytest.raises(ValueError, match="arithmetic overflow"):
        qb.bound_curve(target, np.array([1.0]))


def test_cubic_bound_computes_its_coefficients_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return anharm_integrand_coeffs(*args)

    monkeypatch.setattr(qb.bounds, "anharm_integrand_coeffs", counted)
    res = qb.bound(qb.TargetSpec.anharm_cubic(1.0, 0.05, 1.0))
    assert len(calls) == 1
    assert res.extras == dict(zip("ABC", anharm_integrand_coeffs(
        res.v0, 1.0, 100.0)))
    assert res.value == qb.anharm_length(res.v0, 1.0, 100.0)


def test_tiny_constant_speed_length_is_not_zero():
    # the squared speed underflows to 0.0 below about 1e-162
    sol = qb.solve_closed_form(ClosedFormFamily("ho4_equal_penalty"),
                               [0.0, 0.0, 0.0, 1e-170])
    assert qb.length(sol, qb.PenaltyMatrix.identity(4)) == pytest.approx(
        1e-170, rel=1e-15, abs=0.0)
    assert qb.length(sol, qb.PenaltyMatrix.diagonal([1.0, 1.0, 1.0, 4.0])) == (
        pytest.approx(2e-170, rel=1e-15, abs=0.0))
    assert qb.length(sol, qb.PenaltyMatrix.diagonal([1.0, 1.0, 1.0, 1e300])) == (
        pytest.approx(1e-20, rel=1e-15, abs=0.0))
    # V^2 is subnormal and its weight large: the squared speed clears 2^-1000
    # but has lost digits, and read 1.3000763725346696e-10
    sol = qb.solve_closed_form(ClosedFormFamily("ho4_equal_penalty"),
                               [0.0, 0.0, 0.0, 1.3e-160])
    assert qb.length(sol, qb.PenaltyMatrix.diagonal([1.0, 1.0, 1.0, 1e300])) == (
        pytest.approx(1.3e-10, rel=1e-15, abs=0.0))


@pytest.mark.parametrize("scale", [1.0, 1e300])
@pytest.mark.parametrize("route", ["simpson", "gauss_legendre"])
def test_tiny_length_is_at_least_the_initial_speed(route, scale):
    # both velocities are constant, so the length is ||v0||_G; the squared
    # speed underflows, and used to make the length 0.0 (at scale 1e300 the
    # squares underflow before the weights multiply them)
    if route == "simpson":
        v0 = np.array([0.0, 0.0, 0.0, 1e-170])
        G = qb.PenaltyMatrix.diagonal(scale * np.array([1.0, 2.0, 3.0, 4.0]))
        sol = qb.solve_numeric(qb.builtin("ho4"), qb.PenaltyMatrix.identity(4), v0)
    else:
        v0 = np.array([0.0, 1e-170, -2e-170, 3e-170, 0.0])
        G = qb.PenaltyMatrix.diagonal(scale * np.array([1.0, 100, 100, 100, 100]))
        sol = qb.solve_closed_form(ClosedFormFamily("anharm_p", p=100.0), v0)
    norm = math.hypot(*(np.sqrt(G.weights) * v0))
    assert qb.length(sol, G) >= norm * (1 - 1e-12)


def _dense_length(sol, G, n=100_001):
    s = np.linspace(0.0, 1.0, n)
    return qb.bounds.simpson(np.sqrt(sol(s) ** 2 @ G.weights), s)


@pytest.mark.parametrize("fam,v0,weights", [
    # length 3.74821836951; the speed at s = 0 is 3.16228
    (ClosedFormFamily("ho4_equal_penalty"), [0.0, 1.0, 0.0, 3.0], [1, 1, 9, 1]),
    (ClosedFormFamily("ho4_equal_penalty"), [0.4, -1.1, 0.7, 1.5], [2, 1, 5, 0.5]),
    (ClosedFormFamily("sp2_J_equal_penalty"), [0.9, -0.3, 1.2], [4, 1, 1]),
    (ClosedFormFamily("coupled_pq", q=1.0, p=10.0), [0.7, -0.4, 0.5, -0.3],
     [1, 1, 1, 3]),
    (ClosedFormFamily("coupled_pq", q=2.0, p=3.0), [1.5, 0.2, -0.8, 0.6],
     [1, 2, 3, 0.5]),
], ids=["ho4_motivation", "ho4", "sp2_J", "coupled_p10", "coupled_q2p3"])
def test_rotation_family_length_under_other_penalties(fam, v0, weights):
    # the speed is constant only under the family's own penalties; under
    # others the length used to be the speed at s = 0
    sol = qb.solve_closed_form(fam, v0)
    G = qb.PenaltyMatrix.diagonal(weights)
    assert qb.length(sol, G) == pytest.approx(_dense_length(sol, G), abs=1e-9)


def test_tiny_cubic_target_is_bounded_by_its_path_length():
    # 4 v1 + phi rounds to phi: the elliptic form used to give 0.0
    target = qb.TargetSpec.anharm_cubic(1.0, 0.125, 3.745e-62, g11=1.0, p=1.0)
    c = qb.matching.target_coefficients(target)
    norm = math.hypot(*c)      # ||c||_G with g11 = p = 1
    assert qb.bound(target).value >= norm * (1 - 1e-12)
    curve = qb.bound_curve(target, np.array([0.0, 3.745e-62, 1.0]))
    assert curve.value[1] >= norm * (1 - 1e-12)


@pytest.mark.parametrize("t,lam,g11,p", [
    (1e-200, 0.05, 1.0, 100.0), (1e-160, 0.05, 1.0, 100.0),
    (5e-324, 0.05, 1.0, 100.0),
    # a retake by a fixed 2^600 overflowed against p and gave 0.0
    (1e-170, 1.0, 1.0, 1e300),
    # A cleared 2^-1000 with subnormal squares and read 9.99994433576e-111
    (1e-160, 0.01, 1e100, 1e200),
    # a scale brought to sqrt(g11) alone overflowed the square of v1
    (1.0, 0.0, 5e-324, 100.0)])
def test_tiny_cubic_target_keeps_its_squares(t, lam, g11, p):
    # v0 = [t, lam t, 0, 0, 0] (to rounding): the squares of (A, B, C)
    # underflow, and used to give A = B = C = 0, a bound of 0.0; the length
    # is homogeneous in v0, so the bound is t times that at t = 1e-100
    target = qb.TargetSpec.anharm_cubic(1.0, lam, t, g11=g11, p=p)
    want = qb.bound(target.with_time(1e-100)).value / 1e-100 * t
    assert qb.bound(target).value == pytest.approx(want, rel=1e-13, abs=0.0)
    times = sorted([t, 1e-100])
    curve = qb.bound_curve(target, np.array([0.0, *times]))
    assert curve.value.tolist() == [
        0.0, *(qb.bound(target.with_time(x)).value for x in times)]
    v0 = np.array([qb.bound(target.with_time(x)).v0 for x in times]).T
    assert qb.anharm_length(v0, g11, p).tolist() == curve.value[1:].tolist()


def test_tiny_cubic_target_reports_the_coefficients_its_length_used():
    # at t = 1e-200 the squares of (A, B, C) underflow: the extras read
    # A = B = C = 0.0 beside a length of 1.118e-200; they are now the
    # coefficients of v0 * scale that the length was taken of
    target = qb.TargetSpec.anharm_cubic(1.0, 0.05, 1e-200)
    res = qb.bound(target)
    scale = res.extras["scale"]
    A, B, C = anharm_integrand_coeffs(res.v0 * scale, 1.0, 100.0)
    assert res.extras == {"A": A, "B": B, "C": C, "scale": scale}
    assert A > 0.0 and B != 0.0
    assert res.value == qb.bounds._anharm_length(res.v0[0], A, B, C) / scale
    assert res.value == pytest.approx(1.1180339887498949e-200, rel=1e-13,
                                      abs=0.0)
    # a point whose squares do not underflow reports its own coefficients
    regular = qb.bound(target.with_time(1e-100))
    assert regular.extras == dict(zip("ABC", anharm_integrand_coeffs(
        regular.v0, 1.0, 100.0)))


_TINY_TIMES = [0.0, 5e-324, 1e-170, 1e-155, 1.0]


@pytest.mark.parametrize("target", [
    qb.TargetSpec.ho(1.0, 0.0),
    qb.TargetSpec.sp2_ho(1.0, 0.0),
    qb.TargetSpec.iho(2.0, 0.0),
    qb.TargetSpec.ho_linear(1.0, 0.3, 0.0),
    qb.TargetSpec.ho_quadratic(1.0, 0.2, 0.0),
    qb.TargetSpec.free_particle(2.0, 0.0),
    qb.TargetSpec.coupled(2.0, 1.0, 3.0, 0.0, q=1.0, p=10.0),
], ids=lambda target: target.system)
def test_norm_bounds_at_tiny_times(target):
    # the unit-weight norm rescales a sum of squares that underflows, the
    # same way on a grid and at a point, and stays at least ||c||
    curve = qb.bound_curve(target, np.array(_TINY_TIMES))
    for t, value in zip(_TINY_TIMES, curve.value.tolist()):
        point = target.with_time(t)
        assert value == qb.bound(point).value
        c = qb.matching.target_coefficients(point)
        assert value >= math.hypot(*c) * (1 - 1e-12)
        assert (value > 0.0) == (t != 0.0) or not c.any()


@pytest.mark.parametrize("lam", [0.05, 0.0])          # lam = 0: R = 0
def test_cubic_bound_curve_equals_bound_where_the_length_is_not_elliptic(lam):
    # t = 0 and omega t = 4 pi have v1 = 0; the grid's other points are
    # elliptic unless lam = 0
    grid = np.array([0.0, 1e-170, 0.5, 7.0, 4 * PI])
    target = qb.TargetSpec.anharm_cubic(1.0, lam, 0.0)
    curve = qb.bound_curve(target, grid)
    assert curve.value.tolist() == [qb.bound(target.with_time(t)).value
                                    for t in grid.tolist()]


def test_anharm_length_array_equals_the_scalar_form_point_by_point():
    # matched points with v1 = 0, R = 0, an elliptic length and an overflow,
    # then (v1, A, B, C) with A = R = 0 and with the positivity guard failing
    v0 = np.array([qb.match(target).v0.tolist() for target in (
        qb.TargetSpec.anharm_cubic(1.0, 0.05, 0.0),
        qb.TargetSpec.anharm_cubic(1.0, 0.05, 4 * PI),
        qb.TargetSpec.anharm_cubic(1.0, 0.0, 0.5),
        qb.TargetSpec.anharm_cubic(1.0, 0.05, 0.5),
        qb.TargetSpec.anharm_cubic(1.0, 5.6e152, 1.0))]).T
    scalar = [qb.anharm_length(column, 1.0, 100.0) for column in v0.T]
    assert scalar[-1] == math.inf
    np.testing.assert_array_equal(qb.anharm_length(v0, 1.0, 100.0), scalar)
    v1, A, B, C = np.array([[0.3, 0.0, 0.0, 0.0], [0.3, 1.0, 0.6, 0.8],
                            [0.0, 0.5, 1.0, 0.0]]).T
    scalar = [qb.bounds._anharm_length(*x) for x in zip(v1, A, B, C)]
    assert scalar[0] == 0.0 and math.isnan(scalar[1]) and math.isnan(scalar[2])
    np.testing.assert_array_equal(qb.bounds._anharm_length(v1, A, B, C), scalar)


def test_nan_length_from_finite_v0_keeps_the_positivity_caveat(monkeypatch):
    spec = qb.systems.SYSTEMS["anharm_cubic"]
    monkeypatch.setitem(qb.systems.SYSTEMS, "anharm_cubic",
                        spec._replace(measure=lambda p, v0: (v0[0] * math.nan, {})))
    target = qb.TargetSpec.anharm_cubic(1.0, 0.05, 1.0)
    res = qb.bound(target)
    assert math.isnan(res.value)
    assert qb.bounds.POSITIVITY_CAVEAT in res.caveats
    curve = qb.bound_curve(target, np.array([0.5, 1.0]))
    assert np.isnan(curve.value).all()
    assert qb.bounds.POSITIVITY_CAVEAT in curve.caveats
