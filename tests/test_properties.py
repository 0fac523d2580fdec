"""Property tests: the array curve path against scalar ``bound()``, and the
invariants the bounds rely on.

* ``bound_curve`` equals ``bound`` at every grid point exactly (``==``):
  value, branch, divergence and pole text, on grids that step onto the
  documented poles.
* every bound is non-negative (``inf`` at poles, never ``nan``);
* ``bound`` agrees with ``match`` on v0, branch, divergence and notes, and
  its value keeps its type;
* every regular bound is at least ||c||_G, the length of the
  one-parameter path s -> exp(-i s c.O) to the same target (the cubic
  oscillator away from v1 = 0), tiny targets included, where the sum of
  squares underflows;
* the oscillator bound has period 4 pi / omega in t, to 1e-9;
* matched cubic-oscillator velocities satisfy A > hypot(B, C);
* the closed-form cubic length agrees with its quadrature to 1e-9, and
  the cubic bound is at least ||c||_G, as v1 -> 0 (a known defect, both
  marked ``xfail``);
* each closed-form family's length agrees with the length of its RK4
  trajectory to 1e-7.
"""

import math

import numpy as np
import pytest
from scipy.integrate import simpson
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

import qcbound as qb
from qcbound.bounds import anharm_integrand_coeffs
from qcbound.euler_arnold import DEFAULT_STEP

from quadrature_reference import anharm_length_quadrature

PI = math.pi
T = qb.TargetSpec


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _coupled(omega1, omega2, mu, q, dp):
    return T.coupled(omega1, omega2, mu, 0.0, q=q, p=q + dp)


# every system that can be swept in time, at t = 0
SWEEPABLE = {
    "ho": st.builds(T.ho, floats(0.1, 5.0), st.just(0.0)),
    "sp2_ho": st.builds(T.sp2_ho, floats(0.1, 5.0), st.just(0.0)),
    "iho": st.builds(T.iho, floats(0.1, 5.0), st.just(0.0)),
    "ho_linear": st.builds(T.ho_linear, floats(0.1, 5.0), floats(-1.0, 1.0),
                           st.just(0.0)),
    "ho_quadratic": st.builds(T.ho_quadratic, floats(0.6, 3.0),
                              floats(-0.5, 0.5), st.just(0.0)),
    "free_particle": st.builds(T.free_particle, floats(0.2, 5.0), st.just(0.0)),
    "coupled": st.builds(_coupled, floats(0.2, 3.0), floats(0.2, 3.0),
                         floats(0.0, 3.0), floats(0.5, 2.0), floats(0.0, 100.0)),
    "anharm_cubic": st.builds(T.anharm_cubic, floats(0.2, 3.0),
                              floats(-0.2, 0.2), st.just(0.0),
                              floats(0.5, 2.0), floats(1.0, 1e6)),
}


def documented_poles(target) -> list[float]:
    """Times at which ``match`` documents a pole (or its candidates)."""
    p = target.params
    k = range(-2, 3)
    if target.system == "ho_linear":       # omega t = 2 pi (mod 4 pi)
        return [(2 * PI + 4 * PI * n) / p["omega"] for n in k]
    if target.system in ("ho_quadratic", "free_particle"):   # v3 = n pi / 2
        if target.system == "free_particle":
            rate = 0.5 / p["m"]
        else:
            rate = p["omega"] + p["lam"]
        return [n * PI / (2 * rate) for n in range(-9, 10) if n]
    if target.system == "anharm_cubic":    # 1 + 2 cos v1 = 0, or v1 = 2 pi
        return [(2 * PI / 3 * j + 4 * PI * n) / p["omega"]
                for j in (1, 2, 3, 4, 5) for n in k]
    return []


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize("system", sorted(SWEEPABLE))
def test_bound_curve_equals_scalar_bound(system):
    @settings(max_examples=40, deadline=None)
    @given(target=SWEEPABLE[system], t0=floats(-20.0, 20.0),
           span=floats(0.5, 40.0), steps=st.integers(1, 150))
    def check(target, t0, span, steps):
        grid = np.sort(np.concatenate([np.linspace(t0, t0 + span, steps),
                                       documented_poles(target)]))
        curve = qb.bound_curve(target, grid)
        assert len(curve.value) == len(grid)
        for i, t in enumerate(grid.tolist()):
            res = qb.bound(target.with_time(t))
            assert _same(curve.value[i], res.value), (t, curve.value[i], res.value)
            assert curve.branch[i] == res.branch
            assert curve.divergent[i] == res.is_divergent
            if res.is_divergent:
                assert f"divergent: {curve.pole[i]}" in res.caveats
            else:
                assert curve.pole[i] is None
                assert curve.formula_id == res.formula_id
                # per-point notes (coupled windings) only extend the list
                assert res.caveats[:len(curve.caveats)] == curve.caveats

    check()


def test_bound_curve_grid_on_poles_is_divergent():
    # the pole grids above do hit poles: one per documented kind
    cases = [
        (T.ho_linear(1.3, 0.4, 0.0), [2 * PI / 1.3]),
        (T.ho_quadratic(1.0, 0.2, 0.0), [PI / (2 * 1.2), PI / 1.2]),
        (T.anharm_cubic(0.7, 0.05, 0.0), [2 * PI / 3 / 0.7, 2 * PI / 0.7]),
    ]
    for target, poles in cases:
        curve = qb.bound_curve(target, np.array(poles))
        assert curve.divergent.all()
        assert np.isinf(curve.value).all()
        assert all(isinstance(text, str) for text in curve.pole)


@settings(max_examples=300, deadline=None)
@given(target=st.one_of(
    st.builds(T.displacement,
              st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                                 allow_infinity=False)),
    *[st.builds(lambda tg, t: tg.with_time(t), s, floats(-60.0, 60.0))
      for s in SWEEPABLE.values()],
))
def test_bound_is_non_negative(target):
    assert qb.bound(target).value >= 0.0


@st.composite
def any_point(draw):
    """A target of any of the nine systems; for the systems with poles,
    sometimes exactly on a documented pole, and sometimes at a time whose
    reduction carries a ``precision:`` note."""
    system = draw(st.sampled_from(sorted(qb.systems.SYSTEMS)))
    if system == "displacement":
        return T.displacement(draw(st.complex_numbers(
            max_magnitude=10.0, allow_nan=False, allow_infinity=False)))
    target = draw(SWEEPABLE[system])
    poles = documented_poles(target)
    times = st.one_of(floats(-60.0, 60.0), floats(-1e6, 1e6))
    if poles:
        times = st.one_of(times, st.sampled_from(poles))
    return target.with_time(draw(times))


@settings(max_examples=500, deadline=None)
@given(target=any_point())
def test_bound_agrees_with_match(target):
    # bound() shares match()'s solve step but builds no MatchResult
    res, m = qb.bound(target), qb.match(target)
    assert res.branch == m.branch
    assert res.is_divergent == m.is_divergent
    if m.is_divergent:
        assert res.v0 is None
        assert res.caveats == [qb.bounds.STANDARD_CAVEAT,
                               f"divergent: {m.divergent}", *m.notes]
    else:
        assert res.v0.dtype == m.v0.dtype and res.v0.tobytes() == m.v0.tobytes()
        assert res.caveats[len(res.caveats) - len(m.notes):] == m.notes
    # the elliptic branch of the cubic length gives SciPy's np.float64 (the
    # golden file stores its repr); every other value is a float
    if target.system == "anharm_cubic" and not res.is_divergent:
        B, C = res.extras["B"], res.extras["C"]
        phi = math.atan2(B, C)
        elliptic = math.hypot(B, C) != 0.0 and 4.0 * res.v0[0] + phi != phi
    else:
        elliptic = False
    assert type(res.value) is (np.float64 if elliptic else float)
    assert all(type(x) is float for x in res.extras.values())


def _path_length(target) -> float:
    """||c||_G, the length of s -> exp(-i s c.O), which reaches the target:
    G is diag(g11, p, p, p, p) for the cubic oscillator, unit elsewhere.
    ``math.hypot`` keeps it exact where the squares underflow."""
    c = qb.matching.target_coefficients(target)
    weights = np.ones(len(c))
    if target.system == "anharm_cubic":
        weights[0], weights[1:] = target.params["g11"], target.params["p"]
    return math.hypot(*(np.sqrt(weights) * c))


@settings(max_examples=300, deadline=None)
@given(target=any_point())
# tiny targets, whose sum of squares underflows: unless the norm rescales
# it, the bound reads 0.0 or falls short of ||c||_G
@example(target=T.ho(1.0, 1e-170))
@example(target=T.ho(2.14224682874854, 1.1125369292536007e-308))
@example(target=T.iho(0.1, -2.225e-308))
@example(target=T.displacement(7.02428942671446e-162))
@example(target=T.coupled(2.0, 1.0, 1.0, -6.67e-175))
@example(target=T.ho_linear(1.0, 0.3, 1e-170))
@example(target=T.ho_quadratic(1.0, 0.1, 1e-170))
@example(target=T.ho(1.0, 5e-324))
def test_bound_is_at_least_the_one_parameter_path(target):
    # the matched velocity integrates to c, so by the triangle inequality
    # its length is at least ||c||_G: a theorem, so a shortfall is a defect,
    # never a tolerance to widen
    res = qb.bound(target)
    assume(not res.is_divergent)
    # a cubic point near v1 = 0 meets the cancellation recorded just below
    assume(target.system != "anharm_cubic" or not 0.0 < abs(res.v0[0]) < 1e-2)
    assert res.value >= _path_length(target) * (1 - 1e-12)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "known defect: near v1 = 0 the cubic length loses about 1e-16/|v1| "
    "relative to the cancellation of ROADMAP item 1, which can take it "
    "below ||c||_G"))
@settings(max_examples=100, deadline=None, derandomize=True,
          report_multiple_bugs=False,
          phases=(Phase.explicit, Phase.generate))   # no shrinking: stays fast
@given(log_t=floats(-60.0, -2.0), sign=st.sampled_from([1.0, -1.0]),
       omega=floats(0.2, 3.0), lam=floats(-0.2, 0.2), g11=floats(0.5, 2.0),
       p=floats(1.0, 1e6))
def test_cubic_bound_is_at_least_the_one_parameter_path_as_v1_vanishes(
        log_t, sign, omega, lam, g11, p):
    target = T.anharm_cubic(omega, lam, sign * 10.0 ** log_t, g11=g11, p=p)
    res = qb.bound(target)
    assume(not res.is_divergent)
    assert res.value >= _path_length(target) * (1 - 1e-12)


@settings(max_examples=300, deadline=None)
@given(omega=floats(0.1, 10.0), t=floats(-50.0, 50.0))
def test_ho_bound_has_period_4pi_over_omega(omega, t):
    a = qb.bound(T.ho(omega, t)).value
    b = qb.bound(T.ho(omega, t + 4 * PI / omega)).value
    assert abs(a - b) <= 1e-9


@settings(max_examples=300, deadline=None)
@given(omega=floats(0.2, 3.0), lam=floats(-0.2, 0.2).filter(bool),
       t=floats(1e-3, 50.0), g11=floats(0.5, 2.0), p=floats(1.0, 1e6))
def test_anharm_integrand_positive_on_matched_velocities(omega, lam, t, g11, p):
    res = qb.match(T.anharm_cubic(omega, lam, t, g11=g11, p=p))
    assume(not res.is_divergent)
    A, B, C = anharm_integrand_coeffs(res.v0, g11, p)
    assert A > math.hypot(B, C)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "known defect: the elliptic length divides antideriv(4 v1 + phi) - "
    "antideriv(phi) by 4 v1, a cancellation that loses about 1e-16/|v1| "
    "relative as v1 -> 0 (ROADMAP item 1)"))
@settings(max_examples=200, deadline=None, derandomize=True,
          report_multiple_bugs=False,
          phases=(Phase.explicit, Phase.generate))   # no shrinking: stays fast
@given(log_v1=floats(-16.0, -2.0), sign=st.sampled_from([1.0, -1.0]),
       rest=st.lists(floats(-1.0, 1.0), min_size=4, max_size=4),
       g11=floats(0.5, 2.0), p=floats(1.0, 200.0))
def test_anharm_length_agrees_with_quadrature_as_v1_vanishes(log_v1, sign, rest,
                                                            g11, p):
    v0 = [sign * 10.0 ** log_v1, *rest]
    A, B, C = anharm_integrand_coeffs(v0, g11, p)
    assume(A > math.hypot(B, C))
    exact = anharm_length_quadrature(v0, g11, p)
    assert abs(qb.anharm_length(v0, g11, p) - exact) <= 1e-9 * exact


FAMILIES = [qb.ClosedFormFamily("ho4_equal_penalty"),
            qb.ClosedFormFamily("sp2_J_equal_penalty"),
            qb.ClosedFormFamily("coupled_pq", q=1.0, p=10.0),
            qb.ClosedFormFamily("anharm_p", p=100.0)]


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda fam: fam.tag)
def test_closed_form_length_agrees_with_rk4(fam):
    dim = qb.builtin(fam.algebra_name).dim
    G = fam.default_penalties()

    @settings(max_examples=20, deadline=None)
    @given(v0=st.lists(floats(-2.0, 2.0), min_size=dim, max_size=dim))
    def check(v0):
        closed = qb.length(qb.solve_closed_form(fam, v0), G)
        grid, states = qb.integrate_rk4(fam.governing_rhs(), v0, DEFAULT_STEP)
        numeric = simpson(np.sqrt(states ** 2 @ G.weights), x=grid)
        assert abs(closed - numeric) <= 1e-7 * max(1.0, closed)

    check()
