"""Property tests: the array curve path against scalar ``bound()``, and the
invariants the bounds rely on.

* ``bound_curve`` equals ``bound`` at every grid point exactly (``==``):
  value, branch, divergence and pole text, on grids that step onto the
  documented poles.
* every bound is non-negative (``inf`` at poles, never ``nan``);
* the oscillator bound has period 4 pi / omega in t, to 1e-9;
* matched cubic-oscillator velocities satisfy A > hypot(B, C).
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qcbound as qb
from qcbound.bounds import anharm_integrand_coeffs

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
