"""Boundary matching: solved velocities, periodicity, poles, round trips."""

import math

import numpy as np
import pytest

import qcbound as qb
from qcbound.matching import reduce_periodic_signed, target_coefficients, x_cot_x

PI = math.pi


# ---------------------------------------------------------------------------
# periodicity reduction
# ---------------------------------------------------------------------------

def _distance(x):
    # distance of x to the nearest multiple of 4 pi
    return abs(reduce_periodic_signed(x)[0])


def test_reduce_periodic_reference_points():
    assert _distance(3 * PI) == pytest.approx(PI, abs=1e-15)
    assert _distance(4 * PI) == 0.0
    assert _distance(0.5) == 0.5


def test_reduce_periodic_properties():
    rng = np.random.default_rng(0)
    x = rng.uniform(-100, 100, size=500)
    period = 4 * PI
    r = _distance(x)
    assert np.all(r >= 0) and np.all(r <= period / 2 + 1e-12)
    assert np.allclose(_distance(-x), r, atol=1e-9)
    assert np.allclose(_distance(x + 3 * period), r, atol=1e-9)


def test_reduce_signed_branch_bookkeeping():
    val, n = reduce_periodic_signed(3 * PI)
    assert n == 1 and val == pytest.approx(-PI, abs=1e-15)
    val, n = reduce_periodic_signed(0.5)
    assert n == 0 and val == 0.5


def test_x_cot_x_series_region():
    assert x_cot_x(0.0) == 1.0
    assert x_cot_x(1e-9) == pytest.approx(1.0, abs=1e-17)
    assert x_cot_x(0.5) == pytest.approx(0.5 / math.tan(0.5), rel=1e-15)


def test_array_forms_equal_scalar_forms():
    x = np.array([-1e5, -7.5, -2 * PI, -1e-9, 0.0, 1e-9, 0.3, 2 * PI, 6 * PI, 40.0])
    red, n = reduce_periodic_signed(x)
    assert n.dtype == np.int64
    assert [(float(r), int(k)) for r, k in zip(red, n)] == [
        reduce_periodic_signed(v) for v in x.tolist()]
    assert x_cot_x(x).tolist() == [x_cot_x(v) for v in x.tolist()]


# ---------------------------------------------------------------------------
# precision contract of the periodic reduction
# ---------------------------------------------------------------------------

def test_reduction_precision_caveat_threshold():
    # ulp(x) > 4 pi * 1e-12 first holds at |x| = 2**16
    below = qb.match(qb.TargetSpec.ho(1.0, math.nextafter(2.0 ** 16, 0.0)))
    at = qb.match(qb.TargetSpec.ho(1.0, -(2.0 ** 16)))
    assert not any(n.startswith("precision:") for n in below.notes)
    assert [n for n in at.notes if n.startswith("precision:")]
    assert any(c.startswith("precision:")
               for c in qb.bound(qb.TargetSpec.coupled(2.0, 1.0, 1.0, 3e4)).caveats)


def test_reduction_without_digits_raises():
    # ulp(x) >= 4 pi first holds at |x| = 2**56
    last = math.nextafter(2.0 ** 56, 0.0)
    assert qb.match(qb.TargetSpec.ho(1.0, last)).v0 is not None
    for t in (2.0 ** 56, -1e17):
        with pytest.raises(qb.PrecisionLoss):
            qb.match(qb.TargetSpec.ho(1.0, t))
    with pytest.raises(qb.PrecisionLoss):
        reduce_periodic_signed(np.array([0.0, 1e17]))
    with pytest.raises(qb.PrecisionLoss,  # omega * t overflows to inf
                       match="^arithmetic overflow"):
        qb.match(qb.TargetSpec.anharm_cubic(1e200, 0.1, 1e200))
    for x in (math.inf, -math.inf, math.nan, np.array([0.0, math.inf])):
        with pytest.raises(qb.PrecisionLoss, match="^arithmetic overflow"):
            reduce_periodic_signed(x)


@pytest.mark.parametrize("x", [1.0, np.array([1.0, 2.0])])
def test_reduction_takes_no_period(x):
    # every compact coordinate has period 4 pi; the reduction takes no other
    with pytest.raises(TypeError):
        reduce_periodic_signed(x, 4 * PI)
    with pytest.raises(TypeError):
        reduce_periodic_signed(x, period=4 * PI)


# ---------------------------------------------------------------------------
# per-system matches
# ---------------------------------------------------------------------------

def test_match_ho_first_branch():
    res = qb.match(qb.TargetSpec.ho(1.0, PI))
    assert np.array_equal(res.v0, [0.0, 0.0, 0.0, PI])
    assert res.branch == 0


def test_match_displacement_conventional_velocities():
    res = qb.match(qb.TargetSpec.displacement(1.0 + 0.0j))
    assert res.v0 == pytest.approx([0.0, -math.sqrt(2), 0.0, 0.0], abs=1e-15)
    res = qb.match(qb.TargetSpec.displacement(0.0 + 2.0j))
    assert res.v0 == pytest.approx([0.0, 0.0, 2 * math.sqrt(2), 0.0], abs=1e-15)


def test_match_iho_is_linear_no_reduction():
    res = qb.match(qb.TargetSpec.iho(2.0, 3.0))
    assert np.array_equal(res.v0, [0.0, -6.0, 0.0])
    assert res.branch == 0
    res = qb.match(qb.TargetSpec.iho(1.0, 50.0))
    assert np.array_equal(res.v0, [0.0, -50.0, 0.0])


def test_match_ho_quadratic_inverted_limit():
    # lambda = -omega: v3 -> 0, v2 -> lambda t, matching the inverted system
    omega, t = 1.3, 2.7
    res = qb.match(qb.TargetSpec.ho_quadratic(omega, -omega, t))
    assert res.v0[2] == 0.0
    assert res.v0[0] == 0.0
    assert res.v0[1] == pytest.approx(-omega * t, rel=1e-15)
    iho = qb.match(qb.TargetSpec.iho(omega, t))
    assert np.allclose(res.v0, iho.v0, atol=1e-14)


def test_match_ho_linear_solution_shape():
    omega, lam, t = 1.0, 0.3, 2.0
    res = qb.match(qb.TargetSpec.ho_linear(omega, lam, t))
    vH = res.v0[3]
    assert vH == pytest.approx(2.0)
    assert res.v0[1] == pytest.approx(0.5 * vH * lam * t, rel=1e-14)
    assert res.v0[2] == pytest.approx(0.5 * vH * lam * t / math.tan(vH / 2),
                                      rel=1e-13)


def test_match_coupled_equal_frequencies():
    mu, t = 3.0, 0.4
    res = qb.match(qb.TargetSpec.coupled(2.0, 2.0, mu, t, q=1.0, p=10.0))
    v1, v2, v3, v4 = res.v0
    assert v1 == v2
    assert v3 == pytest.approx(mu ** 2 * t, rel=1e-15)   # x cot x -> 1
    assert v4 == 0.0
    assert v3 ** 2 + v4 ** 2 == pytest.approx(mu ** 4 * t ** 2, rel=1e-14)


def test_match_unsupported_tag():
    with pytest.raises(qb.Unsupported):
        qb.TargetSpec("quartic", {})


def test_target_validation():
    with pytest.raises(ValueError):
        qb.TargetSpec.ho(-1.0, 1.0)
    with pytest.raises(ValueError):
        qb.TargetSpec.coupled(1.0, 1.0, 1.0, 1.0, q=2.0, p=1.0)


@pytest.mark.parametrize("make", [
    lambda: qb.TargetSpec.ho(1.0, math.inf),
    lambda: qb.TargetSpec.ho(math.inf, 1.0),
    lambda: qb.TargetSpec.displacement(complex(math.nan, 0.0)),
    lambda: qb.TargetSpec.displacement(complex(0.0, math.inf)),
    lambda: qb.TargetSpec.coupled(2.0, 1.0, math.nan, 1.0),
    lambda: qb.TargetSpec.coupled(2.0, 1.0, 1.0, 1.0, q=1.0, p=math.nan),
    lambda: qb.TargetSpec.anharm_cubic(1.0, 0.1, -math.inf),
    lambda: qb.TargetSpec.ho(1.0, 2.0).with_time(math.nan),
], ids=["ho_t", "ho_omega", "displacement_re", "displacement_im", "coupled_mu",
        "coupled_p", "anharm_t", "with_time"])
def test_target_rejects_non_finite(make):
    with pytest.raises(ValueError, match="finite"):
        make()


# ---------------------------------------------------------------------------
# poles
# ---------------------------------------------------------------------------

def test_ho_linear_pole_at_half_period():
    res = qb.match(qb.TargetSpec.ho_linear(1.0, 0.3, 2 * PI))
    assert res.is_divergent
    # but the linear coupling switched off is regular there
    res = qb.match(qb.TargetSpec.ho_linear(1.0, 0.0, 2 * PI))
    assert not res.is_divergent


def test_ho_linear_full_period_has_finite_limit():
    # at omega t = 4 pi the reduced matching is displacement-like: v_Q = lam t
    lam, t = 0.3, 4 * PI
    res = qb.match(qb.TargetSpec.ho_linear(1.0, lam, t))
    assert not res.is_divergent
    assert res.v0[2] == pytest.approx(lam * t, rel=1e-12)
    assert res.v0[3] == pytest.approx(0.0, abs=1e-12)


def test_ho_quadratic_pole_grid():
    # sin(2 v3) = 0 with v3 != 0: (omega+lam) t at any nonzero multiple of pi/2
    omega, lam = 1.0, 0.2
    for mult in (0.5, 1.0, 1.5, 2.0):
        t = mult * PI / (omega + lam)
        assert qb.match(qb.TargetSpec.ho_quadratic(omega, lam, t)).is_divergent
    t = 0.3 * PI / (omega + lam)
    assert not qb.match(qb.TargetSpec.ho_quadratic(omega, lam, t)).is_divergent


def test_anharm_pole_set():
    lam = 0.05
    for frac in (2, 4, 6, 8, 10):          # omega t = 2 n pi / 3, n = 1..5
        t = frac * PI / 3
        assert qb.match(qb.TargetSpec.anharm_cubic(1.0, lam, t)).is_divergent, frac
    for t in (0.0, 1.0, 3.0, 4 * PI):      # regular points, incl. full period
        assert not qb.match(qb.TargetSpec.anharm_cubic(1.0, lam, t)).is_divergent


def test_pole_scan_flags_only_known_neighborhood():
    ts = np.arange(1e-3, 4 * PI, 1e-3)
    bad = []
    for t in ts:
        res = qb.match(qb.TargetSpec.ho_linear(1.0, 0.3, float(t)))
        if res.is_divergent:
            bad.append(t)
        elif np.linalg.norm(res.v0) > 50.0 and abs(t - 2 * PI) > 0.25:
            bad.append(t)
    assert bad == []


# ---------------------------------------------------------------------------
# limits and round trips
# ---------------------------------------------------------------------------

def test_ho_linear_reduces_to_ho_as_coupling_vanishes():
    t = 2.0
    base = qb.match(qb.TargetSpec.ho(1.0, t)).v0
    for lam in (1e-2, 1e-4, 1e-6):
        v = qb.match(qb.TargetSpec.ho_linear(1.0, lam, t)).v0
        assert abs(v[1]) <= lam * t
        assert abs(v[2]) <= 2 * lam * t
        assert np.allclose(v, base, atol=3 * lam * t)


def test_anharm_hard_velocities_vanish_with_coupling():
    t = 2.0
    for lam in (1e-2, 1e-4, 1e-6):
        v = qb.match(qb.TargetSpec.anharm_cubic(1.0, lam, t)).v0
        assert np.max(np.abs(v[1:])) <= 20 * lam * t


def _random_targets(rng, n=40):
    makers = [
        lambda: qb.TargetSpec.ho(rng.uniform(0.5, 2), rng.uniform(0, 20)),
        lambda: qb.TargetSpec.displacement(complex(rng.normal(), rng.normal())),
        lambda: qb.TargetSpec.ho_linear(rng.uniform(0.5, 2), rng.uniform(-1, 1),
                                        rng.uniform(0, 10)),
        lambda: qb.TargetSpec.sp2_ho(rng.uniform(0.5, 2), rng.uniform(0, 20)),
        lambda: qb.TargetSpec.iho(rng.uniform(0.5, 2), rng.uniform(0, 20)),
        lambda: qb.TargetSpec.ho_quadratic(rng.uniform(0.5, 2),
                                           rng.uniform(-0.5, 0.5),
                                           rng.uniform(0, 10)),
        lambda: qb.TargetSpec.free_particle(rng.uniform(0.5, 2), rng.uniform(0, 10)),
        lambda: qb.TargetSpec.coupled(rng.uniform(0.5, 2), rng.uniform(0.5, 2),
                                      rng.uniform(0, 3), rng.uniform(0, 3),
                                      q=1.0, p=rng.uniform(1, 50)),
        lambda: qb.TargetSpec.anharm_cubic(rng.uniform(0.5, 2),
                                           rng.uniform(-0.3, 0.3),
                                           rng.uniform(0, 10),
                                           p=rng.uniform(10, 1000)),
    ]
    out = []
    for _ in range(n):
        out.append(makers[rng.integers(len(makers))]())
    return out


def test_round_trip_residuals_randomized():
    rng = np.random.default_rng(2024)
    for tgt in _random_targets(rng):
        res = qb.match(tgt)
        if res.is_divergent:
            continue
        assert qb.verify_match(res, tgt) <= 1e-9, tgt


def test_round_trip_examples_from_interface_contract():
    tgt = qb.TargetSpec.ho(1.0, PI)
    assert qb.verify_match(qb.match(tgt), tgt) == 0.0
    tgt = qb.TargetSpec.coupled(2.0, 1.0, 3.0, 0.4, q=1.0, p=10.0)
    assert qb.verify_match(qb.match(tgt), tgt) <= 1e-9
    tgt = qb.TargetSpec.anharm_cubic(1.0, 0.1, 1.0, g11=1.0, p=1e6)
    assert qb.verify_match(qb.match(tgt), tgt) <= 1e-9


def test_verify_match_rejects_divergent_result():
    tgt = qb.TargetSpec.ho_linear(1.0, 0.3, 2 * PI)
    with pytest.raises(ValueError):
        qb.verify_match(qb.match(tgt), tgt)


def test_target_coefficients_compact_reduction():
    # at omega t = 3 pi the reachable energy coefficient is -pi (wind back)
    c = target_coefficients(qb.TargetSpec.ho(1.0, 3 * PI))
    assert c[3] == pytest.approx(-PI, abs=1e-15)


def test_displacement_alternate_route():
    out = qb.match_displacement_product_form(0.6 + 0.8j)
    assert out["value"] == pytest.approx(2.0, rel=1e-15)        # 2 |alpha|
    assert out["v_P"] == pytest.approx(1j * math.sqrt(2) * 0.8)
    assert out["v_Q"] == pytest.approx(1j * math.sqrt(2) * 0.6)
