"""The numpy numerics of the package against SciPy as the reference.

The package needs SciPy at run time only for the cubic elliptic length;
its Simpson rule, Hermite interpolant, Taylor matrix exponential and
Gauss-Legendre quadrature are checked here against ``scipy.integrate``,
``scipy.interpolate`` and ``scipy.linalg``.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, simpson
from scipy.interpolate import CubicHermiteSpline
from scipy.linalg import expm

import qcbound as qb
from qcbound import bounds, euler_arnold, oracle
from qcbound.bounds import anharm_integrand_coeffs


# ---------------------------------------------------------------------------
# Simpson's rule: equal (==) to scipy.integrate.simpson
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 11, 12, 250, 251, 5000, 5001])
@pytest.mark.parametrize("spacing", ["uniform", "non-uniform"])
def test_simpson_equals_scipy(n, spacing):
    rng = np.random.default_rng(n)
    if spacing == "uniform":
        x = np.linspace(0.0, 1.0, n)
    else:
        x = np.cumsum(rng.uniform(0.1, 2.0, n))
    y = np.sin(3 * x) + rng.normal(scale=0.1, size=n)
    assert bounds.simpson(y, x) == simpson(y, x=x)


# ---------------------------------------------------------------------------
# Hermite interpolant of numeric solutions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["sp2_J", "coupled_M4", "sp4_T10"])
def test_hermite_interpolant_matches_cubic_hermite_spline(name):
    alg = qb.builtin(name)
    G = qb.PenaltyMatrix.identity(alg.dim)
    rng = np.random.default_rng(len(name))
    sol = euler_arnold.solve_numeric(alg, G, rng.uniform(-1, 1, alg.dim), h=0.01)
    derivs = np.array([euler_arnold.rhs(alg, G, V) for V in sol.states])
    spline = CubicHermiteSpline(sol.grid, sol.states, derivs, axis=0)
    s = np.concatenate([sol.grid, rng.uniform(0.0, 1.0, 500),
                        [-1.0, -1e-12, 1.0 + 1e-12, 3.0]])
    np.testing.assert_allclose(sol(s), spline(np.clip(s, 0.0, 1.0)),
                               rtol=1e-14, atol=0.0)
    mid = 0.5 * (sol.grid[3] + sol.grid[4])
    np.testing.assert_allclose(sol(mid), spline(mid), rtol=1e-14, atol=0.0)
    assert sol(mid).shape == (alg.dim,)


# ---------------------------------------------------------------------------
# Taylor matrix exponential
# ---------------------------------------------------------------------------

def _within(got, want, tol):
    return float(np.max(np.abs(got - want))) <= tol * max(1.0, float(np.max(np.abs(want))))


@pytest.mark.parametrize("name", ["sp2_J", "sp2_K", "sp4_T10", "coupled_M4"])
def test_exponential_of_coefficients_matches_expm(name):
    rep = oracle.matrix_rep(name)

    @settings(max_examples=60, deadline=None)
    @given(coeffs=st.lists(st.floats(-3.0, 3.0, allow_nan=False),
                           min_size=len(rep.matrices), max_size=len(rep.matrices)))
    def check(coeffs):
        A = sum(c * M for c, M in zip(coeffs, rep.matrices))
        assert _within(oracle.exponential_of_coefficients(rep, coeffs),
                       expm(-1j * A), 1e-13)

    check()


@pytest.mark.parametrize("name", ["sp2_J", "sp4_T10"])
def test_random_group_element_matches_expm_product(name):
    rep = oracle.matrix_rep(name)
    got = oracle.random_group_element(rep, np.random.default_rng(5))
    rng = np.random.default_rng(5)
    want = np.eye(rep.dim, dtype=complex)
    for M in rep.matrices:
        want = want @ expm(-1j * float(rng.uniform(-0.5, 0.5)) * M)
    assert _within(got, want, 1e-13)


# ---------------------------------------------------------------------------
# Gauss-Legendre lengths against adaptive quadrature
# ---------------------------------------------------------------------------

def _quad(f, epsrel):
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # a reference that did not converge
        val, _ = quad(f, 0.0, 1.0, epsabs=1e-13, epsrel=epsrel, limit=200)
    return val


@pytest.mark.parametrize("v1_scale", [1.0, 30.0])
def test_generic_length_matches_quad(v1_scale):
    rng = np.random.default_rng(21)
    for _ in range(10):
        v0 = rng.uniform(-1.0, 1.0, 5)
        v0[0] *= v1_scale
        g11, p = rng.uniform(0.5, 2.0), rng.uniform(1.0, 200.0)
        sol = qb.solve_closed_form(qb.ClosedFormFamily("anharm_p", p=p), v0)
        G = qb.PenaltyMatrix.diagonal([g11, p, p, p, p])
        want = _quad(lambda s: math.sqrt(float(np.dot(G.weights, sol(s) ** 2))),
                     1e-9)
        assert abs(qb.length(sol, G) - want) <= 1e-9 * want


@pytest.mark.parametrize("v1_scale", [1.0, 50.0])
def test_anharm_length_quadrature_matches_quad(v1_scale):
    rng = np.random.default_rng(22)
    checked = 0
    while checked < 30:
        v = rng.normal(size=5)
        v[0] *= v1_scale
        g11, p = rng.uniform(0.5, 2.0), rng.uniform(1.0, 200.0)
        A, B, C = anharm_integrand_coeffs(v, g11, p)
        if A - abs(B) - abs(C) <= 1e-3 * A:
            continue
        v1 = float(v[0])
        want = _quad(lambda s: math.sqrt(
            (A + B * math.cos(4 * s * v1) + C * math.sin(4 * s * v1)) / 2.0), 1e-11)
        got = qb.anharm_length_quadrature(v, g11, p)
        assert abs(got - want) <= max(1e-13, 1e-11 * want)
        checked += 1
