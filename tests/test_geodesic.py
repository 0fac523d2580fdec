"""Leading-order exponent coefficients and the product-form parametrization.

The closed-form coefficient functions are checked against high-order
quadrature of the velocity field and, for the cubic system, against the
explicit antiderivative formulas expanded by hand.
"""

import numpy as np
import pytest
from scipy.integrate import simpson

import qcbound as qb
from qcbound.euler_arnold import ClosedFormFamily


def _solve(tag, v0, **kw):
    fam = ClosedFormFamily(tag, **kw)
    return qb.solve_closed_form(fam, np.asarray(v0, dtype=float))


# ---------------------------------------------------------------------------
# leading-order coefficients
# ---------------------------------------------------------------------------

def test_coefficients_are_the_functions_themselves():
    # no wrapper object: the closed form's antiderivative is returned as is
    sol = _solve("sp2_J_equal_penalty", [0.3, -0.2, 0.5])
    assert qb.leading_order_coeffs(sol) == sol.evaluator.antiderivative
    for gone in ("ExponentCoefficients", "ProductFormCoefficients",
                 "reduce_periodic"):
        assert not hasattr(qb, gone)


def test_pure_energy_coefficients_are_linear():
    sol = _solve("ho4_equal_penalty", [0, 0, 0, 1.7])
    c = qb.leading_order_coeffs(sol)
    s = np.linspace(0, 1, 11)
    assert np.allclose(c(s), np.column_stack([0 * s, 0 * s, 0 * s, 1.7 * s]),
                       atol=1e-15)


def test_sp2_coefficients_match_reference_formulas():
    v1, v3 = 0.8, 1.9
    sol = _solve("sp2_J_equal_penalty", [v1, 0.0, v3])
    c = qb.leading_order_coeffs(sol)
    s = np.linspace(0.05, 1, 20)
    g1 = v1 * np.sin(4 * s * v3) / (4 * v3)
    g2 = v1 * (1 - np.cos(4 * s * v3)) / (4 * v3)
    got = c(s)
    assert np.allclose(got[:, 0], g1, atol=1e-14)
    assert np.allclose(got[:, 1], g2, atol=1e-14)
    assert np.allclose(got[:, 2], s * v3, atol=1e-15)


def test_zero_velocity_gives_zero_coefficients():
    for tag, dim in [("ho4_equal_penalty", 4), ("sp2_J_equal_penalty", 3),
                     ("coupled_pq", 4), ("anharm_p", 5)]:
        sol = _solve(tag, np.zeros(dim))
        assert np.array_equal(qb.leading_order_coeffs(sol)(0.7), np.zeros(dim))


def _anharm_reference_gammas(s, v):
    """Hand-expanded antiderivatives of the cubic-system velocities."""
    v1, v4, v5, v6, v7 = v
    c1, s1 = np.cos(s * v1), np.sin(s * v1)
    c3, s3 = np.cos(3 * s * v1), np.sin(3 * s * v1)
    g4 = (9 * v4 * s1 + v4 * s3 - 3 * (3 * v5 + v6) * c1 + (v5 - v6) * c3
          + 3 * v7 * s1 - v7 * s3 + 8 * v5 + 4 * v6) / (12 * v1)
    g5 = (3 * (3 * v4 + v7) * c1 + (v7 - v4) * c3 + 9 * v5 * s1 + v5 * s3
          + 3 * v6 * s1 - v6 * s3 - 8 * v4 - 4 * v7) / (12 * v1)
    g6 = ((3 * v4 + v7) * c1 + (v4 - v7) * c3 + 3 * v5 * s1 - v5 * s3
          + v6 * s1 + v6 * s3 - 4 * v4) / (4 * v1)
    g7 = (3 * v4 * s1 - v4 * s3 - (3 * v5 + v6) * c1 + (v6 - v5) * c3
          + v7 * s1 + v7 * s3 + 4 * v5) / (4 * v1)
    return np.column_stack([s * v1, g4, g5, g6, g7])


def test_anharm_coefficients_match_reference_formulas():
    rng = np.random.default_rng(5)
    v0 = rng.uniform(-1.5, 1.5, size=5)
    sol = _solve("anharm_p", v0, p=100.0)
    c = qb.leading_order_coeffs(sol)
    s = np.linspace(0.1, 1.0, 10)
    assert np.allclose(c(s), _anharm_reference_gammas(s, v0), atol=1e-12)


@pytest.mark.parametrize("tag,dim,kw", [
    ("ho4_equal_penalty", 4, {}),
    ("sp2_J_equal_penalty", 3, {}),
    ("coupled_pq", 4, {"q": 1.0, "p": 10.0}),
    ("anharm_p", 5, {"p": 100.0}),
])
def test_coefficients_match_simpson_quadrature(tag, dim, kw):
    rng = np.random.default_rng(dim)
    v0 = rng.uniform(-2, 2, size=dim)
    sol = _solve(tag, v0, **kw)
    c = qb.leading_order_coeffs(sol)
    dense = np.linspace(0.0, 1.0, 1001)
    V = np.atleast_2d(sol(dense))
    for k in (200, 640, 1000):
        quad_c = np.array([simpson(V[: k + 1, i], x=dense[: k + 1])
                           for i in range(dim)])
        assert np.max(np.abs(quad_c - c(dense[k]))) <= 1e-9


@pytest.mark.parametrize("tag,dim,kw", [
    ("ho4_equal_penalty", 4, {}),
    ("sp2_J_equal_penalty", 3, {}),
    ("coupled_pq", 4, {"q": 1.0, "p": 10.0}),
    ("anharm_p", 5, {"p": 100.0}),
])
def test_initial_slope_equals_initial_velocity(tag, dim, kw):
    rng = np.random.default_rng(dim + 100)
    v0 = rng.uniform(-2, 2, size=dim)
    c = qb.leading_order_coeffs(_solve(tag, v0, **kw))
    eps = 1e-6
    slope = (np.asarray(c(eps)) - np.asarray(c(-eps))) / (2 * eps)
    assert np.max(np.abs(slope - v0)) <= 1e-6


def test_numeric_solution_has_no_coefficients():
    # only a closed form's evaluator carries an antiderivative
    num = qb.solve_numeric(qb.builtin("sp2_J"), qb.PenaltyMatrix.identity(3),
                           np.array([0.6, -0.9, 1.4]))
    with pytest.raises(qb.FamilyMismatch, match="closed-form"):
        qb.leading_order_coeffs(num)


# ---------------------------------------------------------------------------
# product form
# ---------------------------------------------------------------------------

def test_product_form_requires_zero_center_velocity():
    with pytest.raises(qb.UnsupportedCenterVelocity):
        qb.product_form_coeffs_ho4(np.array([0.1, 1.0, 0.0, 0.0]))


def test_product_form_momentum_only():
    vP = 1.3
    pf = qb.product_form_coeffs_ho4(np.array([0.0, vP, 0.0, 0.0]))
    s = np.linspace(0, 1, 9)
    a = pf(s)
    assert np.allclose(a[:, 1], s * vP, atol=1e-15)
    assert np.array_equal(a[:, 0], np.zeros_like(s))
    assert np.array_equal(a[:, 2], np.zeros_like(s))


def test_product_form_zero_velocity():
    pf = qb.product_form_coeffs_ho4(np.zeros(4))
    assert np.array_equal(pf(0.5), np.zeros(4))


def test_product_form_initial_slopes():
    v0 = np.array([0.0, 0.7, -1.1, 0.4])
    pf = qb.product_form_coeffs_ho4(v0)
    eps = 1e-7
    slope = (pf(eps) - pf(0.0)) / eps
    assert abs(slope[1] - v0[1]) < 1e-6   # d a2/ds(0) = v_P
    assert abs(slope[2] - v0[2]) < 1e-6   # d a3/ds(0) = v_Q
    assert abs(slope[3] - v0[3]) < 1e-9


def test_product_form_solves_its_odes():
    rng = np.random.default_rng(21)
    v0 = np.array([0.0, *rng.uniform(-1.5, 1.5, size=3)])
    sol = _solve("ho4_equal_penalty", v0)
    pf = qb.product_form_coeffs_ho4(v0)
    resid = qb.residual_product_form(pf, sol, np.linspace(0, 1, 101))
    assert resid <= 1e-10


def test_product_form_residual_detects_perturbation():
    v0 = np.array([0.0, 0.4, 0.9, 0.3])   # |v_Q| large enough to see +0.1 in a2
    sol = _solve("ho4_equal_penalty", v0)
    base = qb.product_form_coeffs_ho4(v0)

    def perturbed(s):
        a = np.atleast_2d(base(s)).copy()
        a[:, 1] += 0.1
        return a[0] if np.ndim(s) == 0 else a

    assert qb.residual_product_form(perturbed, sol, np.linspace(0, 1, 101)) >= 0.05


def test_product_form_agrees_with_single_exponential_at_zero_rotation():
    # with v_Q = 0 (and v_E = v_H = 0) both parametrizations are linear in s
    vP = 0.9
    pf = qb.product_form_coeffs_ho4(np.array([0.0, vP, 0.0, 0.0]))
    sol = _solve("ho4_equal_penalty", [0.0, vP, 0.0, 0.0])
    c = qb.leading_order_coeffs(sol)
    assert np.allclose(pf(1.0)[1:3], c(1.0)[1:3], atol=1e-15)
