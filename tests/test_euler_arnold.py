"""Velocity equations: right-hand side, integrator, closed forms.

Closed-form families are checked against fixed-step RK4 on their governing
systems, and the weighted speed is verified as an exact constant of motion
for the genuine table flows.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcbound as qb
from qcbound.euler_arnold import ClosedFormFamily, integrate_rk4

RNG = np.random.default_rng(42)


# ---------------------------------------------------------------------------
# right-hand side
# ---------------------------------------------------------------------------

def test_rhs_ho4_momentum_only_is_stationary():
    alg = qb.builtin("ho4")
    G = qb.PenaltyMatrix.identity(4)
    out = qb.rhs(alg, G, np.array([0.0, 1.0, 0.0, 0.0]))
    assert np.array_equal(out, np.zeros(4))


def test_rhs_ho4_hand_expanded_point():
    alg = qb.builtin("ho4")
    G = qb.PenaltyMatrix.identity(4)
    # (v_E, v_P, v_Q, v_H) = (1, 1, 1, 0):
    # dV^P = -V^H V^Q - V^Q V^E = -1, dV^Q = V^H V^P + V^P V^E = 1
    out = qb.rhs(alg, G, np.array([1.0, 1.0, 1.0, 0.0]))
    assert np.array_equal(out, [0.0, -1.0, 1.0, 0.0])


@pytest.mark.parametrize("name", ["ho4", "sp2_J", "coupled_M4", "sp4_T10", "anharm5"])
def test_rhs_vanishes_at_origin(name):
    alg = qb.builtin(name)
    out = qb.rhs(alg, qb.PenaltyMatrix.identity(alg.dim), np.zeros(alg.dim))
    assert np.array_equal(out, np.zeros(alg.dim))


def test_rhs_dim_mismatch():
    alg = qb.builtin("sp2_J")
    with pytest.raises(qb.DimMismatch):
        qb.rhs(alg, qb.PenaltyMatrix.identity(3), np.zeros(4))
    with pytest.raises(qb.DimMismatch):
        qb.rhs(alg, qb.PenaltyMatrix.identity(4), np.zeros(3))


def test_penalties_must_be_positive():
    with pytest.raises(ValueError):
        qb.PenaltyMatrix.diagonal([1.0, -1.0])


# ---------------------------------------------------------------------------
# numeric integration
# ---------------------------------------------------------------------------

def test_numeric_constant_solution():
    alg = qb.builtin("ho4")
    v0 = np.array([0.0, 0.0, 0.0, 2.3])
    sol = qb.solve_numeric(alg, qb.PenaltyMatrix.identity(4), v0)
    assert np.allclose(sol(np.array([0.0, 0.37, 1.0])), np.tile(v0, (3, 1)),
                       atol=1e-14)


def test_numeric_matches_sp2_rotation():
    alg = qb.builtin("sp2_J")
    sol = qb.solve_numeric(alg, qb.PenaltyMatrix.identity(3),
                           np.array([1.0, 0.0, 2.0]))
    s = np.linspace(0, 1, 47)
    expect = np.column_stack([np.cos(8 * s), np.sin(8 * s), np.full_like(s, 2.0)])
    assert np.max(np.abs(sol(s) - expect)) < 1e-8


def test_numeric_matches_coupled_rotation_rate():
    alg = qb.builtin("coupled_M4")
    q, p = 1.0, 10.0
    G = qb.PenaltyMatrix.diagonal([q, q, p, p])
    v0 = np.array([1.0, 2.0, 1.0, 0.0])
    sol = qb.solve_numeric(alg, G, v0)
    rate = (p - 2 * q) * (v0[0] - v0[1]) / p
    assert rate == -0.8
    s = np.linspace(0, 1, 31)
    expect = np.column_stack([
        np.full_like(s, 1.0), np.full_like(s, 2.0),
        np.cos(rate * s), -np.sin(rate * s),
    ])
    assert np.max(np.abs(sol(s) - expect)) < 1e-8


@pytest.mark.parametrize("name,G", [
    ("ho4", [1.0, 1.0, 1.0, 1.0]),
    ("ho4", [0.5, 2.0, 3.0, 1.5]),
    ("sp2_K", [1.0, 1.0, 1.0]),
    ("sp4_T10", [1.0, 2, 3, 1, 2, 1, 4, 1, 1, 2]),
    ("anharm5", [1.0, 100.0, 100.0, 100.0, 100.0]),
])
def test_numeric_speed_conservation(name, G):
    alg = qb.builtin(name)
    G = qb.PenaltyMatrix.diagonal(G)
    v0 = RNG.uniform(-2, 2, size=alg.dim)
    sol = qb.solve_numeric(alg, G, v0)
    speeds = np.einsum("i,ni->n", G.weights, sol.states ** 2)
    assert np.max(np.abs(speeds - speeds[0])) <= 1e-9 * (1.0 + speeds[0])


def test_numeric_speed_conservation_general_frequency():
    alg = qb.builtin("ho4_general", m=2.5, omega=0.8)
    G = qb.PenaltyMatrix.identity(4)
    v0 = RNG.uniform(-2, 2, size=4)
    sol = qb.solve_numeric(alg, G, v0)
    speeds = np.einsum("i,ni->n", G.weights, sol.states ** 2)
    assert np.max(np.abs(speeds - speeds[0])) <= 1e-9 * (1.0 + speeds[0])


def test_step_size_validation():
    alg = qb.builtin("sp2_J")
    with pytest.raises(ValueError):
        qb.solve_numeric(alg, qb.PenaltyMatrix.identity(3), np.zeros(3), h=0.5)


@pytest.mark.parametrize("name", qb.builtin_names())
def test_solve_numeric_matches_reference_rhs(name):
    # the precomputed stage kernel integrates the same flow as the public rhs
    alg = qb.builtin(name)

    @settings(max_examples=5, deadline=None)
    @given(v0=st.lists(st.floats(-1.0, 1.0), min_size=alg.dim, max_size=alg.dim),
           weights=st.lists(st.floats(0.2, 5.0), min_size=alg.dim,
                            max_size=alg.dim))
    def check(v0, weights):
        G = qb.PenaltyMatrix.diagonal(weights)
        sol = qb.solve_numeric(alg, G, v0, h=1e-2)
        _, want = integrate_rk4(lambda V: qb.rhs(alg, G, V), v0, 1e-2)
        assert np.max(np.abs(sol.states - want)) <= 1e-13

    check()


def test_solve_numeric_dim_mismatch():
    alg = qb.builtin("sp2_J")
    with pytest.raises(qb.DimMismatch):
        qb.solve_numeric(alg, qb.PenaltyMatrix.identity(4), np.zeros(3))
    with pytest.raises(qb.DimMismatch):
        qb.solve_numeric(alg, qb.PenaltyMatrix.identity(3), np.zeros(4))


def test_integrator_raises_on_blowup():
    # dV/ds = V^3 with large v0 escapes to infinity inside [0, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(qb.NumericBlowup) as err:
            integrate_rk4(lambda V: V ** 3, np.array([50.0]), 1e-3)
    assert 0.0 < err.value.s_reached <= 1.0


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_closed_form_ho4_endpoint():
    fam = ClosedFormFamily("ho4_equal_penalty")
    sol = qb.solve_closed_form(fam, np.array([0.0, 1.0, 0.0, np.pi]))
    V1 = sol(1.0)
    assert abs(V1[1] - np.cos(np.pi)) < 1e-15
    assert abs(V1[2] - np.sin(np.pi)) < 1e-15


def test_closed_form_anharm_periodic_return():
    fam = ClosedFormFamily("anharm_p", p=100.0)
    v0 = np.array([2 * np.pi, 0.3, -0.2, 0.5, 0.1])
    sol = qb.solve_closed_form(fam, v0)
    assert np.allclose(sol(1.0), v0, atol=1e-12)


def test_closed_form_coupled_degenerate_rate():
    fam = ClosedFormFamily("coupled_pq", q=1.0, p=2.0)  # p = 2q: rate vanishes
    v0 = np.array([1.0, 3.0, 0.7, -0.4])
    sol = qb.solve_closed_form(fam, v0)
    assert np.allclose(sol(np.linspace(0, 1, 9)), np.tile(v0, (9, 1)), atol=1e-15)


def test_closed_form_requires_equal_pq_penalty():
    fam = ClosedFormFamily("ho4_equal_penalty")
    with pytest.raises(qb.FamilyMismatch):
        qb.solve_closed_form(fam, np.zeros(4),
                             qb.PenaltyMatrix.diagonal([1, 2, 3, 1]))


def test_closed_form_dimension_mismatch():
    fam = ClosedFormFamily("sp2_J_equal_penalty")
    with pytest.raises(qb.FamilyMismatch):
        qb.solve_closed_form(fam, np.zeros(4))


def test_unknown_family_rejected():
    with pytest.raises(qb.FamilyMismatch):
        ClosedFormFamily("no_such_family")


def _families():
    return [
        (ClosedFormFamily("ho4_equal_penalty"), 4),
        (ClosedFormFamily("sp2_J_equal_penalty"), 3),
        (ClosedFormFamily("coupled_pq", q=1.0, p=10.0), 4),
        (ClosedFormFamily("anharm_p", p=100.0), 5),
    ]


@pytest.mark.parametrize("fam,dim", _families())
def test_closed_form_agrees_with_rk4(fam, dim):
    rng = np.random.default_rng(hash(fam.tag) % 2 ** 32)
    v0 = rng.uniform(-1, 1, size=dim)
    v0 *= 10.0 / max(1.0, np.linalg.norm(v0))  # exercise the large-norm regime
    grid, states = integrate_rk4(fam.governing_rhs(), v0, qb.euler_arnold.DEFAULT_STEP)
    sol = qb.solve_closed_form(fam, v0)
    sample = slice(0, len(grid), 50)
    dev = np.max(np.abs(np.atleast_2d(sol(grid[sample])) - states[sample]))
    assert dev <= 1e-7, f"{fam.tag}: closed form deviates from RK4 by {dev:.3e}"


@pytest.mark.parametrize("fam,dim", _families()[:3])
def test_closed_form_speed_exactly_constant(fam, dim):
    rng = np.random.default_rng(dim)
    v0 = rng.uniform(-2, 2, size=dim)
    sol = qb.solve_closed_form(fam, v0)
    G = fam.default_penalties()
    s = np.linspace(0.0, 1.0, 100)
    speeds = np.einsum("i,ni->n", G.weights, np.atleast_2d(sol(s)) ** 2)
    assert np.max(np.abs(speeds - speeds[0])) <= 1e-12 * (1.0 + speeds[0])
    assert sol.constant_speed


def test_ho4_conserved_components_under_equal_penalties():
    fam = ClosedFormFamily("ho4_equal_penalty")
    v0 = np.array([0.3, -1.2, 0.8, 2.0])
    sol = qb.solve_closed_form(fam, v0)
    V = sol(np.linspace(0, 1, 33))
    assert np.all(V[:, 0] == v0[0])
    assert np.all(V[:, 3] == v0[3])


@pytest.mark.parametrize("q,p", [(1.0, 1.0), (1.0, 10.0), (2.0, 3.0)])
def test_coupled_first_two_components_constant(q, p):
    fam = ClosedFormFamily("coupled_pq", q=q, p=p)
    v0 = np.array([0.9, -0.4, 1.1, 0.6])
    V = qb.solve_closed_form(fam, v0)(np.linspace(0, 1, 17))
    assert np.all(V[:, 0] == v0[0])
    assert np.all(V[:, 1] == v0[1])


def test_ho4_weighted_center_rate():
    # with G_EE != G_PP = G_QQ the rotation rate is v_H + (G_EE/G_PP) v_E
    G = qb.PenaltyMatrix.diagonal([3.0, 2.0, 2.0, 5.0])
    v0 = np.array([0.7, 1.0, -0.5, 0.9])
    fam = ClosedFormFamily("ho4_equal_penalty")
    sol = qb.solve_closed_form(fam, v0, G)
    num = qb.solve_numeric(qb.builtin("ho4"), G, v0)
    s = np.linspace(0, 1, 21)
    assert np.max(np.abs(sol(s) - num(s))) < 1e-9
