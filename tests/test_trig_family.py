"""The closed-form families as one ``TrigFamily`` construct.

The hand-written evaluators and coefficient functions that the construct
replaced are kept below as references, at each family's own penalties.  The rotation families
must reproduce them exactly (``==``), the cubic family within 1e-14 of its
``einsum`` form, and every family's coefficients must differentiate back
to its velocity.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcbound as qb
from qcbound.euler_arnold import _ANHARM_MIX as ANHARM_MIX
from qcbound.euler_arnold import _ANHARM_REDUCED
from qcbound.euler_arnold import ClosedFormFamily, int_cos, int_sin


# ---------------------------------------------------------------------------
# references: the per-family forms the construct replaced
# ---------------------------------------------------------------------------

def _rotation_pair(s, a0, b0, rate):
    """Solution of a' = -rate*b, b' = rate*a at parameter s."""
    c = np.cos(rate * s)
    sn = np.sin(rate * s)
    return a0 * c - b0 * sn, b0 * c + a0 * sn


def _ho4_evaluator(v0, rate):
    vE, vP, vQ, vH = v0

    def ev(s):
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        P, Q = _rotation_pair(s_arr, vP, vQ, rate)
        out = np.column_stack([np.full_like(s_arr, vE), P, Q,
                               np.full_like(s_arr, vH)])
        return out[0] if np.ndim(s) == 0 else out
    return ev


def _sp2_evaluator(v0):
    v1, v2, v3 = v0
    rate = 4.0 * v3

    def ev(s):
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        V1, V2 = _rotation_pair(s_arr, v1, v2, rate)
        out = np.column_stack([V1, V2, np.full_like(s_arr, v3)])
        return out[0] if np.ndim(s) == 0 else out
    return ev


def _coupled_evaluator(v0, q, p):
    v1, v2, v3, v4 = v0
    rate = (p - 2.0 * q) * (v1 - v2) / p

    def ev(s):
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        c = np.cos(rate * s_arr)
        sn = np.sin(rate * s_arr)
        V3 = v3 * c + v4 * sn
        V4 = v4 * c - v3 * sn
        out = np.column_stack([np.full_like(s_arr, v1),
                               np.full_like(s_arr, v2), V3, V4])
        return out[0] if np.ndim(s) == 0 else out
    return ev


def _anharm_basis(s_arr, v1):
    return np.stack([
        np.cos(s_arr * v1), np.sin(s_arr * v1),
        np.cos(3 * s_arr * v1), np.sin(3 * s_arr * v1),
    ], axis=-1)


def _anharm_evaluator(v0):
    v1 = v0[0]
    hard = np.asarray(v0[1:])

    def ev(s):
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        basis = _anharm_basis(s_arr, v1)                   # (n, 4)
        comps = np.einsum("kjb,j,nb->nk", ANHARM_MIX, hard, basis)
        out = np.column_stack([np.full_like(s_arr, v1), comps])
        return out[0] if np.ndim(s) == 0 else out
    return ev


def _shape(out, s):
    return out[0] if np.ndim(s) == 0 else out


def _ho4_coeffs(v0, rate):
    vE, vP, vQ, vH = v0

    def fn(s):
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        ic, isn = int_cos(s_arr, rate), int_sin(s_arr, rate)
        out = np.column_stack([
            s_arr * vE,
            vP * ic - vQ * isn,
            vQ * ic + vP * isn,
            s_arr * vH,
        ])
        return _shape(out, s)
    return fn


def _sp2_coeffs(v0):
    v1, v2, v3 = v0
    rate = 4.0 * v3

    def fn(s):
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        ic, isn = int_cos(s_arr, rate), int_sin(s_arr, rate)
        out = np.column_stack([v1 * ic - v2 * isn, v2 * ic + v1 * isn, s_arr * v3])
        return _shape(out, s)
    return fn


def _coupled_coeffs(v0, q, p):
    v1, v2, v3, v4 = v0
    rate = (p - 2.0 * q) * (v1 - v2) / p

    def fn(s):
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        ic, isn = int_cos(s_arr, rate), int_sin(s_arr, rate)
        out = np.column_stack([
            s_arr * v1,
            s_arr * v2,
            v3 * ic + v4 * isn,
            v4 * ic - v3 * isn,
        ])
        return _shape(out, s)
    return fn


def _anharm_coeffs(v0):
    v1 = v0[0]
    hard = np.asarray(v0[1:])

    def fn(s):
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        ibasis = np.stack([
            int_cos(s_arr, v1), int_sin(s_arr, v1),
            int_cos(s_arr, 3 * v1), int_sin(s_arr, 3 * v1),
        ], axis=-1)
        comps = np.einsum("kjb,j,nb->nk", ANHARM_MIX, hard, ibasis)
        out = np.column_stack([s_arr * v1, comps])
        return _shape(out, s)
    return fn


def _reference(fam, v0):
    """(velocity, coefficients) of the replaced code for ``fam`` at ``v0``."""
    if fam.tag.startswith("ho4"):
        rate = v0[3] + v0[0]
        return _ho4_evaluator(v0, rate), _ho4_coeffs(v0, rate)
    if fam.tag.startswith("sp2"):
        return _sp2_evaluator(v0), _sp2_coeffs(v0)
    if fam.tag.startswith("coupled"):
        return (_coupled_evaluator(v0, fam.q, fam.p),
                _coupled_coeffs(v0, fam.q, fam.p))
    return _anharm_evaluator(v0), _anharm_coeffs(v0)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


S_SCALAR = _floats(-2.0, 2.0)
S_ARRAY = st.lists(_floats(-2.0, 2.0), min_size=1, max_size=20).map(np.array)
POSITIVE = _floats(0.1, 10.0)


@st.composite
def rotation_cases(draw):
    """(family, v0) of a rotation family."""
    kind = draw(st.sampled_from(["ho4", "sp2", "coupled"]))
    if kind == "sp2":
        fam, dim = ClosedFormFamily("sp2_J_equal_penalty"), 3
    elif kind == "coupled":
        q = draw(POSITIVE)
        fam, dim = ClosedFormFamily("coupled_pq", q=q, p=q + draw(POSITIVE)), 4
    else:
        fam, dim = ClosedFormFamily("ho4_equal_penalty"), 4
    v0 = np.array(draw(st.lists(_floats(-1e3, 1e3), min_size=dim, max_size=dim)))
    return fam, v0


@settings(max_examples=200, deadline=None)
@given(case=rotation_cases(), s=S_SCALAR, s_arr=S_ARRAY)
def test_rotation_families_equal_the_hand_written_forms(case, s, s_arr):
    fam, v0 = case
    sol = qb.solve_closed_form(fam, v0)
    ref_v, ref_c = _reference(fam, v0)
    coeffs = qb.leading_order_coeffs(sol)
    for x in (s, s_arr):
        assert np.array_equal(sol(x), ref_v(x))
        assert np.array_equal(coeffs(x), ref_c(x))
    assert np.shape(sol(s)) == (len(v0),)
    assert np.shape(coeffs(s_arr)) == (len(s_arr), len(v0))


@settings(max_examples=200, deadline=None)
@given(v0=st.lists(_floats(-3.0, 3.0), min_size=5, max_size=5).map(np.array),
       s=_floats(0.0, 1.0),
       s_arr=st.lists(_floats(0.0, 1.0), min_size=1, max_size=20).map(np.array))
def test_anharm_family_agrees_with_the_einsum_form(v0, s, s_arr):
    fam = ClosedFormFamily("anharm_p", p=100.0)
    sol = qb.solve_closed_form(fam, v0)
    ref_v, ref_c = _reference(fam, v0)
    coeffs = qb.leading_order_coeffs(sol)
    for x in (s, s_arr):
        assert np.max(np.abs(sol(x) - ref_v(x))) <= 1e-14
        assert np.max(np.abs(coeffs(x) - ref_c(x))) <= 1e-14


FAMILIES = [
    (ClosedFormFamily("ho4_equal_penalty"), 4),
    (ClosedFormFamily("sp2_J_equal_penalty"), 3),
    (ClosedFormFamily("coupled_pq", q=1.0, p=10.0), 4),
    (ClosedFormFamily("anharm_p", p=100.0), 5),
]


@pytest.mark.parametrize("fam,dim", FAMILIES, ids=lambda x: getattr(x, "tag", ""))
def test_coefficients_differentiate_to_the_velocity(fam, dim):
    @settings(max_examples=60, deadline=None)
    @given(v0=st.lists(_floats(-3.0, 3.0), min_size=dim, max_size=dim),
           s=_floats(0.01, 0.99))
    def check(v0, s):
        sol = qb.solve_closed_form(fam, np.array(v0))
        coeffs = qb.leading_order_coeffs(sol)
        h = 1e-6
        slope = (coeffs(s + h) - coeffs(s - h)) / (2 * h)
        assert np.max(np.abs(slope - sol(s))) <= 1e-6
    check()


def test_reduced_cubic_table_is_anharm5_without_the_v1_row():
    # the six entries that used to be typed out: dV4 = v1 V6, dV5 = -v1 V7,
    # dV6 = 2 v1 V7 - 3 v1 V4, dV7 = 3 v1 V5 - 2 v1 V6
    typed = np.zeros((5, 5, 5))
    typed[[1, 2, 3, 3, 4, 4], 0, [3, 4, 1, 4, 2, 3]] = [
        1.0, -1.0, -3.0, 2.0, 3.0, -2.0]
    assert np.array_equal(_ANHARM_REDUCED, typed)
    assert not np.signbit(_ANHARM_REDUCED[typed == 0.0]).any()   # no -0.0


def test_solution_carries_the_construct():
    sol = qb.solve_closed_form(ClosedFormFamily("sp2_J_equal_penalty"),
                               np.array([0.5, -0.2, 0.7]))
    assert isinstance(sol.evaluator, qb.euler_arnold.TrigFamily)
    assert sol.evaluator.rates == ((1, 4.0 * 0.7),)
    num = qb.solve_numeric(qb.builtin("sp2_J"), qb.PenaltyMatrix.identity(3),
                           np.array([0.5, -0.2, 0.7]), h=0.01)
    assert not isinstance(num.evaluator, qb.euler_arnold.TrigFamily)
