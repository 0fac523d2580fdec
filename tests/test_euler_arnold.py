"""Velocity equations: right-hand side, integrator, closed forms.

Closed-form families are checked against fixed-step RK4 on their governing
systems, and the weighted speed is verified as an exact constant of motion
for the genuine table flows.  The compiled RK4 step of a quadratic field is
checked for equality (``==``) with the plain numpy loop :func:`rk4_loop`
over ``rhs``, which stays here as the reference.  ``integrate_rk4`` runs
the C kernel where this process has one and otherwise the generated Python
step, which performs the kernel's operations one for one; the kernel is
also checked bit for bit against the Python step directly, and the
fallback under each way of not getting a kernel.  The slopes the step
writes are checked byte for byte against :func:`field_rows`, and both
evaluators of a numeric solution (the kernel's ``hermite_at`` and the
numpy one) against :func:`eager_interpolator`, which builds every
interval up front.
"""

import math
import numbers
import sys
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qcbound as qb
from qcbound import _kernel
from qcbound import euler_arnold as ea
from qcbound.euler_arnold import (_CHUNK_ROWS, DEFAULT_STEP, MAX_STEP, MIN_STEP,
                                  ClosedFormFamily, _compile_rk4, _QuadraticField,
                                  integrate_rk4)

RNG = np.random.default_rng(42)


def rk4_loop(fn, v0, h: float):
    """Classical fixed-step RK4 of any callable on s in [0, 1], in numpy;
    returns (s_grid, states) and checks ``h`` and ``v0`` as
    ``integrate_rk4`` does.  The reference for the compiled step."""
    if (isinstance(h, bool) or not isinstance(h, numbers.Real)
            or not (MIN_STEP <= h <= MAX_STEP)):
        raise ValueError(f"step size must be a real number with "
                         f"{MIN_STEP} <= h <= {MAX_STEP}, got {h!r}")
    V = np.array(v0, dtype=float)
    if V.ndim != 1:
        raise qb.DimMismatch(f"v0 must be a vector, got shape {V.shape}")
    if not np.isfinite(V).all():
        raise ValueError(f"v0 must be finite, got {V}")
    n = int(round(1.0 / h))
    hs = 1.0 / n
    half, sixth = 0.5 * hs, hs / 6.0
    grid = np.linspace(0.0, 1.0, n + 1)
    states = np.empty((n + 1, len(V)))
    states[0] = V
    for k in range(n):
        k1 = fn(V)
        k2 = fn(V + half * k1)
        k3 = fn(V + half * k2)
        k4 = fn(V + hs * k3)
        V = V + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        if not np.isfinite(V).all():
            raise qb.NumericBlowup(
                f"non-finite state at s={grid[k + 1]:.6f}", s_reached=grid[k + 1]
            )
        states[k + 1] = V
    return grid, states


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


def test_a_solution_does_not_store_its_penalties():
    # length(sol, G) takes the penalties itself
    fam = ClosedFormFamily("coupled_pq", q=1.0, p=10.0)
    sol = qb.solve_closed_form(fam, np.array([0.3, 0.2, 0.1, 0.4]))
    num = qb.solve_numeric(qb.builtin("coupled_M4"), fam.default_penalties(),
                           np.array([0.3, 0.2, 0.1, 0.4]))
    for s in (sol, num):
        assert not hasattr(s, "penalties")
        assert qb.length(s, fam.default_penalties()) > 0.0


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


@pytest.mark.parametrize("h", [-0.01, 0.0, 0.7, 2.0, np.inf, np.nan])
def test_integrate_rk4_rejects_step_sizes_outside_the_range(h):
    # each used to become one step of size 1, a ZeroDivisionError or a
    # float-to-int conversion error
    with pytest.raises(ValueError, match="step size"):
        integrate_rk4(_QuadraticField([[[1.0]]], [1.0]), [1.0], h)


@pytest.mark.parametrize("fn", [
    lambda V: V, qb.rhs, np.zeros((1, 1, 1)), None,
], ids=["lambda", "rhs", "table", "None"])
def test_integrate_rk4_takes_only_a_quadratic_field(fn):
    # the field's compiled step is the only integrator; rk4_loop above is
    # the numpy reference for it
    with pytest.raises(TypeError, match="quadratic field"):
        integrate_rk4(fn, [1.0], 1e-2)


@pytest.mark.parametrize("solve", [
    lambda h: integrate_rk4(_QuadraticField(qb.builtin("sp2_J").f, np.ones(3)),
                            [0.1, 0.2, 0.3], h),
    lambda h: rk4_loop(lambda V: V, [0.1, 0.2, 0.3], h),
    lambda h: qb.solve_numeric(qb.builtin("sp2_J"), qb.PenaltyMatrix.identity(3),
                               [0.1, 0.2, 0.3], h=h),
], ids=["field", "generic", "solve_numeric"])
@pytest.mark.parametrize("h", [
    "0.01", None, True, 1e-300, float(np.nextafter(MIN_STEP, 0.0)),
], ids=["string", "None", "bool", "1e-300", "below-MIN_STEP"])
def test_integrate_rk4_rejects_a_step_that_is_not_a_number_or_too_small(solve, h):
    # "0.01" and None used to end in a TypeError from '<' and 1e-300 in
    # numpy's "Maximum allowed size exceeded"; each is refused before the
    # grid and the states are allocated
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="step size must be a real number"):
            solve(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


@pytest.mark.parametrize("fn", [
    lambda v0: integrate_rk4(_QuadraticField(qb.builtin("sp2_J").f, np.ones(3)),
                             v0, 1e-2),
    lambda v0: rk4_loop(lambda V: V, v0, 1e-2),
], ids=["field", "generic"])
@pytest.mark.parametrize("v0", [1.0, [[1.0, 2.0, 3.0]]], ids=["scalar", "row"])
def test_integrate_rk4_rejects_v0_that_is_not_a_vector(fn, v0):
    # used to end in "len() of unsized object" or a numpy broadcast error
    with pytest.raises(qb.DimMismatch, match="v0 must be a vector"):
        fn(v0)


def test_integrate_rk4_rejects_v0_of_another_dimension():
    field = _QuadraticField(qb.builtin("sp2_J").f, np.ones(3))
    with pytest.raises(qb.DimMismatch, match="field has 3"):
        integrate_rk4(field, [0.1, 0.2], 1e-2)


@pytest.mark.parametrize("solve", [
    lambda v0: qb.solve_closed_form(ClosedFormFamily("sp2_J_equal_penalty"), v0),
    lambda v0: qb.solve_numeric(qb.builtin("sp2_J"), qb.PenaltyMatrix.identity(3),
                                v0),
    lambda v0: integrate_rk4(ClosedFormFamily("sp2_J_equal_penalty").governing_rhs(),
                             v0, DEFAULT_STEP),
], ids=["solve_closed_form", "solve_numeric", "integrate_rk4"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_v0_is_an_input_error(solve, bad):
    # not a nan velocity, nor a blow-up at the first step
    with pytest.raises(ValueError, match="v0 must be finite"):
        solve([0.1, bad, 0.3])


# an input on which a kernel with other rounding than rhs drifted 1.4e-13
# from the reference states within 100 steps
SP4_T10_DRIFT_EXAMPLE = dict(
    v0=[0.0, 0.96875, -1.0, 0.9453125, 0.0, 0.0, 0.25, 0.0, 0.5, 0.0],
    weights=[1.0, 4.25, 4.0, 4.625, 1.0, 1.5, 1.0, 1.0, 3.5, 1.0],
)


@pytest.mark.parametrize("name", qb.builtin_names())
def test_solve_numeric_matches_reference_rhs(name):
    # the compiled step integrates the public rhs with its exact rounding
    alg = qb.builtin(name)

    @settings(max_examples=5, deadline=None)
    @given(v0=st.lists(st.floats(-1.0, 1.0), min_size=alg.dim, max_size=alg.dim),
           weights=st.lists(st.floats(0.2, 5.0), min_size=alg.dim,
                            max_size=alg.dim))
    def check(v0, weights):
        G = qb.PenaltyMatrix.diagonal(weights)
        sol = qb.solve_numeric(alg, G, v0, h=1e-2)
        _, want = rk4_loop(lambda V: qb.rhs(alg, G, V), v0, 1e-2)
        assert np.array_equal(sol.states, want)

    if name == "sp4_T10":
        check = example(**SP4_T10_DRIFT_EXAMPLE)(check)
    check()


@pytest.mark.parametrize("name", qb.builtin_names())
def test_compiled_step_matches_generic_loop(name):
    alg = qb.builtin(name)

    @settings(max_examples=2, deadline=None)
    @given(v0=st.lists(st.floats(-2.0, 2.0), min_size=alg.dim, max_size=alg.dim),
           weights=st.lists(st.floats(0.2, 5.0), min_size=alg.dim,
                            max_size=alg.dim))
    def check(v0, weights):
        field = _QuadraticField(alg.f, weights)
        grid, got = integrate_rk4(field, v0, DEFAULT_STEP)
        want_grid, want = rk4_loop(field, v0, DEFAULT_STEP)
        assert np.array_equal(grid, want_grid)
        assert np.array_equal(got, want)

    check()


def _anharm_reduced_rhs(V):
    # the reduced cubic system written out by hand, the reference for its table
    v1, V4, V5, V6, V7 = V
    return np.array([
        0.0,
        v1 * V6,
        -v1 * V7,
        2 * v1 * V7 - 3 * v1 * V4,
        -2 * v1 * V6 + 3 * v1 * V5,
    ])


@settings(max_examples=3, deadline=None)
@given(v0=st.lists(st.floats(-2.0, 2.0), min_size=5, max_size=5))
def test_anharm_field_is_the_reduced_system(v0):
    field = ClosedFormFamily("anharm_p", p=100.0).governing_rhs()
    assert np.array_equal(field(np.array(v0)), _anharm_reduced_rhs(v0))
    _, got = integrate_rk4(field, v0, DEFAULT_STEP)
    _, want = rk4_loop(_anharm_reduced_rhs, v0, DEFAULT_STEP)
    assert np.array_equal(got, want)


def test_compiled_blowup_reports_the_generic_loop_s():
    # dV/ds = V^2 blows up at s = 1/v0 and overflows a few steps later;
    # the row of a state is s * 1000
    field = _QuadraticField([[[1.0]]], [1.0])
    rows = []
    for v0, s_near in ((3.0, 0.336), (50.0, 0.023), (700.0, 0.004)):
        with pytest.raises(qb.NumericBlowup) as fast:
            integrate_rk4(field, [v0], 1e-3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(qb.NumericBlowup) as slow:
                rk4_loop(field, [v0], 1e-3)
        assert fast.value.s_reached == slow.value.s_reached
        assert fast.value.s_reached == pytest.approx(s_near, abs=1e-9)
        rows.append(round(fast.value.s_reached * 1000))
    # the first non-finite row is found inside a chunk, not only at its end
    assert any((row - 1) % _CHUNK_ROWS not in (0, _CHUNK_ROWS - 1) for row in rows)


# each closed-form family's governing field and the components it conserves
CONSERVED = [pytest.param(fam, conserved, id=fam.tag) for fam, conserved in (
    (ClosedFormFamily("ho4_equal_penalty"), [0, 3]),
    (ClosedFormFamily("sp2_J_equal_penalty"), [2]),
    (ClosedFormFamily("coupled_pq", q=1.0, p=10.0), [0, 1]),
    (ClosedFormFamily("anharm_p", p=100.0), [0]),
)]


def _conserved(field):
    return [i for i in range(len(field.w)) if not field.S[i].any()]


@pytest.mark.parametrize("fam,conserved", CONSERVED)
@pytest.mark.parametrize("fill", [0.0, -0.0, 0.75, -1.5, "mixed"])
def test_compiled_step_with_conserved_components_matches_generic_loop(
        fam, conserved, fill):
    field = fam.governing_rhs()
    assert _conserved(field) == conserved
    rng = np.random.default_rng(len(fam.tag))
    v0 = rng.uniform(-2.0, 2.0, len(field.w))
    for n, i in enumerate(conserved):
        v0[i] = (-0.0, 0.6)[n % 2] if fill == "mixed" else fill
    _, got = integrate_rk4(field, v0, 1e-3)
    _, want = rk4_loop(field, v0, 1e-3)
    assert np.array_equal(got, want)
    for i in conserved:
        # the step carries the state itself: no update adds a zero to a -0.0
        assert np.all(got[:, i] == v0[i])
        assert np.all(np.signbit(got[:, i]) == np.signbit(v0[i]))


@pytest.mark.parametrize("fam,conserved", CONSERVED)
def test_compiled_step_has_no_stage_for_a_conserved_component(fam, conserved):
    field = fam.governing_rhs()
    rows = _compile_rk4(field.S.tobytes(), field.w.tobytes(), 1e-3)
    names = set(rows.__code__.co_varnames)
    moving = set(range(len(field.w))) - set(conserved)
    for stage in "apbqerk":
        assert {f"{stage}{i}" for i in moving} <= names
        assert not {f"{stage}{i}" for i in conserved} & names


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_compiled_step_on_tables_with_conserved_rows(data):
    # random 3-d tables with some rows zeroed, so that products of conserved
    # components alone (the same in every stage) occur; |v0| <= 0.01 keeps
    # every state far from a blow-up
    d = 3
    coef = st.sampled_from([0.0, 0.0, 1.0, -1.0, 0.5, -2.0])
    c = np.array(data.draw(st.lists(coef, min_size=d ** 3, max_size=d ** 3)))
    c = c.reshape(d, d, d)
    c[[data.draw(st.booleans()) for _ in range(d)]] = 0.0
    w = data.draw(st.lists(st.sampled_from([1.0, 0.5, 2.0]), min_size=d, max_size=d))
    small = st.sampled_from([0.0, -0.0, 0.01, -0.0075]) | st.floats(-0.01, 0.01)
    v0 = data.draw(st.lists(small, min_size=d, max_size=d))
    field = _QuadraticField(c, w)
    _, got = integrate_rk4(field, v0, 1e-2)
    _, want = rk4_loop(field, v0, 1e-2)
    assert np.array_equal(got, want)
    for i in _conserved(field):
        assert np.all(got[:, i] == v0[i])
        assert np.all(np.signbit(got[:, i]) == np.signbit(v0[i]))


def test_all_zero_table_gives_constant_states():
    field = _QuadraticField(np.zeros((2, 2, 2)), [1.0, 1.0])
    rows = _compile_rk4(field.S.tobytes(), field.w.tobytes(), 1e-2)
    # the loop body is the two extends alone, of the state and of its slopes
    assert set(rows.__code__.co_varnames) == {"v", "count", "v0", "v1", "out",
                                              "extend", "slopes", "derive", "_"}
    assert rows([0.3, -0.0], 2) == ([0.3, -0.0] * 2, [0.0] * 6)
    grid, states = integrate_rk4(field, [0.3, -0.0], 1e-2)
    assert states.shape == (101, 2)
    assert np.all(states == [0.3, 0.0]) and np.all(np.signbit(states[:, 1]))


@pytest.mark.parametrize("entry,v0", [
    ((0, 0, 0), [3.0, 0.5]),      # dV0 = V0^2 beside a conserved V1
    ((0, 0, 0), [50.0, -0.0]),
    ((0, 0, 1), [1.0, 900.0]),    # dV0 = V0 V1: the conserved V1 drives it
    ((0, 0, 1), [-2.0, 720.0]),
])
def test_compiled_blowup_with_a_conserved_component(entry, v0):
    c = np.zeros((2, 2, 2))
    c[entry] = 1.0
    field = _QuadraticField(c, [1.0, 1.0])
    assert _conserved(field) == [1]
    with pytest.raises(qb.NumericBlowup) as fast:
        integrate_rk4(field, v0, 1e-3)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(qb.NumericBlowup) as slow:
            rk4_loop(field, v0, 1e-3)
    assert fast.value.s_reached == slow.value.s_reached
    assert 0.0 < fast.value.s_reached < 1.0


@pytest.mark.parametrize("name", qb.builtin_names())
def test_symmetric_table_is_the_unsymmetrised_field(name):
    # sum_jk S_ijk V_j V_k / w_i against sum_jk c_ijk V_j (w_k V_k) / w_i,
    # to a few ulp of the largest term (plus a floor for subnormal terms)
    alg = qb.builtin(name)

    @settings(max_examples=25, deadline=None)
    @given(V=st.lists(st.floats(-2.0, 2.0), min_size=alg.dim, max_size=alg.dim),
           w=st.lists(st.floats(0.2, 5.0), min_size=alg.dim, max_size=alg.dim))
    def check(V, w):
        V, w = np.array(V), np.array(w)
        terms = alg.f * V[:, None] * (w * V)
        largest = np.abs(terms).max(axis=(1, 2)) / w
        err = np.abs(_QuadraticField(alg.f, w)(V) - terms.sum(axis=(1, 2)) / w)
        assert (err <= 16 * np.finfo(float).eps * largest + 64 * 5e-324).all()

    check()


def field_rows(field, X):
    """The field at each row of ``X``, shape (n, d), as numpy computed the
    Hermite slopes before the integrator wrote them: each nonzero term of
    the field one numpy operation over the rows, added to a zero array in
    the compiled step's order, then the division by the weights.  The
    reference for the bytes of the kept slopes."""
    X = np.ascontiguousarray(X.T)
    out = np.zeros(X.shape)
    for i, j, k in zip(*np.nonzero(field.S)):
        out[i] += field.S[i, j, k] * X[j] * X[k]
    return (out / field.w[:, None]).T


@pytest.fixture(scope="module")
def maybe_kernel():
    """The C kernel as built, without the check that gates its use, or None
    where none can be built (no compiler or no cache directory)."""
    return _kernel._library()


@pytest.mark.parametrize("name", qb.builtin_names())
def test_field_rows_equal_the_field_at_each_row(name, maybe_kernel):
    # the slopes the integrator keeps are field_rows of its states, byte for
    # byte, from either backend; field_rows is the field at each row
    alg = qb.builtin(name)
    rng = np.random.default_rng(len(name))
    X = rng.uniform(-2.0, 2.0, (50, alg.dim))
    for _ in range(4):
        field = _QuadraticField(alg.f, rng.uniform(0.2, 5.0, alg.dim))
        assert np.array_equal(field_rows(field, X), [field(x) for x in X])
        v0 = rng.uniform(-1.5, 1.5, alg.dim)
        v0[rng.integers(alg.dim)] = -0.0
        for kernel in (None, maybe_kernel):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(_kernel, "checked", lambda agrees: kernel)
                _, states, slopes = ea._integrate(field, v0, 1e-3, keep_slopes=True)
            assert slopes.tobytes() == field_rows(field, states).tobytes()


def test_a_slope_is_its_sum_from_a_zero_divided(maybe_kernel):
    # field_rows adds the terms to 0.0, then divides: a sum of -0.0
    # ((-2 * 0.0) * 1.0) gives the slope 0.0 although the stage keeps -0.0,
    # while a nonzero sum that the division rounds to zero (-5e-324 / 2 in
    # V^1, from S_101 = -2) keeps its sign; a conserved component's slope
    # is 0.0
    c = np.zeros((3, 3, 3))
    c[0, 0, 1], c[1, 0, 1] = -1.0, -1.0
    field = _QuadraticField(c, [1.0, 2.0, 1.0])
    for kernel in (None, maybe_kernel):
        for v0, want in (([0.0, 1.0, -0.0], [0.0, 0.0, 0.0]),
                         ([5e-324, 0.5, -0.0], [-5e-324, -0.0, 0.0])):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(_kernel, "checked", lambda agrees: kernel)
                _, states, slopes = ea._integrate(field, v0, 1e-2, keep_slopes=True)
            assert slopes.tobytes() == field_rows(field, states).tobytes()
            assert slopes[0].tobytes() == np.array(want).tobytes()
            assert np.signbit(states[:, 2]).all()


def eager_coefficients(grid, states, derivs):
    """The Hermite coefficients of a numeric solution as they were computed
    when every interval was built up front.  The reference for their
    bytes."""
    dx = np.diff(grid)[:, None]
    slope = np.diff(states, axis=0) / dx
    t = (derivs[:-1] + derivs[1:] - 2 * slope) / dx
    c0, c1 = states[:-1], derivs[:-1]
    c2, c3 = (slope - derivs[:-1]) / dx - t, t / dx
    return c0, c1, c2, c3


def eager_interpolator(grid, states, derivs):
    """The interpolant over :func:`eager_coefficients`, all built up front."""
    c0, c1, c2, c3 = eager_coefficients(grid, states, derivs)
    last = len(grid) - 2

    def ev(s):
        s_arr = np.clip(np.atleast_1d(np.asarray(s, dtype=float)), 0.0, 1.0)
        i = np.clip(np.searchsorted(grid, s_arr, side="right") - 1, 0, last)
        d = (s_arr - grid[i])[:, None]
        z = d * d
        out = c0[i] + c1[i] * d + c2[i] * z + c3[i] * (z * d)
        return out[0] if np.ndim(s) == 0 else out
    return ev


def test_a_numeric_solution_keeps_read_only_states_and_slopes():
    # the evaluator holds the solution's own arrays, and the pointers the
    # kernel reads them at, and nothing else, and none of them can be
    # written, so the states cannot leave their slopes
    alg = qb.builtin("sp4_T10")
    G = qb.PenaltyMatrix.diagonal(np.linspace(0.5, 2.0, alg.dim))
    sol = qb.solve_numeric(alg, G, RNG.uniform(-1.0, 1.0, alg.dim))
    ev = sol.evaluator
    assert ev.grid is sol.grid and ev.states is sol.states and ev.slopes is sol.slopes
    assert type(ev).__slots__ == ("grid", "states", "slopes", "at")
    assert ev.at == tuple(a.ctypes.data for a in (sol.grid, sol.states, sol.slopes))
    assert sol.slopes.shape == sol.states.shape == (len(sol.grid), alg.dim)
    for a in (sol.v0, sol.grid, sol.states, sol.slopes):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
    first = sol(np.linspace(0.0, 1.0, 7)).tobytes()
    sol(0.3)
    assert sol(np.linspace(0.0, 1.0, 7)).tobytes() == first


@pytest.mark.parametrize("solve", [
    lambda w: qb.solve_closed_form(ClosedFormFamily("sp2_J_equal_penalty"), w),
    lambda w: qb.solve_numeric(qb.builtin("sp2_J"), qb.PenaltyMatrix.identity(3), w),
], ids=["closed", "numeric"])
def test_a_solution_copies_the_callers_v0(solve):
    # both kept the caller's array: after w[0] = 5, sol.v0[0] read 5.0
    # while sol(0.0)[0] was still 0.3
    w = np.array([0.3, -0.2, 0.5])
    sol = solve(w)
    w[0] = 5.0
    assert sol.v0.tolist() == [0.3, -0.2, 0.5]
    assert sol(0.0)[0] == 0.3
    assert not sol.v0.flags.writeable
def test_threads_evaluating_first_get_the_same_values():
    # the evaluator keeps no state, so concurrent calls cannot disturb it
    alg = qb.builtin("coupled_M4")
    G = qb.PenaltyMatrix.identity(alg.dim)
    v0 = [0.4, -0.3, 0.8, 0.1]
    s = np.linspace(-0.1, 1.1, 301)
    want = qb.solve_numeric(alg, G, v0, h=1e-3)(s).tobytes()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            sol = qb.solve_numeric(alg, G, v0, h=1e-3)
            got = []
            threads = [threading.Thread(target=lambda: got.append(sol(s).tobytes()))
                       for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert got == [want] * 4
    finally:
        sys.setswitchinterval(switch)


@pytest.mark.parametrize("name", qb.builtin_names())
def test_lazy_dense_output_equals_the_eager_interpolant(name, maybe_kernel):
    # a solution's values, the kernel's hermite_at and the numpy evaluator
    # over the kept slopes give the bytes of the interpolant built up front
    # over field_rows, which forms every interval
    alg = qb.builtin(name)

    @settings(max_examples=12, deadline=None)
    @given(v0=st.lists(st.floats(-1.5, 1.5), min_size=alg.dim, max_size=alg.dim),
           w=st.lists(st.floats(0.2, 5.0), min_size=alg.dim, max_size=alg.dim),
           h=st.sampled_from([MAX_STEP, 1e-3, DEFAULT_STEP]),
           s=st.lists(st.floats(-0.5, 1.5), max_size=40),
           point=st.floats(-2.0, 2.0), data=st.data())
    def check(v0, w, h, s, point, data):
        G = qb.PenaltyMatrix.diagonal(w)
        sol = qb.solve_numeric(alg, G, v0, h=h)
        field = _QuadraticField(alg.f, G.weights)
        want = eager_interpolator(sol.grid, sol.states, field_rows(field, sol.states))
        on_grid = data.draw(st.lists(st.sampled_from(sol.grid.tolist()), max_size=10))
        s = np.array(s + on_grid + [0.0, -0.0, 1.0, -1e-12, 1.0 + 1e-12])
        got = sol(s)
        assert got.shape == (len(s), alg.dim)
        assert got.tobytes() == want(s).tobytes()
        for x in (point, 0.0, -0.0, 1.0, np.float64(point)):
            assert sol(x).tobytes() == want(x).tobytes()
        assert sol(np.array([])).tobytes() == want(np.array([])).tobytes()
        # two points inside every interval, where a coefficient's last bit
        # can show
        s = np.concatenate([s, sol.grid[:-1] + 0.3 * h, sol.grid[:-1] + 0.7 * h])
        got = sol(s)
        assert got.tobytes() == want(s).tobytes()
        # both backends directly, whichever one the solution used
        twin = ea._numpy_hermite(sol.grid, sol.states, sol.slopes, s)
        assert twin.tobytes() == got.tobytes()
        if maybe_kernel is not None:
            c = ea._kernel_hermite(maybe_kernel, sol.grid, sol.states, sol.slopes, s)
            assert c.tobytes() == got.tobytes()

    check()


@pytest.mark.parametrize("s,match", [
    (math.nan, "finite"), (math.inf, "finite"), (-math.inf, "finite"),
    ([0.2, math.nan], "finite"), (np.array([[0.1, 0.2]]), r"shape \(1, 2\)"),
    ([[0.5]], r"shape \(1, 1\)"),
], ids=["nan", "inf", "-inf", "nan-in-array", "row", "1x1"])
def test_numeric_solution_rejects_a_non_finite_or_2d_s(s, match, monkeypatch):
    # a nan used to give a silent nan row, a 2-d s numpy's broadcast error
    alg = qb.builtin("sp2_J")
    sol = qb.solve_numeric(alg, qb.PenaltyMatrix.identity(3), [0.3, -0.2, 0.5])

    def evaluated(*args):
        raise AssertionError("an evaluator ran")

    # refused before either evaluator runs
    monkeypatch.setattr(ea, "_numpy_hermite", evaluated)
    monkeypatch.setattr(ea, "_kernel_hermite", evaluated)
    with pytest.raises(ValueError, match=f"^s must .*{match}"):
        sol(s)


@pytest.mark.parametrize("name,weights,count", [
    ("sp2_J", [1.0, 1.0, 1.0], 2),       # 6 structure constants
    ("sp2_J", [2.5, 2.5, 2.5], 2),
    ("sp4_T10", [1.0] * 10, 38),         # 84 structure constants
])
def test_symmetric_table_drops_cancelling_terms(name, weights, count):
    field = _QuadraticField(qb.builtin(name).f, weights)
    assert np.count_nonzero(field.S) == count
    assert not np.tril(field.S, -1).any()


def test_field_rejects_non_finite_or_mismatched_tables():
    with pytest.raises(ValueError):
        _QuadraticField([[[np.nan]]], [1.0])
    with pytest.raises(ValueError):
        _QuadraticField([[[1.0]]], [0.0])
    with pytest.raises(qb.DimMismatch):
        _QuadraticField(np.zeros((2, 2, 2)), [1.0])


def test_solve_numeric_dim_mismatch():
    alg = qb.builtin("sp2_J")
    with pytest.raises(qb.DimMismatch):
        qb.solve_numeric(alg, qb.PenaltyMatrix.identity(4), np.zeros(3))
    with pytest.raises(qb.DimMismatch):
        qb.solve_numeric(alg, qb.PenaltyMatrix.identity(3), np.zeros(4))


def test_integrator_raises_on_blowup():
    # dV/ds = V^2 from v0 = 50 escapes to infinity at s = 0.02
    field = _QuadraticField([[[1.0]]], [1.0])
    with pytest.raises(qb.NumericBlowup) as err:
        integrate_rk4(field, np.array([50.0]), 1e-3)
    assert 0.02 < err.value.s_reached <= 1.0


# ---------------------------------------------------------------------------
# the C kernel and its fallback, the generated Python step
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def kernel(maybe_kernel):
    """The C kernel as built, without the check that gates its use."""
    if maybe_kernel is None:
        pytest.skip("no C kernel here (no compiler or no cache directory)")
    return maybe_kernel


def _outcome(field, v0, h, kernel):
    """The states and slopes of a numeric solve, stacked, or the s_reached
    of its NumericBlowup, from ``kernel`` or (None) the Python step."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "checked", lambda agrees: kernel)
        try:
            return np.stack(ea._integrate(field, v0, h, keep_slopes=True)[1:])
        except qb.NumericBlowup as err:
            return err.s_reached


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_kernel_python_step_and_generic_loop_agree(kernel, data):
    # random sparse fields: some rows zeroed (conserved components),
    # non-unit weights, negative coefficients, -0.0 in v0 and v0 large
    # enough to blow up before s = 1
    d = data.draw(st.integers(1, 5))
    coef = (st.sampled_from([0.0, 0.0, 0.0, 1.0, -1.0, 0.5, -2.0])
            | st.floats(-4.0, 4.0))
    c = np.array(data.draw(st.lists(coef, min_size=d ** 3, max_size=d ** 3)))
    c = c.reshape(d, d, d)
    c[[data.draw(st.booleans()) for _ in range(d)]] = 0.0
    w = data.draw(st.lists(st.sampled_from([1.0, 0.5, 3.0]) | st.floats(0.1, 10.0),
                           min_size=d, max_size=d))
    v0 = data.draw(st.lists(st.sampled_from([0.0, -0.0, 40.0, -300.0])
                            | st.floats(-3.0, 3.0), min_size=d, max_size=d))
    field = _QuadraticField(c, w)
    fast = _outcome(field, v0, 1e-2, kernel)
    slow = _outcome(field, v0, 1e-2, None)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            loop = rk4_loop(field, v0, 1e-2)[1]
        except qb.NumericBlowup as err:
            loop = err.s_reached
    if isinstance(slow, float):
        assert fast == slow == loop
        return
    # bit for bit, so the signs of zeros too, and the slopes as well
    assert fast.tobytes() == slow.tobytes()
    states, slopes = slow
    assert np.array_equal(states, loop)
    assert slopes.tobytes() == field_rows(field, states).tobytes()
    for i in _conserved(field):
        assert np.all(np.signbit(states[:, i]) == np.signbit(v0[i]))


@pytest.mark.parametrize("v0,row", [
    pytest.param(1e200, 1, id="row-1"),
    # rows 257 .. 512 are one chunk of the Python step
    pytest.param(3.0, 336, id="mid-chunk"),
    pytest.param(1.00244140625, 1000, id="last-row"),
])
@pytest.mark.parametrize("backend", ["kernel", "python"])
def test_a_blowup_is_reported_at_the_first_non_finite_row(request, backend, v0, row):
    # dV/ds = V^2 on 1000 steps: the integrator checks its states with one
    # flat test and finds the row only when that fails; the kernel stops at
    # the first non-finite row, the Python step at the end of its chunk
    kernel = request.getfixturevalue("kernel") if backend == "kernel" else None
    field = _QuadraticField([[[1.0]]], [1.0])
    s_row = np.linspace(0.0, 1.0, 1001)[row]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(qb.NumericBlowup) as loop:
            rk4_loop(field, [v0], 1e-3)
    assert loop.value.s_reached == s_row
    assert _outcome(field, [v0], 1e-3, kernel) == s_row
    if row == 336:
        assert (row - 1) % _CHUNK_ROWS not in (0, _CHUNK_ROWS - 1)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kernel_evaluator_gives_the_numpy_evaluators_bytes(kernel, data):
    # hermite_at guesses a point's interval as on a uniform grid and checks
    # the guess against the grid; on uniform grids and on random sorted
    # ones, at -0.0, 0.0, 1.0, every grid point, its neighbours and points
    # outside [0, 1], its values are _numpy_hermite's, byte for byte
    n = data.draw(st.integers(1, 60))
    if data.draw(st.booleans()):
        grid = np.linspace(0.0, 1.0, n + 1)
    else:
        inner = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n + 1,
                                   max_size=n + 1, unique=True))
        grid = np.sort(np.array(inner))
        n = len(grid) - 1
        if n == 0:
            grid = np.array([0.0, 1.0])
            n = 1
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    d = data.draw(st.integers(1, 4))
    states, slopes = rng.standard_normal((2, n + 1, d))
    s = np.concatenate([
        [-0.0, 0.0, 1.0, -0.25, 1.75, np.nextafter(1.0, 0.0), 5e-324],
        grid, np.nextafter(grid, -1.0), np.nextafter(grid, 2.0),
        rng.uniform(-0.2, 1.2, 40),
        np.array(data.draw(st.lists(st.floats(-0.5, 1.5), max_size=10)))])
    # intervals a few ulps wide overflow, in both evaluators alike
    with np.errstate(over="ignore", invalid="ignore"):
        want = ea._numpy_hermite(grid, states, slopes, s)
    got = ea._kernel_hermite(kernel, grid, states, slopes, s)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("backend", ["kernel", "python"])
def test_a_field_without_components_is_a_dim_mismatch(request, backend):
    # the kernel wrote (101, 0) states and the Python step's source did not
    # compile: a table, penalties or a field of dim 0 is refused when built
    kernel = request.getfixturevalue("kernel") if backend == "kernel" else None
    with pytest.raises(qb.DimMismatch):
        _outcome(_QuadraticField(np.zeros((0, 0, 0)), []), [], 1e-2, kernel)
    with pytest.raises(qb.DimMismatch):
        qb.PenaltyMatrix([])
    with pytest.raises(qb.DimMismatch):
        qb.LieAlgebraSpec("empty", (), np.zeros((0, 0, 0)))


def _python_step_states(field, v0, h):
    n = int(round(1.0 / h))
    states = np.zeros((n + 1, len(v0)))
    states[0] = v0
    assert ea._python_rows(field, 1.0 / n, states, None) == n + 1
    return states


def test_a_kernel_whose_evaluator_disagrees_is_refused(kernel, monkeypatch):
    # hermite_at handed the states as the slopes: the step agrees, the
    # values do not, so the Python step and the numpy evaluator run
    def wrong(d, n, grid, states, slopes, m, s, out):
        kernel.hermite_at(d, n, grid, states, states, m, s, out)

    assert ea._kernel_agrees(kernel)
    mutant = SimpleNamespace(rk4_rows=kernel.rk4_rows, hermite_at=wrong)
    monkeypatch.setattr(_kernel, "_library", lambda: mutant)
    _kernel.checked.cache_clear()
    try:
        assert _kernel.checked(ea._kernel_agrees) is None
        field = ClosedFormFamily("coupled_pq", q=1.0, p=10.0).governing_rhs()
        v0 = [0.4, -0.0, 1.3, -0.8]
        assert (integrate_rk4(field, v0, 1e-3)[1].tobytes()
                == _python_step_states(field, v0, 1e-3).tobytes())
        sol = qb.solve_numeric(qb.builtin("coupled_M4"), qb.PenaltyMatrix.identity(4), v0)
        s = np.linspace(-0.1, 1.1, 61)
        want = ea._numpy_hermite(sol.grid, sol.states, sol.slopes, s)
        assert sol(s).tobytes() == want.tobytes()
        assert ea._kernel_hermite(mutant, sol.grid, sol.states,
                                  sol.slopes, s).tobytes() != want.tobytes()
    finally:
        _kernel.checked.cache_clear()


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


def test_closed_form_takes_no_penalties():
    # each family is solved at its own penalties; others go to solve_numeric
    fam = ClosedFormFamily("ho4_equal_penalty")
    with pytest.raises(TypeError):
        qb.solve_closed_form(fam, np.zeros(4), qb.PenaltyMatrix.identity(4))
    with pytest.raises(TypeError):
        qb.solve_closed_form(fam, np.zeros(4), G=qb.PenaltyMatrix.identity(4))


def test_closed_form_dimension_mismatch():
    fam = ClosedFormFamily("sp2_J_equal_penalty")
    with pytest.raises(qb.FamilyMismatch):
        qb.solve_closed_form(fam, np.zeros(4))


def test_unknown_family_rejected():
    with pytest.raises(qb.FamilyMismatch):
        ClosedFormFamily("no_such_family")


@pytest.mark.parametrize("tag,penalties", [
    *[("anharm_p", {"p": x}) for x in (-1.0, 0.0, np.nan, np.inf)],
    ("coupled_pq", {"q": 1.0, "p": np.inf}),
])
def test_family_with_invalid_penalties_is_refused_when_built(tag, penalties):
    # its penalties are checked as PenaltyMatrix weights: positive, finite
    with pytest.raises(ValueError, match="positive and finite"):
        ClosedFormFamily(tag, **penalties)


@pytest.mark.parametrize("tag,penalties", [
    ("ho4_equal_penalty", {"q": -5.0, "p": np.nan}),
    ("sp2_J_equal_penalty", {"p": 2.0}),
    ("anharm_p", {"q": 2.0, "p": 100.0}),
])
def test_family_refuses_penalties_it_does_not_take(tag, penalties):
    with pytest.raises(qb.FamilyMismatch, match="takes no penalty"):
        ClosedFormFamily(tag, **penalties)


def test_closed_form_builds_no_penalty_matrix(monkeypatch):
    # the family keeps the matrix it checked when it was built
    fam = ClosedFormFamily("coupled_pq", q=1.0, p=10.0)
    built = []
    monkeypatch.setattr(qb.PenaltyMatrix, "__post_init__",
                        lambda self: built.append(self))
    qb.solve_closed_form(fam, np.array([0.7, -0.4, 0.5, -0.3]))
    assert built == []


@pytest.mark.parametrize("q,p", [(3.0, 1.0), (5.0, 0.5)])
def test_coupled_closed_form_is_exact_for_q_above_p(q, p):
    # p >= q is the coupled target's rule, not the closed form's
    fam = ClosedFormFamily("coupled_pq", q=q, p=p)
    v0 = np.array([0.7, -0.4, 0.5, -0.3])
    grid, states = integrate_rk4(fam.governing_rhs(), v0, qb.euler_arnold.DEFAULT_STEP)
    sol = qb.solve_closed_form(fam, v0)
    assert fam.constant_speed
    dev = np.max(np.abs(sol(grid[::50]) - states[::50]))
    assert dev <= 1e-7


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
    assert fam.constant_speed


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
