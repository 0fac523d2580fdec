"""Matrix-level verification of the algebraic machinery."""

import math
import re
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import qcbound as qb
from qcbound import _kernel, oracle
from qcbound.euler_arnold import ClosedFormFamily

PI = math.pi


# ---------------------------------------------------------------------------
# representations close on the registered tables
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["sp2_J", "sp2_K", "sp4_T10", "coupled_M4"])
def test_matrix_rep_closure_exact(name):
    rep = qb.matrix_rep(name)
    assert qb.commutator_closure_residual(rep) <= 1e-12
    # the dimension is read off the matrices, so it cannot disagree with them
    assert rep.dim == (2 if name.startswith("sp2") else 4)
    assert all(M.shape == (rep.dim, rep.dim) for M in rep.matrices)


@pytest.mark.parametrize("name,levels", [("ho4", 32), ("sp2_J", 32),
                                         ("sp2_K", 24), ("anharm5", 32)])
def test_fock_rep_interior_closure(name, levels):
    rep = qb.fock_rep(name, levels=levels)
    assert qb.commutator_closure_residual(rep) <= 1e-10


def test_fock_rep_edge_violation_is_real():
    # the full (untrimmed) ladder matrices do violate [Q, P] = i E at the edge
    rep = qb.fock_rep("ho4", levels=16)
    E, P, Q, _ = rep.matrices
    defect = Q @ P - P @ Q - 1j * E
    assert np.max(np.abs(defect)) > 1.0


def test_displacement_operator_identity_on_fock():
    rep = qb.fock_rep("ho4", levels=40)
    E, P, Q, H = rep.matrices
    a = oracle.ladder(40)
    alpha = 0.3 - 0.7j
    D1 = expm(alpha * a.conj().T - np.conj(alpha) * a)
    D2 = expm(1j * math.sqrt(2) * (alpha.imag * Q - alpha.real * P))
    assert np.max(np.abs((D1 - D2)[:32, :32])) < 1e-12


def test_unknown_rep_names():
    with pytest.raises(qb.NotRegistered):
        qb.matrix_rep("ho4")          # none registered, though a 4x4 one exists
    with pytest.raises(qb.NotRegistered):
        qb.fock_rep("sp4_T10")
    with pytest.raises(qb.NotRegistered):
        qb.fock_rep("sp4_T10", levels=7)   # the name is checked first


@pytest.mark.parametrize("levels", [16.5, 16.0, math.nan, math.inf, True, 7, 0, -16,
                                    pytest.param(np.float64(16.0), id="float64"),
                                    "16", None])
def test_fock_rep_rejects_levels_that_are_not_an_integer_of_at_least_8(levels):
    # 16.5 used to end in a TypeError from np.eye, nan in numpy's arange
    with pytest.raises(ValueError, match="levels must be an integer >= 8"):
        qb.fock_rep("ho4", levels=levels)


@pytest.mark.parametrize("levels", [513, 10 ** 5, np.int64(10 ** 12)])
def test_fock_rep_refuses_levels_above_the_limit_before_allocating(levels):
    # 10**5 levels would be complex matrices of 1e10 entries each
    tracemalloc.start()
    try:
        with pytest.raises(ValueError,
                           match="levels must be an integer >= 8 and <= 512"):
            qb.fock_rep("ho4", levels=levels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_fock_rep_takes_an_integer_of_another_type():
    rep = qb.fock_rep("sp2_J", levels=np.int64(12))
    assert rep.dim == 12 and type(rep.dim) is int
    assert rep.matrices[0].shape == (12, 12)


# ---------------------------------------------------------------------------
# path-ordered exponential
# ---------------------------------------------------------------------------

def test_path_ordered_identity_for_zero_velocity():
    rep = qb.matrix_rep("sp2_J")
    sol = qb.solve_closed_form(ClosedFormFamily("sp2_J_equal_penalty"), np.zeros(3))
    U = qb.path_ordered_exponential(rep, sol, steps=10)
    assert np.array_equal(U, np.eye(2))


def test_path_ordered_constant_energy_direction():
    rep = qb.matrix_rep("sp2_J")
    wt = 0.9
    sol = qb.solve_closed_form(ClosedFormFamily("sp2_J_equal_penalty"),
                               np.array([0.0, 0.0, wt]))
    U = qb.path_ordered_exponential(rep, sol, steps=2000)
    want = np.diag([np.exp(-1j * wt), np.exp(1j * wt)])
    assert np.max(np.abs(U - want)) < 1e-9


def test_path_ordered_unitary_on_hermitian_rep():
    rep = qb.fock_rep("ho4", levels=24)
    fam = ClosedFormFamily("ho4_equal_penalty")
    sol = qb.solve_closed_form(fam, np.array([0.1, 0.3, -0.2, 0.4]))
    U = qb.path_ordered_exponential(rep, sol, steps=1000)
    assert np.max(np.abs(U @ U.conj().T - np.eye(24))) < 1e-8


def test_path_ordered_step_validation():
    rep = qb.matrix_rep("sp2_J")
    sol = qb.solve_closed_form(ClosedFormFamily("sp2_J_equal_penalty"), np.zeros(3))
    for steps in (0, -3, 2.5, 4.0, math.inf, math.nan, True, np.float64(8.0),
                  "8", None):
        with pytest.raises(ValueError, match="steps must be an integer >= 1"):
            qb.path_ordered_exponential(rep, sol, steps=steps)
    # an integer of another type is taken as it is
    assert np.array_equal(qb.path_ordered_exponential(rep, sol, steps=np.int64(7)),
                          np.eye(2))


def test_path_ordered_error_is_fourth_order():
    # a smooth closed-form case: the error falls 16-fold per halving of h
    rep = qb.matrix_rep("coupled_M4")
    sol = qb.solve_closed_form(ClosedFormFamily("coupled_pq", q=1.0, p=10.0),
                               np.array([1.5, -1.0, 2.0, 1.2]))
    ref = qb.path_ordered_exponential(rep, sol, steps=3200)
    errs = [np.linalg.norm(qb.path_ordered_exponential(rep, sol, steps=steps) - ref)
            for steps in (50, 100, 200)]
    for coarse, fine in zip(errs, errs[1:]):
        assert 14.0 <= coarse / fine <= 18.0


@pytest.mark.parametrize("name", ["sp4_T10", "coupled_M4"])
def test_sp4_generators_are_real(name):
    # -i M = Omega S: the product runs on real n x n matrices in the identity frame
    rep = qb.matrix_rep(name)
    assert rep.frame is None
    assert not np.any((-1j * np.stack(rep.matrices)).imag)
    gens = oracle._generators(rep)
    assert gens.dtype == np.float64 and gens.shape == (len(rep.matrices), 4, 4)


@pytest.mark.parametrize("name", ["sp2_J", "sp2_K"])
def test_sp2_generators_are_real_in_the_cayley_frame(name):
    rep = qb.matrix_rep(name)
    C = np.array([[1, 1j], [1j, 1]])
    C_inv = 0.5 * np.array([[1, -1j], [-1j, 1]])
    T, T_inv = rep.frame
    assert np.array_equal(T, C) and np.array_equal(T_inv, C_inv)
    assert np.array_equal(C @ C_inv, np.eye(2))
    in_frame = C_inv @ (-1j * np.stack(rep.matrices)) @ C
    assert not np.any(in_frame.imag)
    gens = oracle._generators(rep)
    assert gens.dtype == np.float64 and np.array_equal(gens, in_frame.real)


@pytest.mark.parametrize("name", ["ho4", "sp2_J"])
def test_fock_rep_runs_in_complex_n_form(name):
    # the number basis has no real form: the product runs on the complex
    # n x n generators -i M themselves
    rep = qb.fock_rep(name, levels=12)
    gens = oracle._generators(rep)
    assert rep.frame is None
    assert gens.dtype == np.complex128
    assert np.array_equal(gens, -1j * np.stack(rep.matrices))
    sol = qb.solve_closed_form(ClosedFormFamily(f"{name}_equal_penalty"),
                               np.linspace(0.3, -0.2, len(rep.matrices)))
    U = qb.path_ordered_exponential(rep, sol, steps=7)
    assert U.dtype == np.complex128 and U.shape == (12, 12)


@pytest.mark.parametrize("rep_name,sol", [
    ("sp2_J", qb.solve_closed_form(ClosedFormFamily("ho4_equal_penalty"),
                                   np.array([0.1, 0.2, 0.3, 0.4]))),
    ("sp4_T10", qb.solve_closed_form(ClosedFormFamily("sp2_J_equal_penalty"),
                                     np.array([0.1, 0.2, 0.3]))),
], ids=["ho4-on-sp2_J", "sp2_J-on-sp4_T10"])
def test_path_ordered_rejects_a_solution_of_another_dimension(rep_name, sol):
    # used to end in numpy's matmul "mismatch in its core dimension"
    with pytest.raises(qb.DimMismatch, match="generators"):
        qb.path_ordered_exponential(qb.matrix_rep(rep_name), sol)


@pytest.mark.parametrize("rep_name", ["sp2_J", "sp4_T10"])
@pytest.mark.parametrize("width", [1, 4])
def test_path_ordered_rejects_velocities_of_another_width(rep_name, width):
    # a solution whose v0 fits but whose evaluator returns another number of
    # components is refused before a block is formed from it (the kernel
    # would read past the velocities)
    d = len(qb.matrix_rep(rep_name).matrices)
    sol = qb.VelocitySolution(rep_name, np.zeros(d),
                              lambda s: np.zeros((np.size(s), width)))
    with pytest.raises(qb.DimMismatch, match=rf"shape \(\d+, {width}\)"):
        qb.path_ordered_exponential(qb.matrix_rep(rep_name), sol)


@pytest.mark.parametrize("coeffs", [[0.1, 0.2], [0.1, 0.2, 0.3, 0.4], []],
                         ids=["too-few", "too-many", "none"])
def test_exponential_of_coefficients_rejects_a_wrong_count(coeffs):
    # 2 coefficients used to return a matrix, a 4th was silently dropped
    with pytest.raises(qb.DimMismatch, match="3 generators"):
        oracle.exponential_of_coefficients(qb.matrix_rep("sp2_J"), coeffs)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_exponential_of_coefficients_rejects_a_non_finite_coefficient(bad):
    # used to return an all-nan matrix
    with pytest.raises(ValueError, match="coefficients must be finite"):
        oracle.exponential_of_coefficients(qb.matrix_rep("sp2_J"), [bad, 0.0, 0.0])


@pytest.mark.parametrize("name,coeffs", [
    ("sp2_J", [1e308] * 3),              # the exponent itself overflows
    ("sp2_J", [1e3, 0.0, 0.0]),          # exp(1000 sigma_x) overflows
    ("sp4_T10", [1e200] * 10),
], ids=["exponent", "exponential", "sp4_T10"])
def test_exponential_of_overflowing_coefficients_is_a_blowup(name, coeffs):
    # used to return a silent nan (or inf) matrix and warn from numpy
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(qb.NumericBlowup, match="overflows") as info:
            oracle.exponential_of_coefficients(qb.matrix_rep(name), coeffs)
    assert info.value.s_reached == 1.0


def _column_sum_max(A):
    """The Taylor exponential's theta as it was first written."""
    return float(np.max(np.sum(np.abs(A), axis=-2)))


@settings(max_examples=300, deadline=None)
@given(n=st.sampled_from([1, 2, 4, 16, 32]), k=st.integers(1, 64),
       is_complex=st.booleans(), spread=st.integers(0, 60),
       seed=st.integers(0, 2 ** 32 - 1),
       planted=st.lists(st.tuples(st.integers(0, 2 ** 20),
                                  st.floats(allow_nan=False, allow_infinity=False)),
                        max_size=4))
def test_one_pass_norm_is_the_column_sum_max(n, k, is_complex, spread, seed, planted):
    # bit for bit, over entries whose magnitudes differ by up to 2^60, so
    # that any other order of the additions would round differently
    rng = np.random.default_rng(seed)
    shape = (k, n, n)
    A = rng.standard_normal(shape) * 2.0 ** rng.integers(-spread, spread + 1, shape)
    if is_complex:
        A = A + 1j * rng.standard_normal(shape) * 2.0 ** rng.integers(0, spread + 1, shape)
    for index, value in planted:
        A.flat[index % A.size] = value
    with np.errstate(over="ignore"):
        want = _column_sum_max(A)
        got = oracle._largest_one_norm(A)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan,
                                 complex(math.inf, 0.0), complex(0.0, math.nan),
                                 complex(math.nan, math.inf)],
                         ids=["inf", "-inf", "nan", "inf+0j", "nan*1j", "nan+inf*1j"])
@pytest.mark.parametrize("n", [1, 2, 4, 16, 32])
def test_a_non_finite_stack_takes_the_non_finite_path(bad, n):
    rng = np.random.default_rng(n)
    A = rng.standard_normal((3, n, n)) * (1.0 if isinstance(bad, float) else 1.0 + 0j)
    A[1, n - 1, 0] = bad
    theta = oracle._largest_one_norm(A)
    assert not math.isfinite(theta)
    assert math.isnan(theta) == math.isnan(_column_sum_max(A))
    if not math.isnan(theta):
        assert theta == _column_sum_max(A)
    P = oracle._expm_taylor(A)
    assert P.shape == A.shape and P.dtype == A.dtype and np.isnan(P).all()


# ---------------------------------------------------------------------------
# periodicity: matrix level vs spectrum level
# ---------------------------------------------------------------------------

def test_spectrum_period_is_four_pi():
    rep = qb.fock_rep("sp2_J", levels=16)
    assert qb.spectrum_period_check(rep, omega=1.0) == pytest.approx(4 * PI)
    assert qb.spectrum_period_check(rep, omega=2.0) == pytest.approx(2 * PI)


@pytest.mark.parametrize("omega", [-1.0, 0.0, -0.0, math.inf, -math.inf, math.nan])
def test_spectrum_period_rejects_bad_omega(omega):
    rep = qb.fock_rep("sp2_J", levels=16)
    with pytest.raises(ValueError, match="omega must be finite and > 0"):
        qb.spectrum_period_check(rep, omega=omega)


@pytest.mark.parametrize("rep", [qb.matrix_rep("sp2_J"), qb.fock_rep("sp2_K", 16)],
                         ids=["matrix_sp2_J", "fock_sp2_K"])
def test_spectrum_period_needs_an_energy_generator(rep):
    # the faithful rep used to end in an AttributeError, and sp2_K's energy
    # K1 + K2 is no single generator (its index used to point at K3)
    assert rep.hamiltonian_index is None
    with pytest.raises(ValueError, match=f"'{rep.algebra}' representation has "
                                         "no energy generator"):
        qb.spectrum_period_check(rep, omega=1.0)


@pytest.mark.parametrize("name", ["ho4", "anharm5"])
def test_fock_energy_generators_give_four_pi(name):
    rep = qb.fock_rep(name, 16)
    assert qb.spectrum_period_check(rep, omega=1.0) == pytest.approx(4 * PI)


def test_interior_spectrum_is_half_integer():
    rep = qb.fock_rep("sp2_J", levels=16)
    H = rep.interior_block(rep.matrices[rep.hamiltonian_index])
    eigs = np.sort(np.linalg.eigvalsh(H))
    assert np.allclose(eigs, np.arange(len(eigs)) + 0.5, atol=1e-12)


def test_matrix_level_period_is_two_pi():
    rep = qb.matrix_rep("sp2_J")
    J3 = rep.matrices[2]
    assert np.max(np.abs(expm(-2j * PI * J3) - np.eye(2))) < 1e-12
    # ... which is half the spectrum-level period: the covering-group mismatch
    assert np.max(np.abs(expm(-1j * PI * J3) + np.eye(2))) < 1e-12


# ---------------------------------------------------------------------------
# line element
# ---------------------------------------------------------------------------

def test_line_element_normalization_at_identity():
    rep = qb.matrix_rep("sp2_J")
    G = qb.PenaltyMatrix.diagonal([1.0, 2.0, 3.0])
    eps = 1e-3
    for i in range(3):
        ds2 = qb.line_element(rep, np.eye(2, dtype=complex),
                              -1j * eps * rep.matrices[i], G)
        assert ds2 == pytest.approx(G.weights[i] * eps ** 2, rel=1e-12)


def test_line_element_zero_displacement():
    rep = qb.matrix_rep("sp2_J")
    G = qb.PenaltyMatrix.identity(3)
    assert qb.line_element(rep, np.eye(2, dtype=complex),
                           np.zeros((2, 2)), G) == 0.0


def test_line_element_right_invariance_sweep():
    rng = np.random.default_rng(17)
    rep = qb.matrix_rep("sp2_J")
    G = qb.PenaltyMatrix.diagonal([1.0, 4.0, 0.5])
    U = oracle.random_group_element(rep, rng)
    coeffs = rng.uniform(-0.2, 0.2, size=3)
    dU = sum(c * (-1j) * M @ U for c, M in zip(coeffs, rep.matrices))
    base = qb.line_element(rep, U, dU, G)
    for _ in range(10):
        g = oracle.random_group_element(rep, rng)
        moved = qb.line_element(rep, U @ g, dU @ g, G)
        assert abs(moved - base) <= 1e-10


@pytest.mark.parametrize("dim", [2, 4])
def test_line_element_rejects_penalties_of_another_dimension(dim):
    # used to end in a numpy broadcast error
    rep = qb.matrix_rep("sp2_J")
    with pytest.raises(qb.DimMismatch, match="3 generators"):
        qb.line_element(rep, np.eye(2, dtype=complex), -1e-3j * rep.matrices[0],
                        qb.PenaltyMatrix.identity(dim))


def test_line_element_rejects_a_singular_U():
    # used to end in numpy's LinAlgError
    rep = qb.matrix_rep("sp2_J")
    with pytest.raises(ValueError, match="singular"):
        qb.line_element(rep, np.zeros((2, 2)), -1e-3j * rep.matrices[0],
                        qb.PenaltyMatrix.identity(3))


@pytest.mark.parametrize("U", [np.eye(2, 3), np.eye(3)], ids=["2x3", "3x3"])
def test_line_element_rejects_a_point_of_another_shape(U):
    # a 2 x 3 U used to be called singular, a 3 x 3 one to end in numpy's
    # matmul core-dimension error
    rep = qb.matrix_rep("sp2_J")
    G = qb.PenaltyMatrix.identity(3)
    dU = -1e-3j * rep.matrices[0]
    with pytest.raises(qb.DimMismatch, match=re.escape(f"U has shape {U.shape}")):
        qb.line_element(rep, U, dU, G)
    with pytest.raises(qb.DimMismatch, match=re.escape(f"dU {U.shape}, but the "
                                                       f"representation is 2 x 2")):
        qb.line_element(rep, np.eye(2), U, G)


@pytest.mark.parametrize("which", ["U", "dU"])
def test_line_element_rejects_a_non_finite_point(which):
    # a nan used to give a silent nan
    rep = qb.matrix_rep("sp2_J")
    U, dU = np.eye(2, dtype=complex), -1e-3j * rep.matrices[0]
    (U if which == "U" else dU)[0, 1] = math.nan
    with pytest.raises(ValueError, match="finite"):
        qb.line_element(rep, U, dU, qb.PenaltyMatrix.identity(3))


def test_line_element_degenerate_direction():
    rep = qb.MatrixRep("fake", (np.zeros((2, 2), dtype=complex),))
    with pytest.raises(qb.DegenerateDirection):
        qb.line_element(rep, np.eye(2, dtype=complex),
                        np.eye(2, dtype=complex), qb.PenaltyMatrix.identity(1))


# ---------------------------------------------------------------------------
# leading-order truncation error scaling
# ---------------------------------------------------------------------------

def test_dyson_gap_scales_cubically():
    rep = qb.matrix_rep("sp2_J")
    fam = ClosedFormFamily("sp2_J_equal_penalty")
    direction = np.array([0.5, -0.3, 0.8])
    direction /= np.linalg.norm(direction)
    radii = np.array([0.02, 0.04, 0.08])
    errs = []
    for r in radii:
        sol = qb.solve_closed_form(fam, r * direction)
        U_po = qb.path_ordered_exponential(rep, sol, steps=4000)
        U_lo = oracle.exponential_of_coefficients(
            rep, qb.leading_order_coeffs(sol)(1.0))
        errs.append(np.linalg.norm(U_po - U_lo, 2))
    slope = np.polyfit(np.log(radii), np.log(errs), 1)[0]
    assert 2.5 <= slope <= 3.5
    # cubic envelope with a fitted constant
    K = errs[-1] / radii[-1] ** 3
    for r, e in zip(radii, errs):
        assert e <= 1.2 * K * r ** 3


# ---------------------------------------------------------------------------
# batched product against the serial reference
# ---------------------------------------------------------------------------

def serial_path_ordered(rep, sol, steps):
    """Reference: one fourth-order Magnus factor per step, later factors on
    the left, each a complex expm of the exponent at the two Gauss points.

    Returns (U, None), or (None, s) with s the midpoint of the first step at
    which the running product is not finite.
    """
    gens = [-1j * M for M in rep.matrices]
    U = np.eye(gens[0].shape[0], dtype=complex)
    h = 1.0 / steps
    s_mid = (np.arange(steps) + 0.5) * h
    V1 = np.atleast_2d(sol(s_mid - math.sqrt(3) / 6 * h))
    V2 = np.atleast_2d(sol(s_mid + math.sqrt(3) / 6 * h))
    with np.errstate(all="ignore"):
        for k in range(steps):
            A1 = sum(V1[k, i] * gens[i] for i in range(len(gens)))
            A2 = sum(V2[k, i] * gens[i] for i in range(len(gens)))
            omega = h / 2 * (A1 + A2) + math.sqrt(3) / 12 * h ** 2 * (A2 @ A1 - A1 @ A2)
            if not np.all(np.isfinite(omega)):
                return None, float(s_mid[k])
            U = expm(omega) @ U
            if not np.all(np.isfinite(U)):
                return None, float(s_mid[k])
    return U, None


def _numeric_sol(alg_name):
    alg = qb.builtin(alg_name)
    G = qb.PenaltyMatrix.identity(alg.dim)
    return lambda v0: qb.solve_numeric(alg, G, v0, h=1e-2)


# rep name -> (representation, v0 -> velocity solution)
BATCH_CASES = {
    "sp2_J": (qb.matrix_rep("sp2_J"), lambda v0: qb.solve_closed_form(
        ClosedFormFamily("sp2_J_equal_penalty"), v0)),
    "sp2_K": (qb.matrix_rep("sp2_K"), _numeric_sol("sp2_K")),
    "coupled_M4": (qb.matrix_rep("coupled_M4"), lambda v0: qb.solve_closed_form(
        ClosedFormFamily("coupled_pq", q=1.0, p=10.0), v0)),
    "sp4_T10": (qb.matrix_rep("sp4_T10"), _numeric_sol("sp4_T10")),
    "fock_ho4": (qb.fock_rep("ho4", levels=16), lambda v0: qb.solve_closed_form(
        ClosedFormFamily("ho4_equal_penalty"), v0)),
    "fock_sp2_J": (qb.fock_rep("sp2_J", levels=16), lambda v0: qb.solve_closed_form(
        ClosedFormFamily("sp2_J_equal_penalty"), v0)),
}


def _step_cases(rep):
    B = oracle._block_length(rep.matrices[0].shape[0])
    return sorted({1, 2, 3, 7, B - 1, B + 1, 2 * B + 1})


@pytest.mark.parametrize("name", sorted(BATCH_CASES))
def test_batched_product_matches_serial_reference(name):
    rep, make_sol = BATCH_CASES[name]
    n_gen = len(rep.matrices)
    n = rep.matrices[0].shape[0]

    @settings(max_examples=4, deadline=None)
    @given(v0=st.lists(st.floats(-2.0, 2.0), min_size=n_gen, max_size=n_gen))
    def check(v0):
        sol = make_sol(np.array(v0))
        for steps in _step_cases(rep):
            want, _ = serial_path_ordered(rep, sol, steps)
            got = qb.path_ordered_exponential(rep, sol, steps=steps)
            assert got.dtype == np.complex128 and got.shape == (n, n)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            assert np.array_equal(qb.path_ordered_exponential(rep, sol, steps=steps), got)

    check()


@pytest.mark.parametrize("name", sorted(BATCH_CASES))
def test_zero_velocity_gives_identity_across_blocks(name):
    rep, make_sol = BATCH_CASES[name]
    sol = make_sol(np.zeros(len(rep.matrices)))
    n = rep.matrices[0].shape[0]
    for steps in _step_cases(rep):
        U = qb.path_ordered_exponential(rep, sol, steps=steps)
        assert np.array_equal(U, np.eye(n))


def test_product_memory_does_not_grow_with_steps():
    # velocities are sampled a block at a time, so 400k steps need no more
    # memory than a few blocks
    rep, make_sol = BATCH_CASES["sp2_J"]
    sol = make_sol(np.array([0.3, -0.2, 0.5]))
    tracemalloc.start()
    try:
        qb.path_ordered_exponential(rep, sol, steps=400_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * oracle._BLOCK_BYTES


def _weighted_numeric_sol(alg_name):
    alg = qb.builtin(alg_name)
    G = qb.PenaltyMatrix.diagonal(np.linspace(0.5, 2.0, alg.dim))
    return lambda v0: qb.solve_numeric(alg, G, v0)


def _closed_form_sol(tag, **params):
    fam = ClosedFormFamily(tag, **params)
    return lambda v0: qb.solve_closed_form(fam, v0)


# case -> (real representation, v0 -> velocity solution)
BACKEND_CASES = {
    "sp2_K": ("sp2_K", _weighted_numeric_sol("sp2_K")),
    "sp4_T10": ("sp4_T10", _weighted_numeric_sol("sp4_T10")),
    "sp2_J_closed": ("sp2_J", _closed_form_sol("sp2_J_equal_penalty")),
    "coupled_M4_closed": ("coupled_M4",
                          _closed_form_sol("coupled_pq", q=1.0, p=10.0)),
}


@pytest.fixture(scope="module")
def kernel():
    """The C kernel as built, without the checks that gate its use."""
    built = _kernel._library()
    if built is None:
        pytest.skip("no C kernel here (no compiler or no cache directory)")
    return built


@pytest.mark.parametrize("name", sorted(BACKEND_CASES))
def test_product_over_a_numeric_solution_is_the_same_from_both_backends(name, kernel):
    # the C kernel (its RK4 step, hermite_at and magnus_block) and the Python
    # step with the numpy evaluator and the numpy twin of the Magnus block
    # give the same solution and so the same product, byte for byte
    assert oracle._magnus_agrees(kernel)
    rep_name, make_sol = BACKEND_CASES[name]
    rep = qb.matrix_rep(rep_name)
    d = len(rep.matrices)
    rng = np.random.default_rng(len(name))
    for v0 in (rng.uniform(-2.0, 2.0, d), np.zeros(d)):
        v0[0] = -0.0
        products = []
        for backend in (kernel, None):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(_kernel, "checked", lambda agrees: backend)
                sol = make_sol(v0)
                products.append([qb.path_ordered_exponential(rep, sol, steps=steps)
                                 .tobytes() for steps in (37, 400, 4000)])
        assert products[0] == products[1]


@pytest.mark.parametrize("m", ["1", "2", "3", "B-1", "B+1"])
@pytest.mark.parametrize("name", ["sp2_J", "sp4_T10"])
def test_kernel_block_gives_the_twins_bytes(name, m, kernel):
    # magnus_block and _numpy_block with the fixed-order product, on the
    # real 2 x 2 and 4 x 4 generators, over blocks as short as one step and
    # one step either side of the product's block length (B + 1 leaves a
    # factor to carry up the tree at its first level): the same U, the same
    # exponents and the same verdict on finiteness
    gens = oracle._generators(qb.matrix_rep(name))
    d, n = gens.shape[:2]
    gens = np.ascontiguousarray(gens.reshape(d, -1))
    B = oracle._block_length(n)
    steps = {"1": 1, "2": 2, "3": 3, "B-1": B - 1, "B+1": B + 1}[m]

    @settings(max_examples=12, deadline=None)
    # a zero velocity (Taylor degree 0), theta > 1/2 (squarings), a nan, and
    # a velocity along one generator, where signed zeros reach U
    @example(seed=0, scale=0.0, h=1e-2, zeros=0, lone=None, bad=None, start=True)
    @example(seed=1, scale=60.0, h=1e-2, zeros=2, lone=None, bad=None, start=False)
    @example(seed=2, scale=0.5, h=1e-2, zeros=3, lone=None, bad=math.nan, start=True)
    @example(seed=3, scale=0.5, h=1e-2, zeros=0, lone=0, bad=None, start=False)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           scale=st.sampled_from([0.0, 0.5, 60.0, 4e3]),
           h=st.sampled_from([2.5e-4, 1e-2]),
           zeros=st.integers(0, 4),
           lone=st.one_of(st.none(), st.integers(0, 9)),
           bad=st.sampled_from([None, math.nan, math.inf, -math.inf]),
           start=st.booleans())
    def check(seed, scale, h, zeros, lone, bad, start):
        rng = np.random.default_rng(seed)
        V = scale * rng.uniform(-1.0, 1.0, (2 * steps, d))
        if lone is not None:      # the other components +-0.0
            others = np.arange(d) != lone % d
            V[:, others] = np.copysign(0.0, rng.uniform(-1.0, 1.0, (2 * steps, d - 1)))
        V.flat[rng.integers(V.size, size=zeros)] = -0.0
        if bad is not None:
            V.flat[rng.integers(V.size)] = bad
        U0 = np.eye(n) + (0.3 * rng.standard_normal((n, n)) if start else 0.0)
        want, got = U0.copy(), U0.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            twin = oracle._numpy_block(gens, V, h, want, oracle._fixed_matmul)
            ours = oracle._kernel_block(kernel, gens, h, got, steps)(V)
        assert got.tobytes() == want.tobytes()
        assert (ours is None) == (twin is None)
        if twin is not None:
            assert ours.tobytes() == twin.tobytes()
            assert got.tobytes() == U0.tobytes()     # unchanged
        if bad is not None:
            assert twin is not None

    check()


class _BrokenVelocity:
    """A constant velocity whose component ``i`` is ``bad`` from s = 0.3 on."""

    def __init__(self, v0, i, bad):
        self.v0, self.i, self.bad = np.asarray(v0, dtype=float), i, bad

    def __call__(self, s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        V = np.tile(self.v0, (len(s), 1))
        V[s >= 0.3, self.i] = self.bad
        return V


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name,i", [("sp2_J", 2), ("coupled_M4", 1), ("sp4_T10", 7)])
@pytest.mark.parametrize("backend", ["kernel", "twin"])
def test_a_non_finite_velocity_over_structural_zeros_raises_at_its_step(
        request, backend, name, i, bad):
    # the generators' zero entries (sp2_J's frame has a -0.0, coupled_M4's
    # diagonal no term at all) are left out of hA: where inf 0 gave nan
    # they now give nothing, and the step whose velocity is not finite is
    # still the first non-finite one, the reference's
    kernel = request.getfixturevalue("kernel") if backend == "kernel" else None
    rep = qb.matrix_rep(name)
    sol = _BrokenVelocity(np.linspace(0.4, -0.3, len(rep.matrices)), i, bad)
    for steps in (37, 400):
        _, s_want = serial_path_ordered(rep, sol, steps)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernel, "checked", lambda agrees: kernel)
            with pytest.raises(qb.NumericBlowup) as info:
                qb.path_ordered_exponential(rep, sol, steps=steps)
        assert info.value.s_reached == s_want
        assert s_want < 0.3 + 1.0 / steps


def test_a_kernel_whose_magnus_block_disagrees_is_refused(kernel, monkeypatch):
    # a block that leaves U as it was: the numpy twin runs instead
    def unchanged(*args):
        return 0

    monkeypatch.setattr(_kernel, "_library", lambda: SimpleNamespace(magnus_block=unchanged))
    _kernel.checked.cache_clear()
    try:
        assert _kernel.checked(oracle._magnus_agrees) is None
        rep, make_sol = BATCH_CASES["sp2_J"]
        sol = make_sol(np.array([0.3, -0.2, 0.5]))
        U = qb.path_ordered_exponential(rep, sol, steps=400)
        assert not np.allclose(U, np.eye(2))
    finally:
        _kernel.checked.cache_clear()


def test_the_gate_sees_a_taylor_degree_rule_that_is_slightly_off(kernel, monkeypatch):
    # with the twin's remainder bound at 2^-52 in place of the kernel's
    # 2^-53 the two pick other Taylor degrees only on a narrow band of
    # theta, which the gate's step at _DEGREE_BOUNDARY_THETA reaches: the
    # gate refuses the pair
    assert oracle._magnus_agrees(kernel)
    monkeypatch.setattr(oracle, "_UNIT_ROUNDOFF", 2.0 ** -52)
    assert not oracle._magnus_agrees(kernel)


def test_complex_products_and_single_exponentials_use_matmul(monkeypatch):
    # the Fock products and the single exponentials keep numpy's @: the
    # fixed-order product serves the real representations only
    def fixed(*args):
        raise AssertionError("the fixed-order product ran")

    monkeypatch.setattr(oracle, "_fixed_matmul", fixed)
    rep, make_sol = BATCH_CASES["fock_ho4"]
    qb.path_ordered_exponential(rep, make_sol(np.array([0.1, 0.2, -0.3, 0.4])), steps=7)
    for name in ("sp2_J", "sp4_T10"):
        rep = qb.matrix_rep(name)
        oracle.exponential_of_coefficients(rep, np.full(len(rep.matrices), 0.3))
        oracle.random_group_element(rep, np.random.default_rng(1))


def test_batched_product_unimodular():
    rep = qb.matrix_rep("sp4_T10")
    sol = qb.solve_numeric(qb.builtin("sp4_T10"), qb.PenaltyMatrix.identity(10),
                           np.linspace(-0.9, 0.8, 10))
    U = qb.path_ordered_exponential(rep, sol, steps=4000)
    assert abs(np.linalg.det(U) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# blow-up: the first non-finite midpoint is reported
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("v1,steps,first_bad_block", [
    # block 0's own product overflows
    pytest.param(2000.0, 2049, 0, id="2000.0-2049"),
    # block 1 is finite alone, overflows when chained
    pytest.param(2000.0, 4000, 1, id="2000.0-4000"),
    # two finite blocks are chained before it
    pytest.param(1000.0, 4000, 2, id="1000.0-4000"),
])
def test_blowup_reports_first_non_finite_midpoint(v1, steps, first_bad_block):
    # constant hyperbolic velocity along J1: U(s) = exp(v1 s sigma_x)
    rep = qb.matrix_rep("sp2_J")
    sol = qb.solve_closed_form(ClosedFormFamily("sp2_J_equal_penalty"),
                               np.array([v1, 0.0, 0.0]))
    _, s_want = serial_path_ordered(rep, sol, steps)
    assert s_want is not None
    k = round(s_want * steps - 0.5)
    block, offset = divmod(k, oracle._block_length(2))
    assert block == first_bad_block and offset != 0     # starts mid-block
    with pytest.raises(qb.NumericBlowup) as info:
        qb.path_ordered_exponential(rep, sol, steps=steps)
    assert info.value.s_reached == s_want


def test_blowup_from_a_single_overflowing_factor():
    # the first factor's norm is near the float limit: no scaling overflow,
    # the product is already non-finite at the first midpoint
    rep = qb.matrix_rep("sp2_J")
    sol = qb.solve_closed_form(ClosedFormFamily("sp2_J_equal_penalty"),
                               np.array([1e307, 0.0, 0.0]))
    _, s_want = serial_path_ordered(rep, sol, 4)
    with pytest.raises(qb.NumericBlowup) as info:
        qb.path_ordered_exponential(rep, sol, steps=4)
    assert info.value.s_reached == s_want == 0.125
