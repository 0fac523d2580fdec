"""Matrix-level verification of the algebraic machinery."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import qcbound as qb
from qcbound import oracle
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
        qb.matrix_rep("ho4")          # no finite-dimensional rep exists
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
