"""Structure-constant tables: exact validation and independent derivation.

The sp(4,R) table is cross-checked against a brute-force expansion of the
commutators of the underlying quadratic operators (symmetric-matrix
calculus with the symplectic form), which is independent of the registered
entries.  All Jacobi checks are exact -- no tolerances.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcbound as qb
from qcbound.algebra import jacobi_tensor

NON_TRUNCATED = ["ho4", "sp2_K", "sp2_J", "coupled_M4", "sp4_T10"]


# ---------------------------------------------------------------------------
# builtin tables
# ---------------------------------------------------------------------------

def test_ho4_table_entries():
    alg = qb.builtin("ho4")
    assert alg.generator_labels == ("E", "P", "Q", "H")
    E, P, Q, H = range(4)
    assert alg.f[Q, P, E] == 1.0
    assert alg.f[P, Q, E] == -1.0
    assert alg.f[H, Q, P] == -1.0
    assert alg.f[H, P, Q] == 1.0


def test_ho4_general_scales_with_parameters():
    alg = qb.builtin("ho4_general", m=2.0, omega=3.0)
    E, P, Q, H = range(4)
    assert alg.f[H, Q, P] == -0.5          # -1/m
    assert alg.f[H, P, Q] == 18.0          # m omega^2
    assert dict(alg.params)["m"] == 2.0
    assert qb.validate(alg).max_jacobi_residual == 0.0


def test_sp2_J_commutators():
    alg = qb.builtin("sp2_J")
    assert alg.f[0, 1, 2] == -2.0
    assert alg.f[1, 2, 0] == 2.0
    assert alg.f[2, 0, 1] == 2.0


@pytest.mark.parametrize("name", NON_TRUNCATED)
def test_jacobi_identity_exact(name):
    alg = qb.builtin(name)
    assert np.max(np.abs(jacobi_tensor(alg.f))) == 0.0
    report = qb.validate(alg)
    assert report.ok
    assert report.closure == "closed"


def test_unknown_name_raises():
    with pytest.raises(qb.NotRegistered):
        qb.builtin("so3")


@pytest.mark.parametrize("name,params", [("ho4", {"m": 2.0}),
                                         ("ho4_general", {"mass": 2.0})])
def test_builtin_refuses_a_parameter_it_does_not_take(name, params):
    with pytest.raises(TypeError):
        qb.builtin(name, **params)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_structure_constants_rejected(bad):
    f = qb.builtin("sp2_J").f.copy()
    f[0, 1, 2] = bad
    with pytest.raises(ValueError):
        qb.LieAlgebraSpec(name="bad", dim=3, generator_labels=("a", "b", "c"), f=f)


def test_overflowing_table_parameter_rejected():
    with pytest.raises(ValueError):
        qb.builtin("ho4_general", m=1e-320, omega=1.0)   # -1/m overflows


def test_overflowing_squared_parameter_rejected():
    with pytest.raises(ValueError):
        qb.builtin("ho4_general", omega=1e200)           # omega ** 2 overflows
    # a finite square keeps the rounding of ** 2
    assert qb.builtin("ho4_general", m=3.0, omega=1e150).f[3, 1, 2] == 3.0 * 1e150 ** 2


# ---------------------------------------------------------------------------
# independent derivation of the two-mode quadratic table
# ---------------------------------------------------------------------------

def _quadratic_forms():
    """T_I = (1/2) z^T S_I z over z = (Q1, P1, Q2, P2)."""
    def sym(*entries):
        S = np.zeros((4, 4))
        for a, b, v in entries:
            S[a, b] += v
            if a != b:
                S[b, a] += v
        return S

    return [
        sym((0, 0, 1), (1, 1, 1)),      # (Q1^2+P1^2)/2
        sym((2, 2, 1), (3, 3, 1)),      # (Q2^2+P2^2)/2
        sym((0, 0, 1), (1, 1, -1)),     # (Q1^2-P1^2)/2
        sym((2, 2, 1), (3, 3, -1)),     # (Q2^2-P2^2)/2
        sym((0, 1, 2)),                 # Q1P1+P1Q1
        sym((2, 3, 2)),                 # Q2P2+P2Q2
        sym((0, 2, 1), (1, 3, 1)),      # Q1Q2+P1P2
        sym((0, 3, 1), (1, 2, 1)),      # Q1P2+P1Q2
        sym((0, 2, 1), (1, 3, -1)),     # Q1Q2-P1P2
        sym((0, 3, 1), (1, 2, -1)),     # Q1P2-P1Q2
    ]


def test_sp4_table_matches_brute_force_expansion():
    # [z^T A z / 2, z^T B z / 2] = i z^T (A Om B - B Om A) z / 2
    Om = np.array([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
                  dtype=float)
    S = _quadratic_forms()
    flat = np.array(S).reshape(10, 16)
    alg = qb.builtin("sp4_T10")
    for i in range(10):
        for j in range(i + 1, 10):
            C = S[i] @ Om @ S[j] - S[j] @ Om @ S[i]
            coef, *_ = np.linalg.lstsq(flat.T, C.reshape(16), rcond=None)
            assert np.linalg.norm(flat.T @ coef - C.reshape(16)) < 1e-12, (
                f"commutator of T{i+1}, T{j+1} leaves the ten-generator span"
            )
            assert np.allclose(coef, alg.f[i, j], atol=1e-12), (i + 1, j + 1)


def test_coupled_table_embeds_in_sp4():
    # coupled basis is (T1, T2, T7, -T10)
    big = qb.builtin("sp4_T10")
    small = qb.builtin("coupled_M4")
    emb = np.zeros((4, 10))
    emb[0, 0] = emb[1, 1] = emb[2, 6] = 1.0
    emb[3, 9] = -1.0
    for i in range(4):
        for j in range(4):
            want = np.einsum("a,b,abk->k", emb[i], emb[j], big.f)
            got = small.f[i, j] @ emb
            assert np.array_equal(want, got)


def test_coupled_center_and_su2_block():
    f = qb.builtin("coupled_M4").f
    center = np.array([1.0, 1.0, 0.0, 0.0])
    assert np.max(np.abs(np.einsum("i,ijk->jk", center, f))) == 0.0
    mdiff = np.array([1.0, -1.0, 0.0, 0.0])
    assert np.array_equal(np.einsum("i,ik->k", mdiff, f[:, 2, :]),
                          [0.0, 0.0, 0.0, -2.0])
    assert np.array_equal(np.einsum("i,ik->k", mdiff, f[:, 3, :]),
                          [0.0, 0.0, 2.0, 0.0])
    assert np.array_equal(f[2, 3], [-2.0, 2.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_flags_antisymmetry_violation():
    f = np.zeros((4, 4, 4))
    f[1, 2, 3] = 1.0
    f[2, 1, 3] = 1.0   # should be -1
    spec = qb.LieAlgebraSpec(name="bad", dim=4,
                             generator_labels=("a", "b", "c", "d"), f=f)
    report = qb.validate(spec)
    assert (1, 2, 3) in report.antisymmetry_violations
    assert not report.ok


def test_validate_anharm_truncation():
    report = qb.validate(qb.builtin("anharm5"))
    assert report.closure == "truncated"
    # labels (M1, M4, M5, M6, M7) -> open pairs are all among the cubics
    assert sorted(report.open_pairs) == [
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    assert report.max_jacobi_residual == 0.0


def _jacobi_residual_loop(spec):
    """Reference: max Jacobi residual over the triples untouched by any open
    pair, one triple at a time."""
    f = spec.f
    open_set = {frozenset(p) for p in spec.open_pairs}

    def closed(a, b):
        return frozenset((a, b)) not in open_set

    dim = spec.dim
    worst = 0.0
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                pairs_ok = closed(i, j) and closed(j, k) and closed(k, i)
                if not pairs_ok:
                    continue
                # intermediate brackets must be closed as well
                ok = True
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    for m in np.nonzero(f[a, b])[0]:
                        if not closed(m, c):
                            ok = False
                if not ok:
                    continue
                res = (
                    np.einsum("m,ml->l", f[i, j], f[:, k, :])
                    + np.einsum("m,ml->l", f[j, k], f[:, i, :])
                    + np.einsum("m,ml->l", f[k, i], f[:, j, :])
                )
                worst = max(worst, float(np.max(np.abs(res))))
    return worst


def _truncated_spec(upper, open_pairs):
    """Truncated table from the upper-triangle rows upper[(i, j)] = f[i, j]."""
    dim = len(next(iter(upper.values())))
    f = np.zeros((dim, dim, dim))
    for (i, j), row in upper.items():
        f[i, j] = row
        f[j, i] = -f[i, j]
    return qb.LieAlgebraSpec(name="t", dim=dim,
                             generator_labels=tuple(f"g{k}" for k in range(dim)),
                             f=f, truncated=True, open_pairs=tuple(open_pairs))


@st.composite
def _truncated_tables(draw):
    # sparse small-integer entries, so every residual is exact
    dim = draw(st.integers(3, 6))
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    entry = st.sampled_from([0.0, 0.0, 0.0, 1.0, -1.0, 2.0])
    upper = {p: draw(st.lists(entry, min_size=dim, max_size=dim)) for p in pairs}
    open_pairs = draw(st.lists(st.sampled_from(pairs), unique=True))
    return _truncated_spec(upper, open_pairs)


@settings(max_examples=150, deadline=None)
@given(spec=_truncated_tables())
def test_validate_jacobi_residual_matches_the_per_triple_loop(spec):
    assert qb.validate(spec).max_jacobi_residual == _jacobi_residual_loop(spec)


def test_validate_reports_a_nonzero_residual_away_from_the_open_pairs():
    # [a, b] = a + c and [b, c] = a + b break Jacobi on (a, b, c), which the
    # open pair (a, d) does not reach
    spec = _truncated_spec({(0, 1): [1, 0, 1, 0], (1, 2): [1, 1, 0, 0]},
                           open_pairs=[(0, 3)])
    want = _jacobi_residual_loop(spec)
    assert want > 0.0
    assert qb.validate(spec).max_jacobi_residual == want


def test_anharm_bracket_rows():
    alg = qb.builtin("anharm5")  # (M1, M4, M5, M6, M7)
    assert np.array_equal(alg.f[0, 1], [0, 0, 0, -1, 0])   # [M1,M4] = -i M6
    assert np.array_equal(alg.f[0, 2], [0, 0, 0, 0, 1])    # [M1,M5] =  i M7
    assert np.array_equal(alg.f[0, 3], [0, 3, 0, 0, -2])   # [M1,M6]
    assert np.array_equal(alg.f[0, 4], [0, 0, -3, 2, 0])   # [M1,M7]


# ---------------------------------------------------------------------------
# basis changes
# ---------------------------------------------------------------------------

def test_change_basis_K_to_J_exact():
    got = qb.change_basis(qb.builtin("sp2_K"), qb.KJ_BASIS_CHANGE)
    assert np.array_equal(got.f, qb.builtin("sp2_J").f)


def test_change_basis_identity_and_inverse_roundtrip():
    alg = qb.builtin("coupled_M4")
    ident = qb.BasisChange("coupled_M4", "same", np.eye(4))
    assert np.array_equal(qb.change_basis(alg, ident).f, alg.f)

    rng = np.random.default_rng(7)
    T = rng.integers(-2, 3, size=(4, 4)).astype(float) + np.eye(4) * 4
    fwd = qb.BasisChange("coupled_M4", "fwd", T)
    back = qb.BasisChange("fwd", "back", np.linalg.inv(T))
    round_f = qb.change_basis(qb.change_basis(alg, fwd), back).f
    assert np.allclose(round_f, alg.f, atol=1e-12)


def test_change_basis_is_group_action():
    alg = qb.builtin("sp2_K")
    rng = np.random.default_rng(11)
    A = rng.normal(size=(3, 3)) + 3 * np.eye(3)
    B = rng.normal(size=(3, 3)) + 3 * np.eye(3)
    one_step = qb.change_basis(alg, qb.BasisChange("sp2_K", "x", B @ A)).f
    two_step = qb.change_basis(
        qb.change_basis(alg, qb.BasisChange("sp2_K", "y", A)),
        qb.BasisChange("y", "x", B),
    ).f
    assert np.allclose(one_step, two_step, atol=1e-12)


def test_singular_basis_change_raises():
    with pytest.raises(qb.SingularBasisChange):
        qb.change_basis(qb.builtin("sp2_K"),
                        qb.BasisChange("sp2_K", "bad", np.ones((3, 3))))


# ---------------------------------------------------------------------------
# JSON export
# ---------------------------------------------------------------------------

def test_table_json_roundtrip():
    alg = qb.builtin("coupled_M4")
    data = qb.table_to_json(alg)
    assert data["name"] == "coupled_M4"
    assert data["labels"] == ["M1", "M2", "M3", "M4"]
    rebuilt = np.zeros_like(alg.f)
    for i, j, k, v in data["entries"]:
        assert i < j, "export must contain only upper-triangle entries"
        rebuilt[i, j, k] = v
        rebuilt[j, i, k] = -v
    assert np.array_equal(rebuilt, alg.f)
