"""Brute-force verification layer on concrete matrix representations.

Closed-form results elsewhere in the package are algebraic; this module
checks them against explicit matrices:

* finite-dimensional (non-Hermitian) representations of sp(2,R) and
  sp(4,R) built from Pauli blocks and the symplectic form,
* truncated harmonic-oscillator ladder matrices for the algebras that have
  no finite-dimensional Hermitian representation at all.

Truncated ladder matrices violate the commutation relations near the
truncation edge, so every check is restricted to an interior block.

The path-ordered exponential is approximated by a midpoint product of
short-time exponentials, and the right-invariant line element is evaluated
directly from its trace form.  The product is blocked: each block of about
128 KiB of factors is exponentiated at once by a scaled Taylor polynomial
and multiplied in a log-depth pairwise tree, so its cost is a few array
operations per block and its memory is bounded whatever the step count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .algebra import builtin
from .errors import DegenerateDirection, NotRegistered, NumericBlowup
from .euler_arnold import PenaltyMatrix, VelocitySolution

__all__ = [
    "MatrixRep",
    "TruncatedFockRep",
    "matrix_rep",
    "fock_rep",
    "commutator_closure_residual",
    "path_ordered_exponential",
    "spectrum_period_check",
    "line_element",
    "random_group_element",
]

DEFAULT_STEPS = 4000
DEFAULT_LEVELS = 32


@dataclass(frozen=True)
class MatrixRep:
    """Finite-dimensional matrices M_I with [M_I, M_J] = i f_IJ^K M_K."""

    algebra: str
    dim: int
    matrices: tuple

    @property
    def hermitian(self) -> bool:
        return all(np.allclose(M, M.conj().T, atol=1e-12) for M in self.matrices)


@dataclass(frozen=True)
class TruncatedFockRep:
    """Ladder-operator matrices truncated to N levels.

    ``interior`` is the number of edge rows/columns excluded from algebra
    checks; ``hamiltonian_index`` points at the generator whose spectrum
    fixes periodicity.
    """

    algebra: str
    levels: int
    matrices: tuple
    interior: int
    hamiltonian_index: int

    @property
    def dim(self) -> int:
        return self.levels

    def interior_block(self, M: np.ndarray) -> np.ndarray:
        k = self.levels - self.interior
        return M[:k, :k]


def _pauli():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return sx, sy, sz


def _sp2_J_matrices():
    sx, sy, sz = _pauli()
    return (1j * sx, 1j * sy, sz)


def _sp4_quadratic_forms():
    """Symmetric matrices S_I with T_I = (1/2) z^T S_I z, z = (Q1,P1,Q2,P2)."""
    def sym(*entries):
        S = np.zeros((4, 4))
        for a, b, v in entries:
            S[a, b] += v
            if a != b:
                S[b, a] += v
        return S

    return [
        sym((0, 0, 1), (1, 1, 1)),
        sym((2, 2, 1), (3, 3, 1)),
        sym((0, 0, 1), (1, 1, -1)),
        sym((2, 2, 1), (3, 3, -1)),
        sym((0, 1, 2)),
        sym((2, 3, 2)),
        sym((0, 2, 1), (1, 3, 1)),
        sym((0, 3, 1), (1, 2, 1)),
        sym((0, 2, 1), (1, 3, -1)),
        sym((0, 3, 1), (1, 2, -1)),
    ]


_OMEGA4 = np.array([
    [0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0],
], dtype=float)


def _sp4_matrices():
    # i * Omega * S_I represents the quadratic operator T_I with the same
    # i-convention as the structure constants
    return tuple(1j * (_OMEGA4 @ S) for S in _sp4_quadratic_forms())


def matrix_rep(name: str) -> MatrixRep:
    """Finite-dimensional representation registry.

    ``sp2_J``/``sp2_K`` are 2x2 (the energy generator is diag(1, -1), so the
    matrix-level period of its exponential is 2 pi); ``sp4_T10`` and
    ``coupled_M4`` are 4x4.  The oscillator group and the truncated cubic
    algebra have no finite-dimensional Hermitian representation; use
    :func:`fock_rep` for those.
    """
    if name == "sp2_J":
        return MatrixRep("sp2_J", 2, _sp2_J_matrices())
    if name == "sp2_K":
        J1, J2, J3 = _sp2_J_matrices()
        return MatrixRep("sp2_K", 2, ((J3 + J2) / 2, (J3 - J2) / 2, J1))
    if name == "sp4_T10":
        return MatrixRep("sp4_T10", 4, _sp4_matrices())
    if name == "coupled_M4":
        T = _sp4_matrices()
        return MatrixRep("coupled_M4", 4, (T[0], T[1], T[6], -T[9]))
    raise NotRegistered(f"no finite-dimensional representation for {name!r}")


def ladder(levels: int) -> np.ndarray:
    """Annihilation operator truncated to an N-level number basis."""
    return np.diag(np.sqrt(np.arange(1.0, levels)), 1).astype(complex)


def fock_rep(name: str, levels: int = DEFAULT_LEVELS) -> TruncatedFockRep:
    """Truncated ladder-matrix representation of the oscillator algebras.

    Supported: ``ho4`` (E, P, Q, H with H = a^dag a + 1/2), ``sp2_J`` and
    ``sp2_K`` built from single-mode quadratics, and ``anharm5`` built from
    cubics (with a correspondingly wider excluded edge).
    """
    if levels < 8:
        raise ValueError("need at least 8 levels")
    a = ladder(levels)
    ad = a.conj().T
    E = np.eye(levels, dtype=complex)
    Q = (a + ad) / np.sqrt(2.0)
    P = 1j * (ad - a) / np.sqrt(2.0)
    H = ad @ a + 0.5 * E
    if name == "ho4":
        return TruncatedFockRep("ho4", levels, (E, P, Q, H), interior=2,
                                hamiltonian_index=3)
    if name == "sp2_J":
        J1 = (Q @ P + P @ Q) / 2.0
        J2 = (Q @ Q - P @ P) / 2.0
        J3 = (Q @ Q + P @ P) / 2.0
        return TruncatedFockRep("sp2_J", levels, (J1, J2, J3), interior=4,
                                hamiltonian_index=2)
    if name == "sp2_K":
        K1 = Q @ Q / 2.0
        K2 = P @ P / 2.0
        K3 = (Q @ P + P @ Q) / 2.0
        return TruncatedFockRep("sp2_K", levels, (K1, K2, K3), interior=4,
                                hamiltonian_index=-1)
    if name == "anharm5":
        M1 = (Q @ Q + P @ P) / 2.0
        M4 = Q @ Q @ Q
        M5 = P @ P @ P
        M6 = Q @ Q @ P + Q @ P @ Q + P @ Q @ Q
        M7 = Q @ P @ P + P @ Q @ P + P @ P @ Q
        return TruncatedFockRep("anharm5", levels, (M1, M4, M5, M6, M7),
                                interior=8, hamiltonian_index=0)
    raise NotRegistered(f"no ladder-matrix representation for {name!r}")


def commutator_closure_residual(rep) -> float:
    """Max deviation of [M_I, M_J] from i f_IJ^K M_K.

    For truncated ladder representations the comparison is restricted to
    the interior block; for truncated algebras the open pairs are skipped.
    """
    alg = builtin(rep.algebra)
    mats = rep.matrices
    open_set = {frozenset(p) for p in alg.open_pairs}
    clip = rep.interior_block if isinstance(rep, TruncatedFockRep) else (lambda M: M)
    worst = 0.0
    for i in range(alg.dim):
        for j in range(alg.dim):
            if frozenset((i, j)) in open_set:
                continue
            want = 1j * sum(alg.f[i, j, k] * mats[k] for k in range(alg.dim))
            got = mats[i] @ mats[j] - mats[j] @ mats[i]
            worst = max(worst, float(np.max(np.abs(clip(got - want)))))
    return worst


# Product blocks hold about this many bytes of complex factors, so memory
# stays bounded for large (Fock) representations whatever the step count.
_BLOCK_BYTES = 128 * 1024
_UNIT_ROUNDOFF = 2.0 ** -53


def _block_length(n: int) -> int:
    """Number of n x n complex factors in one product block."""
    return max(1, _BLOCK_BYTES // (16 * n * n))


def _expm_taylor(A: np.ndarray) -> np.ndarray:
    """exp of every matrix in a (k, n, n) stack by a scaled Taylor polynomial.

    The stack's largest 1-norm theta sets one scaling 2^-j (theta <= 1/2
    afterwards) and the smallest degree whose remainder bound
    theta^(m+1)/(m+1)! / (1 - theta/(m+2)) is below 2^-53 (Higham 2005;
    Al-Mohy & Higham 2009).  A non-finite stack gives non-finite factors.
    """
    theta = float(np.max(np.sum(np.abs(A), axis=-2)))
    if not math.isfinite(theta):
        return np.full_like(A, np.nan)
    squarings = 0
    if theta > 0.5:
        squarings = math.frexp(theta)[1] + 1     # theta / 2^squarings < 1/2
        A = A * math.ldexp(1.0, -squarings)
        theta = math.ldexp(theta, -squarings)
    degree, term = 0, theta
    while term / (1.0 - theta / (degree + 2)) > _UNIT_ROUNDOFF:
        degree += 1
        term *= theta / (degree + 1)
    eye = np.eye(A.shape[-1], dtype=A.dtype)
    P = np.broadcast_to(eye, A.shape).copy()
    for j in range(degree, 0, -1):       # Horner: I + A/1 (I + A/2 (I + ...))
        P = A @ P
        P /= j
        P += eye
    for _ in range(squarings):
        P = P @ P
    return P


def _ordered_product(F: np.ndarray) -> np.ndarray:
    """F[-1] @ ... @ F[1] @ F[0] by a log-depth pairwise tree."""
    while len(F) > 1:
        even = len(F) - len(F) % 2
        pairs = F[1:even:2] @ F[0:even:2]
        F = np.concatenate([pairs, F[even:]]) if even < len(F) else pairs
    return F[0]


def path_ordered_exponential(rep, sol: VelocitySolution,
                             steps: int = DEFAULT_STEPS) -> np.ndarray:
    """Ordered product of short-time exponentials along the velocity field.

    Later factors multiply from the left (the generator acts before the
    already-accumulated evolution); velocities are sampled at interval
    midpoints, which keeps the splitting error second order in the step.

    The factors are formed and multiplied a block at a time: one contraction
    builds a block's generators, one batched Taylor exponential gives its
    factors and a pairwise tree multiplies them, and the block products are
    chained in order.  A block whose product is not finite is replayed one
    factor at a time, so ``NumericBlowup.s_reached`` is the first midpoint
    at which the running product stops being finite.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    mats = np.stack(rep.matrices)
    n = mats.shape[-1]
    U = np.eye(n, dtype=complex)
    ds = 1.0 / steps
    s_mid = (np.arange(steps) + 0.5) * ds
    V = np.atleast_2d(sol(s_mid))
    block = _block_length(n)
    # overflow is detected and reported below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, steps, block):
            A = np.einsum("ki,ijl->kjl", V[lo:lo + block], mats) * (-1j * ds)
            U_next = _ordered_product(_expm_taylor(A)) @ U
            if not np.all(np.isfinite(U_next)):
                U_next = _replay(A, U, s_mid[lo:lo + block])
            U = U_next
    return U


def _replay(A: np.ndarray, U: np.ndarray, s_mid: np.ndarray) -> np.ndarray:
    """Serial product over one block; raises at the first non-finite step."""
    for k in range(len(A)):
        U = _expm_taylor(A[k:k + 1])[0] @ U
        if not np.all(np.isfinite(U)):
            raise NumericBlowup(f"non-finite product at s={s_mid[k]:.6f}",
                                s_reached=float(s_mid[k]))
    return U


def exponential_of_coefficients(rep, coeffs_at_1) -> np.ndarray:
    """Single exponential exp(-i sum_I c_I M_I) for comparison."""
    mats = rep.matrices
    A = sum(c * M for c, M in zip(coeffs_at_1, mats))
    return expm(-1j * A)


def spectrum_period_check(rep: TruncatedFockRep, omega: float,
                          tol: float = 1e-6, max_multiples: int = 16) -> float:
    """Smallest T > 0 with exp(-i omega T H) = identity on the interior block.

    Scans integer multiples of pi/omega.  The half-integer interior spectrum
    of the oscillator energy yields 4 pi / omega.
    """
    if rep.levels < 8:
        raise ValueError("need at least 8 levels for a spectrum check")
    H = rep.matrices[rep.hamiltonian_index]
    k = rep.levels - rep.interior
    eigs = np.linalg.eigvalsh(rep.interior_block(H)[:k, :k])
    for mult in range(1, max_multiples + 1):
        T = mult * np.pi / omega
        defect = np.max(np.abs(np.exp(-1j * omega * T * eigs) - 1.0))
        if defect <= tol:
            return float(T)
    raise ValueError(f"no period found among the first {max_multiples} "
                     f"multiples of pi/omega")


def line_element(rep: MatrixRep, U: np.ndarray, dU: np.ndarray,
                 G: PenaltyMatrix) -> float:
    """Right-invariant squared line element at (U, dU).

    ds^2 = sum_IJ G_IJ Tr[i U^{-1} M_I^dag dU] Tr[i U^{-1} M_J^dag dU]
           / (Tr[M_I M_I^dag] Tr[M_J M_J^dag]),
    with diagonal G.  Right-invariance is exact: replacing (U, dU) by
    (U g, dU g) leaves every trace unchanged.
    """
    Uinv = np.linalg.inv(U)
    comps = []
    for M in rep.matrices:
        norm = np.trace(M @ M.conj().T)
        if abs(norm) < 1e-14:
            raise DegenerateDirection("generator has zero trace norm")
        comps.append(np.trace(1j * Uinv @ M.conj().T @ dU) / norm)
    comps = np.array(comps)
    val = np.sum(G.weights * comps * comps)
    return float(np.real(val))


def random_group_element(rep: MatrixRep, rng, scale: float = 0.5) -> np.ndarray:
    """Product of a few random one-parameter exponentials in the group."""
    n = rep.dim
    g = np.eye(n, dtype=complex)
    for M in rep.matrices:
        g = g @ expm(-1j * float(rng.uniform(-scale, scale)) * M)
    return g
