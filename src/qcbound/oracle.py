"""Brute-force verification layer on concrete matrix representations.

Closed-form results elsewhere in the package are algebraic; this module
checks them against explicit matrices, each representation one
:class:`MatrixRep` record from a registry table: faithful (non-Hermitian)
matrices of sp(2,R) and sp(4,R) from :func:`matrix_rep`, and truncated
harmonic-oscillator ladder matrices from :func:`fock_rep` for the algebras
with no finite-dimensional Hermitian representation at all.  Ladder
matrices violate the commutation relations near the truncation edge, so
every check runs on a record's interior block, all of a faithful one.

The path-ordered exponential is a product of fourth-order Magnus factors,
one per step: exp(Omega_k) with Omega_k built from the generators at the
step's two Gauss points and their commutator (Blanes, Casas, Oteo & Ros,
Phys. Rep. 470 (2009) 151).  The product runs in the representation's own
numbers: in its frame T (identity by default) the generators are
T^-1 (-i M_I) T, real n x n matrices when all of them are exactly real
(sp(4,R) directly, sp(2,R) in the Cayley frame) and complex n x n
otherwise (the Fock representations), and the result is T U T^-1.  The
product is blocked: each block's factors are exponentiated at once by a
scaled Taylor polynomial and multiplied in a log-depth pairwise tree, so
its cost is a few array operations per block and its memory is bounded
whatever the step count.

On a real representation each matrix product sums its terms in a fixed
order (:func:`_fixed_matmul`, in place of ``@``, whose order is BLAS's),
and hA_1, hA_2 = sum_I (V^I h) T^-1 (-i M_I) T are summed over the
generators' nonzero entries only, in increasing generator index from an
entry's first term (:class:`_GeneratorTerms`; sp4_T10's ten 4 x 4
generators hold 28 nonzeros of 160, and a zero term would change no sum
but the sign of a zero, which no factor sees).  A block is so the numpy
twin of the C kernel's ``magnus_block`` (``_rk4.c``), which runs it
whenever :mod:`._kernel` has the library and its block has given the
twin's bytes on a check (:func:`_magnus_agrees`); both give the same
doubles, and otherwise the twin runs.  The kernel computes a block's
Taylor factors four at a time, lane-interleaved, with each factor's
operations in their order.  On a 2 x 2 or 4 x 4 stack numpy's
``@`` makes one BLAS call per matrix, so the kernel is the fast path and
the twin, about 6x slower than ``@`` on a (256, 4, 4) stack, the
fallback.  A complex (Fock) representation keeps ``@``, which is the fast
path at 16-32 levels, and so do the single (complex) exponentials of
:func:`exponential_of_coefficients` and :func:`random_group_element`,
which share the Taylor exponential.

The right-invariant line element is evaluated directly from its trace form.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import _kernel
from .algebra import builtin
from .errors import DegenerateDirection, DimMismatch, NotRegistered, NumericBlowup
from .euler_arnold import PenaltyMatrix, VelocitySolution

__all__ = [
    "MatrixRep",
    "matrix_rep",
    "fock_rep",
    "commutator_closure_residual",
    "path_ordered_exponential",
    "spectrum_period_check",
    "line_element",
    "random_group_element",
]

DEFAULT_STEPS = 400
DEFAULT_LEVELS = 32
# a levels x levels complex matrix takes 16 levels^2 bytes, 4 MiB at 512;
# building the anharm5 representation there peaks at 52 MiB
_MAX_LEVELS = 512


@dataclass(frozen=True)
class MatrixRep:
    """n x n matrices M_I with [M_I, M_J] = i f_IJ^K M_K on the interior block.

    ``frame`` is the pair (T, T^-1) of the n x n frame in which the oracle's
    product runs (None for the identity); it is chosen so that every
    T^-1 (-i M_I) T is real.  ``interior`` is the number of edge rows and
    columns excluded from algebra checks: 0 for a faithful representation,
    positive for a truncated ladder.  ``hamiltonian_index`` points at the
    generator that is the energy, whose spectrum fixes periodicity, or is
    None when no single generator is.  ``dim`` is n, read off the matrices.
    """

    algebra: str
    matrices: tuple
    frame: tuple | None = None
    interior: int = 0
    hamiltonian_index: int | None = None

    @property
    def dim(self) -> int:
        return len(self.matrices[0])

    def interior_block(self, M: np.ndarray) -> np.ndarray:
        """The leading n - interior rows and columns of (a stack of) M."""
        k = self.dim - self.interior
        return M[..., :k, :k]


def _pauli():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return sx, sy, sz


def _sp2_J_matrices():
    sx, sy, sz = _pauli()
    return (1j * sx, 1j * sy, sz)


# Cayley frame (C, C^-1): C^-1 (-i M) C is real for every M in su(1,1)
_CAYLEY = (np.array([[1, 1j], [1j, 1]]), 0.5 * np.array([[1, -1j], [-1j, 1]]))


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


def _sp2_K_matrices():
    J1, J2, J3 = _sp2_J_matrices()
    return ((J3 + J2) / 2, (J3 - J2) / 2, J1)


def _coupled_M4_matrices():
    T = _sp4_matrices()
    return (T[0], T[1], T[6], -T[9])


# name -> (matrices builder, frame)
_MATRIX_REPS = {
    "sp2_J": (_sp2_J_matrices, _CAYLEY),
    "sp2_K": (_sp2_K_matrices, _CAYLEY),
    "sp4_T10": (_sp4_matrices, None),
    "coupled_M4": (_coupled_M4_matrices, None),
}


def matrix_rep(name: str) -> MatrixRep:
    """Faithful finite-dimensional representation registry.

    ``sp2_J``/``sp2_K`` are 2x2 with the Cayley frame (the matrix-level
    period of exp(-i theta diag(1, -1)) is 2 pi); ``sp4_T10`` and
    ``coupled_M4`` are 4x4 and already real (-i M = Omega S).  Each record
    has ``interior`` 0 and no energy generator.  The oscillator group and
    the truncated cubic algebra have no finite-dimensional Hermitian
    representation; use :func:`fock_rep` for those.
    """
    if name not in _MATRIX_REPS:
        raise NotRegistered(
            f"no registered finite-dimensional representation for {name!r}")
    build, frame = _MATRIX_REPS[name]
    return MatrixRep(name, build(), frame)


def ladder(levels: int) -> np.ndarray:
    """Annihilation operator truncated to an N-level number basis."""
    return np.diag(np.sqrt(np.arange(1.0, levels)), 1).astype(complex)


# name -> (generators as a function of (E, P, Q, H), excluded edge,
# index of the energy generator or None); cubics need a wider edge
_FOCK_REPS = {
    "ho4": (lambda E, P, Q, H: (E, P, Q, H), 2, 3),
    "sp2_J": (lambda E, P, Q, H: ((Q @ P + P @ Q) / 2.0,
                                  (Q @ Q - P @ P) / 2.0,
                                  (Q @ Q + P @ P) / 2.0), 4, 2),
    # the energy (Q^2 + P^2)/2 is K1 + K2, not a single generator
    "sp2_K": (lambda E, P, Q, H: (Q @ Q / 2.0,
                                  P @ P / 2.0,
                                  (Q @ P + P @ Q) / 2.0), 4, None),
    "anharm5": (lambda E, P, Q, H: ((Q @ Q + P @ P) / 2.0,
                                    Q @ Q @ Q,
                                    P @ P @ P,
                                    Q @ Q @ P + Q @ P @ Q + P @ Q @ Q,
                                    Q @ P @ P + P @ Q @ P + P @ P @ Q), 8, 0),
}


def fock_rep(name: str, levels: int = DEFAULT_LEVELS) -> MatrixRep:
    """Truncated ladder-matrix representation of the oscillator algebras.

    Supported: ``ho4`` (E, P, Q, H with H = a^dag a + 1/2), ``sp2_J`` and
    ``sp2_K`` built from single-mode quadratics, and ``anharm5`` built from
    cubics (with a correspondingly wider excluded edge).  The record's
    ``interior`` is that edge and its ``hamiltonian_index`` the energy
    generator (None for ``sp2_K``, whose energy is K1 + K2).  An unknown
    name raises ``NotRegistered`` before anything is built; ``levels``
    must be an integer with 8 <= levels <= 512 (there each matrix takes
    4 MiB and the build of ``anharm5`` peaks at 52 MiB; the size grows as
    levels^2), and a bool, a float, a non-number or a count out of that
    range raises ``ValueError`` before anything is allocated.
    """
    if name not in _FOCK_REPS:
        raise NotRegistered(f"no ladder-matrix representation for {name!r}")
    generators, interior, energy = _FOCK_REPS[name]
    levels = _whole(levels, "levels", 8, _MAX_LEVELS)
    a = ladder(levels)
    ad = a.conj().T
    E = np.eye(levels, dtype=complex)
    Q = (a + ad) / np.sqrt(2.0)
    P = 1j * (ad - a) / np.sqrt(2.0)
    H = ad @ a + 0.5 * E
    return MatrixRep(name, generators(E, P, Q, H), interior=interior,
                     hamiltonian_index=energy)


def commutator_closure_residual(rep: MatrixRep) -> float:
    """Max deviation of [M_I, M_J] from i f_IJ^K M_K.

    The comparison is restricted to the rep's interior block (all of a
    faithful rep); for truncated algebras the open pairs are skipped.
    """
    alg = builtin(rep.algebra)
    mats = np.stack(rep.matrices)
    d, n = len(mats), mats.shape[-1]
    # d^2 small n x n products rather than one (dn x n)(n x dn) product,
    # which BLAS would split over threads
    prods = mats[:, None] @ mats[None, :]
    want = 1j * (alg.f @ mats.reshape(d, n * n)).reshape(d, d, n, n)
    defect = rep.interior_block(prods - prods.swapaxes(0, 1) - want)
    worst = np.max(np.abs(defect), axis=(-2, -1))
    for i, j in alg.open_pairs:
        worst[i, j] = worst[j, i] = 0.0
    return float(np.max(worst))


# Product blocks hold at most this many bytes of factors, so memory
# stays bounded for large (Fock) representations whatever the step count.
_BLOCK_BYTES = 128 * 1024
_UNIT_ROUNDOFF = 2.0 ** -53


def _block_length(n: int) -> int:
    """Number of steps in one product block of an n x n rep, budgeting
    32 n^2 bytes a step (twice a complex n x n factor) in ``_BLOCK_BYTES``."""
    return max(1, _BLOCK_BYTES // (8 * (2 * n) ** 2))


def _largest_one_norm(A: np.ndarray) -> float:
    """max_k ||A_k||_1 of a (k, n, n) stack: the largest column sum of |A|.

    One pass: with the row axis first and the rest flattened, numpy adds
    the n rows one after the other over a long inner loop.  These are the
    additions, in the same order, of ``np.sum(np.abs(A), axis=-2)``, so the
    result is the same double, without that reduction's inner loops of
    length n.  A non-finite entry gives a non-finite value.
    """
    n = A.shape[-1]
    return float(np.add.reduce(np.abs(A).swapaxes(0, 1).reshape(n, -1)).max())


def _fixed_matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B for real stacks, each entry summed over l = 0 .. q-1 from its
    first term: A[..., :, 0] B[..., 0, :] + A[..., :, 1] B[..., 1, :] + ...

    The C kernel's ``magnus_block`` forms each product in this order, so the
    two give the same doubles, where ``@`` leaves the order to BLAS (one
    call per matrix of a stack).
    """
    C = A[..., :, :1] * B[..., :1, :]
    for l in range(1, A.shape[-1]):
        C += A[..., :, l:l + 1] * B[..., l:l + 1, :]
    return C


def _expm_taylor(A: np.ndarray, mul=np.matmul) -> np.ndarray:
    """exp of every matrix in a (k, n, n) stack by a scaled Taylor polynomial.

    The stack's largest 1-norm theta (:func:`_largest_one_norm`) sets one
    scaling 2^-j (theta <= 1/2 afterwards) and the smallest degree whose
    remainder bound theta^(m+1)/(m+1)! / (1 - theta/(m+2)) is below 2^-53
    (Higham 2005; Al-Mohy & Higham 2009).  A non-finite stack gives
    non-finite factors.  ``mul`` forms the matrix products: ``@``, or
    :func:`_fixed_matmul` for the real product.
    """
    theta = _largest_one_norm(A)
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
    if degree == 0:
        P = np.broadcast_to(eye, A.shape).copy()
    else:                                # the innermost term A I is A
        P = A / degree + eye
    for j in range(degree - 1, 0, -1):   # Horner: I + A/1 (I + A/2 (I + ...))
        P = mul(A, P)
        P /= j
        P += eye
    for _ in range(squarings):
        P = mul(P, P)
    return P


def _ordered_product(F: np.ndarray, mul=np.matmul) -> np.ndarray:
    """F[-1] @ ... @ F[1] @ F[0] by a log-depth pairwise tree."""
    while len(F) > 1:
        even = len(F) - len(F) % 2
        pairs = mul(F[1:even:2], F[0:even:2])
        F = np.concatenate([pairs, F[even:]]) if even < len(F) else pairs
    return F[0]


# Gauss points s_k -/+ _GAUSS h about each midpoint s_k, and the weight of
# the commutator in the fourth-order Magnus exponent
_GAUSS = math.sqrt(3.0) / 6.0
_COMMUTATOR = math.sqrt(3.0) / 12.0


def _generators(rep):
    """The generators T^-1 (-i M_I) T in the rep's frame T as a (d, n, n)
    stack: real if every entry is exactly real, complex otherwise."""
    gens = -1j * np.stack(rep.matrices)
    if rep.frame is not None:
        T, T_inv = rep.frame
        gens = T_inv @ gens @ T
    return gens if np.any(gens.imag) else gens.real


def path_ordered_exponential(rep, sol: VelocitySolution,
                             steps: int = DEFAULT_STEPS) -> np.ndarray:
    """Ordered product of fourth-order Magnus factors along the velocity field.

    With A(s) = sum_I V^I(s) (-i M_I), h = 1/steps and midpoints
    s_k = (k + 1/2) h, step k contributes exp(Omega_k) with

        Omega_k = (h/2)(A_1 + A_2) + (sqrt(3)/12) h^2 [A_2, A_1],
        A_1,2 = A(s_k -/+ (sqrt(3)/6) h),

    and later factors multiply from the left (the generator acts before the
    already-accumulated evolution).  The error is fourth order in h.

    The product U runs on the generators of :func:`_generators`, real or
    complex n x n, and T U T^-1 in the rep's frame T is returned as
    complex.
    The factors are formed and multiplied a block at a time
    (:func:`_numpy_block`): one call samples the velocity at both Gauss
    points of every step in the block, one matrix product builds A_1 and
    A_2, two batched products give the commutators, one batched Taylor
    exponential gives the factors and a pairwise tree multiplies them, and
    the block products are chained in order.  On a real representation
    A_1 and A_2 are summed over the generators' nonzero entries and every
    matrix product in a fixed order (:func:`_fixed_matmul`), and the C
    kernel's ``magnus_block`` runs each block when this process has one
    (:func:`_magnus_agrees`), four Taylor factors per pass, with the same
    doubles; a complex one uses ``@``.  A block whose product is not finite
    is replayed one factor at a time, so ``NumericBlowup.s_reached`` is the
    midpoint s_k of the first step at which the running product stops
    being finite (a non-finite velocity makes its own step's exponent
    non-finite, whatever zeros the generators hold).  A solution whose
    dimension is not the number of generators raises ``DimMismatch``.
    """
    steps = _whole(steps, "steps", 1)
    gens = _generators(rep)
    d, n = gens.shape[:2]
    if np.shape(sol.v0) != (d,):
        raise DimMismatch(f"velocity has shape {np.shape(sol.v0)}, but the "
                          f"representation has {d} generators")
    U = np.eye(n, dtype=gens.dtype)
    gens = np.ascontiguousarray(gens.reshape(d, -1))
    mul = np.matmul if np.iscomplexobj(gens) else _fixed_matmul
    h = 1.0 / steps
    block = _block_length(n)
    terms = None if mul is np.matmul else _GeneratorTerms(gens)
    kernel = None if terms is None else _kernel.checked(_magnus_agrees)
    if kernel is None:
        def advance(V):
            return _numpy_block(gens, V, h, U, mul, terms)
    else:
        advance = _kernel_block(kernel, gens, h, U, block, terms)
    # overflow is detected and reported below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, steps, block):
            s_mid = (np.arange(lo, min(lo + block, steps)) + 0.5) * h
            s_gauss = np.concatenate([s_mid - _GAUSS * h, s_mid + _GAUSS * h])
            V = np.ascontiguousarray(np.atleast_2d(sol(s_gauss)), dtype=float)
            if V.shape != (len(s_gauss), d):
                raise DimMismatch(f"the velocity at {len(s_gauss)} points has "
                                  f"shape {V.shape}, not {(len(s_gauss), d)}")
            omega = advance(V)
            if omega is not None:
                U[...] = _replay(omega, U, s_mid, mul)
    U = U.astype(complex)
    if rep.frame is not None:
        T, T_inv = rep.frame
        U = T @ U @ T_inv
    return U


class _GeneratorTerms:
    """The nonzero entries of (d, n^2) real generators, the terms that the
    twin's and the kernel's sums of hA_1 and hA_2 both run over.

    Entry by entry and, within an entry, in increasing generator index:
    the terms of entry e are ``start[e] .. start[e + 1] - 1``, term t the
    value ``value[t]`` of generator ``index[t]``.  A -0.0 is a zero.
    ``levels`` lays them out for numpy (:func:`_sparse_combination`); it
    is built on first use, since the kernel does not read it.
    """

    def __init__(self, gens: np.ndarray):
        entry, index = np.nonzero(gens.T)
        self.gens = gens
        self.start = np.searchsorted(entry, np.arange(gens.shape[1] + 1)).astype(np.intc)
        self.index = index.astype(np.intc)
        self.value = gens[index, entry]

    @functools.cached_property
    def levels(self) -> tuple:
        """(L, n^2) generator indexes and values, L the most terms of an
        entry: level r holds each entry's r-th term, or for an entry with
        fewer a pad of value 1.0 at index d, a column of 0.0, on level 0
        and at index d + 1, a column of -0.0, on the others."""
        d, width = self.gens.shape
        count = np.diff(self.start)
        entry = np.repeat(np.arange(width), count)
        rank = np.arange(len(self.index)) - self.start[entry]
        index = np.full((max(int(count.max(initial=0)), 1), width), d + 1)
        index[0] = d
        value = np.ones(index.shape)
        index[rank, entry] = self.index
        value[rank, entry] = self.value
        return index, value


def _sparse_combination(V: np.ndarray, h: float, terms: _GeneratorTerms) -> np.ndarray:
    """sum_I (V[:, I] h) gens[I] over the generators' nonzero entries only,
    as the kernel's ``magnus_block`` sums: each entry's sum runs over its
    terms in order, from the first, and an entry without terms is 0.0.

    One gather takes every level's terms at once.  A pad adds nothing:
    on level 0 it is the 0.0 of an entry without terms, on later levels a
    -0.0, and x + -0.0 is x, bit for bit, for every x."""
    index, value = terms.levels
    rows, d = V.shape
    Vh = np.empty((rows, d + 2))
    np.multiply(V, h, out=Vh[:, :d])
    Vh[:, d] = 0.0
    Vh[:, d + 1] = -0.0
    T = Vh[:, index]
    T *= value
    out = T[:, 0]
    for r in range(1, len(index)):
        out = out + T[:, r]
    return out


def _numpy_block(gens: np.ndarray, V: np.ndarray, h: float, U: np.ndarray,
                 mul, terms: _GeneratorTerms | None = None) -> np.ndarray | None:
    """One block of the product: U <- P U in place, with P the ordered
    product of the block's Magnus factors.

    ``gens`` is the (d, n^2) stack of generators and ``V`` the (2 m, d)
    velocities, the m first Gauss points and then the m second ones.
    Returns None, or the (m, n, n) exponents Omega_k with U unchanged when
    P U is not finite.  With ``mul`` :func:`_fixed_matmul` this is the twin
    of the C kernel's ``magnus_block``: hA_1 and hA_2 are summed over the
    generators' nonzero entries (``terms``, built from ``gens`` unless
    given; :func:`_sparse_combination`), and every matrix product in its
    fixed order.  With ``@`` it is the complex product, hA = (V h) @ gens.
    """
    m, n = len(V) // 2, U.shape[-1]
    if mul is np.matmul:
        hA = (V * h) @ gens
    else:
        hA = _sparse_combination(V, h, terms or _GeneratorTerms(gens))
    hA1, hA2 = hA.reshape(2, m, n, n)
    omega = 0.5 * (hA1 + hA2) + _COMMUTATOR * (mul(hA2, hA1) - mul(hA1, hA2))
    U_next = mul(_ordered_product(_expm_taylor(omega, mul), mul), U)
    if not np.all(np.isfinite(U_next)):
        return omega
    U[...] = U_next
    return None


def _kernel_block(kernel, gens: np.ndarray, h: float, U: np.ndarray,
                  block: int, terms: _GeneratorTerms | None = None):
    """:func:`_numpy_block` with :func:`_fixed_matmul`, for one product of
    blocks of at most ``block`` steps, run by the C kernel's
    ``magnus_block``: a function of V that updates U in place and returns
    what the twin returns.  The kernel reads the generators as their
    nonzero terms (``terms``, built from ``gens`` unless given).  The
    pointers of the terms, U and the scratch arrays are taken once here,
    that of V once per block; the function holds the arrays, so that none
    is freed while it lives."""
    d, n = gens.shape[0], U.shape[-1]
    terms = terms or _GeneratorTerms(gens)
    arrays = (terms.start, terms.index, terms.value, np.empty((block, n, n)), U,
              np.empty((block + 16) * n * n + 2 * d))
    at = tuple(a.ctypes.data for a in arrays)

    def advance(V):
        m = len(V) // 2
        if kernel.magnus_block(d, n, m, V.ctypes.data, h, _COMMUTATOR, *at):
            return arrays[3][:m]
        return None

    return advance


# a theta at which a remainder bound of 2^-52 would give the Taylor
# polynomial one degree fewer (13) than 2^-53 does (14)
_DEGREE_BOUNDARY_THETA = 0.44


def _magnus_agrees(kernel) -> bool:
    """Whether ``kernel``'s ``magnus_block`` gives the twin's U and
    exponents byte for byte on irregular real generators (2 x 2, 3 x 3 and
    4 x 4), over blocks of 1, 2, 3 and 5 steps from a non-identity U:
    velocities with -0.0 entries, a zero velocity (Taylor degree 0), large
    ones (squarings), a non-finite one (U unchanged), five steps over
    generators with +0.0 and -0.0 entries and an entry that none of them
    has, once with an infinite component, and one step along
    diag(1 .. -1) at ``_DEGREE_BOUNDARY_THETA``, where the bytes of
    exp(Omega) = diag(e^theta .. e^-theta) show a Taylor degree one too
    low."""
    def irregular(shape, phase):
        return np.sin(np.arange(1.0, 1.0 + math.prod(shape)) * 2.39 + phase).reshape(shape)

    with np.errstate(over="ignore", invalid="ignore"):
        cases = []
        for d, n in ((3, 2), (2, 3), (10, 4)):
            gens = irregular((d, n * n), 0.0)
            # one to three terms an entry, none in entry 0, +0.0 and -0.0 zeros
            kept = np.add.outer(np.arange(d), np.arange(n * n)) % 4
            kept[:, 0] = 1
            sparse = np.where(kept == 0, gens, np.copysign(0.0, kept - 2.5))
            diagonal = np.diag(np.linspace(1.0, -1.0, n)).reshape(1, n * n)
            gens, sparse, diagonal = (_GeneratorTerms(g) for g in (gens, sparse, diagonal))
            start = np.eye(n) + 0.25 * irregular((n, n), 1.0)
            for m, scale, terms in ((1, 0.0, gens), (2, 1.0, gens), (5, 40.0, sparse),
                                    (3, math.inf, sparse)):
                V = scale * irregular((2 * m, d), m)
                V[0, 0] = V[-1, -1] = -0.0
                cases.append((terms, start, V))
            cases.append((diagonal, start, np.full((2, 1), _DEGREE_BOUNDARY_THETA / 0.1)))
        for terms, start, V in cases:
            want, got = start.copy(), start.copy()
            twin = _numpy_block(terms.gens, V, 0.1, want, _fixed_matmul, terms)
            ours = _kernel_block(kernel, terms.gens, 0.1, got, len(V) // 2, terms)(V)
            if (want.tobytes() != got.tobytes() or (twin is None) != (ours is None)
                    or (twin is not None and twin.tobytes() != ours.tobytes())):
                return False
    return True


def _whole(value, name: str, least: int, most: int | None = None) -> int:
    """``value`` as an int >= ``least`` (and <= ``most`` if given); a bool,
    a float or a non-number is refused with ``ValueError``."""
    try:
        count = operator.index(value)
    except TypeError:
        count = least - 1
    if isinstance(value, bool) or count < least or (most is not None and count > most):
        bounds = f">= {least}" if most is None else f">= {least} and <= {most}"
        raise ValueError(f"{name} must be an integer {bounds}, got {value!r}")
    return count


def _replay(A: np.ndarray, U: np.ndarray, s_mid: np.ndarray,
            mul=np.matmul) -> np.ndarray:
    """Serial product over one block; raises at the first non-finite step."""
    for k in range(len(A)):
        U = mul(_expm_taylor(A[k:k + 1], mul)[0], U)
        if not np.all(np.isfinite(U)):
            raise NumericBlowup(f"non-finite product at s={s_mid[k]:.6f}",
                                s_reached=float(s_mid[k]))
    return U


def exponential_of_coefficients(rep, coeffs_at_1) -> np.ndarray:
    """Single exponential exp(-i sum_I c_I M_I) for comparison.

    One coefficient per generator; any other count raises ``DimMismatch``,
    and a ``nan`` or infinite coefficient raises ``ValueError``.  Finite
    coefficients whose exponent or exponential overflows raise
    ``NumericBlowup`` (at s = 1), with no numpy warning.
    """
    mats = rep.matrices
    if np.shape(coeffs_at_1) != (len(mats),):
        raise DimMismatch(f"coefficients have shape {np.shape(coeffs_at_1)}, "
                          f"but the representation has {len(mats)} generators")
    if not np.all(np.isfinite(coeffs_at_1)):
        raise ValueError(f"coefficients must be finite, got {list(coeffs_at_1)!r}")
    # overflow is detected and reported below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        A = sum(c * M for c, M in zip(coeffs_at_1, mats))
        U = _expm_taylor((-1j * A)[None])[0]
    if not np.all(np.isfinite(U)):
        raise NumericBlowup("the exponential of these coefficients overflows",
                            s_reached=1.0)
    return U


def spectrum_period_check(rep: MatrixRep, omega: float) -> float:
    """Smallest T > 0 with exp(-i omega T H) = identity on the interior block.

    H is the rep's energy generator; a rep without one (every faithful rep,
    and ``fock_rep("sp2_K")``) raises ``ValueError``.  Scans the first 16
    integer multiples of pi/omega for a largest defect of at most 1e-6.
    The half-integer interior spectrum of the oscillator energy yields
    4 pi / omega.
    """
    if rep.hamiltonian_index is None:
        raise ValueError(f"the {rep.algebra!r} representation has no energy "
                         f"generator")
    if rep.dim < 8:
        raise ValueError("need at least 8 levels for a spectrum check")
    if not (math.isfinite(omega) and omega > 0):
        raise ValueError(f"omega must be finite and > 0, got {omega!r}")
    H = rep.matrices[rep.hamiltonian_index]
    eigs = np.linalg.eigvalsh(rep.interior_block(H))
    for mult in range(1, 17):
        T = mult * np.pi / omega
        defect = np.max(np.abs(np.exp(-1j * omega * T * eigs) - 1.0))
        if defect <= 1e-6:
            return float(T)
    raise ValueError("no period found among the first 16 multiples of pi/omega")


def line_element(rep: MatrixRep, U: np.ndarray, dU: np.ndarray,
                 G: PenaltyMatrix) -> float:
    """Right-invariant squared line element at (U, dU).

    ds^2 = sum_IJ G_IJ Tr[i U^{-1} M_I^dag dU] Tr[i U^{-1} M_J^dag dU]
           / (Tr[M_I M_I^dag] Tr[M_J M_J^dag]),
    with diagonal G.  Right-invariance is exact: replacing (U, dU) by
    (U g, dU g) leaves every trace unchanged.  ``G`` must have one weight
    per generator and ``U`` and ``dU`` must be n x n for the rep's n
    (``DimMismatch``); a non-finite ``U`` or ``dU`` and a singular ``U``
    raise ``ValueError``.
    """
    if G.dim != len(rep.matrices):
        raise DimMismatch(f"penalty matrix has dimension {G.dim}, but the "
                          f"representation has {len(rep.matrices)} generators")
    n = rep.dim
    if np.shape(U) != (n, n) or np.shape(dU) != (n, n):
        raise DimMismatch(f"U has shape {np.shape(U)} and dU {np.shape(dU)}, "
                          f"but the representation is {n} x {n}")
    if not (np.all(np.isfinite(U)) and np.all(np.isfinite(dU))):
        raise ValueError("U and dU must be finite")
    try:
        Uinv = np.linalg.inv(U)
    except np.linalg.LinAlgError:
        raise ValueError("U is singular") from None
    comps = []
    for M in rep.matrices:
        norm = np.trace(M @ M.conj().T)
        if abs(norm) < 1e-14:
            raise DegenerateDirection("generator has zero trace norm")
        comps.append(np.trace(1j * Uinv @ M.conj().T @ dU) / norm)
    comps = np.array(comps)
    val = np.sum(G.weights * comps * comps)
    return float(np.real(val))


def random_group_element(rep: MatrixRep, rng) -> np.ndarray:
    """Product of one random one-parameter exponential per generator, each
    coefficient uniform in [-1/2, 1/2]."""
    A = np.stack([-1j * float(rng.uniform(-0.5, 0.5)) * M
                  for M in rep.matrices])
    g = np.eye(rep.dim, dtype=complex)
    for factor in _expm_taylor(A):
        g = g @ factor
    return g
