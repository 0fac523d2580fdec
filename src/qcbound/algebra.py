"""Structure-constant tables for the oscillator Lie algebras.

Every algebra is stored as a dense rank-3 array ``f`` with the convention

    [O_I, O_J] = i f[I, J, K] O_K,

antisymmetric in (I, J).  All builtin tables have entries that are exactly
representable in floating point, so antisymmetry and the Jacobi identity can
be checked without tolerances.

Registered algebras
-------------------
``ho4``          harmonic oscillator group, generators (E, P, Q, H)
``ho4_general``  same group with independent mass m and frequency omega
``sp2_K``        sp(2,R) in the (K1, K2, K3) quadratic basis
``sp2_J``        sp(2,R) in the rotated (J1, J2, J3) basis
``coupled_M4``   u(1) + su(2) subalgebra (M1..M4) for two coupled modes
``sp4_T10``      full ten-generator sp(4,R) of two-mode quadratics
``anharm5``      truncated cubic-oscillator table (M1, M4, M5, M6, M7)

The ``anharm5`` table is marked ``truncated``: brackets among the cubic
generators produce quartic operators that are dropped, so those pairs are
recorded as open rather than zero by fiat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimMismatch, NotRegistered, SingularBasisChange

__all__ = [
    "LieAlgebraSpec",
    "BasisChange",
    "ValidationReport",
    "builtin",
    "builtin_names",
    "validate",
    "change_basis",
    "table_to_json",
    "KJ_BASIS_CHANGE",
]


@dataclass(frozen=True)
class LieAlgebraSpec:
    """A Lie algebra given by a named basis and its structure constants.

    Parameters
    ----------
    name : str
        Registry identifier.
    dim : int
        Number of generators.
    generator_labels : tuple of str
        Basis labels, fixing the component order used everywhere else.
    f : ndarray, shape (dim, dim, dim)
        Structure constants, ``[O_I, O_J] = i f[I,J,K] O_K``.
    truncated : bool
        True when the table closes only after dropping higher-order
        operators; Jacobi is then meaningful only away from the open pairs.
    open_pairs : tuple of (int, int)
        Unordered generator pairs whose bracket was truncated to zero.
    params : tuple of (str, float)
        Numerical parameters baked into the table (e.g. m, omega).
    """

    name: str
    dim: int
    generator_labels: tuple[str, ...]
    f: np.ndarray
    truncated: bool = False
    open_pairs: tuple[tuple[int, int], ...] = ()
    params: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        f = np.asarray(self.f, dtype=float)
        if f.shape != (self.dim,) * 3:
            raise DimMismatch(
                f"structure constants must have shape {(self.dim,)*3}, got {f.shape}"
            )
        if not np.isfinite(f).all():
            raise ValueError("structure constants must be finite")
        f.setflags(write=False)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "generator_labels", tuple(self.generator_labels))


@dataclass(frozen=True)
class BasisChange:
    """Invertible linear map to a new generator basis.

    ``matrix[a, b]`` gives the new generators as O'_a = matrix[a, b] O_b.
    """

    from_name: str
    to_name: str
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass
class ValidationReport:
    """Result of :func:`validate`; report-only, never raises."""

    name: str
    antisymmetry_violations: list[tuple[int, int, int]] = field(default_factory=list)
    max_jacobi_residual: float = 0.0
    closure: str = "closed"  # "closed" | "truncated"
    open_pairs: list[tuple[int, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.antisymmetry_violations and self.max_jacobi_residual == 0.0


def _table(dim, entries):
    """Build f from 0-based entries (I, J, {K: coef}) plus antisymmetric partners."""
    f = np.zeros((dim, dim, dim))
    for i, j, coefs in entries:
        for k, v in coefs.items():
            f[i, j, k] = v
            f[j, i, k] = -v
    return f


def _ho4_table(m: float, omega: float) -> np.ndarray:
    # order (E, P, Q, H); [Q,P]=iE, [H,Q]=-iP/m, [H,P]=i m omega^2 Q
    try:
        omega2 = omega ** 2
    except OverflowError:       # float ** raises where * would give inf
        omega2 = math.inf       # rejected with the other non-finite tables
    return _table(4, [
        (2, 1, {0: 1.0}),
        (3, 2, {1: -1.0 / m}),
        (3, 1, {2: m * omega2}),
    ])


def _ho4() -> LieAlgebraSpec:
    return LieAlgebraSpec(name="ho4", dim=4, generator_labels=("E", "P", "Q", "H"),
                          f=_ho4_table(1.0, 1.0))


def _ho4_general(m: float = 1.0, omega: float = 1.0) -> LieAlgebraSpec:
    m, omega = float(m), float(omega)
    if m <= 0 or omega <= 0:
        raise ValueError("ho4_general requires m > 0 and omega > 0")
    return LieAlgebraSpec(
        name="ho4_general", dim=4, generator_labels=("E", "P", "Q", "H"),
        f=_ho4_table(m, omega), params=(("m", m), ("omega", omega)),
    )


def _sp2_K() -> LieAlgebraSpec:
    # [K1,K2]=iK3, [K3,K1]=-2iK1, [K3,K2]=2iK2
    f = _table(3, [
        (0, 1, {2: 1.0}),
        (2, 0, {0: -2.0}),
        (2, 1, {1: 2.0}),
    ])
    return LieAlgebraSpec(name="sp2_K", dim=3, generator_labels=("K1", "K2", "K3"), f=f)


def _sp2_J() -> LieAlgebraSpec:
    # [J1,J2]=-2iJ3, [J2,J3]=2iJ1, [J3,J1]=2iJ2
    f = _table(3, [
        (0, 1, {2: -2.0}),
        (1, 2, {0: 2.0}),
        (2, 0, {1: 2.0}),
    ])
    return LieAlgebraSpec(name="sp2_J", dim=3, generator_labels=("J1", "J2", "J3"), f=f)


def _coupled_M4() -> LieAlgebraSpec:
    # M1, M2 single-mode energies; M3 = Q1Q2+P1P2, M4 = P1Q2-Q1P2
    f = _table(4, [
        (0, 2, {3: -1.0}),
        (0, 3, {2: 1.0}),
        (1, 2, {3: 1.0}),
        (1, 3, {2: -1.0}),
        (2, 3, {0: -2.0, 1: 2.0}),
    ])
    return LieAlgebraSpec(
        name="coupled_M4", dim=4, generator_labels=("M1", "M2", "M3", "M4"), f=f
    )


# Ten-generator table of two-mode quadratics.  Derived from the canonical
# commutators of the operators T1..T10 (see tests for the brute-force
# expansion); the derivation fixes [T1,T5]=4iT3, [T3,T5]=4iT1, [T2,T6]=4iT4,
# [T4,T6]=4iT2, [T6,T8]=2iT10 and [T6,T10]=2iT8, which is the unique
# assignment consistent with the Jacobi identity at this normalization
# (T5..T10 carry no 1/2 prefactor).
_SP4_ENTRIES = [
    (1, 3, {5: -1}), (1, 5, {3: 4}), (1, 7, {10: 1}), (1, 8, {9: 1}),
    (1, 9, {8: -1}), (1, 10, {7: -1}),
    (2, 4, {6: -1}), (2, 6, {4: 4}), (2, 7, {10: -1}), (2, 8, {9: 1}),
    (2, 9, {8: -1}), (2, 10, {7: 1}),
    (3, 5, {1: 4}), (3, 7, {8: 1}), (3, 8, {7: 1}), (3, 9, {10: -1}),
    (3, 10, {9: -1}),
    (4, 6, {2: 4}), (4, 7, {8: 1}), (4, 8, {7: 1}), (4, 9, {10: 1}),
    (4, 10, {9: 1}),
    (5, 7, {9: -2}), (5, 8, {10: -2}), (5, 9, {7: -2}), (5, 10, {8: -2}),
    (6, 7, {9: -2}), (6, 8, {10: 2}), (6, 9, {7: -2}), (6, 10, {8: 2}),
    (7, 8, {3: 2, 4: 2}), (7, 9, {5: -1, 6: -1}), (7, 10, {1: 2, 2: -2}),
    (8, 9, {1: -2, 2: -2}), (8, 10, {5: 1, 6: -1}),
    (9, 10, {3: 2, 4: -2}),
]


def _sp4_T10() -> LieAlgebraSpec:
    entries = [(i - 1, j - 1, {k - 1: float(v) for k, v in d.items()})
               for i, j, d in _SP4_ENTRIES]
    f = _table(10, entries)
    labels = tuple(f"T{k}" for k in range(1, 11))
    return LieAlgebraSpec(name="sp4_T10", dim=10, generator_labels=labels, f=f)


def _anharm5() -> LieAlgebraSpec:
    # basis (M1, M4, M5, M6, M7); brackets with M1 close, the rest produce
    # quartic operators and are truncated.
    f = _table(5, [
        (0, 1, {3: -1.0}),           # [M1,M4] = -i M6
        (0, 2, {4: 1.0}),            # [M1,M5] =  i M7
        (0, 3, {1: 3.0, 4: -2.0}),   # [M1,M6] = 3i M4 - 2i M7
        (0, 4, {3: 2.0, 2: -3.0}),   # [M1,M7] = 2i M6 - 3i M5
    ])
    open_pairs = tuple(
        (i, j) for i in range(1, 5) for j in range(i + 1, 5)
    )
    return LieAlgebraSpec(
        name="anharm5", dim=5, generator_labels=("M1", "M4", "M5", "M6", "M7"),
        f=f, truncated=True, open_pairs=open_pairs,
    )


_BUILTINS = {
    "ho4": _ho4,
    "sp2_K": _sp2_K,
    "sp2_J": _sp2_J,
    "coupled_M4": _coupled_M4,
    "sp4_T10": _sp4_T10,
    "anharm5": _anharm5,
    "ho4_general": _ho4_general,
}


def builtin_names() -> tuple[str, ...]:
    return tuple(_BUILTINS)


def builtin(name: str, **params) -> LieAlgebraSpec:
    """Return a registered structure-constant table.

    ``ho4_general`` takes keyword parameters ``m`` and ``omega`` (each a
    positive number); all other names take none.  A parameter that the
    name does not take raises ``TypeError``.
    """
    if name not in _BUILTINS:
        raise NotRegistered(
            f"unknown algebra {name!r}; choose from {sorted(builtin_names())}"
        )
    return _BUILTINS[name](**params)


def jacobi_tensor(f: np.ndarray) -> np.ndarray:
    """Full Jacobi residual tensor J[I,J,K,L] (zero for a Lie algebra)."""
    return (
        np.einsum("ijm,mkl->ijkl", f, f)
        + np.einsum("jkm,mil->ijkl", f, f)
        + np.einsum("kim,mjl->ijkl", f, f)
    )


def _jacobi_residual(f: np.ndarray, open_pairs) -> float:
    """Max Jacobi residual over the triples (i, j, k) that no open pair reaches.

    A triple counts when none of (i, j), (j, k), (k, i) is open and no
    cyclic bracket [a, b] of it has a component m with (m, c) open, c being
    the triple's third index.  Without open pairs every triple counts.
    """
    is_open = np.zeros(f.shape[:2], dtype=bool)
    for i, j in open_pairs:
        is_open[i, j] = is_open[j, i] = True
    # bad[a, b, c]: (a, b) is open or [a, b] has a component open with c
    bad = is_open[:, :, None] | ((f != 0) @ is_open)
    bad = bad | bad.transpose(2, 0, 1) | bad.transpose(1, 2, 0)
    return float(np.max(np.abs(jacobi_tensor(f)[~bad]), initial=0.0))


def validate(spec: LieAlgebraSpec) -> ValidationReport:
    """Check antisymmetry, Jacobi and closure; report, never raise."""
    report = ValidationReport(name=spec.name)
    f = spec.f
    anti = f + np.swapaxes(f, 0, 1)
    for i, j, k in zip(*np.nonzero(anti)):
        if i <= j:
            report.antisymmetry_violations.append((int(i), int(j), int(k)))
    if spec.truncated:
        report.closure = "truncated"
        report.open_pairs = [tuple(p) for p in spec.open_pairs]
    report.max_jacobi_residual = _jacobi_residual(f, report.open_pairs)
    return report


def change_basis(spec: LieAlgebraSpec, T: BasisChange) -> LieAlgebraSpec:
    """Transform the structure constants to the basis O'_a = T[a,b] O_b."""
    mat = np.asarray(T.matrix, dtype=float)
    if mat.shape != (spec.dim, spec.dim):
        raise DimMismatch(
            f"basis-change matrix must be {spec.dim}x{spec.dim}, got {mat.shape}"
        )
    det = np.linalg.det(mat)
    if abs(det) < 1e-12:
        raise SingularBasisChange(f"basis-change matrix is singular (det={det:g})")
    inv = np.linalg.inv(mat)
    f_new = np.einsum("ai,bj,ijk,kc->abc", mat, mat, spec.f, inv)
    labels = tuple(f"{T.to_name}_{a}" for a in range(spec.dim))
    return LieAlgebraSpec(
        name=T.to_name, dim=spec.dim, generator_labels=labels,
        f=f_new, truncated=spec.truncated, open_pairs=spec.open_pairs,
    )


# J1 = K3, J2 = K1 - K2, J3 = K1 + K2
KJ_BASIS_CHANGE = BasisChange(
    from_name="sp2_K",
    to_name="sp2_J",
    matrix=np.array([[0.0, 0.0, 1.0], [1.0, -1.0, 0.0], [1.0, 1.0, 0.0]]),
)


def table_to_json(spec: LieAlgebraSpec) -> dict:
    """JSON-ready dict with only the nonzero upper-triangle entries."""
    entries = []
    for i in range(spec.dim):
        for j in range(i + 1, spec.dim):
            for k in np.nonzero(spec.f[i, j])[0]:
                entries.append([int(i), int(j), int(k), float(spec.f[i, j, k])])
    return {
        "name": spec.name,
        "labels": list(spec.generator_labels),
        "entries": entries,
    }
