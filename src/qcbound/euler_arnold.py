"""Geodesic velocity equations on the registered algebras.

For a right-invariant metric with diagonal penalty matrix G the velocity
components of a geodesic obey

    G_II dV^I/ds = f_IJ^K V^J G_KK V^K         (sum over J, K),

a quadratic autonomous system on [0, 1].  Antisymmetry of f in (I, J) makes
the weighted speed  sum_I G_II V^I(s)^2  an exact constant of motion for any
antisymmetric table, truncated or not.

The module provides the generic right-hand side, a fixed-step fourth-order
integrator, and the closed-form solution families for the systems where the
equations decouple into rotations.  The integrator's stages use a bilinear
kernel f_IJ^K G_KK / G_II precomputed once per (algebra, penalties); the
public ``rhs`` validates its inputs on every call and is the reference the
kernel is tested against.  The families:

``ho4_equal_penalty``    (V^P, V^Q) rotate at rate v_H + (G_EE/G_PP) v_E
``sp2_J_equal_penalty``  (V^1, V^2) rotate at rate 4 v_3
``coupled_pq``           (V^3, V^4) rotate at rate (p - 2q)(v_1 - v_2)/p
``anharm_p``             five-component solution mixing rates v_1 and 3 v_1

The anharmonic family solves the prohibitive-penalty reduction of the
truncated cubic system (hard-direction feedback on V^1 dropped), which is
the regime in which its boundary matching is formulated; its governing
right-hand side is exposed for direct numerical cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.interpolate import CubicHermiteSpline

from .algebra import LieAlgebraSpec, builtin
from .errors import DimMismatch, FamilyMismatch, NumericBlowup

__all__ = [
    "PenaltyMatrix",
    "VelocitySolution",
    "ClosedFormFamily",
    "rhs",
    "integrate_rk4",
    "solve_numeric",
    "solve_closed_form",
    "DEFAULT_STEP",
]

DEFAULT_STEP = 2.0e-4
MAX_STEP = 1.0e-2


@dataclass(frozen=True)
class PenaltyMatrix:
    """Diagonal positive penalty weights, aligned with the generator order."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1:
            raise DimMismatch("penalty weights must be a vector")
        if np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise ValueError("penalty weights must be positive and finite")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @classmethod
    def identity(cls, dim: int) -> "PenaltyMatrix":
        return cls(np.ones(dim))

    @classmethod
    def diagonal(cls, weights) -> "PenaltyMatrix":
        return cls(np.asarray(weights, dtype=float))

    @property
    def dim(self) -> int:
        return len(self.weights)

    def speed_squared(self, V: np.ndarray) -> float:
        """Weighted squared speed sum_I G_II (V^I)^2."""
        return float(np.dot(self.weights, np.asarray(V) ** 2))


@dataclass(frozen=True)
class VelocitySolution:
    """Velocity field V^I(s) of a geodesic on [0, 1].

    ``evaluator`` accepts a scalar or 1-d array of s values and returns the
    velocity components, shape (dim,) or (n, dim).  ``constant_speed`` marks
    solutions whose weighted speed is an exact constant, so that lengths can
    be evaluated without quadrature.
    """

    algebra: str
    v0: np.ndarray
    kind: str
    evaluator: Callable[[np.ndarray], np.ndarray]
    penalties: PenaltyMatrix
    constant_speed: bool = False
    family: "ClosedFormFamily | None" = None
    grid: np.ndarray | None = None
    states: np.ndarray | None = None

    def __call__(self, s):
        return self.evaluator(s)


@dataclass(frozen=True)
class ClosedFormFamily:
    """Tag (plus parameters) selecting one analytic solution family."""

    tag: str
    q: float = 1.0
    p: float = 1.0

    _ALGEBRAS = {
        "ho4_equal_penalty": "ho4",
        "sp2_J_equal_penalty": "sp2_J",
        "coupled_pq": "coupled_M4",
        "anharm_p": "anharm5",
    }

    def __post_init__(self):
        if self.tag not in self._ALGEBRAS:
            raise FamilyMismatch(
                f"unknown family {self.tag!r}; choose from {sorted(self._ALGEBRAS)}"
            )
        if self.tag == "coupled_pq" and not (0 < self.q <= self.p):
            raise FamilyMismatch("coupled_pq requires penalties 0 < q <= p")

    @property
    def algebra_name(self) -> str:
        return self._ALGEBRAS[self.tag]

    def default_penalties(self) -> PenaltyMatrix:
        if self.tag == "coupled_pq":
            return PenaltyMatrix.diagonal([self.q, self.q, self.p, self.p])
        if self.tag == "anharm_p":
            return PenaltyMatrix.diagonal([1.0, self.p, self.p, self.p, self.p])
        return PenaltyMatrix.identity(builtin(self.algebra_name).dim)

    def governing_rhs(self, G: PenaltyMatrix | None = None):
        """Right-hand side of the ODE system this family actually solves."""
        if self.tag == "anharm_p":
            def fn(V):
                v1, V4, V5, V6, V7 = V
                return np.array([
                    0.0,
                    v1 * V6,
                    -v1 * V7,
                    2 * v1 * V7 - 3 * v1 * V4,
                    -2 * v1 * V6 + 3 * v1 * V5,
                ])
            return fn
        G = G if G is not None else self.default_penalties()
        return _bilinear_rhs(builtin(self.algebra_name), G)


def rhs(algebra: LieAlgebraSpec, G: PenaltyMatrix, V) -> np.ndarray:
    """dV/ds of the geodesic velocity equation at state V."""
    V = np.asarray(V, dtype=float)
    if V.shape != (algebra.dim,):
        raise DimMismatch(f"state must have shape ({algebra.dim},), got {V.shape}")
    if G.dim != algebra.dim:
        raise DimMismatch(f"penalties have dim {G.dim}, algebra has {algebra.dim}")
    w = np.einsum("ijk,j,k->i", algebra.f, V, G.weights * V)
    return w / G.weights


def _bilinear_rhs(algebra: LieAlgebraSpec, G: PenaltyMatrix):
    """The same right-hand side as :func:`rhs`, for the integrator's stages.

    The kernel M[i, j*dim + k] = f_ijk G_k / G_i is built once, so a stage
    is one product M @ outer(V, V).ravel() on an already validated state.
    """
    if G.dim != algebra.dim:
        raise DimMismatch(f"penalties have dim {G.dim}, algebra has {algebra.dim}")
    d = algebra.dim
    M = (algebra.f * (G.weights[None, None, :] / G.weights[:, None, None])
         ).reshape(d, d * d)
    return lambda V: M @ (V[:, None] * V).ravel()


def integrate_rk4(fn, v0, h: float):
    """Classical fixed-step RK4 on s in [0, 1]; returns (s_grid, states)."""
    n = max(1, int(round(1.0 / h)))
    hs = 1.0 / n
    half, sixth = 0.5 * hs, hs / 6.0
    grid = np.linspace(0.0, 1.0, n + 1)
    states = np.empty((n + 1, len(v0)))
    V = np.asarray(v0, dtype=float).copy()
    states[0] = V
    for k in range(n):
        k1 = fn(V)
        k2 = fn(V + half * k1)
        k3 = fn(V + half * k2)
        k4 = fn(V + hs * k3)
        V = V + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        if not np.isfinite(V).all():
            raise NumericBlowup(
                f"non-finite state at s={grid[k + 1]:.6f}", s_reached=grid[k + 1]
            )
        states[k + 1] = V
    return grid, states


def _grid_interpolator(grid, states, derivs):
    spline = CubicHermiteSpline(grid, states, derivs, axis=0)

    def ev(s):
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        out = spline(np.clip(s_arr, 0.0, 1.0))
        return out[0] if np.isscalar(s) or np.ndim(s) == 0 else out
    return ev


def solve_numeric(
    algebra: LieAlgebraSpec,
    G: PenaltyMatrix,
    v0,
    h: float = DEFAULT_STEP,
) -> VelocitySolution:
    """Integrate the velocity equation with fixed-step RK4.

    The dense grid states are kept on the solution so that downstream
    quadrature shares the integrator's discretization; off-grid evaluation
    interpolates with a cubic Hermite spline through the exact slopes.
    """
    if not (0 < h <= MAX_STEP):
        raise ValueError(f"step size must satisfy 0 < h <= {MAX_STEP}")
    v0 = np.asarray(v0, dtype=float)
    if v0.shape != (algebra.dim,):
        raise DimMismatch(f"v0 must have shape ({algebra.dim},), got {v0.shape}")
    grid, states = integrate_rk4(_bilinear_rhs(algebra, G), v0, h)
    W = algebra.f * G.weights[None, None, :]
    derivs = np.einsum("ijk,nj,nk->ni", W, states, states) / G.weights[None, :]
    return VelocitySolution(
        algebra=algebra.name,
        v0=v0,
        kind=f"numeric(h={h:g})",
        evaluator=_grid_interpolator(grid, states, derivs),
        penalties=G,
        constant_speed=False,
        grid=grid,
        states=states,
    )


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


# Trigonometric mixing of the reduced cubic system: rows are the components
# (V4, V5, V6, V7), the middle axis indexes the initial values (v4, v5, v6,
# v7) and the last axis the basis functions (cos s v1, sin s v1, cos 3 s v1,
# sin 3 s v1), everything divided by 4.
ANHARM_MIX = 0.25 * np.array([
    # cos1 sin1 cos3 sin3      component V4
    [[3, 0, 1, 0], [0, 3, 0, -1], [0, 1, 0, 1], [1, 0, -1, 0]],
    # component V5
    [[0, -3, 0, 1], [3, 0, 1, 0], [1, 0, -1, 0], [0, -1, 0, -1]],
    # component V6
    [[0, -3, 0, -3], [3, 0, -3, 0], [1, 0, 3, 0], [0, -1, 0, 3]],
    # component V7
    [[3, 0, -3, 0], [0, 3, 0, 3], [0, 1, 0, -3], [1, 0, 3, 0]],
], dtype=float)


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


def solve_closed_form(
    family: ClosedFormFamily,
    v0,
    G: PenaltyMatrix | None = None,
) -> VelocitySolution:
    """Analytic velocity solution for one of the decoupling families.

    For ``ho4_equal_penalty`` the penalties may have G_EE and G_HH free as
    long as G_QQ = G_PP; the rotation rate then picks up the G_EE/G_PP
    weighting of the central velocity.  The other families are implemented
    at their canonical penalties.
    """
    alg = builtin(family.algebra_name)
    v0 = np.asarray(v0, dtype=float)
    if v0.shape != (alg.dim,):
        raise FamilyMismatch(
            f"{family.tag} needs v0 of shape ({alg.dim},), got {v0.shape}"
        )
    if G is None:
        G = family.default_penalties()
    if G.dim != alg.dim:
        raise FamilyMismatch("penalty dimension does not match the family algebra")

    if family.tag == "ho4_equal_penalty":
        w = G.weights
        if w[1] != w[2]:
            raise FamilyMismatch("ho4_equal_penalty requires G_PP = G_QQ")
        rate = v0[3] + (w[0] / w[1]) * v0[0]
        evaluator = _ho4_evaluator(v0, rate)
        constant = True
    elif family.tag == "sp2_J_equal_penalty":
        if np.any(G.weights != G.weights[0]):
            raise FamilyMismatch("sp2_J_equal_penalty requires equal penalties")
        evaluator = _sp2_evaluator(v0)
        constant = True
    elif family.tag == "coupled_pq":
        expected = family.default_penalties()
        if not np.array_equal(G.weights, expected.weights):
            raise FamilyMismatch("coupled_pq penalties must be diag(q, q, p, p)")
        evaluator = _coupled_evaluator(v0, family.q, family.p)
        constant = True
    else:  # anharm_p
        evaluator = _anharm_evaluator(v0)
        # hard components feed back on V^1 only through dropped terms, so the
        # penalty-weighted speed is not an exact invariant here
        constant = False

    return VelocitySolution(
        algebra=alg.name,
        v0=v0,
        kind=f"closed_form({family.tag})",
        evaluator=evaluator,
        penalties=G,
        constant_speed=constant,
        family=family,
    )
