"""Geodesic lengths and closed-form complexity bounds.

The length of a geodesic with velocity V^I(s) under diagonal penalties G is

    L = integral_0^1 sqrt( sum_I G_II V^I(s)^2 ) ds.

For the rotation families the integrand is constant and L reduces to the
weighted norm of the initial velocity.  The truncated cubic oscillator is
the exception: its integrand oscillates at frequency 4 v1 and integrates to
an incomplete elliptic integral of the second kind, evaluated here in
closed form with an adaptive-quadrature cross-check.

All values produced by :func:`bound` are upper bounds on the true
complexity; poles of the matching equations yield an infinite value, which
curve emitters record as gaps.

:func:`bound_curve` evaluates a whole time grid in one numpy pass through
:func:`matching.match_curve` and the array forms of the length formulas.
Each value equals ``bound(target.with_time(t)).value`` exactly (``==``):
the array code repeats the scalar arithmetic in the same order, sums
squares left to right in both paths and applies the scalar ``math``
functions where numpy's can round differently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad, simpson
from scipy.special import ellipeinc

from .euler_arnold import PenaltyMatrix, VelocitySolution
from .matching import (MatchResult, TargetSpec, apply_math, match,
                       match_curve, match_displacement_product_form)

__all__ = [
    "BoundResult",
    "BoundCurve",
    "length",
    "bound",
    "bound_curve",
    "anharm_integrand_coeffs",
    "anharm_length",
    "anharm_length_quadrature",
]

STANDARD_CAVEAT = "upper bound only: leading-order Dyson, truncated group"
POSITIVITY_CAVEAT = "integrand positivity violated: A <= sqrt(B^2+C^2)"

_QUADRATIC_CAVEAT = ("periodicity via (omega + lambda) t is approximate "
                     "beyond small couplings")

# formula id and the caveats a finite value of each system carries
_FORMULAS = {
    "displacement": ("displacement_sqrt2", [
        "ordered-product route gives 2|alpha| instead of sqrt(2)|alpha|; "
        "both are reported, the discrepancy is documented"]),
    "ho": ("sawtooth_4pi", []),
    "sp2_ho": ("sawtooth_4pi", []),
    "iho": ("iho_linear", []),
    "ho_linear": ("ho_linear_cot", []),
    "ho_quadratic": ("quadratic_cot", [_QUADRATIC_CAVEAT]),
    "free_particle": ("quadratic_cot", [_QUADRATIC_CAVEAT]),
    "coupled": ("coupled_su2", [
        "penalties (q, p) shape the geodesic; the standard bound evaluates "
        "its length with unit weights"]),
    "anharm_cubic": ("anharm_elliptic", []),
}


@dataclass
class BoundResult:
    """A complexity bound value plus its provenance.

    ``value`` is non-negative, possibly ``inf`` at matching poles (``nan``
    only if an integrand-positivity guard trips).  ``v0`` echoes the matched
    initial velocities; ``extras`` carries per-system diagnostics such as
    the alternate product-form displacement value.
    """

    value: float
    formula_id: str
    v0: np.ndarray | None = None
    branch: int = 0
    caveats: list[str] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    @property
    def is_divergent(self) -> bool:
        return math.isinf(self.value)


def length(sol: VelocitySolution, G: PenaltyMatrix) -> float:
    """Geodesic length of a velocity solution under penalties G.

    Constant-speed solutions are integrated exactly; numeric solutions are
    integrated on their own dense grid (Simpson); anything else falls back
    to adaptive quadrature of the speed.
    """
    if sol.constant_speed:
        return math.sqrt(G.speed_squared(sol.v0))
    w = G.weights
    if sol.states is not None:
        speeds = np.sqrt(np.einsum("i,ni->n", w, sol.states ** 2))
        return float(simpson(speeds, x=sol.grid))

    def speed(s):
        V = sol(s)
        return math.sqrt(float(np.dot(w, V * V)))

    val, _ = quad(speed, 0.0, 1.0, epsabs=1e-13, epsrel=1e-9, limit=200)
    return val


def anharm_integrand_coeffs(v0, g11: float, p: float):
    """Constants (A, B, C) of the oscillating squared speed.

    With penalties diag(g11, p, p, p, p) the squared speed of the reduced
    cubic solution is  speed^2(s) = (A + B cos(4 s v1) + C sin(4 s v1)) / 2.
    ``v0`` has shape (5,), giving floats, or (5, n), giving arrays; both
    shapes run the same arithmetic.
    """
    v = np.asarray(v0, dtype=float)
    v1, v4, v5, v6, v7 = v.tolist() if v.ndim == 1 else v
    A = 2 * g11 * (v1 * v1) + 0.5 * p * (
        7 * (v4 * v4) - 2 * v4 * v7 + 7 * (v5 * v5) - 2 * v5 * v6
        + 3 * (v6 * v6 + v7 * v7)
    )
    B = 0.5 * p * (
        -3 * (v4 * v4) + 2 * v4 * v7 - 3 * (v5 * v5) + 2 * v5 * v6
        + v6 * v6 + v7 * v7
    )
    C = 2 * p * (v5 * v7 - v4 * v6)
    return A, B, C


def anharm_length(v0, g11: float, p: float):
    """Closed-form length of the reduced cubic-oscillator geodesic.

    Uses A + B cos x + C sin x = A + R sin(x + phi) with sin(phi) = B/R and
    the antiderivative of sqrt(a + b sin y) in terms of the incomplete
    elliptic integral of the second kind.  Requires A > R for a real
    integrand; returns ``nan`` when that positivity guard fails.  ``v0`` of
    shape (5, n) gives an array, equal element by element to the scalar
    form (masks replace the early returns).
    """
    A, B, C = anharm_integrand_coeffs(v0, g11, p)
    if isinstance(A, np.ndarray):
        return _anharm_length_array(np.asarray(v0, dtype=float)[0], A, B, C)
    v1 = float(v0[0])
    R = math.hypot(B, C)
    if A - R <= 0 and (A, R) != (0.0, 0.0):
        return math.nan
    if v1 == 0.0:
        # frozen phase: constant integrand
        return math.sqrt((A + B) / 2.0)
    if R == 0.0:
        return math.sqrt(A / 2.0)
    return _elliptic_length(v1, A, R, math.atan2(B, C), math.sqrt(A + R))


def _anharm_length_array(v1, A, B, C):
    R = apply_math(math.hypot, B, C)
    out = np.full(A.shape, math.nan)
    live = ~((A - R <= 0) & ~((A == 0.0) & (R == 0.0)))
    frozen = live & (v1 == 0.0)
    out[frozen] = np.sqrt((A[frozen] + B[frozen]) / 2.0)
    flat = live & ~frozen & (R == 0.0)
    out[flat] = np.sqrt(A[flat] / 2.0)
    k = live & ~frozen & ~flat
    A, B, C, R = A[k], B[k], C[k], R[k]
    out[k] = _elliptic_length(v1[k], A, R, apply_math(math.atan2, B, C),
                              np.sqrt(A + R))
    return out


def _elliptic_length(v1, A, R, phi, root):
    """Elliptic-integral length for v1 != 0 and R > 0; ``root`` = sqrt(A + R)."""
    m = 2.0 * R / (A + R)

    def antideriv(y):
        return -2.0 * root * ellipeinc((math.pi - 2.0 * y) / 4.0, m)

    raw = antideriv(4.0 * v1 + phi) - antideriv(phi)
    return raw / (4.0 * v1 * math.sqrt(2.0))


def anharm_length_quadrature(v0, g11: float, p: float) -> float:
    """Adaptive-quadrature evaluation of the cubic-oscillator length.

    Independent of the elliptic reduction; used to cross-check conventions.
    """
    v1 = float(v0[0])
    A, B, C = anharm_integrand_coeffs(v0, g11, p)

    def integrand(s):
        return math.sqrt(
            (A + B * math.cos(4 * s * v1) + C * math.sin(4 * s * v1)) / 2.0
        )

    val, _ = quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-11, limit=200)
    return val


def _sum_squares(components):
    """Left-to-right sum of squares, the same rounding for floats and arrays."""
    total = 0.0
    for c in components:
        total = total + c * c
    return total


def _norm(v) -> float:
    return math.sqrt(_sum_squares(v.tolist()))


def bound(target: TargetSpec) -> BoundResult:
    """Complexity bound of a target: match, reduce, evaluate the length."""
    res: MatchResult = match(target)

    if res.is_divergent:
        return BoundResult(
            value=math.inf,
            formula_id=f"{target.system}_pole",
            v0=None,
            branch=res.branch,
            caveats=[STANDARD_CAVEAT, f"divergent: {res.divergent}"] + res.notes,
        )

    sys = target.system
    formula, system_caveats = _FORMULAS[sys]
    caveats = [STANDARD_CAVEAT] + system_caveats
    extras: dict = {}

    if sys == "displacement":
        alpha = target.params["alpha"]
        value = math.sqrt(2.0) * abs(alpha)
        extras["product_form_value"] = match_displacement_product_form(alpha)["value"]
    elif sys == "anharm_cubic":
        g11, p = target.params["g11"], target.params["p"]
        value = anharm_length(res.v0, g11, p)
        A, B, C = anharm_integrand_coeffs(res.v0, g11, p)
        extras.update(A=A, B=B, C=C)
        if math.isnan(value):
            caveats.append(POSITIVITY_CAVEAT)
    else:
        value = _norm(res.v0)

    return BoundResult(
        value=value,
        formula_id=formula,
        v0=res.v0,
        branch=res.branch,
        caveats=caveats + res.notes,
        extras=extras,
    )


@dataclass
class BoundCurve:
    """Bounds over a time grid, one array per column.

    ``value[i]``, ``branch[i]`` and ``divergent[i]`` equal the ``value``,
    ``branch`` and ``is_divergent`` of ``bound(target.with_time(t[i]))``
    exactly.  ``pole[i]`` is the pole location text at divergent points
    (the scalar ``divergent: ...`` caveat) and ``None`` elsewhere.
    ``formula_id`` and ``caveats`` are shared by the grid: the formula of
    the finite points, and the caveats that hold at any point of the grid.
    """

    t: np.ndarray
    value: np.ndarray
    branch: np.ndarray
    divergent: np.ndarray
    pole: np.ndarray
    formula_id: str
    caveats: list[str] = field(default_factory=list)


def bound_curve(target: TargetSpec, t_grid) -> BoundCurve:
    """Evaluate the bound over a sorted time grid in one array pass.

    Poles come back as ``inf`` values with ``divergent`` set; a grid point
    whose periodic reduction keeps no digits raises ``PrecisionLoss`` (see
    :mod:`qcbound.matching`).
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or len(t) < 1:
        raise ValueError("t_grid must be a non-empty 1-d array")
    if not np.all(np.isfinite(t)):
        raise ValueError("t_grid must be finite")
    if np.any(np.diff(t) < 0):
        raise ValueError("t_grid must be sorted")

    m = match_curve(target, t)
    sys = target.system
    formula, system_caveats = _FORMULAS[sys]
    caveats = [STANDARD_CAVEAT] + system_caveats
    with np.errstate(invalid="ignore", over="ignore"):
        if sys == "anharm_cubic":
            value = anharm_length(m.v0, target.params["g11"], target.params["p"])
        else:
            value = np.sqrt(_sum_squares(m.v0))
    value[m.divergent] = math.inf
    if np.isnan(value).any():
        caveats.append(POSITIVITY_CAVEAT)
    return BoundCurve(t=t, value=value, branch=m.branch,
                      divergent=np.isinf(value), pole=m.pole,
                      formula_id=formula, caveats=caveats + m.notes)
