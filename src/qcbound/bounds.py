"""Geodesic lengths and closed-form complexity bounds.

The length of a geodesic with velocity V^I(s) under diagonal penalties G is

    L = integral_0^1 sqrt( sum_I G_II V^I(s)^2 ) ds.

For the truncated cubic oscillator the integrand oscillates at frequency
4 v1 and integrates to an incomplete elliptic integral of the second kind,
evaluated here in closed form: one ``ellipeinc`` call per length, on the
stacked angles of both ends of the integral, for a float and for an array
alike (the tests check it against a Gauss-Legendre quadrature).

The module needs numpy only, apart from SciPy's ``ellipeinc``, which the
first cubic length imports and the module keeps.  :func:`length`
integrates a numeric solution's speed by Simpson's rule (:func:`simpson`,
a port of SciPy's that gives equal results) and any other by adaptive
composite Gauss-Legendre.

All values produced by :func:`bound` are upper bounds on the true
complexity; poles of the matching equations yield an infinite value, which
curve emitters record as gaps.

:func:`bound` and :func:`bound_curve` take the formula id, caveats and
measurement from the target's registry entry (:mod:`qcbound.systems`).  A
measurement gives the length and the extras of a matched point in one call;
:func:`bound` makes that call once and keeps both, and the curve runs the
same kernel and measurement on the whole grid and keeps the length, so each
value equals ``bound(target.with_time(t)).value`` exactly (``==``).
:func:`bound` shares the solve step of :func:`matching.match` and stays in
Python floats: the measurement takes the kernel's list of velocities, and
the result's ``v0`` array is built once, from that list.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimMismatch
from .euler_arnold import PenaltyMatrix, VelocitySolution
from .matching import apply_math, match_curve, solve_point

if TYPE_CHECKING:
    from .systems import TargetSpec

__all__ = [
    "BoundResult",
    "BoundCurve",
    "length",
    "bound",
    "bound_curve",
    "anharm_integrand_coeffs",
    "anharm_length",
]

STANDARD_CAVEAT = "upper bound only: leading-order Dyson, truncated group"
POSITIVITY_CAVEAT = "integrand positivity violated: A <= sqrt(B^2+C^2)"

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


def simpson(y, x) -> float:
    """Composite Simpson's rule for samples ``y`` at the points ``x`` (1-d).

    A port of SciPy's ``integrate.simpson(y, x=x)`` for 1-d input: the same
    operations in the same order, with Cartwright's correction of the last
    interval for an even number of points, so the results are equal (``==``).
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    n = len(y)
    if len(x) != n:
        raise ValueError("x and y must have the same length")
    if n == 2:
        return 0.0 + 0.5 * (x[-1] - x[-2]) * (y[-1] + y[-2])
    h = np.diff(x)
    if n % 2:
        return float(_simpson_panels(y, h, n - 2))
    result = _simpson_panels(y, h, n - 3)
    h0, h1 = h[-2:-1].squeeze(), h[-1:].squeeze()
    alpha = _ratio(2 * h1 ** 2 + 3 * h0 * h1, 6 * (h1 + h0))
    beta = _ratio(h1 ** 2 + 3.0 * h0 * h1, 6 * h0)
    eta = _ratio(1 * h1 ** 3, 6 * h0 * (h0 + h1))
    result += alpha * y[-1] + beta * y[-2] - eta * y[-3]
    return float(result + 0.0)


def _ratio(num, den):
    """num / den, and 0 where den is 0 (SciPy's guarded division)."""
    return np.true_divide(num, den, out=np.zeros_like(den), where=den != 0)


def _simpson_panels(y, h, stop):
    """Simpson sum over the panels [x_k, x_k+2] for even k < ``stop``."""
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = _ratio(h0, h1)
    tmp = hsum / 6.0 * (y[0:stop:2] * (2.0 - _ratio(1.0, h0divh1))
                        + y[1:stop + 1:2] * (hsum * _ratio(hsum, hprod))
                        + y[2:stop + 2:2] * (2.0 - h0divh1))
    return np.sum(tmp)


_GL_ORDER = 20
_GL_MAX_LEVELS = 40
_GL_MAX_PANELS = 1 << 14


@functools.lru_cache(maxsize=1)
def _gl_rule():
    """Gauss-Legendre nodes and weights of order ``_GL_ORDER`` on [0, 1]."""
    from numpy.polynomial.legendre import leggauss
    x, w = leggauss(_GL_ORDER)
    return 0.5 * (x + 1.0), 0.5 * w


def _gauss_legendre(f, epsabs: float, epsrel: float, panels: int = 1) -> float:
    """Integral over [0, 1] of a vectorised ``f`` by composite Gauss-Legendre.

    Starts from ``panels`` equal panels.  Each level halves the open panels;
    a panel closes when its estimate and the sum over its halves agree to
    its width's share of max(epsabs, epsrel |I|), and its halves' sum is
    kept.  A non-finite estimate closes at once, so it propagates.  After
    ``_GL_MAX_LEVELS`` levels, or when the open panels would exceed
    ``_GL_MAX_PANELS``, the current estimates are returned as they are.
    """
    nodes, weights = _gl_rule()

    def panel_sums(a, h):
        s = a[:, None] + h * nodes
        return h * (f(s.ravel()).reshape(s.shape) @ weights)

    panels = min(max(1, panels), _GL_MAX_PANELS)
    h = 1.0 / panels
    a = np.arange(panels) * h
    coarse = panel_sums(a, h)
    closed = 0.0
    for _ in range(_GL_MAX_LEVELS):
        h *= 0.5
        a = np.stack([a, a + h], axis=1).ravel()
        halves = panel_sums(a, h).reshape(-1, 2)
        fine = halves[:, 0] + halves[:, 1]
        tol = max(epsabs, epsrel * abs(closed + fine.sum()))
        open_ = np.abs(fine - coarse) > tol * (2.0 * h)
        closed += fine[~open_].sum()
        if not open_.any() or 2 * open_.sum() > _GL_MAX_PANELS:
            return float(closed + fine[open_].sum())
        a = a.reshape(-1, 2)[open_].ravel()
        coarse = halves[open_].ravel()
    return float(closed + coarse.sum())


def _speed(V, w):
    """Speed under the weights ``w`` of each row of ``V``, shape (n, dim); a
    squared speed below ``_TINY`` is taken again as ``math.hypot`` of the
    weighted components, exact at any weights (``V * _SCALE`` can overflow)."""
    squared = np.einsum("i,ni->n", w, V ** 2)
    speed = np.sqrt(squared)
    tiny = squared < _TINY
    if tiny.any():
        speed[tiny] = [math.hypot(*row) for row in (V[tiny] * np.sqrt(w)).tolist()]
    return speed


def length(sol: VelocitySolution, G: PenaltyMatrix) -> float:
    """Geodesic length of a velocity solution under penalties G, whatever
    penalties it was solved at: its speed under G (:func:`_speed`)
    integrated on its own dense grid (Simpson) if it is numeric, else by
    adaptive Gauss-Legendre quadrature.  ``G`` must have one weight per
    velocity component (``DimMismatch``).
    """
    if np.shape(sol.v0) != (G.dim,):
        raise DimMismatch(f"penalties have dim {G.dim}, but the velocity has "
                          f"shape {np.shape(sol.v0)}")
    if sol.states is not None:
        return simpson(_speed(sol.states, G.weights), sol.grid)
    return _gauss_legendre(lambda s: _speed(sol(s), G.weights), epsabs=1e-13,
                           epsrel=1e-9)


def anharm_integrand_coeffs(v0, g11: float, p: float):
    """Constants (A, B, C) of the oscillating squared speed.

    With penalties diag(g11, p, p, p, p) the squared speed of the reduced
    cubic solution is  speed^2(s) = (A + B cos(4 s v1) + C sin(4 s v1)) / 2.
    ``v0`` is five floats (a list or an array of shape (5,)), giving
    floats, or an array of shape (5, n), giving arrays; both run the same
    arithmetic.
    """
    if isinstance(v0, np.ndarray) and v0.ndim == 1:
        v0 = v0.tolist()
    v1, v4, v5, v6, v7 = v0
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
    elliptic integral of the second kind.  Returns ``inf`` when A + R is
    not finite (an overflow of the coefficients), and otherwise ``nan``
    when the positivity guard A > R of a real integrand fails.  ``v0`` of
    shape (5, n) gives an array, equal element by element to the scalar
    form.
    """
    return _anharm_length_of(v0, g11, p, *anharm_integrand_coeffs(v0, g11, p))


def _anharm_length_of(v0, g11: float, p: float, A, B, C):
    """:func:`anharm_length` from ``v0`` and its integrand's (A, B, C), for
    a system whose measurement needs the coefficients too.

    Where A is below ``_TINY`` its squares may have underflowed, so (A, B,
    C) are taken again of ``v0 * _SCALE``, the phase keeps the unscaled v1,
    and the length, exactly homogeneous in sqrt(A + R), is divided by
    ``_SCALE``; a retaken length that overflows (penalties near the
    smallest doubles) is left unused.
    """
    value = _anharm_length(v0[0], A, B, C)
    if isinstance(A, np.ndarray):
        tiny = A < _TINY
        if tiny.any():
            v = np.asarray(v0)[:, tiny]
            retaken = _anharm_length(
                v[0], *anharm_integrand_coeffs(v * _SCALE, g11, p)) / _SCALE
            value[tiny] = np.where(np.isinf(retaken), value[tiny], retaken)
        return value
    if A < _TINY:
        retaken = _anharm_retaken(v0, g11, p)
        if retaken is not None:
            return retaken[0]
    return value


def _anharm_retaken(v0, g11: float, p: float):
    """The scalar length of a tiny cubic target taken of ``v0 * _SCALE``
    and divided back, with the (A, B, C) of ``v0 * _SCALE`` it was taken
    of; None where that length overflows."""
    coeffs = anharm_integrand_coeffs([c * _SCALE for c in v0], g11, p)
    retaken = _anharm_length(v0[0], *coeffs) / _SCALE
    return None if math.isinf(retaken) else (retaken, coeffs)


def _anharm_length(v1, A, B, C):
    """The length from the phase velocity ``v1`` and the integrand's (A, B,
    C); every case but the elliptic one is decided here."""
    if isinstance(A, np.ndarray):
        return _anharm_length_array(np.asarray(v1, dtype=float), A, B, C)
    v1 = float(v1)
    R = math.hypot(B, C)
    if not math.isfinite(A + R):
        return math.inf
    if A - R <= 0 and (A, R) != (0.0, 0.0):
        return math.nan
    if R == 0.0:
        return math.sqrt(A / 2.0)
    phi = math.atan2(B, C)
    if 4.0 * v1 + phi == phi:
        # the phase does not move: a constant integrand (v1 = 0 included)
        return math.sqrt((A + B) / 2.0)
    return _elliptic_length(v1, A, R, phi, math.sqrt(A + R))


def _anharm_length_array(v1, A, B, C):
    """One :func:`_elliptic_length` call where :func:`_anharm_length`
    reaches it, and that scalar rule itself at every other point."""
    R = apply_math(math.hypot, B, C)
    phi = apply_math(math.atan2, B, C)
    with np.errstate(over="ignore", invalid="ignore"):
        k = np.isfinite(A + R) & (A > R) & (R != 0.0) & (4.0 * v1 + phi != phi)
    out = np.empty(A.shape)
    out[~k] = apply_math(_anharm_length, *(a[~k] for a in (v1, A, B, C)))
    A, R = A[k], R[k]
    out[k] = _elliptic_length(v1[k], A, R, phi[k], np.sqrt(A + R))
    return out


@functools.cache
def _ellipeinc():
    """SciPy's ``ellipeinc``, imported by the first cubic length and kept."""
    from scipy.special import ellipeinc
    return ellipeinc


def _elliptic_length(v1, A, R, phi, root):
    """Elliptic-integral length for R > 0 and a phase that moves,
    4 v1 + phi != phi; ``root`` = sqrt(A + R).

    The antiderivative -2 root E((pi - 2 y) / 4 | m) is taken at both ends,
    y = 4 v1 + phi and y = phi, in one ``ellipeinc`` call on the two
    stacked angles; floats (giving ``np.float64``) and 1-d arrays alike.
    """
    m = 2.0 * R / (A + R)
    e_end, e_start = _ellipeinc()(np.array(
        [(math.pi - 2.0 * (4.0 * v1 + phi)) / 4.0, (math.pi - 2.0 * phi) / 4.0]), m)
    c = -2.0 * root
    return (c * e_end - c * e_start) / (4.0 * v1 * math.sqrt(2.0))


def _sum_squares(components):
    """Left-to-right sum of squares, the same rounding for floats and arrays."""
    total = 0.0
    for c in components:
        total = total + c * c
    return total


# A sum of squares below _TINY may have lost digits, or everything, to
# underflow; it is then taken again over the components times _SCALE, where
# every nonzero square is a normal number, and the root divided back.
_TINY = 2.0 ** -1000
_SCALE = 2.0 ** 600


def norm_measure(params: dict, v0):
    """The default measurement of a matched point: the unit-weight norm of
    ``v0`` (a float for a list of floats, an array for a (k, n) array) and
    no extras.  A sum of squares below ``_TINY`` is taken again over
    ``v0 * _SCALE``, the same operations for floats and arrays."""
    total = _sum_squares(v0)
    if isinstance(v0, np.ndarray):
        value = np.sqrt(total)
        tiny = total < _TINY
        if tiny.any():
            value[tiny] = np.sqrt(_sum_squares(v0[:, tiny] * _SCALE)) / _SCALE
        return value, {}
    if total < _TINY:
        return math.sqrt(_sum_squares([c * _SCALE for c in v0])) / _SCALE, {}
    return math.sqrt(total), {}


def _reject_overflow(value, v0) -> None:
    """Raise ``ValueError`` if a non-finite length at a regular point is an
    overflow: an ``inf`` length, or a non-finite matched ``v0``.  What is
    left is a ``nan`` from a finite ``v0``, a failed positivity guard."""
    if np.isinf(value).any() or not np.isfinite(v0).all():
        raise ValueError("arithmetic overflow: the matched v0 or the length "
                         "is not finite")


def bound(target: TargetSpec) -> BoundResult:
    """Complexity bound of a target: match, reduce, evaluate the length."""
    v0, branch, notes, divergent = solve_point(target)
    if divergent is not None:
        return BoundResult(math.inf, f"{target.system}_pole", None, branch,
                           [STANDARD_CAVEAT, f"divergent: {divergent}", *notes])
    spec = target.spec
    value, extras = spec.measure(target.params, v0)
    caveats = [STANDARD_CAVEAT, *spec.caveats]
    if not math.isfinite(value):
        _reject_overflow(value, v0)
        caveats.append(POSITIVITY_CAVEAT)
    caveats += notes
    return BoundResult(value, spec.formula_id, np.array(v0), branch, caveats,
                       extras)


@dataclass
class BoundCurve:
    """Bounds over a time grid, one array per column.

    ``value[i]``, ``branch[i]`` and ``divergent[i]`` equal the ``value``,
    ``branch`` and ``is_divergent`` of ``bound(target.with_time(t[i]))``
    exactly; ``divergent`` is read off ``value`` (``np.isinf``).  ``pole[i]``
    is the pole location text at divergent points (the scalar
    ``divergent: ...`` caveat) and ``None`` elsewhere.
    ``formula_id`` and ``caveats`` are shared by the grid: the formula of
    the finite points, and the caveats that hold at any point of the grid.
    """

    t: np.ndarray
    value: np.ndarray
    branch: np.ndarray
    pole: np.ndarray
    formula_id: str
    caveats: list[str] = field(default_factory=list)

    @property
    def divergent(self) -> np.ndarray:
        return np.isinf(self.value)


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

    v0, branch, divergent, pole, notes = match_curve(target, t)
    spec = target.spec
    caveats = [STANDARD_CAVEAT, *spec.caveats]
    with np.errstate(invalid="ignore", over="ignore"):
        value = spec.measure(target.params, v0)[0]
    lost = ~np.isfinite(value) & ~divergent
    if lost.any():
        _reject_overflow(value[lost], v0[:, lost])
        caveats.append(POSITIVITY_CAVEAT)
    value[divergent] = math.inf
    return BoundCurve(t=t, value=value, branch=branch, pole=pole,
                      formula_id=spec.formula_id, caveats=caveats + notes)
