"""Solve initial geodesic velocities from a target unitary.

A target is specified by the generator coefficients of its exponent,
U_target = exp(-i sum_I c_I O_I).  Matching imposes c_I(1) = c_I on the
leading-order exponent coefficients, which for every supported system
reduces to closed-form algebra with sinc-type limits where rotation rates
vanish.  Compact group directions are first reduced modulo their period
(4 pi in the oscillator-energy coordinates), accounting for the shorter
geodesic that winds the other way; the winding index is reported as the
branch.

The matching equations lose solvability at isolated parameter points
(vanishing sines against nonzero couplings).  Those points are returned as
a typed divergent result rather than raised, since curve generation must
step across them.

Precision contract of the periodic reduction: reducing a raw compact
coordinate x leaves an absolute error of about ulp(x) in the reduced value.
When ulp(x) > period * 1e-12, that is when fewer than ``RELIABLE_DIGITS`` =
12 digits of the reduced value (on the scale of the period) are reliable,
the match carries a ``precision:`` note, which :func:`bounds.bound` reports
as a caveat.  For the 4 pi period this starts at |x| >= 2**16 = 65536.
When ulp(x) >= period (|x| >= 2**56, about 7.2e16, for 4 pi) the reduced
value is meaningless and the reduction raises :class:`PrecisionLoss`.

:func:`match` and its array form :func:`match_curve` run the same kernel
per system, written once for a float and an array of times (see
:mod:`qcbound.systems`, the registry of systems), so every column of a
curve equals the scalar result bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import PrecisionLoss, Unsupported
from .euler_arnold import solve_closed_form
from .geodesic import leading_order_coeffs

if TYPE_CHECKING:
    from .systems import TargetSpec

__all__ = [
    "TargetSpec",
    "MatchResult",
    "reduce_periodic_signed",
    "match",
    "match_curve",
    "verify_match",
    "match_displacement_product_form",
    "x_cot_x",
]

PERIOD_4PI = 4.0 * math.pi

# Pole detection threshold on the dimensionless reduced coordinates.
POLE_TOL = 1.0e-12

# Digits the periodic reduction must keep before a match carries a caveat,
# and the ulp of the raw coordinate above which it keeps fewer.
RELIABLE_DIGITS = 12
_LOSSY_ULP = PERIOD_4PI * 10.0 ** -RELIABLE_DIGITS


def __getattr__(name: str):
    # TargetSpec lives in the registry, which imports this module; the
    # benchmark's perfbench/setup_probe.py still reads matching.TargetSpec
    if name == "TargetSpec":
        from .systems import TargetSpec
        return TargetSpec
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def reduce_periodic_signed(x):
    """Signed reduction of x mod 4 pi into [-2 pi, 2 pi), plus winding index.

    ``x`` is a float, giving ``(float, int)``, or a 1-d array, giving
    ``(array, int64 array)`` equal element by element to the scalar form.
    Raises :class:`PrecisionLoss` when ulp(x) >= 4 pi (see the module
    docstring), or, as an arithmetic overflow, when x is not finite.
    """
    if isinstance(x, np.ndarray):
        if not np.all(np.spacing(np.abs(x)) < PERIOD_4PI):
            raise _precision_error(float(np.max(np.abs(x))))
        n = np.floor((x + 0.5 * PERIOD_4PI) / PERIOD_4PI)
        return x - PERIOD_4PI * n, n.astype(np.int64)
    if not math.ulp(x) < PERIOD_4PI:
        raise _precision_error(x)
    n = math.floor((x + 0.5 * PERIOD_4PI) / PERIOD_4PI)
    return x - PERIOD_4PI * n, n


def _precision_error(x: float) -> PrecisionLoss:
    if not math.isfinite(x):
        return PrecisionLoss(f"arithmetic overflow: the periodic coordinate "
                             f"is {abs(x)}, not a finite number")
    return PrecisionLoss(
        f"ulp({abs(x):.6g}) = {math.ulp(x):.3g} is at least the period "
        f"{PERIOD_4PI:.6g}: the periodic reduction keeps no digits")


def reduce_with_notes(x, notes: list[str]):
    """Signed reduction mod 4 pi, appending a ``precision:`` note to
    ``notes`` when it keeps fewer than ``RELIABLE_DIGITS`` digits."""
    if isinstance(x, np.ndarray):
        ax = np.abs(x)
        lossy = ax[np.spacing(ax) > _LOSSY_ULP]
        if lossy.size:
            notes.append(_precision_note(float(lossy.max())))
    elif math.ulp(x) > _LOSSY_ULP:
        notes.append(_precision_note(x))
    return reduce_periodic_signed(x)


def _precision_note(x: float) -> str:
    return (f"precision: ulp({abs(x):.6g}) = {math.ulp(x):.3g}, so its "
            f"reduction mod 4*pi keeps fewer than {RELIABLE_DIGITS} reliable "
            f"digits")


def apply_math(f, *xs: np.ndarray) -> np.ndarray:
    """Apply a scalar ``math`` function elementwise.

    numpy's ``tan``, ``arctan2`` and ``hypot`` can differ from ``math`` in
    the last bit, so the array kernels call the very functions the scalar
    path calls.
    """
    return np.fromiter(map(f, *(x.tolist() for x in xs)), dtype=float,
                       count=len(xs[0]))


def math_call(f, x):
    """``f(x)`` on a float, :func:`apply_math` on an array: the one way a
    kernel calls a ``math`` function."""
    return apply_math(f, x) if isinstance(x, np.ndarray) else f(x)


def x_cot_x(x):
    """x * cot(x), analytic at 0; ``x`` is a float or an array.

    Below |x| = 1e-8 the series 1 - x^2/3 is exact to double precision
    (the next term is x^4/45 ~ 2e-34 at the switch point).
    """
    if isinstance(x, np.ndarray):
        out = 1.0 - x * x / 3.0
        big = np.abs(x) >= 1.0e-8
        out[big] = x[big] / apply_math(math.tan, x[big])
        return out
    if abs(x) < 1.0e-8:
        return 1.0 - x * x / 3.0
    return x / math.tan(x)


@dataclass
class MatchResult:
    """Solved initial velocities, or a divergence marker.

    ``branch`` is the winding index applied to the compact coordinate;
    ``divergent`` carries a human-readable pole location when the matching
    equations have no solution.
    """

    v0: np.ndarray | None
    branch: int = 0
    notes: list[str] = field(default_factory=list)
    divergent: str | None = None

    @property
    def is_divergent(self) -> bool:
        return self.divergent is not None


def match(target: TargetSpec) -> MatchResult:
    """Solve the boundary conditions c_I(1) = target coefficients for v0.

    Compact coordinates are signed-reduced into [-2 pi, 2 pi); the sign
    records direction of travel while the reported bound only uses squares.
    Singular sinc-type limits are taken analytically, so only genuine poles
    of the matching equations produce a divergent result: the first pole of
    the system's kernel that holds.  A reduction that keeps fewer than
    ``RELIABLE_DIGITS`` digits adds a ``precision:`` note; one that keeps
    none raises :class:`PrecisionLoss`.
    """
    v0, branch, notes, divergent = solve_point(target)
    return MatchResult(None if v0 is None else np.array(v0), branch, notes,
                       divergent)


def solve_point(target: TargetSpec):
    """The solve step of :func:`match`, shared with :func:`bounds.bound`.

    Returns ``(v0, branch, notes, divergent)``: the kernel's list of float
    velocities (``None`` at a pole), the winding index, the notes and the
    text of the first pole that holds (``None`` at a regular point).
    """
    notes: list[str] = []
    v0, branch, poles, regular_notes = target.spec.kernel(target.params, notes)
    for at, text in poles:
        if at:
            return (None, branch, notes,
                    text if isinstance(text, str) else text(at))
    notes += regular_notes
    return v0, branch, notes, None


def match_curve(target: TargetSpec, t: np.ndarray):
    """Array form of :func:`match` over the time grid ``t``, one pass.

    Returns ``(v0, branch, divergent, pole, notes)``, like
    :func:`solve_point` but in columns: ``v0`` has one row per generator and
    one column per grid point (meaningless at divergent points), ``pole``
    the pole location text at divergent points and ``None`` elsewhere, and
    ``notes`` the notes shared by the whole grid; the per-point notes of the
    coupled match (winding pair, unreduced coordinates) are left to
    :func:`match`.  Column ``i`` equals ``match(target.with_time(t[i]))``
    bit for bit: v0, branch and divergence.  It runs the same kernel on the
    array.
    """
    if "t" not in target.params:
        raise Unsupported(f"{target.system} has no time parameter to sweep")
    notes: list[str] = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        v0, branch, poles, regular_notes = target.spec.kernel(
            {**target.params, "t": t}, notes)
    divergent = np.zeros(t.shape, dtype=bool)
    pole = np.full(t.shape, None, dtype=object)
    for at, text in reversed(poles):       # the first pole listed wins
        divergent |= at
        pole[at] = text if isinstance(text, str) else text(at)
    notes += regular_notes
    return (np.array(np.broadcast_arrays(t, *v0)[1:]),
            np.zeros(t.shape, dtype=np.int64) + branch, divergent, pole, notes)


def target_coefficients(target: TargetSpec) -> np.ndarray:
    """Exponent coefficients the matched geodesic must reach at s = 1.

    Compact coordinates appear in signed-reduced form, i.e. congruent to the
    raw target coefficients modulo the group period.
    """
    return np.array(target.spec.coefficients(target.params))


def verify_match(result: MatchResult, target: TargetSpec) -> float:
    """Round-trip residual: solve the geodesic from v0 and compare c(1).

    Returns the max-abs difference between the achieved exponent
    coefficients and the (period-reduced) target coefficients.  A
    ``sign_symmetric`` system (the displacement) is compared up to an
    overall sign, consistent with the sign convention of its velocities.
    """
    if result.is_divergent or result.v0 is None:
        raise ValueError("cannot verify a divergent match result")
    sol = solve_closed_form(target.family(), result.v0)
    achieved = leading_order_coeffs(sol)(1.0)
    expected = target_coefficients(target)
    resid = float(np.max(np.abs(achieved - expected)))
    if target.spec.sign_symmetric:
        resid = min(resid, float(np.max(np.abs(achieved + expected))))
    return resid


def match_displacement_product_form(alpha: complex):
    """Velocities from the ordered-product parametrization of the displacement.

    This route produces imaginary intermediate momentum/position velocities
    and the alternate value 2|alpha| for the length, ``inf`` when |alpha|
    overflows; it is exposed for comparison with the sqrt(2)|alpha| result
    of the single-exponential matching and is not used by :func:`match`.
    """
    alpha = complex(alpha)
    v_p = 1j * math.sqrt(2) * alpha.imag
    v_q = 1j * math.sqrt(2) * alpha.real
    value = 2.0 * _modulus(alpha)
    return {"v_P": v_p, "v_Q": v_q, "v_H": 0.0, "value": value}


def _modulus(z: complex) -> float:
    """|z|, or ``inf`` where it overflows (``abs`` raises ``OverflowError``
    there, where a product would give ``inf``)."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf
