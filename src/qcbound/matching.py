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

:func:`match_curve` is the array form of :func:`match` over a time grid.
It has one branch per sweepable system, which repeats the arithmetic of
the scalar branch in the same order, with masks where the scalar branch
returns early, so every column equals the scalar result bit for bit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PrecisionLoss, Unsupported
from .euler_arnold import ClosedFormFamily, PenaltyMatrix

__all__ = [
    "TargetSpec",
    "MatchResult",
    "MatchCurve",
    "reduce_periodic",
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

_POLE_HO_LINEAR = ("omega*t = 2*pi (mod 4*pi): linear coupling cannot be "
                   "matched, cot(v_H/2) pole")
_POLE_CUBIC_DEN = ("1 + 2 cos(v1) = 0 (omega*t = +-2*pi/3 or +-4*pi/3 mod "
                   "4*pi): cubic coupling pole")
_POLE_CUBIC_COT = "omega*t = 2*pi (mod 4*pi): cot(v1/2) pole"
_NOTE_QUADRATIC = ("periodicity reduction uses (omega + lambda) t; reliable "
                   "only for small couplings")
_NOTE_CUBIC = ("hard directions carry prohibitive penalties; velocities "
               "solve the reduced cubic system")


def _pole_quadratic(n_half: int) -> str:
    return (f"sin(2 v3) = 0 at v3 = {n_half}*pi/2: quadratic coupling "
            "cannot be matched")

_SYSTEMS = (
    "displacement", "ho", "ho_linear", "sp2_ho", "iho",
    "ho_quadratic", "free_particle", "coupled", "anharm_cubic",
)


def reduce_periodic(x, period: float):
    """Distance of x to the nearest multiple of ``period``.

    Returns |x - period * floor((x + period/2)/period)|, which lies in
    [0, period/2] and equals |x| inside the first half-period.
    """
    if period <= 0:
        raise ValueError("period must be positive")
    x = np.asarray(x, dtype=float)
    out = np.abs(x - period * np.floor((x + 0.5 * period) / period))
    return float(out) if out.ndim == 0 else out


def reduce_periodic_signed(x, period: float):
    """Signed reduction of x into [-period/2, period/2) plus winding index.

    ``x`` is a float, giving ``(float, int)``, or a 1-d array, giving
    ``(array, int64 array)`` equal element by element to the scalar form.
    Raises :class:`PrecisionLoss` when ulp(x) >= period (see the module
    docstring).
    """
    if period <= 0:
        raise ValueError("period must be positive")
    if isinstance(x, np.ndarray):
        if not np.all(np.spacing(np.abs(x)) < period):
            raise _precision_error(float(np.max(np.abs(x))), period)
        n = np.floor((x + 0.5 * period) / period)
        return x - period * n, n.astype(np.int64)
    if not math.ulp(x) < period:
        raise _precision_error(x, period)
    n = math.floor((x + 0.5 * period) / period)
    return x - period * n, n


def _precision_error(x: float, period: float) -> PrecisionLoss:
    return PrecisionLoss(
        f"ulp({abs(x):.6g}) = {math.ulp(x):.3g} is at least the period "
        f"{period:.6g}: the periodic reduction keeps no digits")


def _reduce(x, notes: list[str]):
    """Signed reduction mod 4 pi, appending a ``precision:`` note to
    ``notes`` when it keeps fewer than ``RELIABLE_DIGITS`` digits."""
    if isinstance(x, np.ndarray):
        ax = np.abs(x)
        lossy = ax[np.spacing(ax) > _LOSSY_ULP]
        if lossy.size:
            notes.append(_precision_note(float(lossy.max())))
    elif math.ulp(x) > _LOSSY_ULP:
        notes.append(_precision_note(x))
    return reduce_periodic_signed(x, PERIOD_4PI)


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


@dataclass(frozen=True)
class TargetSpec:
    """Target unitary, identified by a system tag and its parameters.

    Every parameter must be finite; ``inf`` and ``nan`` raise ``ValueError``.
    """

    system: str
    params: dict

    def __post_init__(self):
        if self.system not in _SYSTEMS:
            raise Unsupported(
                f"unknown system {self.system!r}; choose from {_SYSTEMS}"
            )
        for name, value in self.params.items():
            if not cmath.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")

    # -- constructors -----------------------------------------------------
    @classmethod
    def displacement(cls, alpha: complex) -> "TargetSpec":
        return cls("displacement", {"alpha": complex(alpha)})

    @classmethod
    def ho(cls, omega: float, t: float) -> "TargetSpec":
        _require_positive(omega=omega)
        return cls("ho", {"omega": float(omega), "t": float(t)})

    @classmethod
    def ho_linear(cls, omega: float, lam: float, t: float) -> "TargetSpec":
        _require_positive(omega=omega)
        return cls("ho_linear", {"omega": float(omega), "lam": float(lam), "t": float(t)})

    @classmethod
    def sp2_ho(cls, omega: float, t: float) -> "TargetSpec":
        _require_positive(omega=omega)
        return cls("sp2_ho", {"omega": float(omega), "t": float(t)})

    @classmethod
    def iho(cls, Omega: float, t: float) -> "TargetSpec":
        _require_positive(Omega=Omega)
        return cls("iho", {"Omega": float(Omega), "t": float(t)})

    @classmethod
    def ho_quadratic(cls, omega: float, lam: float, t: float) -> "TargetSpec":
        _require_positive(omega=omega)
        return cls("ho_quadratic", {"omega": float(omega), "lam": float(lam), "t": float(t)})

    @classmethod
    def free_particle(cls, m: float, t: float) -> "TargetSpec":
        _require_positive(m=m)
        return cls("free_particle", {"m": float(m), "t": float(t)})

    @classmethod
    def coupled(cls, omega1: float, omega2: float, mu: float, t: float,
                q: float = 1.0, p: float = 1.0) -> "TargetSpec":
        _require_positive(omega1=omega1, omega2=omega2, q=q)
        if p < q:
            raise ValueError("coupled requires penalties p >= q")
        return cls("coupled", {
            "omega1": float(omega1), "omega2": float(omega2), "mu": float(mu),
            "t": float(t), "q": float(q), "p": float(p),
        })

    @classmethod
    def anharm_cubic(cls, omega: float, lam: float, t: float,
                     g11: float = 1.0, p: float = 100.0) -> "TargetSpec":
        _require_positive(omega=omega, g11=g11, p=p)
        return cls("anharm_cubic", {
            "omega": float(omega), "lam": float(lam), "t": float(t),
            "g11": float(g11), "p": float(p),
        })

    # -- helpers -----------------------------------------------------------
    @property
    def t(self) -> float:
        return self.params["t"]

    def with_time(self, t: float) -> "TargetSpec":
        if "t" not in self.params:
            raise Unsupported(f"{self.system} has no time parameter to sweep")
        return TargetSpec(self.system, {**self.params, "t": float(t)})

    @property
    def algebra_name(self) -> str:
        return {
            "displacement": "ho4", "ho": "ho4", "ho_linear": "ho4",
            "sp2_ho": "sp2_J", "iho": "sp2_J", "ho_quadratic": "sp2_J",
            "free_particle": "sp2_J",
            "coupled": "coupled_M4", "anharm_cubic": "anharm5",
        }[self.system]

    def family(self) -> ClosedFormFamily:
        if self.system in ("displacement", "ho", "ho_linear"):
            return ClosedFormFamily("ho4_equal_penalty")
        if self.system in ("sp2_ho", "iho", "ho_quadratic", "free_particle"):
            return ClosedFormFamily("sp2_J_equal_penalty")
        if self.system == "coupled":
            return ClosedFormFamily("coupled_pq", q=self.params["q"], p=self.params["p"])
        return ClosedFormFamily("anharm_p", p=self.params["p"])

    def penalties(self) -> PenaltyMatrix:
        if self.system == "anharm_cubic":
            p = self.params["p"]
            return PenaltyMatrix.diagonal([self.params["g11"], p, p, p, p])
        return self.family().default_penalties()


def _require_positive(**kwargs):
    for name, value in kwargs.items():
        if not value > 0:
            raise ValueError(f"{name} must be positive, got {value!r}")


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
    of the matching equations produce a divergent result.  A reduction that
    keeps fewer than ``RELIABLE_DIGITS`` digits adds a ``precision:`` note;
    one that keeps none raises :class:`PrecisionLoss`.

    Each branch has an array twin in :func:`match_curve`; keep the two in
    the same order of operations.
    """
    p = target.params
    sys = target.system
    notes: list[str] = []

    if sys == "displacement":
        al = p["alpha"]
        v0 = np.array([0.0, -math.sqrt(2) * al.real, math.sqrt(2) * al.imag, 0.0])
        return MatchResult(v0=v0, branch=0, notes=[
            "velocities follow the conventional sign choice, which "
            "matches the coefficient equations up to an overall sign; the "
            "length is unaffected",
        ])

    if sys == "ho":
        vh, branch = _reduce(p["omega"] * p["t"], notes)
        return MatchResult(v0=np.array([0.0, 0.0, 0.0, vh]), branch=branch,
                           notes=notes)

    if sys == "ho_linear":
        lam_t = p["lam"] * p["t"]
        vh, branch = _reduce(p["omega"] * p["t"], notes)
        if lam_t != 0.0 and 2 * math.pi - abs(vh) < POLE_TOL:
            return MatchResult(v0=None, branch=branch, notes=notes,
                               divergent=_POLE_HO_LINEAR)
        vq = lam_t * x_cot_x(0.5 * vh)  # analytic limit of (v_H/2) lam t cot(v_H/2)
        vp = 0.5 * vh * lam_t
        return MatchResult(v0=np.array([0.0, vp, vq, vh]), branch=branch,
                           notes=notes)

    if sys == "sp2_ho":
        v3, branch = _reduce(p["omega"] * p["t"], notes)
        return MatchResult(v0=np.array([0.0, 0.0, v3]), branch=branch,
                           notes=notes)

    if sys == "iho":
        return MatchResult(v0=np.array([0.0, -p["Omega"] * p["t"], 0.0]), branch=0)

    if sys in ("ho_quadratic", "free_particle"):
        omega, lam = _quadratic_coefficients(target)
        t = p["t"]
        lam_t = lam * t
        v3, branch = _reduce((omega + lam) * t, notes)
        n_half = round(2.0 * v3 / math.pi)
        if lam_t != 0.0 and n_half != 0 and abs(2.0 * v3 - n_half * math.pi) < POLE_TOL:
            return MatchResult(v0=None, branch=branch, notes=notes,
                               divergent=_pole_quadratic(n_half))
        v1 = 2.0 * v3 * lam_t
        v2 = lam_t * x_cot_x(2.0 * v3)  # analytic limit of 2 v3 lam t cot(2 v3)
        return MatchResult(v0=np.array([v1, v2, v3]), branch=branch,
                           notes=notes + _quadratic_notes(target))

    if sys == "coupled":
        t, mu, q, pp = p["t"], p["mu"], p["q"], p["p"]
        raw_sum = (p["omega1"] + p["omega2"]) * t
        raw_diff = (p["omega1"] - p["omega2"]) * t
        red_sum, br_sum = _reduce(raw_sum, notes)
        red_diff, br_diff = _reduce(raw_diff, notes)
        v1 = 0.5 * (red_sum + red_diff)
        v2 = 0.5 * (red_sum - red_diff)
        half = (pp - 2.0 * q) * (v1 - v2) / (2.0 * pp)
        mu2t = mu * mu * t
        v3 = mu2t * x_cot_x(half)
        v4 = mu2t * half
        return MatchResult(
            v0=np.array([v1, v2, v3, v4]), branch=br_sum,
            notes=notes + [
                f"sum/diff coordinates reduced mod 4*pi with windings "
                f"({br_sum}, {br_diff})",
                f"unreduced coordinates: v1+v2 = {raw_sum:.12g}, "
                f"v1-v2 = {raw_diff:.12g}",
            ],
        )

    if sys == "anharm_cubic":
        t, lam = p["t"], p["lam"]
        lam_t = lam * t
        v1, branch = _reduce(p["omega"] * t, notes)
        den = 1.0 + 2.0 * math.cos(v1)
        if lam_t != 0.0:
            if abs(den) < POLE_TOL:
                return MatchResult(v0=None, branch=branch, notes=notes,
                                   divergent=_POLE_CUBIC_DEN)
            if 2 * math.pi - abs(v1) < POLE_TOL:
                return MatchResult(v0=None, branch=branch, notes=notes,
                                   divergent=_POLE_CUBIC_COT)
        v4 = 3.0 * lam_t * math.cos(v1) * x_cot_x(0.5 * v1) / den
        v5 = 0.0
        v6 = 1.5 * v1 * lam_t
        v7 = 3.0 * v1 * lam_t * math.sin(v1) / (2.0 * den)
        return MatchResult(v0=np.array([v1, v4, v5, v6, v7]), branch=branch,
                           notes=notes + [_NOTE_CUBIC])

    raise Unsupported(f"no matching rule for system {target.system!r}")


def _quadratic_coefficients(target: TargetSpec) -> tuple[float, float]:
    """(omega, lambda) of a quadratic target; the free particle is wired as
    omega = 1/m, lambda = -omega/2."""
    if target.system == "free_particle":
        omega = 1.0 / target.params["m"]
        return omega, -0.5 * omega
    return target.params["omega"], target.params["lam"]


def _quadratic_notes(target: TargetSpec) -> list[str]:
    if target.system != "free_particle":
        return [_NOTE_QUADRATIC]
    omega, _ = _quadratic_coefficients(target)
    return [_NOTE_QUADRATIC,
            f"free particle wired as omega = 1/m = {omega:g}, lambda = -omega/2"]


@dataclass
class MatchCurve:
    """:class:`MatchResult` over a time grid, in columns.

    ``v0`` has one row per generator and one column per grid point.
    ``pole`` holds the pole location text at divergent points and ``None``
    elsewhere; ``v0`` is meaningless at divergent points.  ``notes`` are the
    notes shared by the whole grid; the per-point notes of the coupled
    match (winding pair, unreduced coordinates) are left to :func:`match`.
    """

    v0: np.ndarray
    branch: np.ndarray
    divergent: np.ndarray
    pole: np.ndarray
    notes: list[str] = field(default_factory=list)


def match_curve(target: TargetSpec, t: np.ndarray) -> MatchCurve:
    """Array form of :func:`match` over the time grid ``t``, one pass.

    Column ``i`` equals ``match(target.with_time(t[i]))`` bit for bit:
    v0, branch and divergence.  Transcendental functions go through
    :func:`apply_math` so they round as the scalar ``math`` calls do.
    """
    p = target.params
    sys = target.system
    notes: list[str] = []
    zeros = np.zeros_like(t)
    divergent = np.zeros(t.shape, dtype=bool)
    pole = np.full(t.shape, None, dtype=object)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if sys in ("ho", "sp2_ho"):
            vh, branch = _reduce(p["omega"] * t, notes)
            v0 = [zeros, zeros, zeros, vh] if sys == "ho" else [zeros, zeros, vh]

        elif sys == "ho_linear":
            lam_t = p["lam"] * t
            vh, branch = _reduce(p["omega"] * t, notes)
            divergent = (lam_t != 0.0) & (2 * math.pi - np.abs(vh) < POLE_TOL)
            pole[divergent] = _POLE_HO_LINEAR
            v0 = [zeros, 0.5 * vh * lam_t, lam_t * x_cot_x(0.5 * vh), vh]

        elif sys == "iho":
            branch = np.zeros(t.shape, dtype=np.int64)
            v0 = [zeros, -p["Omega"] * t, zeros]

        elif sys in ("ho_quadratic", "free_particle"):
            omega, lam = _quadratic_coefficients(target)
            lam_t = lam * t
            v3, branch = _reduce((omega + lam) * t, notes)
            n_half = np.rint(2.0 * v3 / math.pi)
            divergent = ((lam_t != 0.0) & (n_half != 0)
                         & (np.abs(2.0 * v3 - n_half * math.pi) < POLE_TOL))
            pole[divergent] = [_pole_quadratic(k) for k in
                               n_half[divergent].astype(np.int64).tolist()]
            v0 = [2.0 * v3 * lam_t, lam_t * x_cot_x(2.0 * v3), v3]
            notes += _quadratic_notes(target)

        elif sys == "coupled":
            mu, q, pp = p["mu"], p["q"], p["p"]
            red_sum, branch = _reduce((p["omega1"] + p["omega2"]) * t, notes)
            red_diff, _ = _reduce((p["omega1"] - p["omega2"]) * t, notes)
            v1 = 0.5 * (red_sum + red_diff)
            v2 = 0.5 * (red_sum - red_diff)
            half = (pp - 2.0 * q) * (v1 - v2) / (2.0 * pp)
            mu2t = mu * mu * t
            v0 = [v1, v2, mu2t * x_cot_x(half), mu2t * half]

        elif sys == "anharm_cubic":
            lam_t = p["lam"] * t
            v1, branch = _reduce(p["omega"] * t, notes)
            cos_v1 = apply_math(math.cos, v1)
            den = 1.0 + 2.0 * cos_v1
            at_den = (lam_t != 0.0) & (np.abs(den) < POLE_TOL)
            at_cot = (lam_t != 0.0) & ~at_den & (2 * math.pi - np.abs(v1) < POLE_TOL)
            divergent = at_den | at_cot
            pole[at_den] = _POLE_CUBIC_DEN
            pole[at_cot] = _POLE_CUBIC_COT
            v0 = [v1,
                  3.0 * lam_t * cos_v1 * x_cot_x(0.5 * v1) / den,
                  zeros,
                  1.5 * v1 * lam_t,
                  3.0 * v1 * lam_t * apply_math(math.sin, v1) / (2.0 * den)]
            notes.append(_NOTE_CUBIC)

        else:
            raise Unsupported(f"{sys} has no time parameter to sweep")

    return MatchCurve(v0=np.array(v0), branch=branch, divergent=divergent,
                      pole=pole, notes=notes)


def target_coefficients(target: TargetSpec) -> np.ndarray:
    """Exponent coefficients the matched geodesic must reach at s = 1.

    Compact coordinates appear in signed-reduced form, i.e. congruent to the
    raw target coefficients modulo the group period.
    """
    p = target.params
    sys = target.system
    if sys == "displacement":
        al = p["alpha"]
        return np.array([0.0, math.sqrt(2) * al.real, -math.sqrt(2) * al.imag, 0.0])
    if sys == "ho":
        vh, _ = reduce_periodic_signed(p["omega"] * p["t"], PERIOD_4PI)
        return np.array([0.0, 0.0, 0.0, vh])
    if sys == "ho_linear":
        vh, _ = reduce_periodic_signed(p["omega"] * p["t"], PERIOD_4PI)
        return np.array([0.0, 0.0, p["lam"] * p["t"], vh])
    if sys == "sp2_ho":
        v3, _ = reduce_periodic_signed(p["omega"] * p["t"], PERIOD_4PI)
        return np.array([0.0, 0.0, v3])
    if sys == "iho":
        return np.array([0.0, -p["Omega"] * p["t"], 0.0])
    if sys in ("ho_quadratic", "free_particle"):
        if sys == "free_particle":
            omega = 1.0 / p["m"]
            lam = -0.5 * omega
        else:
            omega, lam = p["omega"], p["lam"]
        v3, _ = reduce_periodic_signed((omega + lam) * p["t"], PERIOD_4PI)
        return np.array([0.0, lam * p["t"], v3])
    if sys == "coupled":
        red_sum, _ = reduce_periodic_signed((p["omega1"] + p["omega2"]) * p["t"], PERIOD_4PI)
        red_diff, _ = reduce_periodic_signed((p["omega1"] - p["omega2"]) * p["t"], PERIOD_4PI)
        return np.array([
            0.5 * (red_sum + red_diff),
            0.5 * (red_sum - red_diff),
            p["mu"] ** 2 * p["t"],
            0.0,
        ])
    if sys == "anharm_cubic":
        v1, _ = reduce_periodic_signed(p["omega"] * p["t"], PERIOD_4PI)
        return np.array([v1, p["lam"] * p["t"], 0.0, 0.0, 0.0])
    raise Unsupported(f"no coefficient rule for system {target.system!r}")


def verify_match(result: MatchResult, target: TargetSpec) -> float:
    """Round-trip residual: solve the geodesic from v0 and compare c(1).

    Returns the max-abs difference between the achieved exponent
    coefficients and the (period-reduced) target coefficients.  The
    displacement target is compared up to an overall sign, consistent with
    the sign convention of its solved velocities.
    """
    from .euler_arnold import solve_closed_form
    from .geodesic import leading_order_coeffs

    if result.is_divergent or result.v0 is None:
        raise ValueError("cannot verify a divergent match result")
    sol = solve_closed_form(target.family(), result.v0)
    achieved = leading_order_coeffs(sol)(1.0)
    expected = target_coefficients(target)
    resid = float(np.max(np.abs(achieved - expected)))
    if target.system == "displacement":
        resid = min(resid, float(np.max(np.abs(achieved + expected))))
    return resid


def match_displacement_product_form(alpha: complex):
    """Velocities from the ordered-product parametrization of the displacement.

    This route produces imaginary intermediate momentum/position velocities
    and the alternate value 2|alpha| for the length; it is exposed for
    comparison with the sqrt(2)|alpha| result of the single-exponential
    matching and is not used by :func:`match`.
    """
    alpha = complex(alpha)
    v_p = 1j * math.sqrt(2) * alpha.imag
    v_q = 1j * math.sqrt(2) * alpha.real
    value = 2.0 * abs(alpha)
    return {"v_P": v_p, "v_Q": v_q, "v_H": 0.0, "value": value}
