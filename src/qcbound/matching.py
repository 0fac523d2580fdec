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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import Unsupported
from .euler_arnold import ClosedFormFamily, PenaltyMatrix

__all__ = [
    "TargetSpec",
    "MatchResult",
    "reduce_periodic",
    "reduce_periodic_signed",
    "match",
    "verify_match",
    "match_displacement_product_form",
    "x_cot_x",
]

PERIOD_4PI = 4.0 * math.pi

# Pole detection threshold on the dimensionless reduced coordinates.
POLE_TOL = 1.0e-12

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


def reduce_periodic_signed(x: float, period: float) -> tuple[float, int]:
    """Signed reduction of x into [-period/2, period/2) plus winding index."""
    if period <= 0:
        raise ValueError("period must be positive")
    n = math.floor((x + 0.5 * period) / period)
    return x - period * n, n


def x_cot_x(x: float) -> float:
    """x * cot(x), analytic at 0.

    Below |x| = 1e-8 the series 1 - x^2/3 is exact to double precision
    (the next term is x^4/45 ~ 2e-34 at the switch point).
    """
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
    of the matching equations produce a divergent result.
    """
    p = target.params
    sys = target.system

    if sys == "displacement":
        al = p["alpha"]
        v0 = np.array([0.0, -math.sqrt(2) * al.real, math.sqrt(2) * al.imag, 0.0])
        return MatchResult(v0=v0, branch=0, notes=[
            "velocities follow the conventional sign choice, which "
            "matches the coefficient equations up to an overall sign; the "
            "length is unaffected",
        ])

    if sys == "ho":
        vh, branch = reduce_periodic_signed(p["omega"] * p["t"], PERIOD_4PI)
        return MatchResult(v0=np.array([0.0, 0.0, 0.0, vh]), branch=branch)

    if sys == "ho_linear":
        lam_t = p["lam"] * p["t"]
        vh, branch = reduce_periodic_signed(p["omega"] * p["t"], PERIOD_4PI)
        if lam_t != 0.0 and 2 * math.pi - abs(vh) < POLE_TOL:
            return MatchResult(
                v0=None, branch=branch,
                divergent="omega*t = 2*pi (mod 4*pi): linear coupling "
                          "cannot be matched, cot(v_H/2) pole",
            )
        vq = lam_t * x_cot_x(0.5 * vh)  # analytic limit of (v_H/2) lam t cot(v_H/2)
        vp = 0.5 * vh * lam_t
        return MatchResult(v0=np.array([0.0, vp, vq, vh]), branch=branch)

    if sys == "sp2_ho":
        v3, branch = reduce_periodic_signed(p["omega"] * p["t"], PERIOD_4PI)
        return MatchResult(v0=np.array([0.0, 0.0, v3]), branch=branch)

    if sys == "iho":
        return MatchResult(v0=np.array([0.0, -p["Omega"] * p["t"], 0.0]), branch=0)

    if sys in ("ho_quadratic", "free_particle"):
        if sys == "free_particle":
            omega = 1.0 / p["m"]
            lam = -0.5 * omega
        else:
            omega, lam = p["omega"], p["lam"]
        t = p["t"]
        lam_t = lam * t
        v3, branch = reduce_periodic_signed((omega + lam) * t, PERIOD_4PI)
        n_half = round(2.0 * v3 / math.pi)
        if lam_t != 0.0 and n_half != 0 and abs(2.0 * v3 - n_half * math.pi) < POLE_TOL:
            return MatchResult(
                v0=None, branch=branch,
                divergent=f"sin(2 v3) = 0 at v3 = {n_half}*pi/2: quadratic "
                          "coupling cannot be matched",
            )
        v1 = 2.0 * v3 * lam_t
        v2 = lam_t * x_cot_x(2.0 * v3)  # analytic limit of 2 v3 lam t cot(2 v3)
        notes = ["periodicity reduction uses (omega + lambda) t; reliable "
                 "only for small couplings"]
        if sys == "free_particle":
            notes.append(f"free particle wired as omega = 1/m = {omega:g}, "
                         f"lambda = -omega/2")
        return MatchResult(v0=np.array([v1, v2, v3]), branch=branch, notes=notes)

    if sys == "coupled":
        t, mu, q, pp = p["t"], p["mu"], p["q"], p["p"]
        raw_sum = (p["omega1"] + p["omega2"]) * t
        raw_diff = (p["omega1"] - p["omega2"]) * t
        red_sum, br_sum = reduce_periodic_signed(raw_sum, PERIOD_4PI)
        red_diff, br_diff = reduce_periodic_signed(raw_diff, PERIOD_4PI)
        v1 = 0.5 * (red_sum + red_diff)
        v2 = 0.5 * (red_sum - red_diff)
        half = (pp - 2.0 * q) * (v1 - v2) / (2.0 * pp)
        mu2t = mu * mu * t
        v3 = mu2t * x_cot_x(half)
        v4 = mu2t * half
        return MatchResult(
            v0=np.array([v1, v2, v3, v4]), branch=br_sum,
            notes=[
                f"sum/diff coordinates reduced mod 4*pi with windings "
                f"({br_sum}, {br_diff})",
                f"unreduced coordinates: v1+v2 = {raw_sum:.12g}, "
                f"v1-v2 = {raw_diff:.12g}",
            ],
        )

    if sys == "anharm_cubic":
        t, lam = p["t"], p["lam"]
        lam_t = lam * t
        v1, branch = reduce_periodic_signed(p["omega"] * t, PERIOD_4PI)
        den = 1.0 + 2.0 * math.cos(v1)
        if lam_t != 0.0:
            if abs(den) < POLE_TOL:
                return MatchResult(
                    v0=None, branch=branch,
                    divergent="1 + 2 cos(v1) = 0 (omega*t = +-2*pi/3 or "
                              "+-4*pi/3 mod 4*pi): cubic coupling pole",
                )
            if 2 * math.pi - abs(v1) < POLE_TOL:
                return MatchResult(
                    v0=None, branch=branch,
                    divergent="omega*t = 2*pi (mod 4*pi): cot(v1/2) pole",
                )
        v4 = 3.0 * lam_t * math.cos(v1) * x_cot_x(0.5 * v1) / den
        v5 = 0.0
        v6 = 1.5 * v1 * lam_t
        v7 = 3.0 * v1 * lam_t * math.sin(v1) / (2.0 * den)
        return MatchResult(
            v0=np.array([v1, v4, v5, v6, v7]), branch=branch,
            notes=["hard directions carry prohibitive penalties; velocities "
                   "solve the reduced cubic system"],
        )

    raise Unsupported(f"no matching rule for system {target.system!r}")


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
