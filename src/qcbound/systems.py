"""The target systems: one registry entry per system.

Each target is defined here and nowhere else, by one :class:`SystemSpec`:
constructor parameters (in order, with defaults, checks and CLI flags),
closed-form family, formula id and caveats, match kernel, target
coefficients and measurement.  The rest of the package reads it through
``target.spec``.  To add a system, write its kernel and coefficients (and
its measurement, unless that is the norm of ``v0`` with no extras) and add
its spec to ``SYSTEMS``.

A kernel ``kernel(params, notes)`` serves a float ``params["t"]`` and a 1-d
array of times alike.  It returns ``(v0, branch, poles, regular_notes)``:
velocity components (constants as floats), winding index, ordered
``(mask, text)`` poles and the notes of a regular point; reductions append
their ``precision:`` notes to ``notes``.  A mask is a bool or a bool array
built with ``&`` (never ``~``: ``~True == -2``); ``text`` is a str or a
function of the mask.  ``math`` calls go through ``math_call``.

A measurement ``measure(params, v0) -> (value, extras)`` takes the kernel's
velocities, float or array alike, and gives the length and a dict of
diagnostics in one pass, so what both need (the cubic's A, B, C) is
computed once.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .bounds import anharm_measure, norm_measure
from .errors import Unsupported
from .euler_arnold import ClosedFormFamily
from .matching import (POLE_TOL, math_call, reduce_periodic_signed,
                       reduce_with_notes, x_cot_x)

__all__ = ["Param", "SystemSpec", "SYSTEMS", "CLI_NAMES", "TargetSpec",
           "match_displacement_product_form"]


class Param(NamedTuple):
    """A constructor parameter and its CLI option (``--name`` unless
    ``flag``).  ``default`` is the CLI default, and the constructor's too
    when ``optional``; the constructor casts to its type."""

    name: str
    default: float | complex
    optional: bool = False
    positive: bool = False
    flag: str = ""
    help: str | None = None

    @property
    def option(self) -> str:
        return self.flag or f"--{self.name}"


class SystemSpec(NamedTuple):
    """Everything about one target system (see the module docstring)."""

    tag: str
    summary: str
    params: tuple[Param, ...]
    family: str                    # ClosedFormFamily tag
    formula_id: str
    kernel: Callable
    coefficients: Callable[[dict], list]
    caveats: tuple[str, ...] = ()
    measure: Callable[[dict, list], tuple] = norm_measure  # (value, extras)
    check: Callable[[dict], None] | None = None
    sign_symmetric: bool = False   # coefficients are matched up to a sign
    flags: tuple[Param, ...] = ()  # CLI options, when not the parameters
    from_flags: Callable | None = None

    @property
    def cli_flags(self) -> tuple[Param, ...]:
        return self.flags or self.params


def _wrap(x: float) -> float:
    return reduce_periodic_signed(x)[0]


_OMEGA = Param("omega", 1.0, positive=True)
_T = Param("t", 0.0)
_LAM = Param("lam", 0.0, flag="--lambda", help="perturbation coupling")
_HO4, _SP2 = "ho4_equal_penalty", "sp2_J_equal_penalty"


# -- displacement -----------------------------------------------------------

def _displacement(p, notes):
    al = p["alpha"]
    v0 = [0.0, -math.sqrt(2) * al.real, math.sqrt(2) * al.imag, 0.0]
    return v0, 0, (), [
        "velocities follow the conventional sign choice, which matches the "
        "coefficient equations up to an overall sign; the length is unaffected"]


def match_displacement_product_form(alpha: complex):
    """Velocities from the ordered-product parametrization of the displacement.

    This route produces imaginary intermediate momentum/position velocities
    and the alternate value 2|alpha| for the length, ``inf`` when |alpha|
    overflows; it is exposed for comparison with the sqrt(2)|alpha| result
    of the single-exponential matching and is not used by ``match``.
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


DISPLACEMENT = SystemSpec(
    "displacement", "coherent displacement by alpha", (Param("alpha", 0j),),
    _HO4, "displacement_sqrt2", _displacement,
    lambda p: [0.0, math.sqrt(2) * p["alpha"].real,
               -math.sqrt(2) * p["alpha"].imag, 0.0],
    caveats=("ordered-product route gives 2|alpha| instead of sqrt(2)|alpha|; "
             "both are reported, the discrepancy is documented",),
    measure=lambda p, v0: (math.sqrt(2.0) * _modulus(p["alpha"]), {
        "product_form_value": match_displacement_product_form(p["alpha"])["value"]}),
    sign_symmetric=True,
    flags=(Param("re", 0.0, help="Re(alpha)"), Param("im", 0.0, help="Im(alpha)")),
    from_flags=lambda re, im: (complex(re, im),))


# -- oscillator, two routes, and the inverted oscillator --------------------

def _ho(p, notes):
    vh, branch = reduce_with_notes(p["omega"] * p["t"], notes)
    return [0.0, 0.0, 0.0, vh], branch, (), ()


def _sp2_ho(p, notes):
    v3, branch = reduce_with_notes(p["omega"] * p["t"], notes)
    return [0.0, 0.0, v3], branch, (), ()


def _iho(p, notes):
    return [0.0, -p["Omega"] * p["t"], 0.0], 0, (), ()


HO = SystemSpec(
    "ho", "omega * t * H (oscillator energy)", (_OMEGA, _T), _HO4,
    "sawtooth_4pi", _ho, lambda p: [0.0, 0.0, 0.0, _wrap(p["omega"] * p["t"])])

SP2_HO = SystemSpec(
    "sp2_ho", "same target through the sp(2,R) route", (_OMEGA, _T), _SP2,
    "sawtooth_4pi", _sp2_ho, lambda p: [0.0, 0.0, _wrap(p["omega"] * p["t"])])

IHO = SystemSpec(
    "iho", "inverted oscillator, Omega * t",
    (Param("Omega", 1.0, positive=True,
           help="frequency of the inverted oscillator"), _T),
    _SP2, "iho_linear", _iho, lambda p: [0.0, -p["Omega"] * p["t"], 0.0])


# -- linear perturbation ----------------------------------------------------

_POLE_HO_LINEAR = ("omega*t = 2*pi (mod 4*pi): linear coupling cannot be "
                   "matched, cot(v_H/2) pole")


def _ho_linear(p, notes):
    lam_t = p["lam"] * p["t"]
    vh, branch = reduce_with_notes(p["omega"] * p["t"], notes)
    pole = (lam_t != 0.0) & (2 * math.pi - abs(vh) < POLE_TOL)
    # lam_t x_cot_x(v_H/2): the analytic limit of (v_H/2) lam t cot(v_H/2)
    v0 = [0.0, 0.5 * vh * lam_t, lam_t * x_cot_x(0.5 * vh), vh]
    return v0, branch, [(pole, _POLE_HO_LINEAR)], ()


HO_LINEAR = SystemSpec(
    "ho_linear", "oscillator plus linear position term", (_OMEGA, _LAM, _T),
    _HO4, "ho_linear_cot", _ho_linear,
    lambda p: [0.0, 0.0, p["lam"] * p["t"], _wrap(p["omega"] * p["t"])])


# -- quadratic perturbation and the free particle ---------------------------

_NOTE_QUADRATIC = ("periodicity reduction uses (omega + lambda) t; reliable "
                   "only for small couplings")
_CAVEAT_QUADRATIC = ("periodicity via (omega + lambda) t is approximate "
                     "beyond small couplings",)


def _quadratic_pole(n_half, at):
    if isinstance(n_half, np.ndarray):
        return [_quadratic_pole(k, True) for k in n_half[at].tolist()]
    return (f"sin(2 v3) = 0 at v3 = {n_half}*pi/2: quadratic coupling "
            "cannot be matched")


def _quadratic(omega, lam, t, notes):
    """Kernel of the quadratic perturbation with rate ``omega + lam``."""
    lam_t = lam * t
    v3, branch = reduce_with_notes((omega + lam) * t, notes)
    x = 2.0 * v3 / math.pi                 # round half to even, both forms
    n_half = np.rint(x).astype(np.int64) if isinstance(x, np.ndarray) else round(x)
    pole = ((lam_t != 0.0) & (n_half != 0)
            & (abs(2.0 * v3 - n_half * math.pi) < POLE_TOL))
    # lam_t x_cot_x(2 v3): the analytic limit of 2 v3 lam t cot(2 v3)
    v0 = [2.0 * v3 * lam_t, lam_t * x_cot_x(2.0 * v3), v3]
    return (v0, branch, [(pole, lambda at: _quadratic_pole(n_half, at))],
            [_NOTE_QUADRATIC])


def _free_particle(p, notes):
    omega = 1.0 / p["m"]            # wired as omega = 1/m, lambda = -omega/2
    v0, branch, poles, regular = _quadratic(omega, -0.5 * omega, p["t"], notes)
    return v0, branch, poles, regular + [
        f"free particle wired as omega = 1/m = {omega:g}, lambda = -omega/2"]


def _quadratic_coefficients(omega, lam, t):
    return [0.0, lam * t, _wrap((omega + lam) * t)]


HO_QUADRATIC = SystemSpec(
    "ho_quadratic", "oscillator plus quadratic position term",
    (_OMEGA, _LAM, _T), _SP2, "quadratic_cot",
    lambda p, notes: _quadratic(p["omega"], p["lam"], p["t"], notes),
    lambda p: _quadratic_coefficients(p["omega"], p["lam"], p["t"]),
    caveats=_CAVEAT_QUADRATIC)

FREE_PARTICLE = SystemSpec(
    "free_particle", "free particle of mass m (quadratic special case)",
    (Param("m", 1.0, positive=True, help="free-particle mass"), _T), _SP2,
    "quadratic_cot", _free_particle,
    lambda p: _quadratic_coefficients(1.0 / p["m"], -0.5 * (1.0 / p["m"]), p["t"]),
    caveats=_CAVEAT_QUADRATIC)


# -- coupled modes ----------------------------------------------------------

def _coupled(p, notes):
    t, mu, q, pp = p["t"], p["mu"], p["q"], p["p"]
    raw_sum = (p["omega1"] + p["omega2"]) * t
    raw_diff = (p["omega1"] - p["omega2"]) * t
    red_sum, br_sum = reduce_with_notes(raw_sum, notes)
    red_diff, br_diff = reduce_with_notes(raw_diff, notes)
    v1 = 0.5 * (red_sum + red_diff)
    v2 = 0.5 * (red_sum - red_diff)
    half = (pp - 2.0 * q) * (v1 - v2) / (2.0 * pp)
    mu2t = mu * mu * t
    v0 = [v1, v2, mu2t * x_cot_x(half), mu2t * half]
    if isinstance(t, np.ndarray):      # the per-point notes are scalar only
        return v0, br_sum, (), ()
    return v0, br_sum, (), [
        f"sum/diff coordinates reduced mod 4*pi with windings "
        f"({br_sum}, {br_diff})",
        f"unreduced coordinates: v1+v2 = {raw_sum:.12g}, "
        f"v1-v2 = {raw_diff:.12g}",
    ]


def _coupled_coefficients(p):
    red_sum = _wrap((p["omega1"] + p["omega2"]) * p["t"])
    red_diff = _wrap((p["omega1"] - p["omega2"]) * p["t"])
    return [0.5 * (red_sum + red_diff), 0.5 * (red_sum - red_diff),
            p["mu"] ** 2 * p["t"], 0.0]


def _coupled_check(params):
    if params["p"] < params["q"]:
        raise ValueError("coupled requires penalties p >= q")


COUPLED = SystemSpec(
    "coupled", "two oscillators with position+momentum coupling",
    (Param("omega1", 2.0, positive=True), Param("omega2", 1.0, positive=True),
     Param("mu", 1.0, help="mode coupling"), _T,
     Param("q", 1.0, optional=True, positive=True, help="soft-direction penalty"),
     Param("p", 1.0, optional=True, help="hard-direction penalty")),
    "coupled_pq", "coupled_su2", _coupled, _coupled_coefficients,
    caveats=("penalties (q, p) shape the geodesic; the standard bound "
             "evaluates its length with unit weights",),
    check=_coupled_check)


# -- cubic oscillator -------------------------------------------------------

_POLE_CUBIC_DEN = ("1 + 2 cos(v1) = 0 (omega*t = +-2*pi/3 or +-4*pi/3 mod "
                   "4*pi): cubic coupling pole")
_POLE_CUBIC_COT = "omega*t = 2*pi (mod 4*pi): cot(v1/2) pole"
_NOTE_CUBIC = ("hard directions carry prohibitive penalties; velocities "
               "solve the reduced cubic system")


def _anharm_cubic(p, notes):
    lam_t = p["lam"] * p["t"]
    v1, branch = reduce_with_notes(p["omega"] * p["t"], notes)
    cos_v1 = math_call(math.cos, v1)
    den = 1.0 + 2.0 * cos_v1
    live = lam_t != 0.0
    poles = [(live & (abs(den) < POLE_TOL), _POLE_CUBIC_DEN),
             (live & (2 * math.pi - abs(v1) < POLE_TOL), _POLE_CUBIC_COT)]
    v0 = [v1,
          3.0 * lam_t * cos_v1 * x_cot_x(0.5 * v1) / den,
          0.0,
          1.5 * v1 * lam_t,
          3.0 * v1 * lam_t * math_call(math.sin, v1) / (2.0 * den)]
    return v0, branch, poles, [_NOTE_CUBIC]


ANHARM_CUBIC = SystemSpec(
    "anharm_cubic", "oscillator plus cubic position term",
    (_OMEGA, _LAM, _T,
     Param("g11", 1.0, optional=True, positive=True,
           help="penalty of the quadratic-energy direction"),
     Param("p", 100.0, optional=True, positive=True, help="hard-direction penalty")),
    "anharm_p", "anharm_elliptic", _anharm_cubic,
    lambda p: [_wrap(p["omega"] * p["t"]), p["lam"] * p["t"], 0.0, 0.0, 0.0],
    measure=lambda p, v0: anharm_measure(v0, p["g11"], p["p"]))


SYSTEMS: dict[str, SystemSpec] = {s.tag: s for s in (
    DISPLACEMENT, HO, HO_LINEAR, SP2_HO, IHO, HO_QUADRATIC, FREE_PARTICLE,
    COUPLED, ANHARM_CUBIC)}

# the names ``qc-bound bound`` accepts
CLI_NAMES: dict[str, SystemSpec] = {**SYSTEMS, "anharm": ANHARM_CUBIC}


# -- targets ----------------------------------------------------------------

@dataclass(frozen=True, init=False)
class TargetSpec:
    """Target unitary, identified by a system tag and its parameters.

    Build one with the constructor named after the system, e.g.
    ``TargetSpec.ho(omega, t)``, or as ``TargetSpec("ho", {"omega": omega,
    "t": t})``; the constructors follow ``SYSTEMS``.  Both routes run the
    same checks, once: the parameters by name, optional ones with their
    defaults, positivity, the system's own check, and finiteness (``inf``
    and ``nan`` raise ``ValueError``).  ``params`` holds the parameters
    cast to their types, in constructor order.  The two fields are the
    whole target, so it pickles and copies; ``spec`` looks the system's
    entry up in ``SYSTEMS`` on each read.
    """

    system: str
    params: dict

    def __init__(self, system: str, params: dict):
        if system not in SYSTEMS:
            raise Unsupported(
                f"unknown system {system!r}; choose from {tuple(SYSTEMS)}")
        _INIT[system](self, **params)

    @property
    def spec(self) -> SystemSpec:
        return SYSTEMS[self.system]

    def with_time(self, t: float) -> "TargetSpec":
        if "t" not in self.params:
            raise Unsupported(f"{self.system} has no time parameter to sweep")
        return TargetSpec(self.system, {**self.params, "t": float(t)})

    def family(self) -> ClosedFormFamily:
        return ClosedFormFamily(self.spec.family, **{
            k: v for k, v in self.params.items() if k in ("q", "p")})


def _generate(spec: SystemSpec):
    """``TargetSpec.<tag>`` and the initialiser of a target of ``spec``, as
    straight-line code (a generic binder costs a scalar ``bound`` about
    0.5 us more).  Both take the parameters in order, optional ones with
    their defaults, and carry the qualified name ``TargetSpec.<tag>``, so a
    missing or unknown parameter raises the same ``TypeError`` on either
    route.  The initialiser tests positivity in order, casts, runs
    ``spec.check``, tests finiteness in order, and sets the two fields."""
    ps = spec.params
    names = [p.name for p in ps]
    signature = ", ".join(
        f"{p.name}={p.default!r}" if p.optional else p.name for p in ps)
    lines = [f"def make(cls, {signature}):",
             "    self = _new(cls)",
             f"    init(self, {', '.join(names)})",
             "    return self",
             f"def init(self, {signature}):"]
    lines += [f"    if not {p.name} > 0: raise ValueError("
              f"f'{p.name} must be positive, got {{{p.name}!r}}')"
              for p in ps if p.positive]
    lines.append(f"    {', '.join(names)}, = " + "".join(
        f"{type(p.default).__name__}({p.name}), " for p in ps))
    lines.append("    params = {" + ", ".join(f"{n!r}: {n}" for n in names) + "}")
    if spec.check is not None:
        lines.append("    _check(params)")
    lines += [f"    if not {'cmath' if isinstance(p.default, complex) else 'math'}"
              f".isfinite({p.name}): raise ValueError("
              f"f'{p.name} must be finite, got {{{p.name}!r}}')" for p in ps]
    lines += [f"    _set(self, 'system', {spec.tag!r})",
              "    _set(self, 'params', params)"]
    scope = {"_check": spec.check, "math": math, "cmath": cmath,
             "_new": object.__new__, "_set": object.__setattr__}
    exec("\n".join(lines), scope)
    make, init = scope["make"], scope["init"]
    make.__qualname__ = init.__qualname__ = f"TargetSpec.{spec.tag}"
    make.__doc__ = f"Target: {spec.summary}."
    return classmethod(make), init


# the initialiser of each system's targets, by tag
_INIT: dict[str, Callable[..., None]] = {}
for _spec in SYSTEMS.values():
    _make, _INIT[_spec.tag] = _generate(_spec)
    setattr(TargetSpec, _spec.tag, _make)
