"""Geodesic velocity equations on the registered algebras.

For a right-invariant metric with diagonal penalty matrix G the velocity
components of a geodesic obey

    G_II dV^I/ds = f_IJ^K V^J G_KK V^K         (sum over J, K),

a quadratic autonomous system on [0, 1].  Antisymmetry of f in (I, J) makes
the weighted speed  sum_I G_II V^I(s)^2  an exact constant of motion for any
antisymmetric table, truncated or not.

The module provides the generic right-hand side, a fixed-step fourth-order
integrator of that equation, and the closed-form solution families for the
systems where the equations decouple into rotations.  A numeric solution
is evaluated off its grid by a cubic Hermite interpolant through the grid
states and their exact slopes, the field at each state.  The integrator
writes those slopes as it goes (the first stage of each step is the field
at its state), so nothing is built afterwards and nothing but the states
and slopes is kept: each evaluation computes the coefficients of the
intervals it touches and no others (the module needs no SciPy).

``rhs``, ``solve_numeric`` and ``ClosedFormFamily.governing_rhs`` describe
their equation as a quadratic field: a coefficient table c_IJK and weights
w, folded into one symmetrised table S_IJK (J <= K) with
dV^I/ds = sum_{J<=K} S_IJK V^J V^K / w_I.  ``integrate_rk4`` takes
such a field and nothing else.  Its step exists twice, with the same
operations in the same order: as one generic C kernel over the field's
nonzero terms (``_rk4.c``, shipped beside this module), and as
straight-line Python float code generated from the kernel's operations,
one line per stage component, once per (table, weights, step).  Each
stage does what the field's ``einsum`` does, term by term and in the same
order: the sum of (S_IJK V^J) V^K over the nonzero (J, K) in lexicographic
order, from the first term, then the division by w_I (left out when w_I is
1.0); the update is the classical V + (h/6)(k1 + 2 (k2 + k3) + k4).  IEEE
arithmetic rounds each of these operations the same in C, numpy and
Python, so the states equal (``==``) those of a plain numpy RK4 loop over
``rhs``, which the tests keep as the reference.  A conserved component
(S_I all zero, e.g. V^E and V^H of ``ho4``) gets no stage, stage input or
update, since each would add 0.0 to its state; the stages read the state
itself.  The only trace of this is the sign of a zero: the numpy loop can
turn a conserved -0.0 into 0.0, the step keeps it.  The slope of a state
is its first stage's value written as a sum from 0.0, (0.0 + sum) / w_I:
the stage value, but 0.0 where the sum is a zero and for a conserved
component, as a numpy loop that adds the terms to a zero array writes it.
The Python step returns each chunk of rows, and of slopes, as one flat
list of floats, read by ``np.fromiter``.

The kernel gives the Python step's states and slopes, signs of zeros
included, in a tenth of the time or less, and also evaluates the Hermite
interpolant (``hermite_at``) as the numpy evaluator :func:`_numpy_hermite`
does, operation for operation; on the uniform grid it guesses a point's
interval from the point and binary-searches only where the grid refutes
the guess, so that it takes searchsorted's interval on any sorted grid.
The library is built and loaded by :mod:`._kernel`, and used here only
once it has written the Python step's states and slopes, and the numpy
evaluator's values, bit for bit on a test field (:func:`_kernel_agrees`);
else the Python step and the numpy evaluator run.

Every closed-form family is one :class:`TrigFamily`: the velocity is a
fixed mix of (1, cos w_1 s, sin w_1 s, cos w_2 s, ...) with coefficients
and frequencies taken from v0, and the exponent coefficients apply the same
mix to the integrals of those functions.  A closed-form solution's
evaluator is that :class:`TrigFamily` itself.  One ``_FAMILIES`` entry per
tag:

``ho4_equal_penalty``    (V^P, V^Q) rotate at rate v_H + v_E
``sp2_J_equal_penalty``  (V^1, V^2) rotate at rate 4 v_3
``coupled_pq``           (V^3, V^4) rotate at rate (p - 2q)(v_1 - v_2)/p
``anharm_p``             (V^4..V^7) mix rates v_1 and 3 v_1; solves the
                         prohibitive-penalty reduction of the cubic system
                         (``_ANHARM_REDUCED``), so its speed is not constant
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import _kernel
from .algebra import LieAlgebraSpec, builtin
from .errors import DimMismatch, FamilyMismatch, NumericBlowup

__all__ = [
    "PenaltyMatrix",
    "VelocitySolution",
    "ClosedFormFamily",
    "TrigFamily",
    "int_cos",
    "int_sin",
    "rhs",
    "integrate_rk4",
    "solve_numeric",
    "solve_closed_form",
    "DEFAULT_STEP",
]

DEFAULT_STEP = 2.0e-4
MAX_STEP = 1.0e-2
MIN_STEP = 1.0e-6       # at most a million steps: 8 MB of states per component


@dataclass(frozen=True)
class PenaltyMatrix:
    """Diagonal positive penalty weights, aligned with the generator order;
    at least one (else ``DimMismatch``)."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or not len(w):
            raise DimMismatch("penalty weights must be a non-empty vector")
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


@dataclass(frozen=True)
class VelocitySolution:
    """Velocity field V^I(s) of a geodesic on [0, 1].

    ``evaluator`` accepts a scalar or 1-d array of s values and returns the
    velocity components, shape (dim,) or (n, dim).  A closed form's
    evaluator is its :class:`TrigFamily`, which also gives its
    antiderivative; a numeric solution carries its RK4 ``grid``, ``states``
    and ``slopes`` (the field at each state, written by the integrator),
    and its evaluator is the Hermite interpolant through them, which keeps
    nothing else.  ``v0`` is the solver's own copy; it and the arrays are
    read-only.  The penalties that shaped the solution are not kept on
    it: ``bounds.length(sol, G)`` takes them as its own argument and
    measures the solution's speed under them, whatever penalties it was
    solved at.
    """

    algebra: str
    v0: np.ndarray
    evaluator: Callable[[np.ndarray], np.ndarray]
    grid: np.ndarray | None = None
    states: np.ndarray | None = None
    slopes: np.ndarray | None = None

    def __call__(self, s):
        return self.evaluator(s)


@dataclass(frozen=True)
class ClosedFormFamily:
    """Tag (plus parameters) selecting one analytic solution family; a
    ``q`` or ``p`` other than 1.0 that it does not take is refused, and its
    :meth:`default_penalties` are checked and kept when it is built."""

    tag: str
    q: float = 1.0
    p: float = 1.0
    _penalties: PenaltyMatrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        entry = _FAMILIES.get(self.tag)
        if entry is None:
            raise FamilyMismatch(
                f"unknown family {self.tag!r}; choose from {sorted(_FAMILIES)}"
            )
        for k in ("q", "p"):
            if k not in entry.takes and getattr(self, k) != 1.0:
                raise FamilyMismatch(f"{self.tag} takes no penalty {k}, got "
                                     f"{k}={getattr(self, k)!r}")
        object.__setattr__(self, "_penalties", PenaltyMatrix.diagonal(
            entry.penalties(self.q, self.p)))

    @property
    def algebra_name(self) -> str:
        return _FAMILIES[self.tag].algebra

    @property
    def constant_speed(self) -> bool:
        """Constant speed under :meth:`default_penalties` (its own table)."""
        return _FAMILIES[self.tag].table is None

    def default_penalties(self) -> PenaltyMatrix:
        return self._penalties

    def governing_rhs(self):
        """Right-hand side of the ODE system this family actually solves,
        under its default penalties."""
        table = _FAMILIES[self.tag].table
        if table is not None:
            return _QuadraticField(table, np.ones(len(table)))
        return _QuadraticField(builtin(self.algebra_name).f,
                               self.default_penalties().weights)


def rhs(algebra: LieAlgebraSpec, G: PenaltyMatrix, V) -> np.ndarray:
    """dV/ds of the geodesic velocity equation at state V."""
    V = np.asarray(V, dtype=float)
    if V.shape != (algebra.dim,):
        raise DimMismatch(f"state must have shape ({algebra.dim},), got {V.shape}")
    return _QuadraticField(algebra.f, G.weights)(V)


class _QuadraticField:
    """The quadratic field dV_i/ds = sum_jk c_ijk V_j (w_k V_k) / w_i.

    The field is held as one symmetrised table S with the weights folded
    in: S_ijk = c_ijk w_k + c_ikj w_j for j < k, S_ijj = c_ijj w_j and 0 for
    j > k, so that dV_i/ds = sum_jk S_ijk V_j V_k / w_i.  The (j, k) and
    (k, j) terms share one product, and terms that cancel exactly (the
    antisymmetric part under equal weights) are zeros of S.  Calling the
    field evaluates that sum with ``einsum``, which :func:`rhs` returns;
    :func:`integrate_rk4` instead runs the C kernel ``_rk4.c`` or its
    generated Python twin (:func:`_compile_rk4`), over the same nonzero
    terms, which round exactly as that ``einsum`` does, and writes the
    field at each state as it goes.
    The compiled step leaves out the zeros of S, which ``einsum``
    multiplies out; that changes nothing while the state is finite, and
    the first non-finite row is the same unless a stage state overflows in
    a component that no nonzero S_ijk reads.  A component i whose row S_i
    is all zero is conserved: the compiled step carries its state through
    unchanged (keeping the sign of a -0.0, which a numpy loop may drop).
    A field has at least one component (else ``DimMismatch``).
    """

    __slots__ = ("S", "w")

    def __init__(self, c, w):
        c = np.array(c, dtype=float)
        w = np.array(w, dtype=float)
        d = len(w)
        if not d or w.shape != (d,) or c.shape != (d, d, d):
            raise DimMismatch(f"table {c.shape} does not fit weights {w.shape}")
        if not (np.isfinite(c).all() and np.isfinite(w).all() and (w > 0).all()):
            raise ValueError("field coefficients must be finite, weights positive")
        with np.errstate(over="ignore", invalid="ignore"):
            W = c * w
            S = np.triu(W + W.transpose(0, 2, 1), 1)
        diag = np.arange(d)
        S[:, diag, diag] = W[:, diag, diag]
        if not np.isfinite(S).all():
            raise ValueError("field coefficients overflow: c_ijk w_k is not finite")
        S.setflags(write=False)
        w.setflags(write=False)
        self.S, self.w = S, w

    def __call__(self, V):
        return np.einsum("ijk,j,k->i", self.S, V, V) / self.w


def _stage_source(S, w, u, out, sums=None):
    """Lines computing ``out_i`` = field(u)_i, the C kernel's ``stage()``
    written out: for each component i with terms, in ``np.nonzero(S)``
    order, the sum of (S_ijk u_j) u_k from its first term, divided by w_i
    unless w_i is 1.0.  With ``sums``, that sum is first named
    ``{sums}{i}`` and then divided, so that the slope can test it.  A
    component without terms is conserved and gets no line."""
    lines = []
    for i in range(len(w)):
        j, k = np.nonzero(S[i])
        if not len(j):
            continue
        expr = " + ".join(f"{c!r}*{u[a]}*{u[b]}"
                          for c, a, b in zip(S[i, j, k].tolist(), j, k))
        if w[i] == 1.0:
            lines.append(f"{out}{i} = {expr}")
        elif sums is None:
            lines.append(f"{out}{i} = ({expr})/{float(w[i])!r}")
        else:
            lines += [f"{sums}{i} = {expr}", f"{out}{i} = {sums}{i}/{float(w[i])!r}"]
    return lines


@functools.lru_cache(maxsize=32)
def _compile_rk4(table: bytes, weights: bytes, hs: float):
    """Generate and compile ``rows(v, count)`` for one (table, weights, step).

    ``rows`` returns the ``count`` RK4 states after the state ``v`` and the
    ``count + 1`` slopes at ``v`` and at each of them, as two flat lists,
    row after row.

    The step body is straight-line float code that performs the C kernel's
    (``_rk4.c``) operations one for one and in its order: four stages from
    :func:`_stage_source` and the classical RK4 update
    v + (h/6)(a + 2 (b + e) + k), written out per component.  A conserved
    component (its row of S is all zero) has stage values 0.0, so its stage
    inputs and its update are its state: the step computes no stage, stage
    input or update for it, and the stages read its state.  A numpy loop
    adds those zeros, which can turn a -0.0 into 0.0; the states stay
    ``==``.  The slope of a state is its first stage ``a``, but 0.0 where
    the sum is a zero and for a conserved component: (0.0 + sum) / w_i.
    After the last step one more first stage gives the last slope.
    The source holds only identifiers and the reprs of finite floats, which
    read back as the same doubles.

    This step is the reference of the C kernel, which must write its states
    and slopes bit for bit before :func:`integrate_rk4` uses it, and the
    integrator wherever that kernel is not available.
    """
    w = np.frombuffer(weights)
    d = len(w)
    S = np.frombuffer(table).reshape(d, d, d)
    moving = [i for i in range(d) if S[i].any()]
    half, sixth = 0.5 * hs, hs / 6.0
    v = [f"v{i}" for i in range(d)]
    slope = [f"a{i} if {'a' if w[i] == 1.0 else 'x'}{i} else 0.0"
             if i in moving else "0.0" for i in range(d)]
    first = _stage_source(S, w, v, "a", sums="x") + [f"derive(({', '.join(slope)},))"]
    body = list(first)
    for prev, scale, u, out in (("a", half, "p", "b"), ("b", half, "q", "e"),
                                ("e", hs, "r", "k")):
        body += [f"{u}{i} = v{i} + {scale!r}*{prev}{i}" for i in moving]
        body += _stage_source(
            S, w, [f"{u}{i}" if i in moving else v[i] for i in range(d)], out)
    body += [f"v{i} = v{i} + {sixth!r}*(a{i} + 2.0*(b{i} + e{i}) + k{i})"
             for i in moving]
    state = ", ".join(v) + ","
    src = "\n".join(
        ["def rows(v, count):", f"    {state} = v",
         "    out = []", "    extend = out.extend",
         "    slopes = []", "    derive = slopes.extend", "    for _ in range(count):"]
        + [f"        {line}" for line in body]
        + [f"        extend(({state}))"]
        + [f"    {line}" for line in first]
        + ["    return out, slopes"])
    namespace = {}
    exec(compile(src, f"<rk4 step, dim {d}>", "exec"), namespace)
    return namespace["rows"]


# rows per chunk of the compiled Python step: one finiteness check each
_CHUNK_ROWS = 256


def _python_rows(field, hs: float, states: np.ndarray, slopes) -> int:
    """Fill ``states[1:]`` from ``states[0]``, and ``slopes`` (unless None)
    with the field at each state, with the field's generated Python step
    (:func:`_compile_rk4`), a chunk of rows at a time; stops after the
    first chunk with a non-finite row and returns the number of rows
    written, row 0 included."""
    rows = _compile_rk4(field.S.tobytes(), field.w.tobytes(), hs)
    d = states.shape[1]
    state = states[0].tolist()
    for start in range(1, len(states), _CHUNK_ROWS):
        block = states[start:start + _CHUNK_ROWS]
        chunk, derivs = rows(state, len(block))
        block[...] = np.fromiter(chunk, float, block.size).reshape(block.shape)
        if slopes is not None:
            # the slope at the block's first state: the previous block's last
            slopes[start - 1:start + len(block)] = np.fromiter(
                derivs, float, len(derivs)).reshape(-1, d)
        if not np.isfinite(block).all():
            return start + len(block)
        state = chunk[-d:]
    return len(states)


def _kernel_rows(kernel, field, hs: float, states: np.ndarray, slopes) -> int:
    """:func:`_python_rows` run by the C kernel ``rk4_rows`` (``_rk4.c``),
    which stops after the first non-finite row."""
    d = len(field.w)
    i, j, k = np.nonzero(field.S)
    start = np.searchsorted(i, np.arange(d + 1)).astype(np.intc)
    s = field.S[i, j, k]
    j, k = j.astype(np.intc), k.astype(np.intc)
    work = np.empty(5 * d)
    slopes_at = None if slopes is None else slopes.ctypes.data
    return kernel.rk4_rows(d, start.ctypes.data, j.ctypes.data, k.ctypes.data,
                           s.ctypes.data, field.w.ctypes.data, hs, len(states) - 1,
                           states.ctypes.data, slopes_at, work.ctypes.data)


def _numpy_hermite(grid, states, slopes, s):
    """The cubic Hermite interpolant through ``states`` and ``slopes`` on
    ``grid`` at the 1-d array of finite ``s``, each clipped to [0, 1].

    Only the intervals that ``s`` falls in are formed: their coefficients,
    with SciPy's ``CubicHermiteSpline`` operations in its order (each one
    elementwise, so an interval's coefficients do not depend on which
    others are formed), and its power-sum evaluation
    c0 + c1 d + c2 d^2 + c3 (d^2 d).  The C kernel's ``hermite_at`` is its
    twin.
    """
    s = np.clip(s, 0.0, 1.0)
    i = np.clip(np.searchsorted(grid, s, side="right") - 1, 0, len(grid) - 2)
    x0 = grid[i]
    dx = (grid[i + 1] - x0)[:, None]
    y0, k0 = states[i], slopes[i]
    slope = (states[i + 1] - y0) / dx
    t = (k0 + slopes[i + 1] - 2 * slope) / dx
    d = (s - x0)[:, None]
    z = d * d
    return y0 + k0 * d + ((slope - k0) / dx - t) * z + t / dx * (z * d)


def _kernel_hermite(kernel, grid, states, slopes, s, at=None):
    """:func:`_numpy_hermite` run by the C kernel ``hermite_at``.  ``at``
    holds the pointers of ``grid``, ``states`` and ``slopes`` when the
    caller has taken them (each ``ctypes.data`` costs about a microsecond)."""
    s = np.ascontiguousarray(s)
    out = np.empty((len(s), states.shape[1]))
    if at is None:
        at = (grid.ctypes.data, states.ctypes.data, slopes.ctypes.data)
    kernel.hermite_at(states.shape[1], len(grid) - 1, *at, len(s),
                      s.ctypes.data, out.ctypes.data)
    return out


def _kernel_agrees(kernel) -> bool:
    """Whether ``kernel`` writes the Python step's states and slopes, and
    the numpy evaluator's values, bit for bit, on a field with non-unit
    weights, negative coefficients and a conserved component (V^3), which
    is -0.0 in one of the two runs; the values at -0.0, the ends, every
    grid point, points between them and points outside [0, 1], on the
    uniform grid and on a non-uniform one, where the kernel's interval
    guess fails and it searches."""
    c = np.zeros((4, 4, 4))
    c[0, 1, 2], c[0, 2, 3], c[0, 3, 3] = 1.5, -0.75, 0.25
    c[1, 0, 2], c[1, 3, 1] = -1.0, 2.0
    c[2, 0, 1], c[2, 1, 3], c[2, 2, 2] = 0.5, -3.0, -0.125
    field = _QuadraticField(c, [1.0, 0.5, 2.0, 3.0])
    grid = np.linspace(0.0, 1.0, 101)
    s = np.concatenate([[-0.0, 0.0, 1.0, -0.5, 1.5], grid, np.linspace(-0.1, 1.1, 97)])
    for v0 in ([0.3, -0.7, 1.1, -0.4], [-0.0, 0.9, 0.0, -0.0]):
        want, got, want_slopes, got_slopes = np.zeros((4, 101, 4))
        want[0] = got[0] = v0
        if (_python_rows(field, 0.01, want, want_slopes)
                != _kernel_rows(kernel, field, 0.01, got, got_slopes)
                or want.tobytes() != got.tobytes()
                or want_slopes.tobytes() != got_slopes.tobytes()):
            return False
        for points in (grid, grid * grid):
            if (_numpy_hermite(points, want, want_slopes, s).tobytes()
                    != _kernel_hermite(kernel, points, got, got_slopes, s).tobytes()):
                return False
    return True


def _check_finite(v0: np.ndarray) -> None:
    if not np.isfinite(v0).all():
        raise ValueError(f"v0 must be finite, got {v0}")


def integrate_rk4(field, v0, h: float):
    """Classical fixed-step RK4 of a quadratic field on s in [0, 1];
    returns (s_grid, states).

    ``field`` is a quadratic field, as ``ClosedFormFamily.governing_rhs``
    returns and ``solve_numeric`` builds; anything else is a ``TypeError``.
    ``h`` must be a real number (not a bool) with ``MIN_STEP`` <= h <=
    ``MAX_STEP``, and ``v0`` must be finite (``ValueError``) and 1-d with
    the field's dimension (``DimMismatch``); all are checked before
    anything is allocated.

    The states come from the C kernel ``_rk4.c`` when this process has one
    that passes :func:`_kernel_agrees`, else from the field's generated
    Python step (:func:`_compile_rk4`); the two give the same doubles.  The first row
    with a non-finite component raises ``NumericBlowup`` at its s.
    """
    grid, states, _ = _integrate(field, v0, h, keep_slopes=False)
    return grid, states


def _integrate(field, v0, h: float, keep_slopes: bool):
    """:func:`integrate_rk4`, which returns (s_grid, states), plus the
    slopes the step writes, the field at each state, or None for them
    unless ``keep_slopes`` (the C kernel then writes none)."""
    if not isinstance(field, _QuadraticField):
        raise TypeError(f"integrate_rk4 takes a quadratic field, such as "
                        f"ClosedFormFamily.governing_rhs(), not "
                        f"{type(field).__name__}")
    if (isinstance(h, bool) or not isinstance(h, numbers.Real)
            or not (MIN_STEP <= h <= MAX_STEP)):
        raise ValueError(f"step size must be a real number with "
                         f"{MIN_STEP} <= h <= {MAX_STEP}, got {h!r}")
    V = np.array(v0, dtype=float)
    if V.ndim != 1:
        raise DimMismatch(f"v0 must be a vector, got shape {V.shape}")
    _check_finite(V)
    d = len(field.w)
    if len(V) != d:
        raise DimMismatch(f"state has dim {len(V)}, field has {d}")
    n = int(round(1.0 / h))
    hs = 1.0 / n
    grid = np.linspace(0.0, 1.0, n + 1)
    if keep_slopes:
        # one allocation for both, which the allocator reuses as one block
        states, slopes = np.empty((2, n + 1, d))
    else:
        states, slopes = np.empty((n + 1, d)), None
    states[0] = V
    kernel = _kernel.checked(_kernel_agrees)
    if kernel is not None:
        filled = _kernel_rows(kernel, field, hs, states, slopes)
    else:
        filled = _python_rows(field, hs, states, slopes)
    if not np.isfinite(states[:filled]).all():
        bad = int(np.argmin(np.isfinite(states[:filled]).all(axis=1)))
        raise NumericBlowup(
            f"non-finite state at s={grid[bad]:.6f}", s_reached=grid[bad])
    return grid, states, slopes


class _HermiteGrid:
    """Cubic Hermite interpolant through the RK4 grid states and their
    slopes, the field at each state, as the integrator wrote them.

    Holds those three arrays and nothing else: each call forms the
    coefficients of the intervals its points fall in, in the C kernel
    (``hermite_at``) when this process has one, else in numpy
    (:func:`_numpy_hermite`); the two give the same doubles.  ``s`` is a
    scalar or a 1-d array of finite values, clipped to [0, 1]; a
    non-finite or higher-dimensional ``s`` raises ``ValueError``.  The
    pointers the kernel reads the three arrays at are taken once, here.
    """

    __slots__ = ("grid", "states", "slopes", "at")

    def __init__(self, grid, states, slopes):
        self.grid, self.states, self.slopes = grid, states, slopes
        self.at = (grid.ctypes.data, states.ctypes.data, slopes.ctypes.data)

    def __call__(self, s):
        s_arr = np.asarray(s, dtype=float)
        if s_arr.ndim > 1:
            raise ValueError(f"s must be a scalar or a 1-d array, got shape "
                             f"{s_arr.shape}")
        if not np.isfinite(s_arr).all():
            raise ValueError("s must be finite, got a nan or an infinity")
        points = np.atleast_1d(s_arr)
        kernel = _kernel.checked(_kernel_agrees)
        if kernel is not None:
            out = _kernel_hermite(kernel, self.grid, self.states, self.slopes,
                                  points, self.at)
        else:
            out = _numpy_hermite(self.grid, self.states, self.slopes, points)
        return out[0] if s_arr.ndim == 0 else out


def solve_numeric(
    algebra: LieAlgebraSpec,
    G: PenaltyMatrix,
    v0,
    h: float = DEFAULT_STEP,
) -> VelocitySolution:
    """Integrate the velocity equation with fixed-step RK4.

    The grid states are kept on the solution so that downstream quadrature
    shares the integrator's discretization, and with them the slopes the
    integrator wrote, the field at each state.  Off-grid evaluation is the
    cubic Hermite spline through both (:class:`_HermiteGrid`): nothing is
    built after the solve and nothing else is kept, since each evaluation
    forms only the intervals it touches.  ``v0`` is copied, and the copy,
    the grid, the states and the slopes are read-only.
    """
    v0 = np.array(v0, dtype=float)
    field = _QuadraticField(algebra.f, G.weights)
    grid, states, slopes = _integrate(field, v0, h, keep_slopes=True)
    for a in (v0, grid, states, slopes):
        a.setflags(write=False)
    return VelocitySolution(algebra.name, v0, _HermiteGrid(grid, states, slopes),
                            grid, states, slopes)


def int_cos(s, w):
    """integral_0^s cos(w u) du = sin(w s)/w, regular at w = 0."""
    s = np.asarray(s, dtype=float)
    return s * np.sinc(w * s / np.pi)


def int_sin(s, w):
    """integral_0^s sin(w u) du = (1 - cos(w s))/w, regular at w = 0."""
    s = np.asarray(s, dtype=float)
    return s * np.sin(0.5 * w * s) * np.sinc(0.5 * w * s / np.pi)


class TrigFamily:
    """Velocity V(s) = mix . (1, cos w_1 s, sin w_1 s, cos w_2 s, sin w_2 s, ...).

    ``rates`` gives each frequency w = n r as a pair ``(n, r)``; the velocity
    rounds its phase as (n s) r.  ``mix`` holds one row per velocity
    component: its structurally nonzero ``(column, coefficient)`` entries,
    summed in that order, so a rotating pair costs two products and a sum.
    :meth:`antiderivative` applies the same ``mix`` to (s, int_cos(s, w_1),
    int_sin(s, w_1), ...): the exponent coefficients c(s) = integral_0^s V,
    regular where a rate vanishes.  Both take a scalar or a 1-d array of s
    and return shape (dim,) or (len(s), dim).
    """

    __slots__ = ("mix", "rates")

    def __init__(self, mix, rates):
        self.mix, self.rates = mix, rates

    def __call__(self, s):
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        basis = [1.0]
        for n, r in self.rates:
            x = n * s_arr * r
            basis += [np.cos(x), np.sin(x)]
        return self._mixed(basis, s)

    def antiderivative(self, s):
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        basis = [s_arr]
        for n, r in self.rates:
            basis += [int_cos(s_arr, n * r), int_sin(s_arr, n * r)]
        return self._mixed(basis, s)

    def _mixed(self, basis, s):
        out = np.empty((np.size(s), len(self.mix)))
        for i, ((k, a), *rest) in enumerate(self.mix):
            acc = a * basis[k]
            for k, a in rest:
                acc = acc + a * basis[k]
            out[:, i] = acc
        return out[0] if np.ndim(s) == 0 else out


# The reduced cubic system over (V1, V4, V5, V6, V7) as a unit-weight table,
# anharm5's without the V^1 row: dV4 = v1 V6, dV5 = -v1 V7,
# dV6 = 2 v1 V7 - 3 v1 V4, dV7 = 3 v1 V5 - 2 v1 V6.
_ANHARM_REDUCED = builtin("anharm5").f.copy()
_ANHARM_REDUCED[0] = 0.0


# Trigonometric mixing of the reduced cubic system: rows are the components
# (V4, V5, V6, V7), the middle axis indexes the initial values (v4, v5, v6,
# v7) and the last axis the basis functions (cos s v1, sin s v1, cos 3 s v1,
# sin 3 s v1), everything divided by 4.
_ANHARM_MIX = 0.25 * np.array([
    # cos1 sin1 cos3 sin3      component V4
    [[3, 0, 1, 0], [0, 3, 0, -1], [0, 1, 0, 1], [1, 0, -1, 0]],
    # component V5
    [[0, -3, 0, 1], [3, 0, 1, 0], [1, 0, -1, 0], [0, -1, 0, -1]],
    # component V6
    [[0, -3, 0, -3], [3, 0, -3, 0], [1, 0, 3, 0], [0, -1, 0, 3]],
    # component V7
    [[3, 0, -3, 0], [0, 3, 0, 3], [0, 1, 0, -3], [1, 0, 3, 0]],
], dtype=float)


def _anharm_trig(v, q, p):
    """V^1 = v1; V^4..V^7 mix cos and sin at v1 and 3 v1 (``_ANHARM_MIX``)."""
    rows = (np.asarray(v[1:]) @ _ANHARM_MIX).tolist()
    return TrigFamily((((0, v[0]),),) + tuple(tuple(enumerate(row, 1)) for row in rows),
                      ((1, v[0]), (3, v[0])))


class _Family(NamedTuple):
    """One closed-form family: its algebra, the penalty parameters it
    ``takes`` (of q and p), its penalties ``(q, p) -> weights``, its
    ``trig`` construct ``(v0, q, p)``, and the unit-weight ``table`` it
    solves when that is not the algebra's."""

    algebra: str
    takes: tuple[str, ...]
    penalties: Callable[[float, float], list]
    trig: Callable[..., TrigFamily]
    table: np.ndarray | None = None


_FAMILIES = {
    "ho4_equal_penalty": _Family(
        "ho4", (), lambda q, p: [1.0] * 4,
        lambda v, q, p: TrigFamily(
            (((0, v[0]),), ((1, v[1]), (2, -v[2])), ((1, v[2]), (2, v[1])),
             ((0, v[3]),)),
            ((1, v[3] + v[0]),))),
    "sp2_J_equal_penalty": _Family(
        "sp2_J", (), lambda q, p: [1.0] * 3,
        lambda v, q, p: TrigFamily(
            (((1, v[0]), (2, -v[1])), ((1, v[1]), (2, v[0])), ((0, v[2]),)),
            ((1, 4.0 * v[2]),))),
    "coupled_pq": _Family(
        "coupled_M4", ("q", "p"), lambda q, p: [q, q, p, p],
        lambda v, q, p: TrigFamily(
            (((0, v[0]),), ((0, v[1]),), ((1, v[2]), (2, v[3])),
             ((1, v[3]), (2, -v[2]))),
            ((1, (p - 2.0 * q) * (v[0] - v[1]) / p),))),
    # hard components feed back on V^1 only through dropped terms, so the
    # penalty-weighted speed is not an exact invariant here
    "anharm_p": _Family(
        "anharm5", ("p",), lambda q, p: [1.0, p, p, p, p], _anharm_trig,
        table=_ANHARM_REDUCED),
}


def solve_closed_form(family: ClosedFormFamily, v0) -> VelocitySolution:
    """Analytic velocity solution for one of the decoupling families.

    Each family is solved at its own penalties,
    ``family.default_penalties()``: unit weights for ``ho4`` and ``sp2_J``,
    diag(q, q, p, p) for ``coupled_pq`` and diag(1, p, p, p, p) for
    ``anharm_p``.  Other penalties take :func:`solve_numeric`.  ``v0`` is
    copied, and the copy is read-only.
    """
    entry = _FAMILIES[family.tag]
    dim = family.default_penalties().dim
    v0 = np.array(v0, dtype=float)
    if v0.shape != (dim,):
        raise FamilyMismatch(f"{family.tag} needs v0 of shape ({dim},), got {v0.shape}")
    _check_finite(v0)
    v0.setflags(write=False)
    return VelocitySolution(entry.algebra, v0,
                            entry.trig(v0.tolist(), family.q, family.p))
