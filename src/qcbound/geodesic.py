"""Exponent coefficients of the evolving unitary along a geodesic.

Truncating the time-ordered exponential at leading order writes the group
element as a single exponential U(s) = exp(-i sum_I c_I(s) O_I) whose
coefficients are plain integrals of the velocity components,

    c_I(s) = integral_0^s V^I(s') ds'.

Everything downstream of this truncation is an upper bound, not an exact
complexity.  A closed-form solution integrates analytically through its
evaluator's ``TrigFamily.antiderivative`` (sinc-type limits built in, so
vanishing rates are regular); a numeric solution has no coefficients here.

The product-form parametrization
U = e^{-i a1 E} e^{-i a2 P} e^{-i a3 Q} e^{-i a4 H} is provided for the
four-generator oscillator group as an exact alternative (no Dyson
truncation), valid for vanishing central velocity.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import FamilyMismatch, UnsupportedCenterVelocity
from .euler_arnold import TrigFamily, VelocitySolution

__all__ = [
    "leading_order_coeffs",
    "product_form_coeffs_ho4",
    "residual_product_form",
]


def leading_order_coeffs(sol: VelocitySolution) -> Callable:
    """The exponent coefficients c(s) of ``sol``, as a function of s.

    The function takes a scalar or 1-d array of s and returns shape (dim,)
    or (len(s), dim).  It is the antiderivative of the closed form that
    evaluates ``sol``; a numeric solution raises :class:`FamilyMismatch`.
    """
    if isinstance(sol.evaluator, TrigFamily):
        return sol.evaluator.antiderivative
    raise FamilyMismatch("leading-order coefficients need a closed-form solution")


def product_form_coeffs_ho4(v0) -> Callable:
    """Exact ordered-product coefficients (a1..a4) for the oscillator group,
    as a function of s shaped like :func:`leading_order_coeffs`'s.

    Requires v_E = 0; the central generator only contributes a phase and the
    parametrization is solved with it switched off.
    """
    v0 = np.asarray(v0, dtype=float)
    if v0.shape != (4,):
        raise FamilyMismatch(f"expected a 4-component v0, got shape {v0.shape}")
    vE, vP, vQ, vH = v0
    if vE != 0.0:
        raise UnsupportedCenterVelocity(
            f"product form requires v_E = 0, got v_E = {vE:g}"
        )

    def fn(s):
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        c, sn = np.cos(s_arr * vQ), np.sin(s_arr * vQ)
        c2, sn2 = np.cos(2 * s_arr * vQ), np.sin(2 * s_arr * vQ)
        a1 = 0.25 * s_arr ** 2 * ((vP ** 2 - vQ ** 2) * sn2 + 2 * vP * vQ * c2)
        a2 = s_arr * (vP * c - vQ * sn)
        a3 = s_arr * (vP * sn + vQ * c)
        a4 = s_arr * vH
        out = np.column_stack([a1, a2, a3, a4])
        return out[0] if np.ndim(s) == 0 else out
    return fn


def residual_product_form(coeffs: Callable,
                          sol: VelocitySolution, s_grid) -> float:
    """Max defect of the product-form coefficient ODEs on a grid.

    Derivatives are taken by a fourth-order central stencil with step
    1e-4 (noise floor ~1e-12); the coefficient functions are entire, so
    endpoint evaluation is safe.
    """
    eps = 1.0e-4
    if sol.algebra != "ho4":
        raise FamilyMismatch("product-form residual is defined for ho4 only")
    _, vP, vQ, vH = sol.v0
    s = np.atleast_1d(np.asarray(s_grid, dtype=float))
    a = np.atleast_2d(coeffs(s))
    da = (
        np.atleast_2d(coeffs(s - 2 * eps))
        - 8 * np.atleast_2d(coeffs(s - eps))
        + 8 * np.atleast_2d(coeffs(s + eps))
        - np.atleast_2d(coeffs(s + 2 * eps))
    ) / (12 * eps)
    c, sn = np.cos(s * vQ), np.sin(s * vQ)
    a1, a2, a3, a4 = a.T
    r1 = da[:, 0] - (a2 * vP * sn + a2 * vQ * c + 0.5 * a2 ** 2 * vQ - 0.5 * a3 ** 2 * vQ)
    r2 = da[:, 1] - (vP * c - vQ * sn - a3 * vQ)
    r3 = da[:, 2] - (vP * sn + vQ * c + a2 * vQ)
    r4 = da[:, 3] - vH
    return float(np.max(np.abs(np.column_stack([r1, r2, r3, r4]))))
