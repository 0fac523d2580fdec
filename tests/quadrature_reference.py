"""Reference for the cubic-oscillator length: the Gauss-Legendre quadrature
of its speed, independent of the elliptic reduction in
:func:`qcbound.anharm_length`.  The tests import it from here."""

import math

import numpy as np

from qcbound.bounds import _gauss_legendre, anharm_integrand_coeffs


def anharm_length_quadrature(v0, g11: float, p: float) -> float:
    """Gauss-Legendre evaluation of the cubic-oscillator length.

    The starting panels are about one period of the integrand wide.
    """
    v1 = float(v0[0])
    A, B, C = anharm_integrand_coeffs(v0, g11, p)

    def integrand(s):
        return np.sqrt((A + B * np.cos(4 * s * v1) + C * np.sin(4 * s * v1)) / 2.0)

    panels = math.ceil(abs(4 * v1) / (2 * math.pi)) if math.isfinite(v1) else 1
    return _gauss_legendre(integrand, epsabs=1e-13, epsrel=1e-11, panels=panels)
