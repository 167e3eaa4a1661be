"""Modified Bessel function K of imaginary order.

K_{i nu}(x) weights the accelerated-detector rates of `rqi.udw`; it is
evaluated from its real integral representation.  The I_{i nu} series and the
accelerated-cavity root finder serve as the test referee for the box-pair
spectrum, in `tests/oracle_rindler.py`.
"""

from __future__ import annotations

import math

from scipy.integrate import quad


# absolute and relative tolerance of the K_{i nu} integral
K_QUAD_TOL = 1e-11


def bessel_K_imag_order(nu, x):
    """K_{i nu}(x) = int_0^inf exp(-x cosh t) cos(nu t) dt, a float; the integrand takes one float at a time."""
    nu, x = float(nu), float(x)
    if not (math.isfinite(nu) and math.isfinite(x)):
        raise ValueError(f"order and argument must be finite, got nu = {nu!r}, x = {x!r}")
    if x <= 0:
        raise ValueError("argument must be positive")
    # integrand support: exp(-x cosh t) is negligible once x cosh t > x + 40
    t_max = math.acosh(1.0 + 45.0 / x) + 1.0
    val, err = quad(
        lambda t: math.exp(-x * math.cosh(t)) * math.cos(nu * t),
        0.0,
        t_max,
        epsabs=K_QUAD_TOL,
        epsrel=K_QUAD_TOL,
        limit=200,
    )
    if not err <= 100 * max(K_QUAD_TOL, abs(val) * K_QUAD_TOL):  # a NaN error fails too
        raise RuntimeError("K integral failed to converge")
    return val
