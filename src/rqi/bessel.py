"""Modified Bessel function K of imaginary order.

K_{i nu}(x) weights the accelerated-detector rates of `rqi.udw`.  It is the
trapezoid sum of its integral representation: exp(-x cosh t) cos(nu t) is
analytic in a strip about the real axis and decays doubly exponentially, so
the plain trapezoidal rule converges exponentially in 1/step (Trefethen &
Weideman, "The exponentially convergent trapezoidal rule", SIAM Review 56,
2014).  cosh t and cos(nu t) on the nodes t_i = i K_STEP, and a work buffer
of their size for the integrand, are kept for the last order met, grown to the
longest support met at it: a 3+1 rate evaluates K thousands of times at one
order.  The box-pair spectrum's referee, the I_{i nu} series and the
accelerated-cavity root finder, is in `tests/oracle_rindler.py`.
"""

from __future__ import annotations

import math
import sys

import numpy as np

# trapezoid step in t; the rule's error falls like exp(pi nu / 2 - pi^2 / K_STEP)
K_STEP = 0.05
# below this argument cosh t overflows inside the integrand's support
K_X_MIN = 45.0 * math.e / sys.float_info.max
_NODES = {"nu": math.nan, "cosh": np.empty(0), "cos": np.empty(0), "work": np.empty(0)}  # see the module docstring


def bessel_K_imag_order(nu, x):
    """K_{i nu}(x) = int_0^inf exp(-x cosh t) cos(nu t) dt, a float: one trapezoid sum over the kept nodes.

    Refuses a non-finite order or argument, and x < K_X_MIN (about 6.8e-307), where cosh t overflows."""
    nu, x = float(nu), float(x)
    if not (math.isfinite(nu) and math.isfinite(x)):
        raise ValueError(f"order and argument must be finite, got nu = {nu!r}, x = {x!r}")
    if not x >= K_X_MIN:
        raise ValueError(f"argument must be positive and at least {K_X_MIN:.3g}, got x = {x!r}")
    # integrand support: exp(-x cosh t) < 1e-19 once x cosh t > x + 45; n nodes, as np.arange(0, stop, K_STEP)
    n = math.ceil((math.acosh(1.0 + 45.0 / x) + 1.0) / K_STEP)
    if _NODES["nu"] != nu or _NODES["cosh"].size < n:
        t = np.arange(n) * K_STEP
        _NODES.update(nu=nu, cosh=np.cosh(t), cos=np.cos(nu * t), work=np.empty(n))
    f = _NODES["work"][:n]
    np.exp(np.multiply(_NODES["cosh"][:n], -x, out=f), out=f)
    np.multiply(f, _NODES["cos"][:n], out=f)
    return float(K_STEP * (np.add.reduce(f) - 0.5 * f[0]))  # weight 1/2 at t = 0
