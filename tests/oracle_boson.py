"""Independent quadrature oracle for the cavity Bogoliubov coefficients.

Everything here is built from first principles, independent of the closed
forms under test: the accelerated-cavity modes are obtained by numerically
integrating the radial equation (no Bessel evaluations, no expansions), the
Bogoliubov coefficients by numerical Klein-Gordon overlaps on the t = 0
surface, and the first-order coefficients by a finite difference in h.
`segment_first_order` is the exception: it takes the closed-form alpha1 and
beta1 as given and composes a segment's first-order blocks as dense
matrices, block by block, as the reference for `boson.first_order_entries`.

Conventions (delta = 1):
    inertial modes   phi_n = sin(n pi x) exp(-i w_n t) / sqrt(w_n),
                     w_n = sqrt(n^2 pi^2 + M^2), x = z - a in [0, 1]
    accelerated modes psi_m = N v(chi) exp(-i W eta); in y = log(chi/a) the
                     radial equation is v'' + (W^2 - M^2 a^2 e^(2y)) v = 0
    alpha[m, n] = -i int dz (psi_m dt conj(phi_n) - conj(phi_n) dt psi_m)
    beta[m, n]  = -(psi_m, conj(phi_n))
which on t = 0 reduce to weighted overlaps with weights (w_n + W_m / z) and
(w_n - W_m / z).
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq


def _radial_solution(omega, mass_a_sq, y_end, rtol=1e-13, atol=1e-16):
    """Integrate v'' + (omega^2 - mass_a_sq e^(2y)) v = 0, v(0)=0, v'(0)=1."""

    def rhs(y, state):
        v, dv = state
        return [dv, -(omega**2 - mass_a_sq * np.exp(2.0 * y)) * v]

    sol = solve_ivp(
        rhs, (0.0, y_end), [0.0, 1.0], method="DOP853", rtol=rtol, atol=atol, dense_output=True
    )
    if not sol.success:
        raise RuntimeError("radial integration failed")
    return sol


def rindler_frequency_and_mode(m, mass, h, rtol=1e-13):
    """(Omega_m, dense mode solution, y_end) of the accelerated cavity."""
    a = 1.0 / h - 0.5
    b = 1.0 / h + 0.5
    y_end = np.log(b / a)
    mass_a_sq = (mass * a) ** 2
    w_guess = np.sqrt((m * np.pi) ** 2 + mass**2) / y_end

    def endpoint(omega):
        return _radial_solution(omega, mass_a_sq, y_end, rtol=rtol).y[0][-1]

    lo, hi = w_guess * (1.0 - 0.25 / m), w_guess * (1.0 + 0.25 / m)
    flo, fhi = endpoint(lo), endpoint(hi)
    grow = 0
    while flo * fhi > 0:
        lo *= 0.98
        hi *= 1.02
        flo, fhi = endpoint(lo), endpoint(hi)
        grow += 1
        if grow > 60:
            raise RuntimeError("could not bracket the Rindler frequency")
    omega = brentq(endpoint, lo, hi, xtol=1e-12, rtol=8.9e-16)
    sol = _radial_solution(omega, mass_a_sq, y_end, rtol=rtol)
    return omega, sol, y_end


def bogoliubov_exact(m, n, mass, h):
    """(alpha_mn(h), beta_mn(h)) by numerical overlaps at finite h."""
    a = 1.0 / h - 0.5
    w_n = np.sqrt((n * np.pi) ** 2 + mass**2)
    omega_m, sol, y_end = rindler_frequency_and_mode(m, mass, h)

    # Rindler normalisation 2 Omega N^2 int v^2 dy = 1
    norm_sq, _ = quad(lambda y: sol.sol(y)[0] ** 2, 0.0, y_end, epsabs=1e-14, epsrel=1e-13, limit=400)
    n_rind = 1.0 / np.sqrt(2.0 * omega_m * norm_sq)
    n_mink = 1.0 / np.sqrt(w_n)

    def overlap(weight_sign):
        def f(x):
            z = a + x
            y = np.log(z / a)
            v = sol.sol(y)[0]
            weight = w_n + weight_sign * omega_m / z
            return weight * v * np.sin(n * np.pi * x)

        val, _ = quad(f, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=400)
        return val

    alpha = n_rind * n_mink * overlap(+1.0)
    beta = n_rind * n_mink * overlap(-1.0)
    return alpha, beta


def first_order_oracle(m, n, mass, h=1e-4):
    """First-order coefficients via the finite difference alpha(h)/h.

    For m + n odd the expansion is odd in h, so the one-sided ratio already
    carries only an O(h^2) relative error.
    """
    alpha, beta = bogoliubov_exact(m, n, mass, h)
    return alpha / h, beta / h


def segment_first_order(config, segment):
    """Dense first-order blocks (A1, B1) of a segment, each block's h_j inside.

    The block-by-block reference for `boson.first_order_entries`.  Free
    evolution is diagonal, so the zero-order phases before and after block j
    act as row and column factors on its derivative.
    """
    n = config.n_max
    omega = np.sqrt((np.arange(1, n + 1) * np.pi) ** 2 + config.mass**2)
    alpha, beta = config.coeffs.alpha1, config.coeffs.beta1
    zero = np.array([np.exp(1j * omega * tau) for _, tau in segment.blocks])
    a1 = np.zeros((n, n), dtype=complex)
    b1 = np.zeros((n, n), dtype=complex)
    for j, (h_j, _) in enumerate(segment.blocks):
        g = zero[j]
        pre, post = np.prod(zero[:j], axis=0), np.prod(zero[j + 1 :], axis=0)
        d_a = g[:, None] * alpha - alpha * g[None, :]
        d_b = beta * g.conj()[None, :] - g[:, None] * beta
        a1 += h_j * (post[:, None] * d_a * pre[None, :])
        b1 -= h_j * (post[:, None] * d_b * pre.conj()[None, :])
    return a1, b1
