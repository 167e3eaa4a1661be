"""Bessel-function referee for the accelerated-box spectrum of `rqi.boxpair`.

Rob's x-direction modes solve the modified Bessel equation of imaginary order
i*Omega; the boundary condition turns into a root-finding problem for

    F(Omega) = Im[ conj(I_{i Omega}(kappa chi-)) I_{i Omega}(kappa chi+) ].

Everything here is independent of the library's finite-difference solve in
y = log(chi): I is summed from its power series, with log-space scaling so
that large order or argument never overflows, and the roots are bracketed by
a scan and refined by Brent's method.  Only the sign fix and the Klein-Gordon
normalisation are shared, through `RindlerBoxSpectrum.from_modes`.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq
from scipy.special import loggamma

from rqi import boxpair


# power-series cap and relative size of the last kept term for I_{i nu}
I_MAX_TERMS = 2000
I_TAIL_TOL = 1e-16
# absolute tolerance on the Rindler frequencies
ROOT_XTOL = 1e-10


def bessel_I_imag_order_scaled(nu, x):
    """I_{i nu}(x) as (mantissa, log_scale) with value = mantissa * exp(log_scale).

    Power series sum_k (x/2)^(2k + i nu) / (k! Gamma(k + 1 + i nu)); all terms
    are evaluated in log space and rescaled by the largest one, so the routine
    stays finite for large order and argument.
    """
    if x <= 0:
        raise ValueError("argument must be positive")
    lx = np.log(x / 2.0)
    k = np.arange(I_MAX_TERMS)
    logs = (2 * k + 1j * nu) * lx - loggamma(k + 1.0) - loggamma(k + 1.0 + 1j * nu)
    re = np.real(logs)
    # terms decay once k >> x; clip the tail for speed
    peak = int(np.argmax(re))
    last = min(I_MAX_TERMS, max(peak + 80, int(2 + x) + 80))
    logs = logs[:last]
    re = re[:last]
    top = re.max()
    terms = np.exp(logs - top)
    total = terms.sum()
    if last >= I_MAX_TERMS and abs(terms[-1]) > I_TAIL_TOL * abs(total):
        raise RuntimeError(f"Bessel series did not converge within {I_MAX_TERMS} terms")
    return total, float(top)


def bessel_I_imag_order(nu, x):
    """I_{i nu}(x) for real nu, x > 0 (complex valued).

    Satisfies I_{-i nu}(x) = conj(I_{i nu}(x)) for real x.  Raises instead of
    overflowing when the unscaled value exceeds float range; use the scaled
    variant in that regime.
    """
    mant, scale = bessel_I_imag_order_scaled(nu, x)
    if scale > 700.0:
        raise OverflowError("I_{i nu}(x) exceeds float range; use the scaled variant")
    return mant * np.exp(scale)


def rindler_boundary_function(omega, chi_minus, chi_plus, kappa):
    """Scaled F(Omega) whose zeros are the accelerated-cavity frequencies.

    The overall positive scale factor is dropped, which leaves the sign
    pattern (and hence the roots) unchanged.
    """
    lo, slo = bessel_I_imag_order_scaled(omega, kappa * chi_minus)
    hi, shi = bessel_I_imag_order_scaled(omega, kappa * chi_plus)
    return float(np.imag(np.conj(lo) * hi))


def find_rindler_frequency(chi_minus, chi_plus, kappa, bracket):
    """Root of F(Omega) inside `bracket` (must contain a sign change)."""
    f = lambda w: rindler_boundary_function(w, chi_minus, chi_plus, kappa)
    a, b = bracket
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return float(a)
    if fb == 0.0:
        return float(b)
    if fa * fb > 0:
        raise ValueError("bracket does not contain a sign change")
    return float(brentq(f, a, b, xtol=ROOT_XTOL, rtol=1e-14))


def rindler_frequencies(chi_minus, chi_plus, kappa, n_roots):
    """First `n_roots` positive roots Omega_1 < Omega_2 < ... of F(Omega).

    The scan step is half the asymptotic root spacing pi / log(chi+/chi-), so
    no root can hide between successive scan points.
    """
    spacing = np.pi / np.log(chi_plus / chi_minus)
    step = spacing / 2.0
    roots = []
    # below Omega = kappa chi- the mode is evanescent across the whole cavity
    # and carries no root; the scan starts there, because the boundary
    # function is exponentially tiny (its sign is noise) in that regime
    w_prev = max(step * 1e-3, 0.98 * kappa * chi_minus)
    f_prev = rindler_boundary_function(w_prev, chi_minus, chi_plus, kappa)
    w = w_prev + step
    guard = 0
    while len(roots) < n_roots:
        f_here = rindler_boundary_function(w, chi_minus, chi_plus, kappa)
        if f_prev == 0.0:
            roots.append(w_prev)
        elif f_prev * f_here < 0:
            roots.append(find_rindler_frequency(chi_minus, chi_plus, kappa, (w_prev, w)))
        w_prev, f_prev = w, f_here
        w += step
        guard += 1
        if guard > 100 * n_roots + 1000:
            raise RuntimeError("root scan failed to find the requested number of roots")
    return np.array(roots[:n_roots])


def rindler_mode_profile(chis, chi_minus, kappa, omega):
    """Mode u(chi) on a grid, up to one overall positive constant.

    u vanishes at chi_minus by construction; the common log-scale of the
    scaled Bessel evaluations is divided out so the profile stays finite.
    """
    chis = np.atleast_1d(np.asarray(chis, dtype=float))
    lo, _ = bessel_I_imag_order_scaled(omega, kappa * chi_minus)
    vals = np.empty(chis.size, dtype=complex)
    scales = np.empty(chis.size)
    for i, chi in enumerate(chis):
        vals[i], scales[i] = bessel_I_imag_order_scaled(omega, kappa * chi)
    ref = scales.max()
    return np.imag(np.conj(lo) * vals) * np.exp(scales - ref)


def rindler_spectrum(scenario):
    """`boxpair.RindlerBoxSpectrum` of `scenario` from the Bessel roots and profiles.

    The profiles live on the library's y = log(chi) grid, so the referee's
    spectrum drops into `boxpair.cavity_entanglement(..., spectrum=...)`.
    """
    chi_minus = 1.0 / scenario.h - 0.5
    chi_plus = 1.0 / scenario.h + 0.5
    n_cut = scenario.n_cut
    y = np.linspace(np.log(chi_minus), np.log(chi_plus), scenario.n_y)
    omegas = np.empty((n_cut, n_cut))
    profiles = np.empty((n_cut, n_cut, scenario.n_y))
    for m in range(1, n_cut + 1):
        km = scenario.kappa_m(m)
        omegas[:, m - 1] = rindler_frequencies(chi_minus, chi_plus, km, n_cut)
        for n in range(n_cut):
            profiles[n, m - 1] = rindler_mode_profile(np.exp(y), chi_minus, km, omegas[n, m - 1])
    return boxpair.RindlerBoxSpectrum.from_modes(scenario, y, omegas, profiles)
