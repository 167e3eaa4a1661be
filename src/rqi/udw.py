"""Spatially smeared Unruh-DeWitt detectors: windows and transition rates.

A detector with spatial profile f(x) couples to the field through the
frequency window |f~(k)|^2; a `SpatialProfile` holds only that shape, and
`DetectorParams` the gap, field mass and acceleration.  The point-like limit
reproduces the textbook rates; our normalisation is fixed so that the
inertial massless point-like detector gives -(1/2pi) Delta Theta(-Delta), and
the same convention is used for every smeared rate (whose Gaussian window
tends to 2, not 1, as sigma -> 0).

Accelerated rates are thermal: F(Delta) = Xi(Delta) / (exp(2 pi Delta/a) - 1)
with Xi odd in Delta, so the Kubo-Martin-Schwinger ratio
F(Delta)/F(-Delta) = exp(-2 pi Delta / a) holds identically.

Both rates take the gap as a float or an array (a float or an array out).
With Xi(Delta) = (Delta/2pi) w(|Delta|), one call evaluates the weight w once
per distinct |Delta|, so a +-Delta pair shares one 3+1 transverse quadrature.

A one-particle field state adds to the rate through I(t) = int dk Phi(k)
f~(k) exp(-i k t) / sqrt(k) (massless 1+1, k > 0) and iota_t(Delta) =
int_0^S ds exp(-i s Delta) I(t - s), S = |t| + 30 sigma, which dies off at late
times (Riemann-Lebesgue).  The s integral is exact, S exp(i q S/2) sinc(q S/2pi)
with q = k - Delta, so iota(+-Delta) and I(t) are one trapezoid over `K_NODES`
momenta up to peak + 12/sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import bessel_K_imag_order

POINT = "point"
GAUSSIAN = "gaussian"
# spacetime dimensions of the accelerated rate
DIMS = ("1+1", "3+1")

# absolute and relative tolerance of the 3+1 transverse-momentum quadrature
QUAD_TOL = 1e-10
# trapezoid nodes of the momentum integral of the single-particle correction
K_NODES = 4001


@dataclass(frozen=True)
class SpatialProfile:
    """Detector coupling profile.

    kind "point": delta profile, unit window.
    kind "gaussian": Gaussian of width sigma beating against exp(+-i lambda x);
    window exp(-s^2 (k - l)^2 / 2) + exp(-s^2 (k + l)^2 / 2).  An accelerated
    detector reads the same window in the Rindler frequency when its profile
    carries the exp(-2 a xi) metric compensation.
    """

    kind: str = POINT
    sigma: float = 1.0
    peak: float = 0.0

    def __post_init__(self):
        if self.kind not in (POINT, GAUSSIAN):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.kind != POINT and not (0 < self.sigma < np.inf and np.isfinite(self.peak)):
            raise ValueError("Gaussian profile needs a finite positive width and a finite peak")


@dataclass(frozen=True)
class DetectorParams:
    """Internal gap Delta (signed; a float or an array) plus field mass / proper acceleration (0 for inertial)."""

    gap: float
    mass: float = 0.0
    accel: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.gap).all():
            raise ValueError("gap must be finite")
        if not (self.mass >= 0 and self.accel >= 0):
            raise ValueError("field mass and acceleration must be non-negative")
        if not math.isfinite(self.mass * self.mass):  # every rate squares it
            raise ValueError("field mass must have a finite square")


def frequency_window(profile):
    """Callable |f~| as a function of momentum (or Rindler frequency).

    Point-like -> identically 1; Gaussian-peaked -> double Gaussian around
    +-peak.
    """
    if profile.kind == POINT:
        return lambda k: np.ones_like(np.asarray(k, dtype=float))
    s2 = profile.sigma**2
    lam = profile.peak

    def window(k):
        k = np.asarray(k, dtype=float)
        return np.exp(-0.5 * s2 * (k - lam) ** 2) + np.exp(-0.5 * s2 * (k + lam) ** 2)

    return window


def transition_rate_inertial(params, profile=SpatialProfile()):
    """Inertial Minkowski-vacuum rate: (1/2pi) sqrt(D^2 - m^2) |f~(-D)|^2 below threshold.

    Zero for Delta > -m (the detector stays unexcited in its ground state);
    the threshold Delta = -m evaluates to the left limit, i.e. zero.
    """
    gap, mass = np.asarray(params.gap, dtype=float), params.mass
    flat = gap.reshape(-1)  # a float gap takes the array's numpy loops (x**2 on a numpy scalar is pow, not x*x)
    with np.errstate(invalid="ignore"):
        window2 = frequency_window(profile)(-flat) ** 2
        rate = np.where(-flat <= mass, 0.0, np.sqrt(flat**2 - mass**2) * window2 / (2.0 * np.pi))
    return float(rate[0]) if gap.ndim == 0 else rate.reshape(gap.shape)


def _density_weight(delta_abs, params, profile, dim):
    """w(|Delta|) with Xi(Delta) = (Delta/2pi) w(|Delta|): window-weighted Rindler density of states.

    1+1, and point-like massless 3+1: the window factor |f~(|Delta|)|^2.
    Otherwise the 3+1 transverse quadrature of the Rindler normalisation
    |N K_{i Delta/a}(kappa/a)|^2, calibrated so that the point-like
    massless limit is exactly 1.
    """
    a = params.accel
    window = frequency_window(profile)
    if dim == "1+1" or (profile.kind == POINT and params.mass == 0.0):
        return float(window(delta_abs) ** 2)
    from scipy.integrate import quad  # here, not at module level: only this 3+1 integral needs scipy
    nu = delta_abs / a
    sigma = profile.sigma if profile.kind != POINT else 1.0
    cut = max(10.0 / sigma, 10.0 * a, 10.0 * delta_abs, 10.0)
    win2 = float(window(delta_abs) ** 2)

    k_values = {}  # K_{i nu}(x) by x: a massless smeared integrand meets the calibration's nodes again

    def raw(kp, mass):  # scalar math: quad passes one float at a time
        x = math.sqrt(kp**2 + mass**2) / a
        k = k_values.get(x)
        if k is None:
            k = k_values[x] = bessel_K_imag_order(nu, x)
        return kp * k**2

    def integrate(f):
        val, _ = quad(f, 0.0, cut, epsabs=QUAD_TOL, epsrel=QUAD_TOL, limit=200)
        val2, _ = quad(f, cut, 2 * cut, epsabs=QUAD_TOL, epsrel=QUAD_TOL, limit=200)
        return val + val2

    # calibrate the transverse density by the point-like massless integral,
    # then weight by the window
    base = integrate(lambda kp: raw(kp, 0.0))
    smeared = integrate(lambda kp: raw(kp, params.mass) * win2)
    return smeared / base


def transition_rate_accelerated(params, profile=SpatialProfile(), dim="1+1"):
    """Uniformly accelerated rate (Delta/2pi) w(|Delta|) / (exp(2 pi Delta / a) - 1).

    Stationary by construction (no time argument); satisfies the KMS ratio
    exp(-2 pi Delta / a) for any window.  Point-like massless reproduces
    (Delta/2pi) / (exp(2 pi Delta / a) - 1) in both 1+1 and 3+1.  Where
    |2 pi Delta / a| is below the float epsilon, Delta = 0 and subnormal gaps
    included, the rate is its limit a w(|Delta|) / (4 pi^2): the factor
    x / expm1(x) is 1 there to rounding, and Delta / 2pi would underflow.
    """
    if params.accel <= 0:
        raise ValueError("acceleration must be positive")
    if dim not in DIMS:
        raise ValueError(f"dim must be one of {DIMS}, got {dim!r}")
    gap, a = np.asarray(params.gap, dtype=float), params.accel
    mags, inverse = np.unique(np.abs(gap), return_inverse=True)
    w = np.array([_density_weight(m, params, profile, dim) for m in mags.tolist()])[inverse].reshape(gap.shape)
    x = 2.0 * np.pi * gap / a
    # where also evaluates the 0/0 at Delta = 0; expm1 overflows to inf, and the rate to its limit 0, at large Delta / a
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rate = np.where(np.abs(x) < np.finfo(float).eps, a * w / (4.0 * np.pi**2), gap / (2.0 * np.pi) * w / np.expm1(x))
    return float(rate) if rate.ndim == 0 else rate


def single_particle_correction(profile, packet, t, gap):
    """iota_t(Delta) and the rate correction 2 Re[conj(I(t)) iota_t(Delta) + I(t) conj(iota_t(-Delta))].

    iota_t(+-Delta) and I(t) are one k trapezoid (see the module notes);
    `packet` is the momentum amplitude Phi, normalised to unit L2 norm.
    """
    if packet is None:
        return {"iota": 0.0 + 0.0j, "rate_delta": 0.0}
    sigma, peak = (profile.sigma, profile.peak) if profile.kind != POINT else (1.0, 1.0)
    k = np.linspace(1e-9, peak + 12.0 / sigma, K_NODES)
    amp = packet(k) * frequency_window(profile)(k) * np.exp(-1j * k * t) / np.sqrt(k)
    span = abs(t) + 30.0 * sigma
    q = k - np.array([[gap], [-gap]])  # rows: +Delta, -Delta
    iota, iota_neg = np.trapezoid(amp * span * np.exp(0.5j * q * span) * np.sinc(q * span / (2.0 * np.pi)), k)
    i_t = np.trapezoid(amp, k)
    rate_delta = 2.0 * np.real(np.conj(i_t) * iota + i_t * np.conj(iota_neg))
    return {"iota": complex(iota), "rate_delta": float(rate_delta)}
