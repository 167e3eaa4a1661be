"""Dirac-cavity Bogoliubov coefficients and perturbative entanglement degradation.

Lengths and times are in units of the cavity length delta.  A massless Dirac
field with boundary parameter s has frequencies omega_n = (n + s) pi, n in Z;
n >= 0 are particles, n < 0 antiparticles.  The second boundary parameter
theta cancels from every implemented observable and is not modelled; the
s = 0 zero mode is the s -> 0+ limit (all quantities are continuous there).

The acceleration expansion of the mode-matching matrix A reads

    A[m, n] = delta_mn + A1[m, n] h + A2[m, n] h^2 + O(h^3)

with the closed-form entries `a1_entry` and `a2_entry`; nothing caches the
matrices.  The degradation sums `f_k` and `oneway_f` read one row of A1 over
the mode window [-n_side, n_side]; they take a scalar or an array of travel
times (the window is broadcast on a last axis), refuse a negative one or one whose phase
overflows, and give a float or an array of the same shape.  Each phase weight is real,
|E(t)^(k-p) - 1|^2 = (2 sin(pi t (k-p) / 2))^2 with E(t) = exp(i pi t), a non-negative
square; where A1[k, p] = 0 (even k - p) no sine is taken and the term is an exact +0.0.  The
negativities take the same arrays and warn where the relative h^2 correction
|1 - 2N| reaches `boson.NB_VALIDITY_BOUND`, the bound of the boson results.

Grafting an acceleration of proper duration tau1 between two inertial
stretches gives the region-I -> region-III matrix calA = A+ G(tau1) A with
phases G_p = exp(i omega_p tau1).  A1 is real and antisymmetric and A2 real,
so the printed density matrices of the two-mode and charge-entangled Bell
states need only one column of calA1 and one diagonal entry of calA2:

    calA1[p, k] = (G_p - G_k) A1[p, k],
    calA2[k, k] = 2 A2[k, k] G_k + sum_p A1[p, k]^2 G_p.

|calA1[p, k]|^2 is the p-th term of f_k, so its particle / antiparticle parts
are read from f_k's own weights.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .boson import NB_VALIDITY_BOUND, PerturbativeValidityWarning


@dataclass(frozen=True)
class FermionCavityConfig:
    """Cavity and truncation parameters for the Dirac treatment."""

    s: float = 0.0
    h: float = 1e-2
    n_side: int = 200  # mode window [-n_side, n_side]

    def __post_init__(self):
        if not 0.0 <= self.s < 1.0:
            raise ValueError("spectrum offset s must lie in [0, 1)")
        if not 0.0 <= self.h < 2.0:
            raise ValueError("acceleration parameter must lie in [0, 2)")
        if self.n_side < 2:
            raise ValueError("mode window too small")

    @property
    def modes(self):
        return np.arange(-self.n_side, self.n_side + 1)

    def index(self, n):
        """Position of mode n in `modes`."""
        i = int(n) + self.n_side
        if not 0 <= i <= 2 * self.n_side:
            raise ValueError(f"mode {n} outside window")
        return i


def frequencies(config):
    """omega_n = (n + s) pi over the window."""
    return (config.modes + config.s) * np.pi


def a1_entry(m, n, s=0.0):
    """First-order coefficient [(-1)^(m+n) - 1] (m + n + 2s) / (2 pi^2 (m-n)^3)."""
    m = np.asarray(m)
    n = np.asarray(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = ((-1.0) ** (m + n) - 1.0) * (m + n + 2.0 * s) / (2.0 * np.pi**2 * (m - n) ** 3)
    return np.where(m == n, 0.0, val)


def a2_entry(m, n, s=0.0):
    """Second-order coefficient; diagonal -(1/96 + pi^2 (n+s)^2 / 240)."""
    m = np.asarray(m, dtype=float)
    n = np.asarray(n, dtype=float)
    diag = -(1.0 / 96.0 + np.pi**2 * (n + s) ** 2 / 240.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        off = ((-1.0) ** (m + n) + 1.0) / (8.0 * np.pi**2 * (m - n) ** 4) * (
            (m + s) ** 2 + 3.0 * (n + s) ** 2 + 8.0 * (m + s) * (n + s)
        )
    return np.where(m == n, diag, off)


def _column(config, tau1, k):
    """(G_k, calA1[:, k], calA2[k, k]) of calA = A+ G(tau1) A (module docstring)."""
    g = np.exp(1j * frequencies(config) * tau1)
    g_k = g[config.index(k)]
    a1 = a1_entry(config.modes, k, config.s)
    return g_k, (g - g_k) * a1, 2.0 * a2_entry(k, k, config.s) * g_k + np.sum(a1**2 * g)


def _degradation_terms(config, k, travel_times):
    """Terms prod_j |E(t_j)^(k-p) - 1|^2 |A1[k, p]|^2, the window p on the last axis.

    E(t) = exp(i pi t) and t_j is the sum of the first j travel times, each
    a scalar or an array (they broadcast together) and never negative.  The
    weights are taken in sine form, at odd k - p only (see the module docstring).
    """
    config.index(k)  # the mode must lie in the window
    odd = slice((k + config.n_side + 1) % 2, None, 2)  # A1[k, p] = 0 at even k - p
    p = config.modes[odd]
    half_q, limit = 0.5 * np.pi * (k - p), np.finfo(float).max / (0.5 * np.pi * (config.n_side + abs(k)))
    weights, t = 1.0, 0.0
    for tau in travel_times:
        tau = np.asarray(tau, dtype=float)
        if not np.all((tau >= 0.0) & (tau <= limit - t)):  # NaN is refused too; t stays at most limit
            raise ValueError("travel times must be non-negative, with a finite phase pi t (k - p) / 2 in the window")
        t = t + tau
        weights = weights * (2.0 * np.sin(t[..., None] * half_q)) ** 2
    terms = np.zeros(np.shape(t) + (config.modes.size,))
    terms[..., odd] = weights * np.abs(a1_entry(k, p, config.s)) ** 2
    return terms


def _converged_terms(config, tau1, k, refuse=True):
    """(terms, total) of f_k, checked for truncation at every tau1.

    A window whose edge terms are not negligible raises, or with refuse=False
    only warns: the printed matrices are compared with Fock-space oracles at
    windows as small as n_side = 3, where the truncated sums are the point.
    """
    terms = _degradation_terms(config, k, (tau1,))
    total = np.sum(terms, axis=-1)
    # truncation sanity: the tail of |A1|^2 decays like 1/(k-p)^4.  A1[k, p]
    # vanishes for even k - p, so the outermost non-zero term on each side is
    # one of the two outermost modes.
    edges = terms[..., :2].sum(axis=-1) + terms[..., -2:].sum(axis=-1)
    refused = edges > 1e-6 * np.maximum(total, 1e-30)
    if np.any(refused):
        first = float(np.asarray(tau1, dtype=float)[refused][0])
        message = f"mode window too small for a converged f_k at tau1 = {first}"
        if refuse:
            raise RuntimeError(message)
        warnings.warn(message, RuntimeWarning, stacklevel=3)
    return terms, total


def f_k(config, tau1, k):
    """Degradation sum f_k = sum_p |E1^(k-p) - 1|^2 |A1[k, p]|^2.

    E1 = exp(i pi tau1); periodic in tau1 with period 2 and
    vanishing iff tau1 is an even integer.  Even in k for s=0.  An array
    tau1 gives an array; the whole call is refused if any point is.
    """
    total = _converged_terms(config, tau1, k)[1]
    return float(total) if total.ndim == 0 else total


def f_k_split(config, tau1, k):
    """(f_k^+, f_k^-): the terms |calA1[p, k]|^2 of f_k summed over p >= 0 and p < 0; warns where f_k refuses."""
    terms = _converged_terms(config, tau1, k, refuse=False)[0]
    pos = config.modes >= 0
    return float(terms[pos].sum()), float(terms[~pos].sum())


def _warn_if_large(negativity):
    """Warn where the relative h^2 correction |1 - 2N| of a negativity (scalar or array) reaches NB_VALIDITY_BOUND."""
    worst = float(np.max(np.abs(1.0 - 2.0 * np.asarray(negativity))))
    if worst >= NB_VALIDITY_BOUND:
        warnings.warn(
            f"|1 - 2N| = {worst:.3g} >= {NB_VALIDITY_BOUND}; perturbative negativity unreliable",
            PerturbativeValidityWarning,
            stacklevel=3,
        )
    return negativity


def _charge_negativity(config, k, kp, travel_times, fk, fkp):
    """1/2 - (f_k + f_k') h^2 / 4 + inter h^2 / 2; inter is the p = k' term of f_k."""
    if k < 0 or kp >= 0:
        raise ValueError("charge state requires k >= 0 and k' < 0")
    inter = _degradation_terms(config, k, travel_times)[..., config.index(kp)]
    return 0.5 - 0.25 * (fk + fkp) * config.h**2 + 0.5 * inter * config.h**2


def negativity_two_mode(config, tau1, k):
    """Negativity (1 - f_k h^2)/2 of the evolved two-mode Bell states.

    Independent of the Bell sign and of the charge of the reference mode.
    """
    return _warn_if_large(0.5 * (1.0 - f_k(config, tau1, k) * config.h**2))


def negativity_charge_state(config, tau1, k, kp):
    """Negativity of the charge-entangled Bell states (k >= 0, k' < 0).

    1/2 - (f_k + f_k') h^2 / 4 + |E1^(k-k') - 1|^2 |A1[k, k']|^2 h^2 / 2;
    the interference term is nonzero iff k and k' differ in parity and always
    diminishes the degradation.
    """
    return _warn_if_large(_charge_negativity(config, k, kp, (tau1,), f_k(config, tau1, k), f_k(config, tau1, kp)))


def oneway_f(config, tau1, tau2, k):
    """One-way journey sum f~~_k with both E1 and E1 E2 phase factors.

    tau1 and tau2 broadcast together; scalars give a float.
    """
    total = np.sum(_degradation_terms(config, k, (tau1, tau2)), axis=-1)
    return float(total) if total.ndim == 0 else total


def oneway_negativities(config, tau1, tau2, k, kp=None):
    """Negativities after accelerate / coast / brake (one-way journey).

    Returns the two-mode value (1 - f~~_k h^2)/2, and additionally the
    charge-state value when k' is given.
    """
    fk = oneway_f(config, tau1, tau2, k)
    two_mode = _warn_if_large(0.5 * (1.0 - fk * config.h**2))
    if kp is None:
        return {"two_mode": two_mode}
    fkp = oneway_f(config, tau1, tau2, kp)
    charge = _warn_if_large(_charge_negativity(config, k, kp, (tau1, tau2), fk, fkp))
    return {"two_mode": two_mode, "charge": charge}


def two_mode_density_matrix(config, tau1, k, sign=+1):
    """Printed 4x4 reduced density matrix of the evolved Bell state.

    Basis {|0 0>, |0 1_k>, |1 0>, |1 1_k>} (Alice x Rob).  Used as the dense
    eigensolver cross-check for `negativity_two_mode`.
    """
    zeta_minus = k < 0
    f_plus, f_minus = f_k_split(config, tau1, k)
    f_same, f_opp = (f_minus, f_plus) if zeta_minus else (f_plus, f_minus)
    g_k, _, a2_kk = _column(config, tau1, k)
    if zeta_minus:
        g_k, a2_kk = np.conj(g_k), np.conj(a2_kk)
    h2 = config.h**2
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0 - f_opp * h2
    rho[1, 1] = f_opp * h2
    rho[2, 2] = f_same * h2
    rho[3, 3] = 1.0 - f_same * h2
    rho[0, 3] = sign * (g_k + a2_kk * h2)
    rho[3, 0] = np.conj(rho[0, 3])
    return rho / 2.0


def charge_density_matrix(config, tau1, k, kp, sign=+1):
    """Printed 8x8 reduced state of the charge-entangled Bell pair.

    Alice basis {|1_k>+, |1_k'>-}, Rob basis {|00>, |1_k 0>, |0 1_k'>,
    |1_k 1_k'>}; row/column order is the Kronecker product (Alice x Rob).
    """
    if k < 0 or kp >= 0:
        raise ValueError("charge state requires k >= 0 and k' < 0")
    f_k_plus, f_k_minus = f_k_split(config, tau1, k)
    f_kp_plus, f_kp_minus = f_k_split(config, tau1, kp)
    a1_sq = _degradation_terms(config, k, (tau1,))[config.index(kp)]
    g_k, col_k, a2_kk = _column(config, tau1, k)
    g_kp, col_kp, a2_kpkp = _column(config, tau1, kp)
    h2 = config.h**2
    pos = config.modes >= 0
    cross_minus = np.sum(np.conj(col_kp[~pos]) * col_k[~pos])
    cross_plus = np.sum(np.conj(col_kp[pos]) * col_k[pos])

    rho = np.zeros((8, 8), dtype=complex)
    # Rob basis: |00>, |0 1_k'>, |1_k 0>, |1_k 1_k'>; Alice basis: |1_k>+, |1_k'>-
    i00, i0k, ik0, ikk = 0, 1, 2, 3
    a_k, a_kp = 0, 1

    def put(ar, ac, rr, rc, val):
        rho[4 * ar + rr, 4 * ac + rc] += val

    # Alice |1_k><1_k| (x) Rob tr |1_k'><1_k'| on {|00>, |0 1_k'>, |1_k 1_k'>}
    put(a_k, a_k, i00, i00, f_kp_minus * h2)
    put(a_k, a_k, i0k, i0k, 1.0 - f_kp_minus * h2 - f_k_minus * h2 + a1_sq * h2)
    put(a_k, a_k, ikk, ikk, (f_k_minus - a1_sq) * h2)
    put(a_k, a_k, i00, ikk, cross_minus * h2)
    put(a_k, a_k, ikk, i00, np.conj(cross_minus) * h2)
    # Alice |1_k'><1_k'| (x) Rob tr |1_k><1_k| on {|00>, |1_k 0>, |1_k 1_k'>}
    put(a_kp, a_kp, i00, i00, f_k_plus * h2)
    put(a_kp, a_kp, ik0, ik0, 1.0 - f_kp_plus * h2 - f_k_plus * h2 + a1_sq * h2)
    put(a_kp, a_kp, ikk, ikk, (f_kp_plus - a1_sq) * h2)
    put(a_kp, a_kp, i00, ikk, -cross_plus * h2)
    put(a_kp, a_kp, ikk, i00, -np.conj(cross_plus) * h2)
    # off-diagonal 2x2 block between Rob states |0 1_k'> and |1_k 0>
    akk_akpkp = g_k * g_kp + g_kp * a2_kk * h2 + g_k * a2_kpkp * h2
    x = g_k * g_kp * a1_sq * h2 + akk_akpkp
    put(a_k, a_kp, i0k, ik0, sign * x)
    put(a_kp, a_k, ik0, i0k, sign * np.conj(x))
    return rho / 2.0
