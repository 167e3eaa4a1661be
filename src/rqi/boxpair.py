"""Entanglement generation between an inertial and an accelerated 2-D cavity.

An excited two-level atom crosses Alice's (inertial) cavity and then Rob's
(uniformly accelerated) cavity, both of unit wall length, and is post-selected
in its ground state.  The surviving field state

    |Phi> = sum_nm [F^A_nm a+_nm + F^R_nm b+_nm] |0>|0>

is entangled between the cavities; its entropy of entanglement follows from
the reduced state rho_R = (sum |F^A|^2) (+) F F+ after trace normalisation.

Rob's x-direction modes solve the modified Bessel equation with imaginary
order; the spectrum comes from a tridiagonal discretisation of the equivalent
Sturm-Liouville problem in y = log(chi).  Its eigenvalues are bisected only to
BISECT_RTOL of the matrix norm; inverse iteration still converges to the same
eigenvectors, and each Omega^2 is then taken from its vector's Rayleigh
quotient, whose error is quadratic in the vector's.  The atom's trajectory
enters through chi(tau) = sqrt(1/h^2 - gamma^2 tau^2) and the Rindler phase
Omega atanh(h gamma tau); the dimensionless frequency convention is pinned by
the h -> 0 continuity check Omega log(chi+/chi-) -> sqrt(n^2 pi^2 + kappa_m^2).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal


@dataclass(frozen=True)
class BoxScenario:
    """Geometry, kinematics and truncation (all wall lengths = 1)."""

    v: float = 0.5
    h: float = 0.5
    kappa: float = 0.0
    gap: float = np.sqrt(2.0) * np.pi
    epsilon: float = 1.0
    n_cut: int = 8
    n_y: int = 1200
    n_quad: int = 600

    def __post_init__(self):
        if not np.isfinite((self.h, self.kappa, self.gap, self.epsilon)).all():
            raise ValueError("h, kappa, gap and epsilon must be finite")
        if not 0.0 < self.v < 1.0:
            raise ValueError("atom speed must satisfy 0 < v < 1")
        if self.h < 0.0 or self.h > 2.0 * self.v + 1e-12:
            raise ValueError("acceleration limited to 0 <= h <= 2v")
        if 0.0 < self.h < 1e-7:  # the y grid spans about h around log(1/h): below, rounding eats its spacing
            raise ValueError("an acceleration 0 < h < 1e-7 is refused: its y grid is lost to rounding")
        if self.n_cut < 1:
            raise ValueError("mode truncation needs n_cut >= 1")
        if self.n_quad < 1:
            raise ValueError("overlap quadrature needs n_quad >= 1")
        if self.n_y < self.n_cut + 2:
            # the finite-difference solve has n_y - 2 interior points, one per mode at least
            raise ValueError("spectrum grid needs n_y >= n_cut + 2")

    @property
    def gamma(self):
        return 1.0 / np.sqrt(1.0 - self.v**2)

    @property
    def t_half(self):
        # half the proper crossing time of one cavity
        return 1.0 / (2.0 * self.v * self.gamma)

    def kappa_m(self, m):
        return np.sqrt((m * np.pi) ** 2 + self.kappa**2)

    def omega_nm(self, n, m):
        """Inertial mode frequency sqrt((n pi)^2 + kappa_m^2); n and m broadcast."""
        return np.sqrt((n * np.pi) ** 2 + self.kappa_m(m) ** 2)


@dataclass(frozen=True)
class RindlerBoxSpectrum:
    """Frequencies, norm factors and x-mode profiles per (n, m)."""

    scenario: BoxScenario
    y_grid: np.ndarray
    omegas: np.ndarray  # (n_cut, n_cut) indexed [n-1, m-1]
    norms: np.ndarray
    profiles: np.ndarray  # (n_cut, n_cut, n_y) mode values on y_grid

    @classmethod
    def from_modes(cls, scenario, y_grid, omegas, profiles):
        """Spectrum from raw profiles on `y_grid`, each known up to a constant factor.

        Every profile is signed so that its first lobe is positive and given
        the Klein-Gordon normalisation Omega * int u^2 dchi/chi * int sin^2 dy
        = 1/2, i.e. N = 1/sqrt(Omega I_chi).
        """
        mag = np.abs(profiles)
        first = np.argmax(mag > 1e-3 * mag.max(axis=-1, keepdims=True), axis=-1)
        lead = np.take_along_axis(profiles, first[..., None], axis=-1)
        profiles = np.where(lead < 0, -profiles, profiles)
        norms = 1.0 / np.sqrt(omegas * np.trapezoid(profiles * profiles, y_grid, axis=-1))
        return cls(scenario, y_grid, omegas, norms, profiles)


# Bisection tolerance as a share of the matrix norm.  Coarser spoils the vectors:
# at 1e-8 their residuals grow more than tenfold, at 1e-6 Omega is up to 1e-5 off.
BISECT_RTOL = 1e-9


def solve_rindler_spectrum(scenario):
    """Frequencies Omega_nm, normalisations and profiles of Rob's modes.

    Per m, the interior of an n_y-point grid in y = log(chi) discretises
    u'' + (Omega^2 - kappa_m^2 e^(2y)) u = 0 with u = 0 at both walls; the
    lowest n_cut eigenpairs of the tridiagonal matrix T give Omega_nm^2 and u.

    Bisection stops at BISECT_RTOL times the Gershgorin bound on ||T||, about
    half the cost of bisecting to full precision, and LAPACK's inverse iteration
    turns the coarse eigenvalues into eigenvectors.  Omega^2 is each vector's
    Rayleigh quotient u'Tu / u'u, summed as squared differences plus the
    potential term so that nothing cancels; it lies within 1.7e-11 (relative,
    in Omega) of full-precision bisection of the same matrix.
    """
    if scenario.h <= 0:
        raise ValueError("spectrum solver needs h > 0; use the closed form at h = 0")
    n_cut = scenario.n_cut
    y = np.linspace(np.log(1.0 / scenario.h - 0.5), np.log(1.0 / scenario.h + 0.5), scenario.n_y)
    dy = y[1] - y[0]
    off = -np.ones(y.size - 3) / dy**2
    omegas = np.empty((n_cut, n_cut))
    profiles = np.zeros((n_cut, n_cut, y.size))
    for m in range(1, n_cut + 1):
        pot = scenario.kappa_m(m) ** 2 * np.exp(2.0 * y[1:-1])
        diag = 2.0 / dy**2 + pot
        norm = diag.max() + 2.0 / dy**2  # Gershgorin bound: 4/dy^2 + max kappa_m^2 e^(2y)
        _, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, n_cut - 1), tol=BISECT_RTOL * norm)
        # Rayleigh quotient v'Tv / v'v as a sum of squares (u = 0 at both walls): summed from diag
        # and off instead, the 2/dy^2 terms cancel and leave up to 1.5e-10 of Omega^2
        sq = vecs * vecs
        grad = (np.diff(vecs, axis=0) ** 2).sum(axis=0) + sq[0] + sq[-1]
        vals = (grad / dy**2 + pot @ sq) / sq.sum(axis=0)
        if vals.min() <= 0:
            raise RuntimeError("unexpected non-positive eigenvalue in the mode solve")
        omegas[:, m - 1] = np.sqrt(vals)
        profiles[:, m - 1, 1:-1] = vecs.T / np.sqrt(dy)  # continuum normalisation of the grid vector
    return RindlerBoxSpectrum.from_modes(scenario, y, omegas, profiles)


# zeta = v gamma tau while the atom crosses each box; Rob's box is inertial at h = 0
ALICE_ZETA = (-1.5, -0.5)
ROB_ZETA = (-0.5, 0.5)


def inertial_overlaps(scenario, zeta):
    """F matrix [n-1, m-1] of an inertial box crossed for zeta in `zeta`: closed form, zero for even n.

    `zeta` is ALICE_ZETA for Alice and ROB_ZETA for Rob at h = 0, where the
    overlap has the f_nm (1 - (-1)^m exp(i g_nm)) structure of
    `resonance_phase`.  The coupling
    Lambda = -i eps sin^2(2 pi zeta) sin(m pi (zeta - 1/2)) exp(-i Delta zeta/(v gamma))
    times exp(i omega_nm gamma tau) = exp(i omega_nm zeta / v) is a sum of six
    exponentials exp(i k zeta) per (n, m), each integrated exactly.
    """
    m = np.arange(1, scenario.n_cut + 1)
    n = m[:, None]
    omega = scenario.omega_nm(n, m)
    # Lambda = sum_j c_j exp(i a_j zeta) over (envelope, oscillation) pairs, env outer:
    # sin^2(2 pi z) = 1/2 - exp(4 i pi z)/4 - exp(-4 i pi z)/4
    env_c, env_a = np.array([0.5, -0.25, -0.25])[:, None, None], np.array([0.0, 4.0, -4.0])[:, None, None] * np.pi
    # sin(m pi (z - 1/2)) = (exp(i m pi z) e^{-i m pi/2} - c.c.) / 2i
    osc_c = np.stack([np.exp(-1j * m * np.pi / 2.0) / 2j, -np.exp(+1j * m * np.pi / 2.0) / 2j])
    osc_a = np.stack([m * np.pi, -m * np.pi])
    c = (-1j * scenario.epsilon * env_c * osc_c).reshape(6, 1, -1)
    a = (env_a + osc_a - scenario.gap / (scenario.v * scenario.gamma)).reshape(6, 1, -1)
    k = a + omega / scenario.v  # (term, n, m)
    # int exp(i k z) over the window = exp(i k z_mid) L sinc(k L / 2 pi): no cancellation as k -> 0
    z_mid, length = (zeta[0] + zeta[1]) / 2.0, zeta[1] - zeta[0]
    terms = c * np.exp(1j * k * z_mid) * length * np.sinc(k * length / (2.0 * np.pi))
    val = terms.sum(axis=0) / (scenario.v * scenario.gamma)
    return np.where(n % 2 == 1, np.sqrt(2.0 / omega) * np.sin(n * np.pi / 2.0) * val, 0.0)


def resonance_phase(n, m, scenario):
    """g_nm(kappa) = (gap sqrt(1 - v^2) - omega_nm) / v."""
    return (scenario.gap * np.sqrt(1.0 - scenario.v**2) - scenario.omega_nm(n, m)) / scenario.v


def rob_overlap_quadrature(scenario, spectrum=None):
    """F^R matrix by quadrature along the atom's trajectory (h > 0).

    Gauss-Legendre nodes avoid the tau = +-T endpoints, where chi(tau) can
    reach the horizon at h = 2v; outside the cavity walls the coupling is
    zero (the atom has exited through the trailing wall).
    """
    if scenario.h == 0.0:
        return inertial_overlaps(scenario, ROB_ZETA)
    if spectrum is None:
        spectrum = solve_rindler_spectrum(scenario)
    t = scenario.t_half
    nodes, weights = _leggauss(scenario.n_quad)
    vg = scenario.v * scenario.gamma
    tau = nodes * t
    chi = np.sqrt(np.maximum(1.0 / scenario.h**2 - (scenario.gamma * tau) ** 2, 0.0))
    inside = (chi >= 1.0 / scenario.h - 0.5) & (chi <= 1.0 / scenario.h + 0.5)
    tau, w, log_chi = tau[inside], weights[inside] * t, np.log(chi[inside])
    # linear interpolation in y: one grid index and fraction serve every (n, m) profile
    y = spectrum.y_grid
    j = np.clip(np.searchsorted(y, log_chi, side="right") - 1, 0, y.size - 2)
    frac = (log_chi - y[j]) / (y[j + 1] - y[j])
    lo = spectrum.profiles[..., j]
    u = lo + (spectrum.profiles[..., j + 1] - lo) * frac  # (n, m, node)
    phase_arg = np.arctanh(np.clip(scenario.h * scenario.gamma * tau, -1 + 1e-15, 1 - 1e-15))
    eps = scenario.epsilon * np.sin(2.0 * np.pi * vg * tau) ** 2
    m = np.arange(1, scenario.n_cut + 1)[:, None]
    lam = -1j * eps * np.sin(m * np.pi * (vg * tau - 0.5)) * np.exp(-1j * scenario.gap * tau)  # (m, node)
    integrand = lam * u * np.exp(1j * spectrum.omegas[..., None] * phase_arg)
    return spectrum.norms * (integrand @ w)


@functools.lru_cache
def _leggauss(n_quad):
    """Gauss-Legendre nodes and weights on [-1, 1], built once per order and read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(n_quad)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def alice_overlaps(scenario):
    """F^A matrix indexed [n-1, m-1] (Alice is inertial)."""
    return inertial_overlaps(scenario, ALICE_ZETA)


def cavity_entanglement(scenario, spectrum=None, return_details=False):
    """Entropy of entanglement of Rob's reduced state (natural log).

    rho_R = (sum |F^A|^2) (+) F F+ renormalised by its trace.  The excitation
    block is rank one, so the spectrum is {p_alice, p_rob} and the entropy is
    their binary entropy.  A vanishing trace (no emission amplitude) returns
    zero with a flag.
    """
    f_alice = alice_overlaps(scenario)
    f_rob = rob_overlap_quadrature(scenario, spectrum=spectrum)
    p0 = float(np.sum(np.abs(f_alice) ** 2))
    p1 = float(np.sum(np.abs(f_rob) ** 2))
    trace = p0 + p1
    if trace < 1e-300:
        result = {"entropy": 0.0, "flagged": True, "p_alice": 0.0, "p_rob": 0.0}
    else:
        result = {
            "entropy": binary_entropy(p0 / trace),
            "flagged": False,
            "p_alice": p0 / trace,
            "p_rob": 1.0 - p0 / trace,
        }
    return (result, f_alice, f_rob) if return_details else result


def binary_entropy(p):
    """Closed form for the rank-one excitation block: -p ln p - q ln q."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    q = 1.0 - p
    return min(float(-p * np.log(p) - q * np.log(q)), math.log(2))  # near p = 1/2 the sum rounds an ulp above ln 2
