"""Entanglement generation between an inertial and an accelerated 2-D cavity.

An excited two-level atom crosses Alice's (inertial) cavity and then Rob's
(uniformly accelerated) cavity, both of unit wall length, and is post-selected
in its ground state.  The surviving field state

    |Phi> = sum_nm [F^A_nm a+_nm + F^R_nm b+_nm] |0>|0>

is entangled between the cavities; its entropy of entanglement follows from
the reduced state rho_R = (sum |F^A|^2) (+) F F+ after trace normalisation.

Rob's x-direction modes solve the modified Bessel equation with imaginary
order; the spectrum is that of a finite-difference matrix of the equivalent
Sturm-Liouville problem in y = log(chi), found by Rayleigh-Ritz on a Chebyshev
subspace that grows until every Ritz pair has converged.  The atom's trajectory
enters through chi(tau) = sqrt(1/h^2 - gamma^2 tau^2) and the Rindler phase
Omega atanh(h gamma tau); the dimensionless frequency convention is pinned by
the h -> 0 continuity check Omega log(chi+/chi-) -> sqrt(n^2 pi^2 + kappa_m^2).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


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
        if self.n_y < self.n_cut + 2:  # the spectrum solve has n_y - 2 interior points, one per mode at least
            raise ValueError("spectrum grid needs n_y >= n_cut + 2")
        if self.n_cut + 1 >= (bound := 4.0 * math.sqrt(self.n_y - 2)):  # from there `_galerkin_basis` is the identity
            raise ValueError(f"mode truncation needs n_cut + 1 < 4 sqrt(n_y - 2) = {bound:.5g}")

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

        Every profile is signed so that its first lobe is positive and given the Klein-Gordon
        normalisation Omega * int u^2 dchi/chi * int sin^2 dy = 1/2, i.e. N = 1/sqrt(Omega I_chi).
        """
        mag = np.abs(profiles)
        first = np.argmax(mag > 1e-3 * mag.max(axis=-1, keepdims=True), axis=-1)
        lead = np.take_along_axis(profiles, first[..., None], axis=-1)
        profiles = np.where(lead < 0, -profiles, profiles)
        norms = 1.0 / np.sqrt(omegas * np.trapezoid(profiles * profiles, y_grid, axis=-1))
        return cls(scenario, y_grid, omegas, norms, profiles)


# Subspace order to start from, and a Ritz pair's residual bound per unit gap (the default domain: 1.2e-10 at 40)
GALERKIN_ORDER, RITZ_GATE = 40, 2e-10


@functools.lru_cache(maxsize=4)
def _galerkin_basis(n_y, order):
    """(Q, Q'DQ), D = tridiag(-1, 2, -1): Q = V R^-1 orthonormalises V = (1 - s^2) T_j(s), j < order, on the
    n_y - 2 interior grid points, s affine in the grid index from -1 to 1.  Built once, read-only.  CholeskyQR2
    keeps Q as smooth as V (Householder QR leaves 1e-13 of noise for D to amplify).  From order 4 sqrt(n_y - 2),
    where V's condition number passes 3e5, Q is the identity: an exact projection."""
    s = np.linspace(-1.0, 1.0, n_y)[1:-1]
    if order >= min(s.size, 4.0 * np.sqrt(s.size)):
        q = np.eye(s.size)
    else:
        q = (1.0 - s * s)[:, None] * np.polynomial.chebyshev.chebvander(s, order - 1)
        for _ in range(2):
            q = q @ np.linalg.inv(np.linalg.cholesky(q.T @ q).T)
    a = (lq := np.diff(q, axis=0, prepend=0.0, append=0.0)).T @ lq  # (LQ)'(LQ), D = L'L with zero walls
    q.flags.writeable = a.flags.writeable = False
    return q, a


def solve_rindler_spectrum(scenario):
    """Frequencies Omega_nm, normalisations and profiles of Rob's modes.

    Per m, the interior of an n_y-point grid in y = log(chi) discretises u'' + (Omega^2 - kappa_m^2 e^(2y)) u = 0
    with u = 0 at both walls; the lowest n_cut eigenpairs of T_m = D/dy^2 + kappa_m^2 diag(e^(2y)) give
    Omega_nm^2 and u.  They are Ritz pairs (theta, u = Q X) of one stacked eigh of every T_m projected onto
    `_galerkin_basis`, its order doubled until each |T u - theta u| is at most RITZ_GATE times the distance
    from theta to the other Ritz values of its m.  Omega^2 is each u's Rayleigh quotient.
    """
    if scenario.h <= 0:
        raise ValueError("spectrum solver needs h > 0; use the closed form at h = 0")
    n_cut = scenario.n_cut
    y = np.linspace(np.log(1.0 / scenario.h - 0.5), np.log(1.0 / scenario.h + 0.5), scenario.n_y)
    dy, n_in = y[1] - y[0], y.size - 2
    kappa2 = scenario.kappa_m(np.arange(1, n_cut + 1)) ** 2
    pot = kappa2[:, None] * np.exp(2.0 * y[1:-1])  # (m, interior)
    profiles = np.zeros((n_cut, n_cut, y.size))
    u = profiles[..., 1:-1]  # (n, m, interior), unit grid vectors
    order = GALERKIN_ORDER
    while True:
        q, a = _galerkin_basis(y.size, max(order, n_cut + 1))  # the last mode's gap needs the Ritz value above
        theta, x = np.linalg.eigh(a / dy**2 + kappa2[:, None, None] * (q.T @ (np.exp(2.0 * y[1:-1])[:, None] * q)))
        np.matmul(x[..., :n_cut].transpose(2, 0, 1), q.T, out=u)
        r = u * (2.0 + dy**2 * pot) - profiles[..., :-2] - profiles[..., 2:]  # dy^2 (T u - theta u), zero walls
        r -= (dy**2 * theta[:, :n_cut].T)[..., None] * u
        gap = np.diff(theta, prepend=-np.inf, append=np.inf)
        gap = np.minimum(gap[:, :n_cut], gap[:, 1 : n_cut + 1]).T
        if q.shape[1] == n_in or np.all(np.einsum("...i,...i", r, r) <= (RITZ_GATE * dy**2 * gap) ** 2):
            break
        order = 2 * q.shape[1]
    del r  # freed before `from_modes` makes its copies
    grad = (np.diff(profiles) ** 2).sum(axis=-1)  # a sum of squares: from T's entries, 2/dy^2 would cancel
    vals = (grad / dy**2 + np.einsum("mi,nmi,nmi->nm", pot, u, u)) / np.einsum("...i,...i", u, u)
    profiles /= np.sqrt(dy)  # continuum normalisation of the grid vector
    return RindlerBoxSpectrum.from_modes(scenario, y, np.sqrt(vals), profiles)


# zeta = v gamma tau while the atom crosses each box; Rob's box is inertial at h = 0
ALICE_ZETA, ROB_ZETA = (-1.5, -0.5), (-0.5, 0.5)


def inertial_overlaps(scenario, zeta):
    """F matrix [n-1, m-1] of an inertial box crossed for zeta in `zeta`: closed form, zero for even n.

    `zeta` is ALICE_ZETA for Alice and ROB_ZETA for Rob at h = 0, where the overlap has the
    f_nm (1 - (-1)^m exp(i g_nm)) structure of `resonance_phase`.  The coupling
    Lambda = -i eps sin^2(2 pi zeta) sin(m pi (zeta - 1/2)) exp(-i Delta zeta/(v gamma)) times
    exp(i omega_nm gamma tau) = exp(i omega_nm zeta / v) is a sum of six exponentials exp(i k zeta)
    per (n, m), each integrated exactly.
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

    Gauss-Legendre nodes avoid the tau = +-T endpoints, where chi(tau) can reach the horizon at h = 2v;
    outside the cavity walls the coupling is zero (the atom has exited through the trailing wall).
    """
    if scenario.h == 0.0:
        return inertial_overlaps(scenario, ROB_ZETA)
    if spectrum is None:
        spectrum = solve_rindler_spectrum(scenario)
    nodes, weights = _leggauss(scenario.n_quad)
    t, vg = scenario.t_half, scenario.v * scenario.gamma
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


def cavity_entanglement(scenario, spectrum=None):
    """Entropy of entanglement of Rob's reduced state (natural log).

    rho_R = (sum |F^A|^2) (+) F F+ renormalised by its trace.  The excitation block is rank one, so the
    spectrum is {p_alice, p_rob} and the entropy is their binary entropy.  A vanishing trace (no emission
    amplitude) returns zero with a flag.
    """
    f_alice = alice_overlaps(scenario)
    f_rob = rob_overlap_quadrature(scenario, spectrum=spectrum)
    p0 = float(np.sum(np.abs(f_alice) ** 2))
    trace = p0 + float(np.sum(np.abs(f_rob) ** 2))
    if trace < 1e-300:
        return {"entropy": 0.0, "flagged": True, "p_alice": 0.0, "p_rob": 0.0}
    p = p0 / trace
    return {"entropy": binary_entropy(p), "flagged": False, "p_alice": p, "p_rob": 1.0 - p}


def binary_entropy(p):
    """Closed form for the rank-one excitation block: -p ln p - q ln q."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    q = 1.0 - p
    return min(float(-p * np.log(p) - q * np.log(q)), math.log(2))  # near p = 1/2 the sum rounds an ulp above ln 2
