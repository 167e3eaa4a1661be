"""Perturbative Bogoliubov machinery for a scalar field in a moving cavity.

In units of the cavity's proper length delta, a rigid Dirichlet cavity holding
a field of dimensionless mass M = mu delta has mode frequencies

    w_n = sqrt((n pi)^2 + M^2),   n = 1, 2, ...

Switching acceleration on or off mixes the modes; to first order in the
dimensionless acceleration h = 2 delta / (a + b) the mixing coefficients have
closed forms:

    alpha1[m, n] = -2 pi^2 m n / (sqrt(w_m w_n) (w_m - w_n)^3)
    beta1[m, n]  = +2 pi^2 m n / (sqrt(w_m w_n) (w_m + w_n)^3)

for m + n odd, and zero otherwise (in particular the diagonals vanish).  The
sign convention matches the t = 0 Klein-Gordon inner product with modes
normalised positive; the quadrature oracle in the test suite pins it down.

Trajectories are built from blocks S_j = Q(h_j)^-1 U(tau_j) Q(h_j): jump to
the accelerated mode basis, rotate phases for proper time tau_j, jump back.
Products of blocks approximate arbitrary piecewise inertial/uniformly
accelerated motion.  `TrajectorySegment` checks tau_j >= 0 and |h_j| < 2 and
`_check_labels` checks mode labels; nothing downstream checks them again.

The first-order matrices are a pure function of the cavity config: they live
on it as `config.coeffs`, built by `bogo_first_order` on first use.

`building_block` and `compose_segment` certify the map they return; the
blocks inside a composition and powers of a composed map are not re-checked.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import entanglement, gaussian
from .gaussian import CovarianceState, SymplecticMap


class PerturbativeValidityWarning(UserWarning):
    """First-order treatment pushed outside its comfort zone."""


# N |B_kk'| at or above this makes the linear-growth negativity unreliable
NB_VALIDITY_BOUND = 0.1
RESONANCE_TOL = 1e-6  # resonant when the commutator residual is at most this times |B_kk'|


@dataclass(frozen=True)
class BosonCavityConfig:
    """Cavity geometry and truncation for the perturbative treatment."""

    mass: float = 0.0  # dimensionless M = mu * delta
    n_max: int = 20
    h: float = 1e-4

    def __post_init__(self):
        if self.n_max < 2:
            raise ValueError("need at least two modes")
        if not abs(self.h) < 2.0:
            raise ValueError("physical accelerated segments need |h| < 2")

    @cached_property
    def coeffs(self):
        """First-order Bogoliubov matrices of this cavity, built on first use."""
        return bogo_first_order(self)


@dataclass(frozen=True)
class TrajectorySegment:
    """Ordered (h_j, tau_j) building blocks; h_j = 0 is inertial coasting."""

    blocks: tuple

    def __post_init__(self):
        blocks = tuple((float(h), float(tau)) for h, tau in self.blocks)
        for h, tau in blocks:
            if not tau >= 0:
                raise ValueError("proper times must be non-negative")
            if not abs(h) < 2.0:
                raise ValueError("physical accelerated segments need |h| < 2")
        object.__setattr__(self, "blocks", blocks)

    @property
    def total_time(self):
        return sum(tau for _, tau in self.blocks)


@dataclass(frozen=True)
class BogoCoefficients:
    """First-order Bogoliubov matrices (coefficients of h)."""

    alpha1: np.ndarray
    beta1: np.ndarray


def mode_frequencies(config):
    """omega_n for n = 1..n_max (units 1/delta)."""
    n = np.arange(1, config.n_max + 1)
    return np.sqrt((n * np.pi) ** 2 + config.mass**2)


def bogo_first_order(config):
    """Closed-form alpha1, beta1 matrices (see module docstring).

    Entries vanish on the diagonal and whenever m + n is even; alpha1 is
    antisymmetric and beta1 symmetric.
    """
    n = np.arange(1, config.n_max + 1)
    w = mode_frequencies(config)
    m_idx, n_idx = np.meshgrid(n, n, indexing="ij")
    wm, wn = np.meshgrid(w, w, indexing="ij")
    odd = (m_idx + n_idx) % 2 == 1
    root = np.sqrt(wm * wn)
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = -2.0 * np.pi**2 * m_idx * n_idx / (root * (wm - wn) ** 3)
        beta = 2.0 * np.pi**2 * m_idx * n_idx / (root * (wm + wn) ** 3)
    alpha = np.where(odd, alpha, 0.0)
    beta = np.where(odd, beta, 0.0)
    return BogoCoefficients(alpha1=alpha, beta1=beta)


def _phase_diag(config, tau):
    return np.exp(1j * mode_frequencies(config) * tau)


def _block(config, h_j, tau_j):
    """Uncertified building block of a checked segment: (matrix, defect bound; O((n_max h)^2) at first order)."""
    n = config.n_max
    g = _phase_diag(config, tau_j)
    u = np.diag(np.concatenate([g.conj(), g]))
    if h_j == 0.0:
        return u, 1e-10
    if config.n_max * abs(h_j) > 0.05:
        warnings.warn(
            f"n_max*|h| = {config.n_max * abs(h_j):.3g}; first-order block may be inaccurate",
            PerturbativeValidityWarning,
            stacklevel=3,
        )
    coeffs = config.coeffs
    alpha = np.eye(n) + coeffs.alpha1 * h_j
    beta = coeffs.beta1 * h_j
    q = np.block([[alpha, -beta], [-beta, alpha]]).astype(complex)
    scale = max(np.abs(coeffs.alpha1).max(), np.abs(coeffs.beta1).max())
    return np.linalg.inv(q) @ u @ q, max(1e-10, 50.0 * (n * scale * h_j) ** 2)


def building_block(config, h_j, tau_j):
    """Symplectic building block S_j = Q(h_j)^-1 U(tau_j) Q(h_j) (complex form).

    h_j = 0 reduces to the pure phase rotation U(tau_j); tau_j = 0 gives the
    identity.  Emits a PerturbativeValidityWarning when n_max * |h| is not
    small, since the block is built from first-order coefficients only.
    """
    ((h_j, tau_j),) = TrajectorySegment(((h_j, tau_j),)).blocks  # checks tau_j >= 0 and |h_j| < 2
    s, bound = _block(config, h_j, tau_j)
    return SymplecticMap(config.n_max, s, defect_tol=bound)


def compose_segment(config, segment):
    """Ordered product of building blocks (first block acts first).

    The zero-order part is the phase rotation by the total proper time T;
    phases accumulate left-to-right in segment order.  Only the product is certified.
    """
    if not segment.blocks:
        raise ValueError("segment must contain at least one block")
    total = np.eye(2 * config.n_max, dtype=complex)
    tol = 1e-10
    for h_j, tau_j in segment.blocks:
        s, bound = _block(config, h_j, tau_j)
        tol = max(tol, bound)
        total = s @ total
    return SymplecticMap(config.n_max, total, defect_tol=10 * tol * len(segment.blocks))


def segment_blocks(smap):
    """(A, B) blocks of a composed map S = [[conj(A), -conj(B)], [-B, A]]."""
    n = smap.n_modes
    s = smap.matrix
    return s[n:, n:].copy(), -s[n:, :n].copy()


def two_mode_reduced_state(smap, k, kp):
    """Reduced state of modes (k, k') after acting on the cavity vacuum.

    Modes are 1-based.  Gamma = (S S+) restricted to the two modes; the
    reduced state is pure up to O(h^2).
    """
    return _reduced_state(smap.matrix, k, kp)


def _check_labels(n_max, *labels):
    """Raise ValueError unless the 1-based mode labels lie in 1..n_max (0 would read mode n_max) and differ."""
    if not all(1 <= k <= n_max for k in labels):
        raise ValueError(f"mode labels must lie in 1..{n_max}, got {labels}")
    if len(set(labels)) < len(labels):
        raise ValueError(f"need distinct modes, got {labels}")


def _reduced_state(s, k, kp):
    """two_mode_reduced_state of a complex-form matrix S, taken as already certified."""
    n = s.shape[0] // 2
    _check_labels(n, k, kp)
    full = s @ s.conj().T
    state = CovarianceState(n, (full + full.conj().T) / 2)
    return gaussian.partial_trace(state, [k - 1, kp - 1])


def resonance_check(smap, k, kp):
    """Commutator residual |(G_k' - conj(G_k)) B_kk'| of a composed map and its verdict.

    The residual vanishes exactly when the total time satisfies
    T (omega_k + omega_k') = 2 pi n, or trivially when B_kk' = 0 (even k + k').
    """
    n = smap.n_modes
    _check_labels(n, k, kp)
    _, b = segment_blocks(smap)
    b_kkp = b[k - 1, kp - 1]
    # zero-order phases from the unit-modulus part of the diagonal
    g_k = smap.matrix[n + k - 1, n + k - 1]
    g_kp = smap.matrix[n + kp - 1, n + kp - 1]
    g_k, g_kp = g_k / abs(g_k), g_kp / abs(g_kp)
    residual = float(abs((g_kp - np.conj(g_k)) * b_kkp))
    # entries that vanish at first order (even k + k') only carry O(h^2)
    # residue from the composition; they are resonant for every travel time
    b_scale = float(np.abs(b - np.diag(np.diag(b))).max())
    zero_like = abs(b_kkp) <= 1e-3 * b_scale + 1e-300
    resonant = zero_like or residual <= RESONANCE_TOL * abs(b_kkp)
    return resonant, residual


def resonant_times(config, k, kp, count=5):
    """Discrete resonant total times T_n = 2 n pi / (omega_k + omega_k')."""
    _check_labels(config.n_max, k, kp)
    omega = mode_frequencies(config)
    base = 2.0 * np.pi / (omega[k - 1] + omega[kp - 1])
    return base * np.arange(1, count + 1)


def segment_negativity_exact(config, segment, k, kp, repetitions=1):
    """Negativity of modes (k, k') after `repetitions` of the composed segment.

    This is the generic composed-product route: matrix power, reduced state,
    partial transpose, smallest symplectic eigenvalue.
    """
    return _power_negativity(compose_segment(config, segment), k, kp, repetitions)


def _power_negativity(smap, k, kp, repetitions):
    """Negativity of modes (k, k') under the `repetitions`-th power of a certified map (not re-checked)."""
    power = np.linalg.matrix_power(smap.matrix, repetitions)
    return entanglement.negativity_gaussian(_reduced_state(power, k, kp))


def resonance_negativity(config, segment, k, kp, repetitions):
    """Negativity after N segment repetitions.

    On resonance this is N |B_kk'| (B already carries one power of h) and the
    growth is linear in N; off resonance the generic composed-product value is
    returned together with resonant=False.
    """
    if repetitions < 0:
        raise ValueError("repetitions must be non-negative")
    _check_labels(config.n_max, k, kp)
    if repetitions == 0:
        return {"negativity": 0.0, "resonant": True, "residual": 0.0}
    smap = compose_segment(config, segment)
    resonant, residual = resonance_check(smap, k, kp)
    _, b = segment_blocks(smap)
    b_kkp = abs(b[k - 1, kp - 1])
    if repetitions * b_kkp >= NB_VALIDITY_BOUND:
        warnings.warn(
            f"N |B^(1)| h = {repetitions * b_kkp:.3g} >= {NB_VALIDITY_BOUND}; perturbative result unreliable",
            PerturbativeValidityWarning,
            stacklevel=2,
        )
    if resonant:
        value = repetitions * b_kkp
    else:
        value = _power_negativity(smap, k, kp, repetitions)
    return {"negativity": float(value), "resonant": bool(resonant), "residual": residual}


def standard_segment(h, tau1, tau2, lam=1.0):
    """(h, tau1), (0, tau2), (lam h, tau1), (0, tau2): the sample scenario."""
    return TrajectorySegment(((h, tau1), (0.0, tau2), (lam * h, tau1), (0.0, tau2)))


def closed_form_b_magnitude(config, tau1, tau2, lam, k, kp):
    """|B_kk'| of the standard segment from the closed form.

    |B| = h beta1_kk' |1 - G_k G_k'(tau1)| |1 + lam G_k G_k'(tau1 + tau2)|
    with G_k G_k'(t) = exp(i (omega_k + omega_k') t).  Labels are 1-based.
    tau1 and tau2 broadcast together; scalars give a float.  The segment's
    limits are checked at the smallest tau1 and tau2.
    """
    _check_labels(config.n_max, k, kp)
    tau1, tau2 = np.asarray(tau1, dtype=float), np.asarray(tau2, dtype=float)
    standard_segment(config.h, tau1.min(), tau2.min(), lam)  # checks tau >= 0 and |lam h| < 2
    omega = mode_frequencies(config)
    s = omega[k - 1] + omega[kp - 1]
    z1 = 1.0 - np.exp(1j * s * tau1)
    z2 = 1.0 + lam * np.exp(1j * s * (tau1 + tau2))
    scale = abs(config.h * config.coeffs.beta1[k - 1, kp - 1])
    # hypot, not np.abs: on a complex array np.abs can differ from the scalar abs by an ulp
    b = scale * np.hypot(z1.real, z1.imag) * np.hypot(z2.real, z2.imag)
    return float(b) if b.ndim == 0 else b

