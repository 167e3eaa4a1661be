"""Continuous-variable teleportation between an inertial and a moving cavity.

Alice (mode k, inertial) and Rob (mode k', non-uniformly moving) share a
two-mode squeezed state with squeezing r > 0; `TeleportScenario` checks r and
Rob's label once.  Rob's motion mixes his mode with the rest of his cavity;
the resource state picks up O(h^2) corrections that degrade the teleportation
fidelity

    F = 2 / sqrt(4 + 2 tr(N) + det(N)),
    N = s3 A s3 + s3 C + C^T s3 + B,

and the optimal (phase-corrected) fidelity 1 / (1 + nu-), where nu- is the
smallest symplectic eigenvalue of the partially transposed resource state
(`entanglement.smallest_pt_eigenvalue` computes it directly).

To O(h^2) both depend on the segment only through the mode sums f_alpha and
f_beta.  `f_sums` reads them off any segment's first-order blocks;
`block_sums` is their closed form for the one-block segment ((h, tau),),
which broadcasts over tau and does not depend on h, so `block_fidelities`
fills a whole (tau, h) grid in one call.  `_series` holds F0, F2 and nu-
for both routes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import boson, gaussian
from .boson import BosonCavityConfig, TrajectorySegment
from .gaussian import CovarianceState

SIGMA3 = np.diag([1.0, -1.0])


@dataclass(frozen=True)
class TeleportScenario:
    """Inputs of the moving-cavity teleportation analysis.

    Alice's mode k enters only through `alice_phase`, her accumulated phase
    omega_k t; Rob's zero-order phase omega_k' T follows from his 1-based
    mode label k' and the segment.  r > 0 is required by the
    perturbative expansion of the smallest symplectic eigenvalue; both are
    checked here and nowhere downstream.
    """

    r: float
    kp: int
    config: BosonCavityConfig
    segment: TrajectorySegment
    alice_phase: float = 0.0

    def __post_init__(self):
        if not self.r > 0:
            raise ValueError("squeezing must be positive")
        boson._check_labels(self.config.n_max, self.kp)

    @property
    def phi(self):
        omega = boson.mode_frequencies(self.config)
        return self.alice_phase + omega[self.kp - 1] * self.segment.total_time


def fidelity(state):
    """Coherent-state teleportation fidelity of a two-mode resource state.

    The formula reads the real covariance matrix of the interleaved quadratures.
    """
    if state.n_modes != 2:
        raise ValueError("need a two-mode state")
    if not state.is_physical(tol=-1e-6):
        raise ValueError("resource state is not physical")
    g = gaussian.real_covariance(state)
    a, b, c = g[:2, :2], g[2:, 2:], g[:2, 2:]
    n = SIGMA3 @ a @ SIGMA3 + SIGMA3 @ c + c.T @ SIGMA3 + b
    return float(2.0 / np.sqrt(4.0 + 2.0 * np.trace(n) + np.linalg.det(n)))


def segment_first_order(config, segment):
    """d/dh of the composed segment at h = 0, as (A1, B1) coefficient blocks.

    Each block's acceleration is scaled as h_j = lambda_j h with the config's
    h as the common scale; inertial blocks have lambda_j = 0.  Free evolution
    is diagonal, so the zero-order phases before and after block j act as
    row and column factors on its derivative.
    """
    n = config.n_max
    omega = boson.mode_frequencies(config)
    alpha, beta = config.coeffs.alpha1, config.coeffs.beta1
    zero = np.array([np.exp(1j * omega * tau) for _, tau in segment.blocks])
    a1 = np.zeros((n, n), dtype=complex)
    b1 = np.zeros((n, n), dtype=complex)
    for j, (h_j, _) in enumerate(segment.blocks):
        lam = h_j / config.h if config.h != 0 else 0.0
        if lam == 0.0:
            continue
        g = zero[j]
        pre, post = np.prod(zero[:j], axis=0), np.prod(zero[j + 1 :], axis=0)
        d_a = g[:, None] * alpha - alpha * g[None, :]
        d_b = beta * g.conj()[None, :] - g[:, None] * beta
        a1 += lam * (post[:, None] * d_a * pre[None, :])
        b1 -= lam * (post[:, None] * d_b * pre.conj()[None, :])
    return a1, b1


def f_sums(scenario):
    """(f_alpha, f_beta) for Rob's mode k'.

    f_alpha = 1/2 sum_n |A1[n, k']|^2 and likewise for f_beta.  Both sums
    skip n = k' (the diagonals vanish anyway).
    """
    a1, b1 = segment_first_order(scenario.config, scenario.segment)
    i = scenario.kp - 1
    mask = np.ones(scenario.config.n_max, dtype=bool)
    mask[i] = False
    f_alpha = 0.5 * float(np.sum(np.abs(a1[mask, i]) ** 2))
    f_beta = 0.5 * float(np.sum(np.abs(b1[mask, i]) ** 2))
    return f_alpha, f_beta


def _rot_block(alpha, beta):
    """Real 2x2 block of a complex-form (alpha, beta) pair."""
    return np.array(
        [
            [np.real(alpha - beta), np.imag(alpha + beta)],
            [-np.imag(alpha - beta), np.real(alpha + beta)],
        ]
    )


def transformed_resource_state(scenario):
    """Resource state after Rob's motion, assembled to O(h^2).

    The assembly works with the real covariance matrix gamma of the
    interleaved quadratures; the state is M+ gamma M, M = `real_basis_matrix(2)`.

    The second-order diagonal coefficients are closed with the Bogoliubov
    identity at O(h^2): 2 Re(conj(G_k') alpha2) = 2(f_beta - f_alpha) per row,
    with the free phase / local-squeeze parts set to zero (they are local and
    drop from every optimal quantity).
    """
    cfg = scenario.config
    h = cfg.h
    n = cfg.n_max
    i = scenario.kp - 1
    omega = boson.mode_frequencies(cfg)
    a1, b1 = segment_first_order(cfg, scenario.segment)
    g_kp = np.exp(1j * omega[i] * scenario.segment.total_time)
    # row sums close the second-order diagonal
    mask = np.ones(n, dtype=bool)
    mask[i] = False
    f_alpha_row = 0.5 * float(np.sum(np.abs(a1[i, mask]) ** 2))
    f_beta_row = 0.5 * float(np.sum(np.abs(b1[i, mask]) ** 2))
    alpha2 = g_kp * (f_beta_row - f_alpha_row)

    ch, sh = np.cosh(2 * scenario.r), np.sinh(2 * scenario.r)
    o_alice = _rot_block(np.exp(1j * scenario.alice_phase), 0.0)
    s_kpkp = _rot_block(g_kp + alpha2 * h**2, 0.0)
    gamma = np.zeros((4, 4))
    gamma[:2, :2] = ch * np.eye(2)
    # resource orientation matched to the Bell measurement of the fidelity
    # formula: phi = 0 is the optimal point (correlations -sinh(2r) sigma_3)
    gamma[:2, 2:] = -sh * (o_alice @ SIGMA3 @ s_kpkp.T)
    gamma[2:, :2] = gamma[:2, 2:].T
    env = np.zeros((2, 2))
    for j in range(n):
        if j == i:
            continue
        s_j = _rot_block(a1[j, i] * h, b1[j, i] * h)
        env += s_j @ s_j.T
    gamma[2:, 2:] = env + ch * (s_kpkp @ s_kpkp.T)
    m = gaussian.real_basis_matrix(2)
    return CovarianceState(2, m.conj().T @ gamma @ m)


def block_sums(config, kp, tau):
    """(f_alpha, f_beta) of `f_sums` for the one-block segment ((h, tau),), broadcast over tau.

    With one block, A1[n, k'] = alpha1[n, k'] (exp(i w_n tau) - exp(i w_k' tau)), so
    f_alpha = 2 sum_n alpha1[n, k']^2 sin^2((w_n - w_k') tau / 2) and f_beta is
    the same sum of beta1 with w_n + w_k'.  Both diagonals vanish, and neither
    sum depends on h (h = 0 only multiplies them by h^2 = 0).
    """
    boson._check_labels(config.n_max, kp)
    omega = boson.mode_frequencies(config)
    i = kp - 1
    half = 0.5 * np.asarray(tau, dtype=float)[..., None]
    f_alpha = 2.0 * np.sum(config.coeffs.alpha1[:, i] ** 2 * np.sin((omega - omega[i]) * half) ** 2, axis=-1)
    f_beta = 2.0 * np.sum(config.coeffs.beta1[:, i] ** 2 * np.sin((omega + omega[i]) * half) ** 2, axis=-1)
    return f_alpha, f_beta


def _series(r, phi, f_alpha, f_beta, h):
    """(F0, F2, nu-) of the O(h^2) expansion; every argument broadcasts.

    F0 = 1 / (1 + cosh 2r - cos(phi) sinh 2r),
    F2 = F0^2 (1 + exp(-2r)) (f_beta + f_alpha tanh r) >= 0 and
    nu- = exp(-2r) + (1 + exp(-2r)) (f_beta + f_alpha tanh r) h^2.

    The tanh argument is r, not 2r: both the assembled-state route and an
    exactly symplectic full-cavity simulation pin the h^2 coefficient to
    f_beta + f_alpha tanh(r).
    """
    mixing = f_beta + f_alpha * np.tanh(r)
    f0 = 1.0 / (1.0 + np.cosh(2 * r) - np.cos(phi) * np.sinh(2 * r))
    f2 = f0**2 * (1.0 + np.exp(-2 * r)) * mixing
    nu = np.exp(-2 * r) + (1.0 + np.exp(-2 * r)) * mixing * h**2
    return f0, f2, nu


def block_fidelities(r, kp, config, tau, h):
    """(F0 - F2 h^2, 1 / (1 + nu-)) of the one-block segments ((h, tau),); tau and h broadcast.

    Alice's phase is 0, so phi = w_k' tau.  Like `TeleportScenario` and
    `TrajectorySegment`, it refuses r <= 0, a label k' outside 1..n_max,
    tau < 0 and |h| >= 2 (NaN included) with ValueError, over the whole arrays.
    """
    tau, h = np.asarray(tau, dtype=float), np.asarray(h, dtype=float)
    if not np.all(np.asarray(r) > 0):
        raise ValueError("squeezing must be positive")
    if not np.all(tau >= 0):
        raise ValueError("proper times must be non-negative")
    if not np.all(np.abs(h) < 2.0):
        raise ValueError("physical accelerated segments need |h| < 2")
    sums = block_sums(config, kp, tau)  # checks k' before it indexes the frequencies
    f0, f2, nu = _series(r, boson.mode_frequencies(config)[kp - 1] * tau, *sums, h)
    return f0 - f2 * h * h, 1.0 / (1.0 + nu)


def fidelity_expansion(scenario):
    """(F0, F2) with F = F0 - F2 h^2 + O(h^4); see `_series`.

    The series is exact (gauge-free) at the phase-corrected points
    phi = 2 pi n, where the protocol attains the optimal bound; at generic
    phi the h^2 term also depends on second-order diagonal data that the
    perturbative expansion leaves free.
    """
    f0, f2, _ = _series(scenario.r, scenario.phi, *f_sums(scenario), scenario.config.h)
    return float(f0), float(f2)


def optimal_fidelity_corrected(scenario):
    """Phase-independent optimal fidelity 1 / (1 + nu-) to O(h^2), with nu- of `_series`."""
    _, _, nu = _series(scenario.r, scenario.phi, *f_sums(scenario), scenario.config.h)
    return {"fidelity": float(1.0 / (1.0 + nu)), "nu_minus": float(nu)}
