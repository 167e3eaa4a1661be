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
f_beta of column k' of its first-order blocks, whose entries
`boson.first_order_entries` gives with each block's h_j inside.  `f_sums`
broadcasts them over segments.  A one-block segment ((h, tau),) has h^2
times the sums at h = 1, so `block_fidelities` fills a whole (tau, h) grid
from one call over tau.  `_series` holds F0, F2 and nu- for every route.
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
    checked here and nowhere downstream.  Each block of the segment carries
    its own h_j; the config's h is not read.
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


def _column(config, kp, h, tau):
    """(A1[n, k'], B1[n, k']) over n on a new last axis, for blocks (h_j, tau_j) on the last axis of h and tau."""
    boson._check_labels(config.n_max, kp)
    h, tau = np.asarray(h, dtype=float)[..., None, :], np.asarray(tau, dtype=float)[..., None, :]
    return boson.first_order_entries(config, h, tau, np.arange(config.n_max), kp - 1)


def f_sums(config, kp, h, tau):
    """(f_alpha, f_beta) for Rob's mode k', broadcast over segments.

    f_alpha = 1/2 sum_n |A1[n, k']|^2 and likewise f_beta with B1 (the
    diagonal entries vanish).  Each segment's blocks (h_j, tau_j) lie on the
    last axis of h and tau, and the entries carry each block's h_j, so the
    sums are O(h^2): a one-block segment's are h^2 times those at h = 1.
    """
    a1, b1 = _column(config, kp, h, tau)
    return 0.5 * np.sum(np.abs(a1) ** 2, axis=-1), 0.5 * np.sum(np.abs(b1) ** 2, axis=-1)


def _rot_block(alpha, beta):
    """Real 2x2 block of a complex-form (alpha, beta) pair; arrays add trailing axes."""
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
    drop from every optimal quantity).  The row sums are the column sums
    `f_sums`, since |A1[k', n]| = |A1[n, k']| and |B1[k', n]| = |B1[n, k']|
    at first order.
    """
    f_alpha, f_beta = f_sums(scenario.config, scenario.kp, *scenario.segment.arrays)
    g_kp = np.exp(1j * boson.mode_frequencies(scenario.config)[scenario.kp - 1] * scenario.segment.total_time)
    ch, sh = np.cosh(2 * scenario.r), np.sinh(2 * scenario.r)
    o_alice = _rot_block(np.exp(1j * scenario.alice_phase), 0.0)
    s_kpkp = _rot_block(g_kp * (1.0 + f_beta - f_alpha), 0.0)
    gamma = np.zeros((4, 4))
    gamma[:2, :2] = ch * np.eye(2)
    # resource orientation matched to the Bell measurement of the fidelity
    # formula: phi = 0 is the optimal point (correlations -sinh(2r) sigma_3)
    gamma[:2, 2:] = -sh * (o_alice @ SIGMA3 @ s_kpkp.T)
    gamma[2:, :2] = gamma[:2, 2:].T
    # one real block per mode of Rob's cavity; Rob's own mode gives zeros
    s = _rot_block(*_column(scenario.config, scenario.kp, *scenario.segment.arrays))
    gamma[2:, 2:] = np.einsum("ijn,kjn->ik", s, s) + ch * (s_kpkp @ s_kpkp.T)
    m = gaussian.real_basis_matrix(2)
    return CovarianceState(2, m.conj().T @ gamma @ m)


def _series(r, phi, f_alpha, f_beta):
    """(F0, F2, nu-) of the O(h^2) expansion F = F0 - F2; every argument broadcasts.

    With the h^2 inside f_alpha and f_beta,

        F0 = 1 / (1 + cosh 2r - cos(phi) sinh 2r)
           = 1 / (1 + exp(2r) sin^2(phi / 2) + exp(-2r) cos^2(phi / 2)),
        F2 = F0^2 (1 + exp(-2r)) (f_beta + f_alpha tanh r) >= 0,
        nu- = exp(-2r) + (1 + exp(-2r)) (f_beta + f_alpha tanh r).

    exp(2r) sin^2(phi / 2) is taken as exp(2 (r + log|sin(phi / 2)|)): 0 at
    sin(phi / 2) = 0 and inf once it overflows, so no cell is inf * 0 = NaN.
    The tanh argument is r, not 2r: both the assembled-state route and an
    exactly symplectic full-cavity simulation pin the h^2 coefficient to
    f_beta + f_alpha tanh(r).
    """
    mixing = f_beta + f_alpha * np.tanh(r)
    half = 0.5 * np.asarray(phi)
    with np.errstate(divide="ignore", over="ignore"):
        grow = np.exp(2.0 * (r + np.log(np.abs(np.sin(half)))))
    f0 = 1.0 / (1.0 + grow + np.exp(-2 * r) * np.cos(half) ** 2)
    f2 = f0**2 * (1.0 + np.exp(-2 * r)) * mixing
    nu = np.exp(-2 * r) + (1.0 + np.exp(-2 * r)) * mixing
    return f0, f2, nu


def block_fidelities(r, kp, config, tau, h):
    """(F0 - F2, 1 / (1 + nu-), correction) of the one-block segments ((h, tau),); tau and h broadcast.

    Alice's phase is 0, so phi = w_k' tau.  correction is the larger
    relative h^2 term at each point: F2 / F0, or the drop of 1 / (1 + nu-)
    from its h = 0 value relative to that value.  Like `TeleportScenario`,
    it refuses r <= 0 and a label k' outside 1..n_max with ValueError, and
    applies the block rule of a one-block segment in this cavity (tau >= 0
    with finite phases, |h| < 2, NaN refused) over the whole arrays.
    """
    tau, h = np.asarray(tau, dtype=float), np.asarray(h, dtype=float)
    if not np.all(np.asarray(r) > 0):
        raise ValueError("squeezing must be positive")
    boson._check_blocks(h, tau[..., None], config)  # each tau is a one-block segment
    f_alpha, f_beta = f_sums(config, kp, [1.0], tau[..., None])  # checks k' before it indexes the frequencies
    f0, f2, nu = _series(r, boson.mode_frequencies(config)[kp - 1] * tau, f_alpha * h * h, f_beta * h * h)
    opt = 1.0 / (1.0 + nu)
    # F2 / F0 = F0 (nu- - exp(-2r)), and the relative drop of 1 / (1 + nu-) is opt (nu- - exp(-2r))
    return f0 - f2, opt, (nu - np.exp(-2 * r)) * np.maximum(f0, opt)


def fidelity_expansion(scenario):
    """(F0, F2) with F = F0 - F2 + O(h^4); F2 is the whole h^2 term, see `_series`.

    The series is exact (gauge-free) at the phase-corrected points
    phi = 2 pi n, where the protocol attains the optimal bound; at generic
    phi the h^2 term also depends on second-order diagonal data that the
    perturbative expansion leaves free.
    """
    f0, f2, _ = _series(scenario.r, scenario.phi, *f_sums(scenario.config, scenario.kp, *scenario.segment.arrays))
    return float(f0), float(f2)


def optimal_fidelity_corrected(scenario):
    """Phase-independent optimal fidelity 1 / (1 + nu-) to O(h^2), with nu- of `_series`."""
    _, _, nu = _series(scenario.r, scenario.phi, *f_sums(scenario.config, scenario.kp, *scenario.segment.arrays))
    return {"fidelity": float(1.0 / (1.0 + nu)), "nu_minus": float(nu)}
