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
accelerated motion; a single block is the product of a one-block segment.
`_check_blocks` is the one rule for blocks (tau_j >= 0, |h_j| < 2, NaN refused, a finite total time T and, in a
cavity, a finite largest phase 2 omega_{n_max} T).  `TrajectorySegment` (which also refuses an empty segment) and
`BosonCavityConfig` (its h) apply it without a cavity; `compose_segment`, `first_order_entries`,
`closed_form_b_magnitude` (on the standard segment's blocks) and `teleport.block_fidelities` in theirs.
`_check_labels` checks mode labels.

The first-order matrices are a pure function of the cavity config: they live
on it as `config.coeffs`, built by `bogo_first_order` on first use.
`first_order_entries` gives any entry of a segment's first-order blocks in
one broadcast over segments, blocks and modes; `closed_form_b_magnitude` is
its B entry for the standard segment, factored.

Resonance is decided in closed form, from the segment's total time T and
B1_kk'; the dense composed map is built only for the exact matrix power.
`compose_segment` certifies the map it returns; the blocks inside a
composition and powers of a composed map are not re-checked.  It keeps the
last (config, segment) map, read-only, so N repetitions of one segment
compose it once, and inverts Q(h) once per distinct h of the segment.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import entanglement
from .gaussian import CovarianceState, SymplecticMap


class PerturbativeValidityWarning(UserWarning):
    """First-order treatment pushed outside its comfort zone."""


# N |B_kk'| at or above this makes the linear-growth negativity unreliable
NB_VALIDITY_BOUND = 0.1
RESONANCE_TOL = 1e-6  # resonant when |1 - exp(i (omega_k + omega_k') T)| is at most this


def _check_blocks(h, tau, config=None):
    """Raise ValueError unless |h| < 2, tau >= 0 and T = sum(tau, axis=-1), or 2 omega_{n_max} T in a cavity, is finite."""
    limit = np.finfo(float).max / (1.0 if config is None else 2.0 * mode_frequencies(config)[-1])  # summed in its units
    if not (np.all(np.asarray(tau) >= 0) and np.all(np.sum(np.divide(tau, limit), axis=-1) <= 1.0)):
        raise ValueError("proper times must be non-negative, with finite phases over the total time")
    if not np.all(np.abs(h) < 2.0):
        raise ValueError("physical accelerated segments need |h| < 2")


@dataclass(frozen=True)
class BosonCavityConfig:
    """Cavity geometry and truncation for the perturbative treatment."""

    mass: float = 0.0  # dimensionless M = mu * delta
    n_max: int = 20
    h: float = 1e-4

    def __post_init__(self):
        if self.n_max < 2:
            raise ValueError("need at least two modes")
        if not math.isfinite(self.mass * self.mass):  # the mode frequencies square it
            raise ValueError("field mass must have a finite square")
        _check_blocks(self.h, [0.0])

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
        if not blocks:
            raise ValueError("segment must contain at least one block")
        object.__setattr__(self, "blocks", blocks)
        _check_blocks(*self.arrays)

    @property
    def total_time(self):
        return sum(tau for _, tau in self.blocks)

    @property
    def arrays(self):
        """The blocks' h_j and tau_j as two arrays, the last-axis layout `first_order_entries` reads."""
        return np.reshape(self.blocks, (-1, 2)).T


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


def first_order_entries(config, h, tau, n, m):
    """First-order entries (A1[n, m], B1[n, m]) of segments whose blocks (h_j, tau_j) lie on the last axis.

    A composed segment has A = G + A1 + O(h^2), B = B1 + O(h^2), G its free
    phases; A1 and B1 carry each block's own h_j, so an inertial block adds
    nothing.  With T_{<j}, T_{<=j}, T_{>j}, T_{>=j} the proper times before
    and after block j,

        A1[n, m] = alpha1[n, m] sum_j h_j (exp(i (w_n T_{>=j} + w_m T_{<j})) - exp(i (w_n T_{>j} + w_m T_{<=j})))

    and B1 is the same with beta1 and w_m -> -w_m.  Each difference is
    written 2i exp(i mean) sin(half difference), so short blocks keep their
    relative accuracy.  n and m are 0-based matrix indices in 0..n_max-1;
    they broadcast against the leading axes of h and tau.
    """
    h, tau = np.asarray(h, dtype=float), np.asarray(tau, dtype=float)
    omega = mode_frequencies(config)
    _check_blocks(h, tau, config)  # bounds the phases here and resonance_check's (w_k + w_k') T
    if not all(np.all((0 <= i) & (i < omega.size)) for i in (n, m)):
        raise ValueError(f"mode indices must lie in 0..{omega.size - 1}")  # -1 would read mode n_max
    w_n, w_m = omega[n][..., None], omega[m][..., None]
    half = 0.5 * tau
    mid = np.cumsum(tau, axis=-1) - half  # T_{<j} + tau_j / 2
    after = np.sum(tau, axis=-1, keepdims=True) - mid

    def entries(coeff, w):
        phase = np.exp(1j * (w_n * after + w * mid))
        return 2j * coeff[n, m] * np.sum(h * phase * np.sin((w_n - w) * half), axis=-1)

    return entries(config.coeffs.alpha1, w_m), entries(config.coeffs.beta1, -w_m)


def compose_segment(config, segment):
    """Ordered product of building blocks (first block acts first).

    The zero-order part is the phase rotation by the total proper time T;
    phases accumulate left-to-right in segment order.  Only the product is certified.
    Blocks are first order in h_j, so a PerturbativeValidityWarning is emitted, on every call,
    when n_max * |h_j| is not small.  The segment is checked in the cavity first.
    """
    _check_blocks(*segment.arrays, config)
    for h_j, _ in segment.blocks:
        if config.n_max * abs(h_j) > 0.05:
            msg = f"n_max*|h| = {config.n_max * abs(h_j):.3g}; first-order block may be inaccurate"
            warnings.warn(msg, PerturbativeValidityWarning, stacklevel=2)
    return _composed(config, segment)


@functools.lru_cache(maxsize=1)
def _composed(config, segment):
    """`compose_segment`'s certified map of the last (config, segment) met, read-only.  A block of h_j != 0 is
    Q(h_j)^-1 U(tau_j) Q(h_j), Q^-1 inverted once per distinct h_j; its defect bound is O((n_max h_j)^2)."""
    n, coeffs, omega = config.n_max, config.coeffs, mode_frequencies(config)
    scale = max(np.abs(coeffs.alpha1).max(), np.abs(coeffs.beta1).max())
    total, tol, jumps = np.eye(2 * n, dtype=complex), 1e-10, {}  # jumps: h_j -> (Q^-1, Q)
    for h_j, tau_j in segment.blocks:
        g = np.exp(1j * omega * tau_j)
        s = np.diag(np.concatenate([g.conj(), g]))
        if h_j != 0.0:
            if h_j not in jumps:
                q = np.empty((2 * n, 2 * n), dtype=complex)
                q[:n, :n] = q[n:, n:] = np.eye(n) + coeffs.alpha1 * h_j
                q[:n, n:] = q[n:, :n] = -(coeffs.beta1 * h_j)
                jumps[h_j] = np.linalg.inv(q), q
            s = jumps[h_j][0] @ s @ jumps[h_j][1]
            tol = max(tol, 50.0 * (n * scale * h_j) ** 2)
        total = s @ total
    total.flags.writeable = False
    return SymplecticMap(n, total, defect_tol=10 * tol * len(segment.blocks))


def segment_blocks(smap):
    """(A, B) blocks of a composed map S = [[conj(A), -conj(B)], [-B, A]]."""
    n = smap.n_modes
    s = smap.matrix
    return s[n:, n:].copy(), -s[n:, :n].copy()


def _check_labels(n_max, *labels):
    """Raise ValueError unless the 1-based mode labels lie in 1..n_max (0 would read mode n_max) and differ."""
    if not all(1 <= k <= n_max for k in labels):
        raise ValueError(f"mode labels must lie in 1..{n_max}, got {labels}")
    if len(set(labels)) < len(labels):
        raise ValueError(f"need distinct modes, got {labels}")


def two_mode_reduced_state(s, k, kp):
    """Reduced state of modes (k, k') after the complex-form matrix S acts on the cavity vacuum.

    Modes are 1-based and kept in ascending order, as `gaussian.partial_trace`
    keeps them.  Gamma = S S+ restricted to the two modes, formed from their
    four rows of S; S is taken as already certified.  The reduced state is
    pure up to O(h^2).
    """
    n = s.shape[0] // 2
    _check_labels(n, k, kp)
    keep = sorted((k - 1, kp - 1))
    rows = s[keep + [i + n for i in keep]]
    gamma = rows @ rows.conj().T
    return CovarianceState(2, (gamma + gamma.conj().T) / 2)


def _pair_frequency(config, k, kp):
    """omega_k + omega_k' of distinct 1-based labels, checked against the cavity's n_max."""
    _check_labels(config.n_max, k, kp)
    omega = mode_frequencies(config)
    return omega[k - 1] + omega[kp - 1]


def resonance_check(config, segment, k, kp):
    """Verdict and residual |1 - exp(i s T)| |B1_kk'| of modes (k, k') for a segment of total time T.

    s = omega_k + omega_k' and B1_kk' is the segment's first-order entry.  The pair is resonant when
    beta1_kk' = 0 (every even k + k': B1_kk' vanishes at any T) or |1 - exp(i s T)| <= RESONANCE_TOL,
    i.e. T s = 2 pi n.
    """
    return _resonance(config, segment, k, kp)[:2]


def _resonance(config, segment, k, kp):
    """`resonance_check`'s verdict and residual, and the |B1_kk'| they are read from."""
    s = _pair_frequency(config, k, kp)
    _, b = first_order_entries(config, *segment.arrays, k - 1, kp - 1)
    detuning = abs(1.0 - np.exp(1j * s * segment.total_time))
    resonant = config.coeffs.beta1[k - 1, kp - 1] == 0 or detuning <= RESONANCE_TOL
    return bool(resonant), float(detuning * abs(b)), abs(b)


def resonant_times(config, k, kp, count=5):
    """Discrete resonant total times T_n = 2 n pi / (omega_k + omega_k')."""
    return 2.0 * np.pi / _pair_frequency(config, k, kp) * np.arange(1, count + 1)


def segment_negativity_exact(config, segment, k, kp, repetitions=1):
    """Negativity of modes (k, k') after `repetitions` of the composed segment.

    This is the generic composed-product route: matrix power, reduced state,
    partial transpose, smallest symplectic eigenvalue.
    """
    if repetitions < 0:
        raise ValueError("repetitions must be non-negative")  # matrix_power would invert the map
    power = np.linalg.matrix_power(compose_segment(config, segment).matrix, repetitions)
    return entanglement.negativity_gaussian(two_mode_reduced_state(power, k, kp))


def resonance_negativity(config, segment, k, kp, repetitions):
    """Negativity after N segment repetitions, with `resonance_check`'s verdict and residual.

    On resonance this is N |B1_kk'| (B1 already carries one power of h) and the
    growth is linear in N; no map is composed.  Off resonance it is
    `segment_negativity_exact`'s value, from one composed map.
    """
    if repetitions < 0:
        raise ValueError("repetitions must be non-negative")
    resonant, residual, b_kkp = _resonance(config, segment, k, kp)
    if repetitions * b_kkp >= NB_VALIDITY_BOUND:
        warnings.warn(
            f"N |B^(1)| h = {repetitions * b_kkp:.3g} >= {NB_VALIDITY_BOUND}; perturbative result unreliable",
            PerturbativeValidityWarning,
            stacklevel=2,
        )
    value = repetitions * b_kkp if resonant else segment_negativity_exact(config, segment, k, kp, repetitions)
    return {"negativity": float(value), "resonant": resonant, "residual": residual}


def standard_segment(h, tau1, tau2, lam=1.0):
    """(h, tau1), (0, tau2), (lam h, tau1), (0, tau2): the sample scenario."""
    return TrajectorySegment(((h, tau1), (0.0, tau2), (lam * h, tau1), (0.0, tau2)))


def closed_form_b_magnitude(config, tau1, tau2, lam, k, kp):
    """|B_kk'| of the standard segment from the closed form.

    |B| = h beta1_kk' |1 - G_k G_k'(tau1)| |1 + lam G_k G_k'(tau1 + tau2)|
    with G_k G_k'(t) = exp(i (omega_k + omega_k') t).  Labels are 1-based.
    tau1 and tau2 broadcast together; scalars give a float.  The standard segment's blocks are checked
    at lam h and the smallest and the largest tau1 and tau2, as `first_order_entries` would check them.
    """
    s = _pair_frequency(config, k, kp)
    tau1, tau2 = np.asarray(tau1, dtype=float), np.asarray(tau2, dtype=float)
    _check_blocks(lam * config.h, [[tau1.min(), tau2.min()] * 2, [tau1.max(), tau2.max()] * 2], config)
    z1 = 1.0 - np.exp(1j * s * tau1)
    z2 = 1.0 + lam * np.exp(1j * s * (tau1 + tau2))
    scale = abs(config.h * config.coeffs.beta1[k - 1, kp - 1])
    # hypot, not np.abs: on a complex array np.abs can differ from the scalar abs by an ulp
    b = scale * np.hypot(z1.real, z1.imag) * np.hypot(z2.real, z2.imag)
    return float(b) if b.ndim == 0 else b

