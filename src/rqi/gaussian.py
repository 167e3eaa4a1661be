"""Covariance-matrix toolkit for Gaussian states and symplectic transformations.

Conventions
-----------
Natural units hbar = c = 1.  The vacuum covariance matrix is the identity,
which makes our covariance matrix twice the one used by several other
references; keep that in mind when comparing formulas.

States and maps live in the complex form: the operator vector is the mode
operators (a1..aN, a1+..aN+), the covariance matrix is Hermitian with block
structure [[V, U], [conj(U), conj(V)]], and S is symplectic when
S K S+ = K with K = diag(I, -I).  The symplectic eigenvalues are the positive
eigenvalues of K Gamma.  A `SymplecticMap` is certified (defect <= defect_tol)
once, where it is made; products formed inside a computation are not
re-checked, only the map it returns.  Every quadratic generator, of the
maps here and of the `rqi.nonpert` basis, comes from `quadratic_generator`,
and its exponential from the one closed form, `generator_exponentials`.

The interleaved quadratures (x1, p1, ..., xN, pN) are a read-only view:
`real_basis_matrix` is the unitary change to them and `real_covariance` the
real covariance matrix a state has there, which the teleportation fidelity
and the Williamson form read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_TOL = 1e-10
PHYSICALITY_TOL = -1e-8


def kay(n_modes):
    """Commutator matrix K = diag(I, -I) of the complex form."""
    return np.diag(np.concatenate([np.ones(n_modes), -np.ones(n_modes)]))


def real_basis_matrix(n_modes):
    """Unitary M with (x1, p1, ..., xN, pN) = M (a1..aN, a1+..aN+).

    x_k = (a_k + a_k+) / sqrt(2) and p_k = -i (a_k - a_k+) / sqrt(2).
    """
    eye = np.eye(n_modes)
    m = np.empty((2 * n_modes, 2 * n_modes), dtype=complex)
    m[0::2] = np.hstack([eye, eye])
    m[1::2] = np.hstack([-1j * eye, 1j * eye])
    return m / np.sqrt(2.0)


@dataclass(frozen=True)
class CovarianceState:
    """Second moments of an N-mode Gaussian state (complex form).

    Every observable here (entropy, negativity, fidelity, the symplectic
    spectrum) is independent of displacement, so first moments are not kept.

    Parameters
    ----------
    n_modes : int
    covariance : (2N, 2N) array
        Hermitian; physical states satisfy Gamma + K >= 0 up to tolerance.
    """

    n_modes: int
    covariance: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.covariance)
        if g.shape != (2 * self.n_modes, 2 * self.n_modes):
            raise ValueError("dimension mismatch between n_modes and covariance")
        if np.linalg.norm(g - g.conj().T) > 1e-8 * max(1.0, np.linalg.norm(g)):
            raise ValueError("covariance matrix is not Hermitian")
        object.__setattr__(self, "covariance", g)

    def is_physical(self, tol=PHYSICALITY_TOL):
        """Check Gamma + K >= tol (tol absorbs roundoff)."""
        h = self.covariance + kay(self.n_modes)
        w = np.linalg.eigvalsh((h + h.conj().T) / 2)
        return bool(w.min() >= tol)

    def purity_det(self):
        """det(Gamma); +1 for pure states, < 1 for mixed ones."""
        return float(np.real(np.linalg.det(self.covariance)))


@dataclass(frozen=True)
class SymplecticMap:
    """A 2N x 2N complex-form matrix certified symplectic: max|S K S+ - K| <= defect_tol."""

    n_modes: int
    matrix: np.ndarray
    defect_tol: float = field(default=DEFAULT_TOL, compare=False)

    def __post_init__(self):
        s = np.asarray(self.matrix)
        if s.shape != (2 * self.n_modes, 2 * self.n_modes):
            raise ValueError("matrix shape does not match n_modes")
        object.__setattr__(self, "matrix", s)
        res = symplectic_defect(s)
        if res > self.defect_tol:
            raise ValueError(f"matrix is not symplectic: defect {res:.3e} > {self.defect_tol:.1e}")

    def inverse(self):
        """Group inverse S^-1 = K S+ K."""
        k = kay(self.n_modes)
        inv = k @ self.matrix.conj().T @ k
        return SymplecticMap(self.n_modes, inv, defect_tol=max(self.defect_tol, 1e-8))


def symplectic_defect(matrix):
    """sup-norm of S K S+ - K for a complex-form matrix S; over a stack of them, the largest."""
    k = kay(matrix.shape[-1] // 2)
    return float(np.abs(matrix @ k @ matrix.conj().swapaxes(-1, -2) - k).max(initial=0.0))


def real_covariance(state):
    """Real covariance matrix M Gamma M+ of `state` in the interleaved quadratures."""
    m = real_basis_matrix(state.n_modes)
    g = m @ state.covariance @ m.conj().T
    if np.abs(np.imag(g)).max() > 1e-9 * max(1.0, np.abs(g).max()):
        raise ValueError("covariance has no real quadrature form: it lacks the [[V, U], [conj U, conj V]] structure")
    return np.real(g)


def vacuum_state(n_modes):
    return CovarianceState(n_modes, np.eye(2 * n_modes))


def thermal_state(nus):
    """Product state with symplectic eigenvalues `nus` (nu >= 1)."""
    nus = np.atleast_1d(np.asarray(nus, dtype=float))
    return CovarianceState(nus.size, np.diag(np.tile(nus, 2)))


def quadratic_generator(n_modes, i, j, value, squeeze=False):
    """Complex-form generator [[X, Y], [conj(Y), conj(X)]] with one entry pair in X or, with `squeeze`, in Y.

    X_ij = value, X_ji = conj(value): a phase rotation (i = j, real value) or
    a beam splitter; Y_ij = Y_ji = value: a single-mode (i = j) or two-mode
    squeezer.  The other block is zero.
    """
    e = np.zeros((n_modes, n_modes), dtype=complex)
    e[j, i] = value if squeeze else np.conj(value)
    e[i, j] = value
    x, y = (np.zeros_like(e), e) if squeeze else (e, np.zeros_like(e))
    return np.block([[x, y], [y.conj(), x.conj()]])


def generator_tables(generators, labels):
    """(i K G_j, P_j, hyperbolic_j) of a stack of generators G_j, checking (K G_j)^2 = sigma_j P_j.

    P_j = sigma_j (K G_j)^2 must be a projector with K G_j P_j = K G_j, as for every `quadratic_generator`
    of a unit-modulus value; hyperbolic_j (a squeezer) is sigma_j = -1.  A generator that breaks the
    identity has no closed-form exponential and raises ValueError naming its label.
    """
    kg = np.diag(kay(generators.shape[-1] // 2))[:, None] * generators
    sq = kg @ kg
    sigma = np.sign(np.real(np.trace(sq, axis1=1, axis2=2)))
    proj = sigma[:, None, None] * sq
    scale = max(1.0, float(np.abs(kg).max()))
    bad = np.abs(proj @ proj - proj).max(axis=(1, 2)) + np.abs(kg @ proj - kg).max(axis=(1, 2)) > 1e-12 * scale
    if bad.any():
        names = [labels[j] for j in np.flatnonzero(bad)]
        raise ValueError(f"generators {names} do not satisfy (K G)^2 = +-P: no closed-form exponential")
    return 1j * kg, proj, sigma < 0


def generator_exponentials(tables, f):
    """exp(i f_j K G_j) = 1 + (c - 1) P_j + s i K G_j over the last axis of f (j), in the form the tables are in."""
    ikg, proj, hyper = tables
    c = np.where(hyper, np.cosh(f), np.cos(f))
    s = np.where(hyper, np.sinh(f), np.sin(f))
    return np.eye(ikg.shape[1]) + (c - 1.0)[..., None, None] * proj + s[..., None, None] * ikg


def _generator_map(n_modes, r, i, j, value, squeeze=False):
    """exp(-i r K G) with G = quadratic_generator(n_modes, i, j, value, squeeze), |value| = 1 and r real."""
    g = quadratic_generator(n_modes, i, j, value, squeeze)
    return generator_exponentials(generator_tables(g[None], ["G"]), -r)[0]


def beam_splitter(r, n_modes=2, modes=(0, 1)):
    """Beam-splitter symplectic map with rotation blocks cos(r), sin(r): generator 2ir(a+ b - a b+)."""
    return SymplecticMap(n_modes, _generator_map(n_modes, r, *modes, 1j))


def two_mode_squeezer(r, n_modes=2, modes=(0, 1)):
    """Two-mode squeezing map, cosh(r) / sinh(r) blocks: generator 2ir(a+ b+ - a b)."""
    return SymplecticMap(n_modes, _generator_map(n_modes, r, *modes, 1j, squeeze=True))


def two_mode_squeezed_state(r):
    """`two_mode_squeezer(r)` on the vacuum: cosh(2r) / sinh(2r) blocks, non-finite past |r| of about 355."""
    return CovarianceState(2, np.cosh(2.0 * r) * np.eye(4) + np.sinh(2.0 * r) * np.eye(4)[::-1])


def apply_map(smap, state):
    """Transform the covariance: Gamma -> S Gamma S+."""
    if smap.n_modes != state.n_modes:
        raise ValueError("mode-count mismatch between map and state")
    s = smap.matrix
    g = s @ state.covariance @ s.conj().T
    return CovarianceState(state.n_modes, (g + g.conj().T) / 2)


def symplectic_spectrum(state):
    """Sorted symplectic eigenvalues nu_k (positive eigenvalues of K Gamma).

    Physical states have all nu_k >= 1 and det(Gamma) = prod nu_k^2.
    """
    g, n = state.covariance, state.n_modes
    if np.linalg.eigvalsh((g + g.conj().T) / 2).min() <= 0:
        raise ValueError("covariance matrix is not positive definite")
    w = np.linalg.eigvals(kay(n) @ g)
    return np.sort(np.real(w))[-n:]


def partial_trace(state, keep):
    """Reduced Gaussian state on the modes in `keep` (0-based indices)."""
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValueError("keep set must not be empty")
    if keep[0] < 0 or keep[-1] >= state.n_modes:
        raise ValueError("mode index out of range")
    idx = np.asarray(keep + [k + state.n_modes for k in keep])
    return CovarianceState(len(keep), state.covariance[np.ix_(idx, idx)])


def partial_transpose(state, mode=1):
    """Partial transposition of `mode` (default: second mode).

    Realised as the swap a_mode <-> a_mode+ (the momentum flip p -> -p of
    that mode).  The result may be unphysical; its symplectic spectrum feeds
    the negativities.
    """
    n = state.n_modes
    if not 0 <= mode < n:
        raise ValueError("mode index out of range")
    idx = np.arange(2 * n)
    idx[[mode, n + mode]] = idx[[n + mode, mode]]
    return CovarianceState(n, state.covariance[np.ix_(idx, idx)])


def williamson(state):
    """Williamson normal form Gamma = S D S^T with D = diag(nu_k I_2).

    Works on `real_covariance(state)`, the interleaved quadratures; returns
    (nus, S) with S real symplectic there, so that `S @ D @ S.T`
    reconstructs that matrix.
    """
    from scipy.linalg import schur, sqrtm
    g = real_covariance(state)
    n = state.n_modes
    if np.linalg.eigvalsh(g).min() <= 0:
        raise ValueError("Williamson form requires a positive-definite matrix")
    root = np.real(sqrtm(g))
    inv_root = np.linalg.inv(root)
    omega = np.kron(np.eye(n), [[0.0, 1.0], [-1.0, 0.0]])
    anti = inv_root @ omega @ inv_root
    anti = (anti - anti.T) / 2
    t, q = schur(anti)
    # normalise each 2x2 block to [[0, b], [-b, 0]] with b > 0
    nus = np.empty(n)
    for k in range(n):
        b = t[2 * k, 2 * k + 1]
        if b < 0:
            q[:, [2 * k, 2 * k + 1]] = q[:, [2 * k + 1, 2 * k]]
            b = -b
        nus[k] = 1.0 / b
    order = np.argsort(nus)
    nus = nus[order]
    cols = np.concatenate([[2 * k, 2 * k + 1] for k in order])
    q = q[:, cols]
    scale = np.repeat(1.0 / np.sqrt(nus), 2)
    s = root @ q @ np.diag(scale)
    return nus, s


def random_symplectic(n_modes, rng):
    """Random product of six phase, beam-splitter or squeezing factors (squeezing |r| <= 0.6); only the product is certified."""
    s = np.eye(2 * n_modes, dtype=complex)
    for _ in range(6):
        kind = rng.integers(0, 3)
        if kind == 0 or (kind == 1 and n_modes == 1):
            fac = np.eye(2 * n_modes)
            for k, theta in enumerate(rng.uniform(0, 2 * np.pi, n_modes)):
                fac = _generator_map(n_modes, theta, k, k, 1.0) @ fac
        elif n_modes > 1:
            i, j = rng.choice(n_modes, size=2, replace=False)
            r = rng.uniform(-np.pi, np.pi) if kind == 1 else rng.uniform(-0.6, 0.6)
            fac = _generator_map(n_modes, r, int(i), int(j), 1j, squeeze=kind == 2)
        else:  # a single-mode squeezer (its r is drawn before its phase)
            fac = _generator_map(1, rng.uniform(-0.6, 0.6), 0, 0, np.exp(1j * rng.uniform(0, 2 * np.pi)), squeeze=True)
        s = fac @ s
    return SymplecticMap(n_modes, s, defect_tol=1e-9)
