"""Covariance-matrix toolkit for Gaussian states and symplectic transformations.

Conventions
-----------
Natural units hbar = c = 1.  The vacuum covariance matrix is the identity,
which makes our covariance matrix twice the one used by several other
references; keep that in mind when comparing formulas.

Three operator orderings ("bases") are supported:

``"real"``
    interleaved quadratures (x1, p1, ..., xN, pN),
    symplectic form Omega = direct sum of [[0, 1], [-1, 0]].
``"quadrature"``
    grouped quadratures (x1..xN, p1..pN),
    symplectic form Omega = [[0, I], [-I, 0]].
``"complex"``
    mode operators (a1..aN, a1+..aN+); the symplectic condition becomes
    S K S+ = K with K = diag(I, -I), and the covariance matrix is Hermitian
    with block structure [[V, U], [conj(U), conj(V)]].

In every basis S is symplectic when S Omega S+ = Omega, and the symplectic
eigenvalues are the positive eigenvalues of i Omega Gamma.  A `SymplecticMap`
is certified (defect <= defect_tol) once, where it is made; products formed
inside a computation are not re-checked, only the map it returns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm, schur, sqrtm

REAL = "real"
QUADRATURE = "quadrature"
COMPLEX = "complex"

BASES = (REAL, QUADRATURE, COMPLEX)

DEFAULT_TOL = 1e-10
PHYSICALITY_TOL = -1e-8


def symplectic_form(basis, n_modes):
    """Symplectic form attached to `basis` for `n_modes` modes.

    In the complex basis this returns Omega_c = -i K.
    """
    if basis == REAL:
        w = np.array([[0.0, 1.0], [-1.0, 0.0]])
        out = np.zeros((2 * n_modes, 2 * n_modes))
        for k in range(n_modes):
            out[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = w
        return out
    if basis == QUADRATURE:
        eye = np.eye(n_modes)
        return np.block([[np.zeros((n_modes, n_modes)), eye], [-eye, np.zeros((n_modes, n_modes))]])
    if basis == COMPLEX:
        return -1j * kay(n_modes)
    raise ValueError(f"unknown basis {basis!r}")


def kay(n_modes):
    """Commutator matrix K = diag(I, -I) of the complex basis."""
    return np.diag(np.concatenate([np.ones(n_modes), -np.ones(n_modes)]))


def basis_change_matrix(src, dst, n_modes):
    """Unitary M with v_dst = M v_src for the operator vector."""
    if src not in BASES or dst not in BASES:
        raise ValueError("unknown basis")
    n = n_modes

    def to_quad(b):
        # matrix mapping basis b -> quadrature
        if b == QUADRATURE:
            return np.eye(2 * n, dtype=complex)
        if b == REAL:
            perm = np.zeros((2 * n, 2 * n))
            for i in range(n):
                perm[i, 2 * i] = 1.0
                perm[n + i, 2 * i + 1] = 1.0
            return perm.astype(complex)
        # complex -> quadrature is the inverse of L_c
        eye = np.eye(n)
        lc = np.block([[eye, 1j * eye], [eye, -1j * eye]]) / np.sqrt(2.0)
        return lc.conj().T

    # dst <- quadrature <- src; both legs are unitary
    return to_quad(dst).conj().T @ to_quad(src)


@dataclass(frozen=True)
class CovarianceState:
    """First and second moments of an N-mode Gaussian state.

    Parameters
    ----------
    n_modes : int
    basis : str
        One of "real", "quadrature", "complex".
    first_moments : (2N,) array
    covariance : (2N, 2N) array
        Hermitian (symmetric in the real bases); physical states satisfy
        Gamma + i Omega >= 0 up to tolerance.
    """

    n_modes: int
    basis: str
    first_moments: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        if self.basis not in BASES:
            raise ValueError(f"unknown basis {self.basis!r}")
        d = np.atleast_1d(np.asarray(self.first_moments))
        g = np.asarray(self.covariance)
        if g.shape != (2 * self.n_modes, 2 * self.n_modes) or d.shape != (2 * self.n_modes,):
            raise ValueError("dimension mismatch between n_modes and moments")
        if np.linalg.norm(g - g.conj().T) > 1e-8 * max(1.0, np.linalg.norm(g)):
            raise ValueError("covariance matrix is not Hermitian")
        object.__setattr__(self, "first_moments", d)
        object.__setattr__(self, "covariance", g)

    def is_physical(self, tol=PHYSICALITY_TOL):
        """Check Gamma + i Omega >= tol (tol absorbs roundoff)."""
        omega = symplectic_form(self.basis, self.n_modes)
        h = self.covariance + 1j * omega
        w = np.linalg.eigvalsh((h + h.conj().T) / 2)
        return bool(w.min() >= tol)

    def purity_det(self):
        """det(Gamma); +1 for pure states, < 1 for mixed ones."""
        return float(np.real(np.linalg.det(self.covariance)))


@dataclass(frozen=True)
class SymplecticMap:
    """A 2N x 2N matrix certified symplectic with respect to its basis."""

    n_modes: int
    basis: str
    matrix: np.ndarray
    defect_tol: float = field(default=DEFAULT_TOL, compare=False)

    def __post_init__(self):
        if self.basis not in BASES:
            raise ValueError(f"unknown basis {self.basis!r}")
        s = np.asarray(self.matrix)
        if s.shape != (2 * self.n_modes, 2 * self.n_modes):
            raise ValueError("matrix shape does not match n_modes")
        object.__setattr__(self, "matrix", s)
        res = symplectic_defect(s, self.basis)
        if res > self.defect_tol:
            raise ValueError(f"matrix is not symplectic: defect {res:.3e} > {self.defect_tol:.1e}")

    def inverse(self):
        """Group inverse; in the complex form S^-1 = K S+ K."""
        if self.basis == COMPLEX:
            k = kay(self.n_modes)
            inv = k @ self.matrix.conj().T @ k
        else:
            inv = np.linalg.inv(self.matrix)
        return SymplecticMap(self.n_modes, self.basis, inv, defect_tol=max(self.defect_tol, 1e-8))


def symplectic_defect(matrix, basis):
    """sup-norm of S Omega S+ - Omega with Omega = symplectic_form(basis, N)."""
    omega = symplectic_form(basis, matrix.shape[0] // 2)
    return float(np.abs(matrix @ omega @ matrix.conj().T - omega).max())


def convert_basis(obj, target):
    """Rewrite a CovarianceState or SymplecticMap in another basis.

    Round-trip conversions reproduce the input to machine precision and
    preserve the symplectic property.
    """
    if isinstance(obj, CovarianceState):
        if obj.basis == target:
            return obj
        m = basis_change_matrix(obj.basis, target, obj.n_modes)
        d = m @ obj.first_moments
        g = m @ obj.covariance @ m.conj().T
        if target in (REAL, QUADRATURE):
            d, g = _realify(d), _realify(g)
        return CovarianceState(obj.n_modes, target, d, g)
    if isinstance(obj, SymplecticMap):
        if obj.basis == target:
            return obj
        m = basis_change_matrix(obj.basis, target, obj.n_modes)
        s = m @ obj.matrix @ m.conj().T
        if target in (REAL, QUADRATURE):
            s = _realify(s)
        return SymplecticMap(obj.n_modes, target, s, defect_tol=max(obj.defect_tol, 1e-9))
    raise TypeError("expected CovarianceState or SymplecticMap")


def _realify(a):
    if np.abs(np.imag(a)).max() > 1e-9 * max(1.0, np.abs(a).max()):
        raise ValueError("object has no real-basis representation")
    return np.real(a)


def vacuum_state(n_modes, basis=REAL):
    return CovarianceState(n_modes, basis, np.zeros(2 * n_modes), np.eye(2 * n_modes))


def coherent_state(alphas, basis=REAL):
    """Coherent state: identity covariance, displaced first moments."""
    alphas = np.atleast_1d(np.asarray(alphas, dtype=complex))
    n = alphas.size
    d_real = np.empty(2 * n)
    d_real[0::2] = np.sqrt(2.0) * alphas.real
    d_real[1::2] = np.sqrt(2.0) * alphas.imag
    state = CovarianceState(n, REAL, d_real, np.eye(2 * n))
    return convert_basis(state, basis)


def thermal_state(nus, basis=REAL):
    """Product state with symplectic eigenvalues `nus` (nu >= 1)."""
    nus = np.atleast_1d(np.asarray(nus, dtype=float))
    n = nus.size
    g = np.diag(np.repeat(nus, 2))
    return convert_basis(CovarianceState(n, REAL, np.zeros(2 * n), g), basis)


def symplectic_from_hamiltonian(h):
    """Map a quadratic-Hamiltonian matrix (complex form) to S = exp(-i K H).

    `h` must be Hermitian with the block structure [[A, B], [conj(B), conj(A)]]
    where A+ = A and B^T = B.
    """
    h = np.asarray(h, dtype=complex)
    n = h.shape[0] // 2
    if h.shape != (2 * n, 2 * n):
        raise ValueError("expected a 2N x 2N matrix")
    if np.abs(h - h.conj().T).max() > 1e-12 * max(1.0, np.abs(h).max()):
        raise ValueError("Hamiltonian matrix must be Hermitian")
    a, b = h[:n, :n], h[:n, n:]
    if (
        np.abs(h[n:, n:] - a.conj()).max() > 1e-12 * max(1.0, np.abs(h).max())
        or np.abs(h[n:, :n] - b.conj()).max() > 1e-12 * max(1.0, np.abs(h).max())
        or np.abs(b - b.T).max() > 1e-12 * max(1.0, np.abs(h).max())
    ):
        raise ValueError("Hamiltonian matrix lacks the [[A, B], [conj(B), conj(A)]] structure")
    s = expm(-1j * kay(n) @ h)
    return SymplecticMap(n, COMPLEX, s)


def phase_rotation(thetas):
    """Free-evolution phases: a_k -> exp(-i theta_k) a_k (complex form)."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    g = np.exp(1j * thetas)
    s = np.diag(np.concatenate([g.conj(), g]))
    return SymplecticMap(thetas.size, COMPLEX, s)


def beam_splitter(r, n_modes=2, modes=(0, 1)):
    """Beam-splitter symplectic map with rotation blocks cos(r), sin(r)."""
    i, j = modes
    h = np.zeros((2 * n_modes, 2 * n_modes), dtype=complex)
    # generator 2ir(a+ b - a b+): A block = ir (E_ij - E_ji)
    h[i, j] = 1j * r
    h[j, i] = -1j * r
    h[n_modes + i, n_modes + j] = -1j * r
    h[n_modes + j, n_modes + i] = 1j * r
    return symplectic_from_hamiltonian(h)


def two_mode_squeezer(r, n_modes=2, modes=(0, 1)):
    """Two-mode squeezing map, cosh(r) / sinh(r) blocks."""
    i, j = modes
    h = np.zeros((2 * n_modes, 2 * n_modes), dtype=complex)
    # generator 2ir(a+ b+ - a b): B block = ir (E_ij + E_ji)
    h[i, n_modes + j] = 1j * r
    h[j, n_modes + i] = 1j * r
    h[n_modes + i, j] = -1j * r
    h[n_modes + j, i] = -1j * r
    return symplectic_from_hamiltonian(h)


def two_mode_squeezed_state(r, basis=COMPLEX):
    """Two-mode squeezed vacuum, covariance cosh(2r) / sinh(2r) blocks."""
    state = apply_map(two_mode_squeezer(r), vacuum_state(2, COMPLEX))
    return convert_basis(state, basis)


def apply_map(smap, state):
    """Transform first and second moments: d -> S d, Gamma -> S Gamma S+."""
    if smap.basis != state.basis:
        raise ValueError("basis mismatch between map and state")
    if smap.n_modes != state.n_modes:
        raise ValueError("mode-count mismatch between map and state")
    s = smap.matrix
    d = s @ state.first_moments
    g = s @ state.covariance @ s.conj().T
    return CovarianceState(state.n_modes, state.basis, d, (g + g.conj().T) / 2)


def symplectic_spectrum(state):
    """Sorted symplectic eigenvalues nu_k (positive eigenvalues of i Omega Gamma).

    Physical states have all nu_k >= 1 and det(Gamma) = prod nu_k^2.
    """
    g, n = state.covariance, state.n_modes
    if np.linalg.eigvalsh((g + g.conj().T) / 2).min() <= 0:
        raise ValueError("covariance matrix is not positive definite")
    w = np.linalg.eigvals(1j * symplectic_form(state.basis, n) @ g)
    return np.sort(np.real(w))[-n:]


def partial_trace(state, keep):
    """Reduced Gaussian state on the modes in `keep` (0-based indices)."""
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValueError("keep set must not be empty")
    if keep and (keep[0] < 0 or keep[-1] >= state.n_modes):
        raise ValueError("mode index out of range")
    n = state.n_modes
    if state.basis == REAL:
        idx = [j for k in keep for j in (2 * k, 2 * k + 1)]
    else:
        idx = [k for k in keep] + [k + n for k in keep]
    idx = np.asarray(idx)
    d = state.first_moments[idx]
    g = state.covariance[np.ix_(idx, idx)]
    return CovarianceState(len(keep), state.basis, d, g)


def partial_transpose(state, mode=1):
    """Partial transposition of `mode` (default: second mode).

    Realised as the momentum flip p_mode -> -p_mode in the real bases and as
    the swap a_mode <-> a_mode+ in the complex form.  The result may be
    unphysical; its symplectic spectrum feeds the negativities.
    """
    n = state.n_modes
    if not 0 <= mode < n:
        raise ValueError("mode index out of range")
    p = np.eye(2 * n, dtype=complex if state.basis == COMPLEX else float)
    if state.basis == REAL:
        p[2 * mode + 1, 2 * mode + 1] = -1.0
    elif state.basis == QUADRATURE:
        p[n + mode, n + mode] = -1.0
    else:
        p[mode, mode] = 0.0
        p[n + mode, n + mode] = 0.0
        p[mode, n + mode] = 1.0
        p[n + mode, mode] = 1.0
    d = p @ state.first_moments
    g = p @ state.covariance @ p
    return CovarianceState(n, state.basis, d, g)


def williamson(state_or_cov):
    """Williamson normal form Gamma = S D S^T with D = diag(nu_k I_2).

    Works in the real interleaved basis, in which a bare matrix is read;
    returns (nus, S) with S symplectic.
    Reconstruction `S @ D @ S.T` reproduces Gamma.
    """
    if isinstance(state_or_cov, CovarianceState):
        state = convert_basis(state_or_cov, REAL)
        g = np.real(state.covariance)
    else:
        g = np.real(np.asarray(state_or_cov))
    n = g.shape[0] // 2
    if np.linalg.eigvalsh(g).min() <= 0:
        raise ValueError("Williamson form requires a positive-definite matrix")
    root = np.real(sqrtm(g))
    inv_root = np.linalg.inv(root)
    omega = symplectic_form(REAL, n)
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


def to_json(obj):
    """Serialise a state or map to the documented JSON schema.

    Schema: {"kind": "state"|"map", "basis": ..., "n_modes": N,
    "matrix": row-major [re, im] pairs, and for states "first_moments"}.
    """
    def cplx(a):
        a = np.asarray(a, dtype=complex)
        return [[float(x.real), float(x.imag)] for x in a.ravel()]

    if isinstance(obj, CovarianceState):
        payload = {
            "kind": "state",
            "basis": obj.basis,
            "n_modes": obj.n_modes,
            "first_moments": cplx(obj.first_moments),
            "matrix": cplx(obj.covariance),
        }
    elif isinstance(obj, SymplecticMap):
        payload = {"kind": "map", "basis": obj.basis, "n_modes": obj.n_modes, "matrix": cplx(obj.matrix)}
    else:
        raise TypeError("expected CovarianceState or SymplecticMap")
    return json.dumps(payload)


def from_json(text):
    payload = json.loads(text)
    n = int(payload["n_modes"])
    basis = payload["basis"]

    def decode(entries, shape):
        a = np.array([complex(re, im) for re, im in entries]).reshape(shape)
        return np.real(a) if basis in (REAL, QUADRATURE) else a

    matrix = decode(payload["matrix"], (2 * n, 2 * n))
    if payload["kind"] == "state":
        d = decode(payload["first_moments"], (2 * n,))
        return CovarianceState(n, basis, d, matrix)
    if payload["kind"] == "map":
        return SymplecticMap(n, basis, matrix, defect_tol=1e-8)
    raise ValueError(f"unknown kind {payload['kind']!r}")


def random_symplectic(n_modes, rng, n_factors=6, strength=0.6):
    """Random composed symplectic map (complex form) for tests and sweeps."""
    s = np.eye(2 * n_modes, dtype=complex)
    for _ in range(n_factors):
        kind = rng.integers(0, 3)
        if kind == 0:
            fac = phase_rotation(rng.uniform(0, 2 * np.pi, n_modes)).matrix
        elif kind == 1:
            i, j = rng.choice(n_modes, size=2, replace=False) if n_modes > 1 else (0, 0)
            if n_modes == 1:
                fac = phase_rotation(rng.uniform(0, 2 * np.pi, 1)).matrix
            else:
                fac = beam_splitter(rng.uniform(-np.pi, np.pi), n_modes, (int(i), int(j))).matrix
        else:
            if n_modes == 1:
                h = np.zeros((2, 2), dtype=complex)
                z = rng.uniform(-strength, strength) * np.exp(1j * rng.uniform(0, 2 * np.pi))
                h[0, 1] = z
                h[1, 0] = np.conj(z)
                fac = symplectic_from_hamiltonian(h).matrix
            else:
                i, j = rng.choice(n_modes, size=2, replace=False)
                fac = two_mode_squeezer(rng.uniform(-strength, strength), n_modes, (int(i), int(j))).matrix
        s = fac @ s
    return SymplecticMap(n_modes, COMPLEX, s, defect_tol=1e-9)
