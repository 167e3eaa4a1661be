"""Non-perturbative evolution of N quadratically coupled bosonic modes.

The covariance-matrix evolution operator S(t), defined by

    dS/dt = -i K H(t) S,      H(t) = sum_j lambda_j(t) G_j,      S(0) = 1,

is written as an ordered product of one-generator exponentials

    S(t) = prod_j exp(-i F_j(t) K G_j)        (j = 1 leftmost).

Differentiating the product and matching against H(t) in the generator basis
yields a linear system alpha(F) F' = lambda(t) at each time: the column of
alpha for generator j is the coordinate vector of W_j^{-+} G_j W_j^{-1} with
W_j = S_1 ... S_{j-1}.  The matching is assembled numerically from the matrix
representations, so no hand-derived structure constants are needed.  F_j
values depend on the factor ordering (fixed to the basis order); Gamma(t)
does not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from .gaussian import COMPLEX, kay, symplectic_defect

# condition number above which the factor matching system counts as singular
COND_MAX = 1e10


@dataclass(frozen=True)
class GeneratorBasis:
    """Ordered Hermitian generator matrices G_j (complex form).

    Canonical ordering: N phase rotations, 2N single-mode squeezers (re / im
    per mode), beam splitters (re / im per pair), two-mode squeezers (re / im
    per pair).  Each G has the block structure [[X, Y], [conj(Y), conj(X)]]
    with X+ = X, Y^T = Y, so the count is N(2N+1).
    """

    n_modes: int
    generators: tuple
    labels: tuple

    @property
    def dim(self):
        return len(self.generators)


def _gen(n, x=None, y=None):
    g = np.zeros((2 * n, 2 * n), dtype=complex)
    if x is not None:
        g[:n, :n] = x
        g[n:, n:] = x.conj()
    if y is not None:
        g[:n, n:] = y
        g[n:, :n] = y.conj()
    return g


def build_generator_basis(n_modes):
    """All N(2N+1) independent quadratic generators in canonical order."""
    n = n_modes
    gens, labels = [], []
    for i in range(n):
        x = np.zeros((n, n), dtype=complex)
        x[i, i] = 1.0
        gens.append(_gen(n, x=x))
        labels.append(f"phase[{i}]")
    for i in range(n):
        y = np.zeros((n, n), dtype=complex)
        y[i, i] = 1.0
        gens.append(_gen(n, y=y))
        labels.append(f"sms_re[{i}]")
        y2 = np.zeros((n, n), dtype=complex)
        y2[i, i] = 1j
        gens.append(_gen(n, y=y2))
        labels.append(f"sms_im[{i}]")
    for i in range(n):
        for j in range(i + 1, n):
            x = np.zeros((n, n), dtype=complex)
            x[i, j] = 1.0
            x[j, i] = 1.0
            gens.append(_gen(n, x=x))
            labels.append(f"bs_re[{i},{j}]")
            x2 = np.zeros((n, n), dtype=complex)
            x2[i, j] = 1j
            x2[j, i] = -1j
            gens.append(_gen(n, x=x2))
            labels.append(f"bs_im[{i},{j}]")
    for i in range(n):
        for j in range(i + 1, n):
            y = np.zeros((n, n), dtype=complex)
            y[i, j] = 1.0
            y[j, i] = 1.0
            gens.append(_gen(n, y=y))
            labels.append(f"tms_re[{i},{j}]")
            y2 = np.zeros((n, n), dtype=complex)
            y2[i, j] = 1j
            y2[j, i] = 1j
            gens.append(_gen(n, y=y2))
            labels.append(f"tms_im[{i},{j}]")
    assert len(gens) == n * (2 * n + 1)
    return GeneratorBasis(n_modes=n, generators=tuple(gens), labels=tuple(labels))


def detector_field_basis():
    """N = 2 basis ordered as in the single-detector example.

    Mode 0 is the detector, mode 1 the field mode: two-mode squeezers first,
    then detector and field single-mode squeezers, then beam splitters and
    the two phase rotations.  The generators are those of
    `build_generator_basis(2)`, reordered and relabelled ([0] -> [d],
    [1] -> [D], the pair index dropped).
    """
    full = build_generator_basis(2)
    index = {lab: j for j, lab in enumerate(full.labels)}
    order = (
        "tms_re[0,1]",
        "tms_im[0,1]",
        "sms_re[0]",
        "sms_im[0]",
        "sms_re[1]",
        "sms_im[1]",
        "bs_re[0,1]",
        "bs_im[0,1]",
        "phase[0]",
        "phase[1]",
    )
    labels = tuple(lab.replace("[0,1]", "").replace("[0]", "[d]").replace("[1]", "[D]") for lab in order)
    return GeneratorBasis(n_modes=2, generators=tuple(full.generators[index[lab]] for lab in order), labels=labels)


def structure_constants(basis, tol=1e-12):
    """c_ijk of [K G_i, K G_j] = i sum_k c_ijk K G_k; residual must vanish.

    The i keeps the constants real (the -i K G_j span the real symplectic
    algebra).  Returned as a dense (dim, dim, dim) array, antisymmetric in
    the first two indices.
    """
    k = kay(basis.n_modes)
    dim = basis.dim
    mats = [k @ g for g in basis.generators]
    flat = np.stack([1j * m.ravel() for m in mats], axis=1)
    flat_real = np.vstack([flat.real, flat.imag])
    pinv = np.linalg.pinv(flat_real)
    c = np.zeros((dim, dim, dim))
    for i in range(dim):
        for j in range(dim):
            comm = (mats[i] @ mats[j] - mats[j] @ mats[i]).ravel()
            rhs = np.concatenate([comm.real, comm.imag])
            coef = pinv @ rhs
            if np.abs(flat_real @ coef - rhs).max() > tol * max(1.0, np.abs(comm).max()):
                raise RuntimeError("generator algebra is not closed")
            c[i, j, :] = coef
    return c


def _lstsq_ops(basis):
    """Pseudo-inverse taking [Re vec(M), Im vec(M)] to the coordinates of M in the basis."""
    flat = np.stack([g.ravel() for g in basis.generators], axis=1)
    return np.linalg.pinv(np.vstack([flat.real, flat.imag]))


def hamiltonian_matrix(basis, lambdas):
    """H(t) matrix from generator coefficients lambda_j."""
    h = np.zeros_like(basis.generators[0])
    for lam, g in zip(lambdas, basis.generators):
        if lam != 0.0:
            h = h + lam * g
    return h


def derive_F_odes(basis, schedule):
    """Right-hand side F'(t) = solve(alpha(F), lambda(t)) of the matching system.

    `schedule(t)` returns the vector of generator coefficients lambda_j(t).
    Raises (with the condition number) if the matching matrix degenerates.
    """
    k = kay(basis.n_modes)
    dim = basis.dim
    lstsq_ops = _lstsq_ops(basis)

    def rhs(t, f):
        lam = np.asarray(schedule(t), dtype=float)
        cols = np.empty((dim, dim))
        v = np.eye(2 * basis.n_modes, dtype=complex)  # (S_1 ... S_{j-1})^-1
        for j in range(dim):
            gj = basis.generators[j]
            vec = (v.conj().T @ gj @ v).ravel()
            cols[:, j] = lstsq_ops @ np.concatenate([vec.real, vec.imag])
            v = expm(+1j * f[j] * (k @ gj)) @ v
        cond = np.linalg.cond(cols)
        if not np.isfinite(cond) or cond > COND_MAX:
            raise RuntimeError(f"matching system singular: cond = {cond:.3e}")
        return np.linalg.solve(cols, lam)

    return rhs


def solve_factors(basis, schedule, t_span, t_eval=None, rtol=1e-9, atol=1e-11):
    """Integrate the F_j(t) ODEs from F(0) = 0 over `t_span`."""
    rhs = derive_F_odes(basis, schedule)
    sol = solve_ivp(
        rhs,
        t_span,
        np.zeros(basis.dim),
        method="RK45",
        t_eval=t_eval,
        rtol=rtol,
        atol=atol,
        dense_output=t_eval is None,
    )
    if not sol.success:
        raise RuntimeError(f"ODE integration failed: {sol.message}")
    return sol


def evolution_operator(basis, factors):
    """S = prod_j exp(-i F_j K G_j) (ordered, j = 1 leftmost)."""
    k = kay(basis.n_modes)
    s = np.eye(2 * basis.n_modes, dtype=complex)
    for f, g in zip(factors, basis.generators):
        s = s @ expm(-1j * f * (k @ g))
    return s


def evolve_state(basis, schedule, t_span, gamma0=None, t_eval=None, rtol=1e-9, atol=1e-11):
    """Covariance trajectory Gamma(t) = S(t) Gamma0 S(t)+ (complex form).

    Returns (times, factors, gammas); symplecticity |S K S+ - K| is checked
    at every output time.
    """
    n = basis.n_modes
    if gamma0 is None:
        gamma0 = np.eye(2 * n, dtype=complex)
    sol = solve_factors(basis, schedule, t_span, t_eval=t_eval, rtol=rtol, atol=atol)
    gammas = []
    for idx in range(sol.t.size):
        s = evolution_operator(basis, sol.y[:, idx])
        defect = symplectic_defect(s, COMPLEX)
        if defect > 1e-8:
            raise RuntimeError(f"evolution lost symplecticity: defect {defect:.3e}")
        gammas.append(s @ gamma0 @ s.conj().T)
    return sol.t, sol.y, np.array(gammas)


def detector_number_expectation(gamma):
    """N_d = (Gamma_11 - 1) / 2 for a zero-mean state (first mode)."""
    return float(np.real(gamma[0, 0]) - 1.0) / 2.0


def detector_number_closed_form(factors):
    """(ch1 ch2 ch3 ch4 - 1) / 2 with ch_j = cosh(2 F_j).

    Valid for the `detector_field_basis` ordering on a vacuum start, where
    F_1, F_2 belong to the two-mode squeezers and F_3, F_4 to the detector's
    single-mode squeezers.
    """
    ch = np.cosh(2.0 * np.asarray(factors[:4]))
    return float(np.prod(ch) - 1.0) / 2.0


def mean_occupations(gamma):
    """Per-mode <n_i> of a zero-mean state in the complex form."""
    n = gamma.shape[0] // 2
    return (np.real(np.diag(gamma)[:n]) - 1.0) / 2.0


def detector_example_schedule(basis, coupling=1.0, t_mod=np.sqrt(80.0), gap=2.0 * np.pi):
    """lambda(t) of the inertial-detector example: h(t) = c t^2 exp(-t^2/T^2).

    The drive populates the two-mode squeezer and beam-splitter generators
    with cos / sin of the gap phase (the 1/2 keeps the matrix representation
    equal to the monopole-times-field Hamiltonian).
    """
    idx = {lab: i for i, lab in enumerate(basis.labels)}
    want = ("tms_re", "tms_im", "bs_re", "bs_im")
    if not all(w in idx for w in want):
        raise ValueError("schedule needs the detector-field generator labels")

    def schedule(t):
        lam = np.zeros(basis.dim)
        env = 0.5 * coupling * t**2 * np.exp(-(t**2) / t_mod**2)
        lam[idx["tms_re"]] = env * np.cos(gap * t)
        lam[idx["tms_im"]] = env * np.sin(gap * t)
        lam[idx["bs_re"]] = env * np.cos(gap * t)
        lam[idx["bs_im"]] = env * np.sin(gap * t)
        return lam

    return schedule


def product_integrator_oracle(basis, schedule, t_grid, dt=1e-4, gamma0=None):
    """Fixed-step midpoint product of exp(-i K H(t) dt): brute-force oracle.

    Returns Gamma at the requested grid times (complex form, vacuum start by
    default).  Independent of the product-decomposition machinery.
    """
    n = basis.n_modes
    k = kay(n)
    if gamma0 is None:
        gamma0 = np.eye(2 * n, dtype=complex)
    s = np.eye(2 * n, dtype=complex)
    out = []
    t = t_grid[0]
    grid_iter = iter(t_grid)
    next_t = next(grid_iter)
    done = False
    while not done:
        while next_t is not None and t >= next_t - 1e-12:
            out.append(s @ gamma0 @ s.conj().T)
            next_t = next(grid_iter, None)
        if next_t is None:
            break
        step = min(dt, next_t - t)
        h = hamiltonian_matrix(basis, schedule(t + step / 2.0))
        s = expm(-1j * (k @ h) * step) @ s
        t += step
    return np.array(out)
