"""Non-perturbative evolution of N quadratically coupled bosonic modes.

The covariance-matrix evolution operator S(t), defined by

    dS/dt = -i K H(t) S,      H(t) = sum_j lambda_j(t) G_j,      S(0) = 1,

is written as an ordered product of one-generator exponentials

    S(t) = prod_j exp(-i F_j(t) K G_j)        (j = 1 leftmost),

the product decomposition of Wei & Norman (J. Math. Phys. 4, 575 (1963)).
Differentiating the product and matching against H(t) in the generator basis
yields a linear system alpha(F) F' = lambda(t) at each time: the column of
alpha for generator j is the coordinate vector of W_j^{-+} G_j W_j^{-1} with
W_j = S_1 ... S_{j-1}, read off by a pseudo-inverse projection onto the
basis, so no hand-derived structure constants are needed.  The right-hand
side evaluates it in the real quadrature form, where every matrix involved
is real, and `solve_factors` integrates it with the eighth-order DOP853
scheme.

Every basis generator satisfies (K G_j)^2 = +-P_j with P_j a projector, so
each factor exponential has the closed form 1 + (c - 1) P_j + i s K G_j with
(c, s) = (cos f, sin f) or (cosh f, sinh f).  The generators and that one
closed form are `rqi.gaussian`'s (`quadratic_generator`, `generator_tables`,
`generator_exponentials`): no matrix exponential is computed on the factor
side, and a basis builds its tables once, on first use.  F_j values depend on
the factor ordering (fixed to the basis order); Gamma(t) does not.

A schedule maps a time t to the coefficients lambda(t): a float gives a
(dim,) array, an array of n times a (dim, n) array.  The fixed-step oracle
integrates dS/dt directly (midpoint rule; one schedule call per batch of
midpoints, batched Taylor steps, or `scipy.linalg.expm` for steps of norm
above TAYLOR_THETA) and shares nothing with the factor machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from .gaussian import generator_exponentials, generator_tables, kay, quadratic_generator, real_basis_matrix
from .gaussian import symplectic_defect

# condition number above which the factor matching system counts as singular
COND_MAX = 1e10
# most oracle midpoint steps exponentiated and multiplied in one batch
ORACLE_BATCH = 4096
# most oracle steps in one call: about ten minutes at the batched rate
ORACLE_MAX_STEPS = 10**8
# largest step infinity-norm the oracle's Taylor series takes, and its truncation bound
TAYLOR_THETA = 0.5
TAYLOR_TOL = 1e-16


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

    @cached_property
    def factor_tables(self):
        """`gaussian.generator_tables` of this basis, built on first use."""
        return generator_tables(np.stack(self.generators), self.labels)


def build_generator_basis(n_modes):
    """All N(2N+1) independent quadratic generators in canonical order."""
    n = n_modes
    singles = [(i, i) for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    gens, labels = [], []
    # (label stem, entry in the Y block, mode pairs, entry value of each label part)
    for stem, squeeze, modes, values in (
        ("phase", False, singles, {"": 1.0}),
        ("sms", True, singles, {"_re": 1.0, "_im": 1j}),
        ("bs", False, pairs, {"_re": 1.0, "_im": 1j}),
        ("tms", True, pairs, {"_re": 1.0, "_im": 1j}),
    ):
        for i, j in modes:
            for part, value in values.items():
                gens.append(quadratic_generator(n, i, j, value, squeeze))
                labels.append(f"{stem}{part}[{i}]" if i == j else f"{stem}{part}[{i},{j}]")
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


def hamiltonian_matrix(basis, lambdas):
    """H = sum_j lambda_j G_j; lambda of shape (dim,) gives one matrix, (dim, n) a stack of n."""
    return np.tensordot(np.asarray(lambdas), np.stack(basis.generators), axes=(0, 0))


def _to_quadrature(mats):
    """Real quadrature form Q M Q+ of complex-form matrices with the [[X, Y], [conj Y, conj X]] structure."""
    n = mats.shape[-1] // 2
    q = real_basis_matrix(n)[np.r_[0 : 2 * n : 2, 1 : 2 * n : 2]]  # rows (x1..xN, p1..pN)
    out = q @ mats @ q.conj().T
    if np.abs(out.imag).max() > 1e-12 * max(1.0, float(np.abs(out).max())):
        raise ValueError("generators lack the [[X, Y], [conj(Y), conj(X)]] block structure")
    return out.real


def derive_F_odes(basis, schedule):
    """Right-hand side F'(t) = solve(alpha(F), lambda(t)) of the matching system.

    `schedule(t)` returns the vector of generator coefficients lambda_j(t).
    Each call works in the real quadrature form: all factor exponentials from
    their closed forms, the chain W_j^{-1} = S_{j-1}^{-1} ... S_1^{-1}, one
    batched conjugation W_j^{-T} G_j W_j^{-1} of all generators and one
    pseudo-inverse projection of all columns onto the basis.  Raises (with
    the 2-norm condition number) if the matching matrix degenerates.
    """
    ikg, proj, hyper = basis.factor_tables
    tables = (_to_quadrature(ikg), _to_quadrature(proj), hyper)
    gens = _to_quadrature(np.stack(basis.generators))
    dim = basis.dim
    lstsq_ops = np.linalg.pinv(gens.reshape(dim, -1).T)
    v = np.empty_like(gens)  # v[j] = (S_1 ... S_{j-1})^-1, rewritten by every call
    v[0] = np.eye(gens.shape[1])
    v_rows = list(v)  # views: np.dot into them costs less per call than matmul

    def rhs(t, f):
        lam = np.asarray(schedule(t), dtype=float)
        e = generator_exponentials(tables, f)
        for j in range(dim - 1):
            np.dot(e[j], v_rows[j], out=v_rows[j + 1])
        cols = lstsq_ops @ (v.transpose(0, 2, 1) @ gens @ v).reshape(dim, -1).T
        s = np.linalg.svd(cols, compute_uv=False)  # 2-norm condition number s[0] / s[-1]
        cond = s[0] / s[-1] if s[-1] > 0.0 else np.inf
        if not cond <= COND_MAX:
            raise RuntimeError(f"matching system singular: cond = {cond:.3e}")
        return np.linalg.solve(cols, lam)

    return rhs


def solve_factors(basis, schedule, t_span, t_eval=None, rtol=1e-9, atol=1e-11):
    """Integrate the F_j(t) ODEs from F(0) = 0 over `t_span` (DOP853)."""
    rhs = derive_F_odes(basis, schedule)
    sol = solve_ivp(
        rhs,
        t_span,
        np.zeros(basis.dim),
        method="DOP853",
        t_eval=t_eval,
        rtol=rtol,
        atol=atol,
        dense_output=t_eval is None,
    )
    if not sol.success:
        raise RuntimeError(f"ODE integration failed: {sol.message}")
    return sol


def evolution_operator(basis, factors):
    """S = prod_j exp(-i F_j K G_j) (ordered, j = 1 leftmost), from the closed forms.

    Factors of shape (dim,) give one matrix, (dim, n) a stack of n, one per column.
    """
    e = generator_exponentials(basis.factor_tables, -np.asarray(factors, dtype=float).T)
    s = e[..., 0, :, :]
    for j in range(1, basis.dim):
        s = s @ e[..., j, :, :]
    return s


def covariance_trajectory(basis, factors, gamma0=None):
    """Gamma = S Gamma0 S+ for each column of `factors` (complex form, vacuum start by default).

    Symplecticity |S K S+ - K| is checked over the whole stack of S.
    """
    if gamma0 is None:
        gamma0 = np.eye(2 * basis.n_modes, dtype=complex)
    s = evolution_operator(basis, factors)
    defect = symplectic_defect(s)
    if defect > 1e-8:
        raise RuntimeError(f"evolution lost symplecticity: defect {defect:.3e}")
    return s @ gamma0 @ s.conj().swapaxes(-1, -2)


def evolve_state(basis, schedule, t_span, gamma0=None, t_eval=None, rtol=1e-9, atol=1e-11):
    """Covariance trajectory Gamma(t) = S(t) Gamma0 S(t)+ (complex form).

    Returns (times, factors, gammas); symplecticity |S K S+ - K| is checked
    at every output time.
    """
    sol = solve_factors(basis, schedule, t_span, t_eval=t_eval, rtol=rtol, atol=atol)
    return sol.t, sol.y, covariance_trajectory(basis, sol.y, gamma0)


def detector_number_expectation(gamma):
    """N_d = (Gamma_11 - 1) / 2 for a zero-mean state (first mode); a stack of states gives an array."""
    nd = mean_occupations(gamma)[..., 0]
    return float(nd) if nd.ndim == 0 else nd


def detector_number_closed_form(factors):
    """(ch1 ch2 ch3 ch4 - 1) / 2 with ch_j = cosh(2 F_j).

    Valid for the `detector_field_basis` ordering on a vacuum start, where
    F_1, F_2 belong to the two-mode squeezers and F_3, F_4 to the detector's
    single-mode squeezers.
    """
    ch = np.cosh(2.0 * np.asarray(factors[:4]))
    return float(np.prod(ch) - 1.0) / 2.0


def mean_occupations(gamma):
    """Per-mode <n_i> of a zero-mean state in the complex form, or of each state in a stack."""
    n = gamma.shape[-1] // 2
    return (np.real(np.diagonal(gamma, axis1=-2, axis2=-1)[..., :n]) - 1.0) / 2.0


def detector_example_schedule(basis, coupling=1.0, t_mod=np.sqrt(80.0), gap=2.0 * np.pi):
    """lambda(t) of the inertial-detector example: h(t) = c t^2 exp(-t^2/T^2).

    The drive populates the two-mode squeezer and beam-splitter generators
    with cos / sin of the gap phase (the 1/2 keeps the matrix representation
    equal to the monopole-times-field Hamiltonian).  t is a float or a numpy
    array of times; cos and sin are computed once each.
    """
    if not t_mod > 0:
        raise ValueError("modulation time t_mod must be positive")
    idx = {lab: i for i, lab in enumerate(basis.labels)}
    want = ("tms_re", "tms_im", "bs_re", "bs_im")
    if not all(w in idx for w in want):
        raise ValueError("schedule needs the detector-field generator labels")

    def schedule(t):
        lam = np.zeros((basis.dim, *np.shape(t)))
        env = 0.5 * coupling * t**2 * np.exp(-(t**2) / t_mod**2)
        lam[idx["tms_re"]] = lam[idx["bs_re"]] = env * np.cos(gap * t)
        lam[idx["tms_im"]] = lam[idx["bs_im"]] = env * np.sin(gap * t)
        return lam

    return schedule


def _midpoint_steps(t_a, t_b, dt):
    """(midpoints, lengths) of the fixed steps from t_a to t_b, in batches of at most ORACLE_BATCH.

    Full steps of dt while more than dt remains, then one shorter step onto
    t_b; a remainder below 1e-12 counts as arrived.
    """
    span = t_b - t_a
    if span <= 1e-12:
        return
    full = int(np.ceil(span / dt)) - 1
    rest = span - full * dt
    count = full + (rest > 1e-12)
    for i in range(0, count, ORACLE_BATCH):
        idx = np.arange(i, min(i + ORACLE_BATCH, count))
        lengths = np.where(idx < full, dt, rest)
        yield t_a + dt * idx + lengths / 2.0, lengths


def _step_propagators(a):
    """exp of each matrix of the stack `a` of oracle steps.

    A batch whose largest infinity-norm theta is at most TAYLOR_THETA takes
    the Taylor series of the smallest order m whose truncation bound
    theta^(m+1) / (m+1)! / (1 - theta / (m+2)) is below TAYLOR_TOL; a batch
    of larger steps goes to `scipy.linalg.expm` (scaling and squaring).
    """
    theta = float(np.abs(a).sum(axis=-1).max())
    if not np.isfinite(theta):
        raise ValueError("non-finite Hamiltonian in the oracle step")
    if theta > TAYLOR_THETA:
        return expm(a)
    order, term = 1, theta**2 / 2.0
    while term / (1.0 - theta / (order + 2)) >= TAYLOR_TOL:
        order += 1
        term *= theta / (order + 1)
    eye = np.eye(a.shape[-1])
    out = eye + a / order
    for k in range(order - 1, 0, -1):  # Horner: 1 + a (1 + a/2 (1 + ...))
        out = eye + (a @ out) / k
    return out


def _ordered_product(mats):
    """mats[-1] @ ... @ mats[0] (first matrix acts first), by pairwise reduction."""
    while len(mats) > 1:
        pairs = len(mats) // 2
        prod = mats[1 : 2 * pairs : 2] @ mats[0 : 2 * pairs : 2]
        mats = np.concatenate([prod, mats[2 * pairs :]]) if len(mats) % 2 else prod
    return mats[0]


def product_integrator_oracle(basis, schedule, t_grid, dt=1e-4, gamma0=None):
    """Fixed-step midpoint product of exp(-i K H(t) dt): brute-force oracle.

    Steps of `dt` from t_grid[0], each output time ending a shorter step.
    Per output interval (in batches of at most ORACLE_BATCH steps) the
    schedule is called once on the array of the batch's n midpoints (a
    result of any shape but (dim, n) raises ValueError), the step
    propagators come from a Taylor series (small steps) or
    `scipy.linalg.expm` (large steps), and their ordered product from a
    pairwise reduction.  Returns Gamma at the grid times (complex form,
    vacuum start by default).  Independent of the product-decomposition
    machinery: it never touches the factor tables.
    A `dt` that needs more than ORACLE_MAX_STEPS steps raises ValueError.
    """
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"oracle step dt must be finite and positive, got {dt!r}")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0 or not np.isfinite(t_grid).all() or (np.diff(t_grid) < 0.0).any():
        raise ValueError("oracle t_grid must be a non-empty, finite, non-decreasing 1-d sequence")
    if (t_grid[-1] - t_grid[0]) / dt > ORACLE_MAX_STEPS:
        raise ValueError(f"oracle step dt = {dt!r} needs more than ORACLE_MAX_STEPS = {ORACLE_MAX_STEPS} steps")
    n = basis.n_modes
    kdiag = np.diag(kay(n))[:, None]
    if gamma0 is None:
        gamma0 = np.eye(2 * n, dtype=complex)
    s = np.eye(2 * n, dtype=complex)
    out = [gamma0]
    for t_a, t_b in zip(t_grid[:-1], t_grid[1:]):
        for mids, lengths in _midpoint_steps(t_a, t_b, dt):
            lam = np.asarray(schedule(mids), dtype=float)
            if lam.shape != (basis.dim, mids.size):
                raise ValueError(f"schedule of {mids.size} times gave shape {lam.shape}, not {(basis.dim, mids.size)}")
            kh = kdiag * hamiltonian_matrix(basis, lam)
            s = _ordered_product(_step_propagators((-1j * lengths)[:, None, None] * kh)) @ s
        out.append(s @ gamma0 @ s.conj().T)
    return np.array(out)
