"""Non-perturbative evolution of N quadratically coupled bosonic modes.

The covariance-matrix evolution operator S(t), defined by

    dS/dt = -i K H(t) S,      H(t) = sum_j lambda_j(t) G_j,      S(0) = 1,

is linear.  `solve_factors` integrates it in the real quadrature form by
fourth-order Magnus steps (Iserles & Norsett, Phil. Trans. R. Soc. A 357, 983
(1999); Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)), halving the
step until a step probe passes.  exp(Omega) of a Hamiltonian generator is
symplectic to rounding, so Gamma = S Gamma0 S+ comes from the integrated S,
certified once.  The adaptive DOP853 route is the tests' referee.  At each
output the factors F of S = prod_j exp(-i F_j K G_j) (j = 1 leftmost) of Wei &
Norman (J. Math. Phys. 4, 575 (1963)) are matched to S by Newton; each factor
exponential is closed-form (`gaussian.generator_exponentials`).  F depends on
the factor ordering (the basis order); Gamma does not.

A schedule maps a float t to the (dim,) array lambda(t), and an array of n
times to a (dim, n) array.  The fixed-step oracle (midpoint rule) shares with
the Magnus steps the batching (output intervals grouped by step count), the
batched exponential `expm` and the pairwise product, and nothing with the
factor machinery.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gaussian import generator_exponentials, generator_tables, kay, quadratic_generator, real_basis_matrix
from .gaussian import symplectic_defect

# condition number above which the factor matching system counts as singular
COND_MAX = 1e10
# Newton on F -> S(F): most steps of one match, and the step bound relative to max(1, |F|)
NEWTON_MAX_ITER, NEWTON_STEP_TOL = 20, 1e-9
# shortest interval a failed match is halved to before it raises
SUBDIVIDE_MIN = 1e-9
# most oracle or Magnus steps exponentiated and multiplied in one batch
ORACLE_BATCH = 4096
# Magnus steps: the first step bound, the gate on the step probe, and the smallest step before it raises
MAGNUS_H0, MAGNUS_TOL, MAGNUS_H_MIN = 0.01, 1e-7, 1e-4
# most oracle steps in one call: about ten minutes at the batched rate
ORACLE_MAX_STEPS = 10**8
# `expm`: the infinity-norm a batch is scaled to before its Taylor series, and the series' truncation bound
TAYLOR_THETA, TAYLOR_TOL = 0.5, 1e-16


@dataclass(frozen=True)
class GeneratorBasis:
    """Ordered Hermitian generator matrices G_j (complex form), each [[X, Y], [conj(Y), conj(X)]] with X+ = X and
    Y^T = Y: N(2N+1) of them span every quadratic Hamiltonian."""

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
    """All N(2N+1) generators in canonical order: N phase rotations, 2N single-mode squeezers (re / im per mode),
    beam splitters and two-mode squeezers (re / im per pair)."""
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
    """N = 2 basis of the single-detector example (mode 0 the detector, mode 1 the field): two-mode squeezers,
    detector and field single-mode squeezers, beam splitters, the two phase rotations.  `build_generator_basis(2)`
    reordered and relabelled ([0] -> [d], [1] -> [D], the pair index dropped)."""
    full = build_generator_basis(2)
    index = {lab: j for j, lab in enumerate(full.labels)}
    order = ("tms_re[0,1]", "tms_im[0,1]", "sms_re[0]", "sms_im[0]", "sms_re[1]", "sms_im[1]")
    order += ("bs_re[0,1]", "bs_im[0,1]", "phase[0]", "phase[1]")
    labels = tuple(lab.replace("[0,1]", "").replace("[0]", "[d]").replace("[1]", "[D]") for lab in order)
    return GeneratorBasis(n_modes=2, generators=tuple(full.generators[index[lab]] for lab in order), labels=labels)


def _to_quadrature(mats, inverse=False):
    """Real quadrature form Q M Q+ of complex-form matrices with the [[X, Y], [conj Y, conj X]] structure;
    with `inverse`, the complex form Q+ M Q of real quadrature-form matrices."""
    n = mats.shape[-1] // 2
    # u = sqrt(2) Q, rows (x1..xN, p1..pN): its entries are exactly 0, +-1 and +-i, so 1 maps to 1 exactly
    u = np.round(np.sqrt(2.0) * real_basis_matrix(n)[np.r_[0 : 2 * n : 2, 1 : 2 * n : 2]])
    if inverse:
        return u.conj().T @ mats @ u / 2.0
    out = u @ mats @ u.conj().T / 2.0
    if np.abs(out.imag).max() > 1e-12 * max(1.0, float(np.abs(out).max())):
        raise ValueError("generators lack the [[X, Y], [conj(Y), conj(X)]] block structure")
    return out.real


# `solve_factors`' result: s is the integrated S (n, 2N, 2N, complex form); magnus_steps counts every step taken
FactorSolution = namedtuple("FactorSolution", "t y s step step_probe magnus_steps newton_iterations subdivisions")


def solve_factors(basis, schedule, t_span, t_eval=None):
    """Integrate S(t) from S = 1 at t_span[0] by Magnus steps; match F at each output (`t_eval`, or t_span[1]).

    The step halves from MAGNUS_H0 while the step probe max|S_h - S_{h/2}| / max|S| (the h/2 result kept)
    is above MAGNUS_TOL.  F is matched by Newton from the previous output's F, the Wei-Norman matching
    matrix as Jacobian; a failed match is retried at the interval's midpoint, S there by Magnus steps from
    the last matched time.  Returns a `FactorSolution`.  A probe still failing below MAGNUS_H_MIN, and a failed
    match on an interval below SUBDIVIDE_MIN, raise RuntimeError.
    """
    ikg, proj, hyper = basis.factor_tables
    tables = (_to_quadrature(ikg), _to_quadrature(proj), hyper)
    gens = _to_quadrature(np.stack(basis.generators))
    dim, d = gens.shape[:2]
    kgens = -tables[0]  # A_j = -i K G_j
    coords_g, coords_a = np.linalg.pinv(gens.reshape(dim, -1).T), np.linalg.pinv(kgens.reshape(dim, -1).T)
    v = np.empty_like(gens)  # v[j] = W_j^{-1}, rewritten by every Newton step
    v[0] = eye = np.eye(d)
    v_rows = list(v)  # views: np.dot into them costs less per call than matmul
    edges = np.r_[t_span[0], t_span[1] if t_eval is None else t_eval].astype(float)  # t_eval of ndim > 1 raises
    if edges.size < 2 or not np.isfinite(edges).all() or (np.diff(edges) < 0.0).any():
        raise ValueError("output times must be finite, at least one, and non-decreasing from t_span[0]")

    @np.errstate(over="ignore", invalid="ignore")  # a diverging F fails by its non-finite Jacobian
    def newton(target, f):
        """(F, or None on failure, steps, cond) of Newton on S(F) = target from f.

        E_j^{-1} = exp(+i F_j K G_j) give W_j^{-1}, the Jacobian (column j: coordinates of W_j^{-+} G_j W_j^{-1})
        and S(F)^{-1}; a step solves the Jacobian against target S(F)^{-1} - 1.  A non-finite Jacobian,
        cond > COND_MAX and NEWTON_MAX_ITER steps are failures.
        """
        for it in range(1, NEWTON_MAX_ITER + 1):
            e = generator_exponentials(tables, f)
            for j in range(dim - 1):
                np.dot(e[j], v_rows[j], out=v_rows[j + 1])
            jac = coords_g @ (v.transpose(0, 2, 1) @ gens @ v).reshape(dim, -1).T
            if not np.isfinite(jac).all():
                return None, it, np.inf
            sv = np.linalg.svd(jac, compute_uv=False)  # 2-norm condition number sv[0] / sv[-1]
            cond = sv[0] / sv[-1] if sv[-1] > 0.0 else np.inf
            if not cond <= COND_MAX:
                break
            step = np.linalg.solve(jac, coords_a @ (target @ e[-1] @ v[-1] - eye).ravel())
            f = f + step
            if np.abs(step).max() <= NEWTON_STEP_TOL * max(1.0, np.abs(f).max()):
                return f, it, cond
        return None, it, cond

    h, probe, (s_out, steps) = MAGNUS_H0, np.inf, _magnus_evolution(kgens, schedule, edges, MAGNUS_H0)
    while not probe <= MAGNUS_TOL:  # a NaN probe halves on to the floor
        if h / 2.0 < MAGNUS_H_MIN:
            raise RuntimeError(f"Magnus step probe {probe:.3e} above MAGNUS_TOL = {MAGNUS_TOL:.0e} at step {h:.3e}")
        h, (s_half, more) = h / 2.0, _magnus_evolution(kgens, schedule, edges, h / 2.0)
        probe, s_out, steps = float(np.abs(s_out - s_half).max() / np.abs(s_half).max()), s_half, steps + more
    factors, iterations, subdivisions = np.empty((dim, edges.size - 1)), 0, 0
    t_a, f, s_a = edges[0], np.zeros(dim), eye  # the last matched time, its F and its S
    for k, t in enumerate(edges[1:]):
        target, s_target = t, s_out[k]
        while t_a != t:
            f_new, it, cond = newton(s_target, f)
            iterations += it
            if f_new is not None:  # on to the output from here
                t_a, f, s_a, target, s_target = target, f_new, s_target, t, s_out[k]
            elif abs(target - t_a) < SUBDIVIDE_MIN:
                raise RuntimeError(f"matching system singular: cond = {cond:.3e}")
            else:  # S at the midpoint, by Magnus steps from the last matched time
                target = (t_a + target) / 2.0
                s_mid, more = _magnus_evolution(kgens, schedule, np.array([t_a, target]), h)
                s_target, steps, subdivisions = s_mid[0] @ s_a, steps + more, subdivisions + 1
        factors[:, k] = f
    s_out = _to_quadrature(s_out, inverse=True)
    return FactorSolution(edges[1:], factors, s_out, h, probe, steps, iterations, subdivisions)


def evolution_operator(basis, factors):
    """S = prod_j exp(-i F_j K G_j) (ordered, j = 1 leftmost), from the closed forms.

    Factors of shape (dim,) give one matrix, (dim, n) a stack of n, one per column.
    """
    e = generator_exponentials(basis.factor_tables, -np.asarray(factors, dtype=float).T)
    s = e[..., 0, :, :]
    for j in range(1, basis.dim):
        s = s @ e[..., j, :, :]
    return s


def covariance_trajectory(s, gamma0=None):
    """Gamma = S Gamma0 S+ for each S of the complex-form stack `s` (vacuum start by default), once the stack's
    symplectic defect max|S K S+ - K| is certified finite and at most 1e-8."""
    defect = symplectic_defect(s)
    if not defect <= 1e-8:
        raise RuntimeError(f"evolution lost symplecticity: defect {defect:.3e}")
    return s @ (np.eye(s.shape[-1]) if gamma0 is None else gamma0) @ s.conj().swapaxes(-1, -2)


def evolve_state(basis, schedule, t_span, gamma0=None, t_eval=None):
    """(times, factors, gammas): Gamma = S Gamma0 S+ (complex form) of `solve_factors`' integrated S."""
    sol = solve_factors(basis, schedule, t_span, t_eval=t_eval)
    return sol.t, sol.y, covariance_trajectory(sol.s, gamma0)


def detector_number_expectation(gamma):
    """N_d = (Gamma_11 - 1) / 2 for a zero-mean state (first mode); a stack of states gives an array."""
    nd = mean_occupations(gamma)[..., 0]
    return float(nd) if nd.ndim == 0 else nd


def mean_occupations(gamma):
    """Per-mode <n_i> of a zero-mean state in the complex form, or of each state in a stack."""
    n = gamma.shape[-1] // 2
    return (np.real(np.diagonal(gamma, axis1=-2, axis2=-1)[..., :n]) - 1.0) / 2.0


def detector_example_schedule(basis, coupling=1.0, t_mod=np.sqrt(80.0), gap=2.0 * np.pi):
    """lambda(t) of the inertial-detector example, h(t) = c t^2 exp(-t^2/T^2), for a float t or an array of times.

    The drive populates the two-mode squeezer and beam-splitter generators with cos / sin of the gap phase (the
    1/2 keeps the matrix representation equal to the monopole-times-field Hamiltonian).
    """
    if not t_mod > 0:
        raise ValueError("modulation time t_mod must be positive")
    idx = {lab: i for i, lab in enumerate(basis.labels)}
    if not {"tms_re", "tms_im", "bs_re", "bs_im"} <= idx.keys():
        raise ValueError("schedule needs the detector-field generator labels")

    def schedule(t):
        lam = np.zeros((basis.dim, *np.shape(t)))
        env = 0.5 * coupling * t**2 * np.exp(-(t**2) / t_mod**2)
        lam[idx["tms_re"]] = lam[idx["bs_re"]] = env * np.cos(gap * t)
        lam[idx["tms_im"]] = lam[idx["bs_im"]] = env * np.sin(gap * t)
        return lam

    return schedule


def _drive(schedule, times, dim):
    """The schedule's coefficients at the 1-d array `times`; a result of any shape but (dim, n) raises ValueError."""
    lam = np.asarray(schedule(times), dtype=float)
    if lam.shape != (dim, times.size):
        raise ValueError(f"schedule of {times.size} times gave shape {lam.shape}, not {(dim, times.size)}")
    return lam


def _magnus_evolution(kgens, schedule, edges, h):
    """(S at each of edges[1:] from S = 1 at edges[0], steps taken) by fourth-order Magnus steps of at most h.

    Interval k takes m_k = ceil(length / h) equal steps tau; A_1, A_2 = sum_j lambda_j A_j (`kgens`: the real
    A_j = -i K G_j) at a step's two Gauss-Legendre nodes give Omega = (tau/2)(A_1 + A_2) + (sqrt(3)/12) tau^2
    [A_2, A_1], one schedule call and one `tensordot` a batch of `_stepped_evolution`.
    """
    t_a, t_b, d, nodes01 = edges[:-1], edges[1:], kgens.shape[-1], 0.5 + np.sqrt(3.0) / 6.0 * np.array([-1.0, 1.0])
    m = np.ceil((t_b - t_a) / h - 1e-9).astype(int)  # a length within rounding of a multiple of h takes that many

    def omega(sel, steps):
        tau = ((t_b[sel] - t_a[sel]) / m[sel[0]])[:, None, None, None]
        nodes = t_a[sel, None, None] + tau[..., 0] * (steps[:, None] + nodes01)
        a = np.tensordot(_drive(schedule, nodes.ravel(), len(kgens)), kgens, axes=(0, 0))
        a1, a2 = np.moveaxis(a.reshape(*nodes.shape, d, d), 2, 0)
        return tau / 2.0 * (a1 + a2) + np.sqrt(3.0) / 12.0 * tau**2 * (a2 @ a1 - a1 @ a2)

    return _stepped_evolution(m, omega, d), int(m.sum())


def _stepped_evolution(counts, exponent, d):
    """S at the end of each interval from S = 1 at the first's start, interval k taking counts[k] steps.

    `exponent(sel, steps)` gives the (len(sel), len(steps), d, d) exponents of the steps `steps` (indices from 0) of
    the intervals `sel`.  Intervals of one count are stepped together, at most ORACLE_BATCH steps a batch: one
    `expm` and one `_ordered_product` a batch.
    """
    s = np.broadcast_to(np.eye(d), (counts.size, d, d)).copy()
    for mk in np.unique(counts[counts > 0]):
        rows, width, per = np.flatnonzero(counts == mk), min(mk, ORACLE_BATCH), max(1, ORACLE_BATCH // mk)
        for r in range(0, rows.size, per):
            sel = rows[r : r + per]
            for i in range(0, mk, width):
                s[sel] = _ordered_product(expm(exponent(sel, np.arange(i, min(i + width, mk))))) @ s[sel]
    for k in range(1, counts.size):
        s[k] = s[k] @ s[k - 1]
    return s


def expm(a):
    """exp of each matrix of the stack `a` of oracle or Magnus steps, by scaling and squaring (Higham, SIAM J.
    Matrix Anal. Appl. 26, 1179 (2005)): the batch is scaled by 2^-q, q the fewest halvings that bring its largest
    infinity-norm theta to at most TAYLOR_THETA; the Taylor series of the smallest order m whose truncation bound
    theta^(m+1) / (m+1)! / (1 - theta / (m+2)) is below TAYLOR_TOL is summed by Horner and squared q times.
    """
    theta = float(np.abs(a).sum(axis=-1).max())
    if not np.isfinite(theta):
        raise ValueError("non-finite Hamiltonian in a propagator step")
    q = int(np.ceil(np.log2(theta / TAYLOR_THETA))) if theta > TAYLOR_THETA else 0
    a, theta = a / 2.0**q, theta / 2.0**q
    order, term = 1, theta**2 / 2.0
    while term / (1.0 - theta / (order + 2)) >= TAYLOR_TOL:
        order += 1
        term *= theta / (order + 1)
    eye = np.eye(a.shape[-1])
    out, tmp = eye + a / order, np.empty_like(a)
    for k in range(order - 1, 0, -1):  # Horner: 1 + a (1 + a/2 (1 + ...)), into the two buffers in turn
        np.matmul(a, out, out=tmp)
        tmp /= k
        tmp += eye
        out, tmp = tmp, out
    for _ in range(q):
        out, tmp = np.matmul(out, out, out=tmp), out
    return out


def _ordered_product(mats):
    """mats[..., -1, :, :] @ ... @ mats[..., 0, :, :] (first matrix acts first), by pairwise reduction."""
    while mats.shape[-3] > 1:
        pairs = mats.shape[-3] // 2
        prod = mats[..., 1 : 2 * pairs : 2, :, :] @ mats[..., 0 : 2 * pairs : 2, :, :]
        mats = np.concatenate([prod, mats[..., 2 * pairs :, :, :]], axis=-3) if mats.shape[-3] % 2 else prod
    return mats[..., 0, :, :]


def product_integrator_oracle(basis, schedule, t_grid, dt=1e-4, gamma0=None):
    """Fixed-step midpoint product of exp(-i K H(t) dt): brute-force oracle, in the real quadrature form.

    Steps of `dt` from t_grid[0], each output time ending a shorter step; output intervals of one step count are
    stepped together by `_stepped_evolution`, as the Magnus steps are, one schedule call on each batch's
    midpoints.  Returns Gamma = S Gamma0 S+ at the grid times (complex form,
    vacuum start by default); it never touches the factor tables.  A basis without the block structure, a
    schedule result of any shape but (dim, n) and a `dt` of more than ORACLE_MAX_STEPS steps raise ValueError.
    """
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"oracle step dt must be finite and positive, got {dt!r}")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0 or not np.isfinite(t_grid).all() or (np.diff(t_grid) < 0.0).any():
        raise ValueError("oracle t_grid must be a non-empty, finite, non-decreasing 1-d sequence")
    if (t_grid[-1] - t_grid[0]) / dt > ORACLE_MAX_STEPS:
        raise ValueError(f"oracle step dt = {dt!r} needs more than ORACLE_MAX_STEPS = {ORACLE_MAX_STEPS} steps")
    n, span = basis.n_modes, np.diff(t_grid)
    kgens = _to_quadrature(-1j * (kay(n) @ np.stack(basis.generators)))  # the real -i K G_j
    full = np.ceil(span / dt).astype(int) - 1  # steps of dt, then one of length rest onto the output
    rest = span - full * dt
    counts = np.where(span > 1e-12, full + (rest > 1e-12), 0)  # a remainder below 1e-12 counts as arrived

    def exponent(sel, steps):
        lengths = np.where(steps < full[sel, None], dt, rest[sel, None])
        lam = _drive(schedule, (t_grid[sel, None] + dt * steps + lengths / 2.0).ravel(), basis.dim) * lengths.ravel()
        return np.tensordot(lam, kgens, axes=(0, 0)).reshape(*lengths.shape, 2 * n, 2 * n)

    s = _to_quadrature(np.concatenate([np.eye(2 * n)[None], _stepped_evolution(counts, exponent, 2 * n)]), inverse=True)
    return s @ (np.eye(2 * n) if gamma0 is None else gamma0) @ s.conj().swapaxes(-1, -2)
