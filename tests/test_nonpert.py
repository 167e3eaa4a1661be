import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from oracle_nonpert import dop853_evolution
from rqi import gaussian, nonpert

PROPS = settings(max_examples=60, deadline=None, database=None)
BASES = [nonpert.build_generator_basis(n) for n in (1, 2, 3)] + [nonpert.detector_field_basis()]


def expm_product_oracle(basis, schedule, t_grid, dt=1e-4, gamma0=None):
    """Sequential referee: one scipy expm per midpoint step, accumulating t.

    The fixed-step midpoint product as first written, with H = sum_j lambda_j G_j
    summed step by step; the library oracle evaluates the same steps in
    batches, in the real quadrature form.
    """
    n = basis.n_modes
    k = gaussian.kay(n)
    if gamma0 is None:
        gamma0 = np.eye(2 * n, dtype=complex)
    s = np.eye(2 * n, dtype=complex)
    out = []
    t = t_grid[0]
    grid_iter = iter(t_grid)
    next_t = next(grid_iter)
    while True:
        while next_t is not None and t >= next_t - 1e-12:
            out.append(s @ gamma0 @ s.conj().T)
            next_t = next(grid_iter, None)
        if next_t is None:
            break
        step = min(dt, next_t - t)
        h = sum(lam * g for lam, g in zip(schedule(t + step / 2.0), basis.generators))
        s = expm(-1j * (k @ h) * step) @ s
        t += step
    return np.array(out)


def closed_form_nd(factors):
    """N_d = (ch1 ch2 ch3 ch4 - 1) / 2 with ch_j = cosh(2 F_j): the `detector_field_basis` ordering on a vacuum
    start, where F_1, F_2 belong to the two-mode squeezers and F_3, F_4 to the detector's single-mode squeezers."""
    return float(np.prod(np.cosh(2.0 * np.asarray(factors[:4]))) - 1.0) / 2.0


def call_budget(schedule, budget=2000):
    """`schedule` that fails the test after `budget` calls, so a non-terminating loop cannot hang it."""
    calls = []

    def limited(t):
        calls.append(t)
        assert len(calls) <= budget, "oracle kept stepping"
        return schedule(t)

    return limited


def test_generator_counts():
    assert nonpert.build_generator_basis(1).dim == 3
    assert nonpert.build_generator_basis(2).dim == 10
    assert nonpert.build_generator_basis(3).dim == 21
    basis = nonpert.build_generator_basis(2)
    for g in basis.generators:
        assert np.abs(g - g.conj().T).max() < 1e-15  # Hermitian
        n = basis.n_modes
        assert np.abs(g[n:, n:] - g[:n, :n].conj()).max() < 1e-15
        assert np.abs(g[n:, :n] - g[:n, n:].conj()).max() < 1e-15
        y = g[:n, n:]
        assert np.abs(y - y.T).max() < 1e-15


def test_single_generator_drives_are_exact():
    basis = nonpert.detector_field_basis()
    idx = {lab: i for i, lab in enumerate(basis.labels)}
    lam = 0.3
    sched = lambda t: np.multiply.outer(np.eye(basis.dim)[idx["tms_re"]] * lam, np.ones(np.shape(t)))
    _, factors, _ = nonpert.evolve_state(basis, sched, (0.0, 2.0), t_eval=[2.0])
    assert abs(factors[idx["tms_re"], 0] - lam * 2.0) < 1e-9
    others = np.delete(factors[:, 0], idx["tms_re"])
    assert np.abs(others).max() < 1e-10
    # abelian phase drive
    sched2 = lambda t: np.multiply.outer(np.eye(basis.dim)[idx["phase[d]"]] * 0.7, np.ones(np.shape(t)))
    _, factors2, _ = nonpert.evolve_state(basis, sched2, (0.0, 3.0), t_eval=[3.0])
    assert abs(factors2[idx["phase[d]"], 0] - 2.1) < 1e-9


def test_zero_schedule_leaves_state():
    basis = nonpert.build_generator_basis(2)
    gamma0 = np.diag([1.7, 1.2, 1.7, 1.2]).astype(complex)
    sched = lambda t: np.zeros((basis.dim, *np.shape(t)))
    _, _, gammas = nonpert.evolve_state(basis, sched, (0.0, 5.0), gamma0=gamma0, t_eval=[5.0])
    assert np.abs(gammas[0] - gamma0).max() < 1e-12


def test_closed_form_nd_exact_for_tms_drive():
    basis = nonpert.detector_field_basis()
    idx = {lab: i for i, lab in enumerate(basis.labels)}

    def sched(t):
        lam = np.zeros((basis.dim, *np.shape(t)))
        lam[idx["tms_re"]] = 0.25 * np.cos(2.5 * t)
        lam[idx["tms_im"]] = 0.25 * np.sin(2.5 * t)
        return lam

    times, factors, gammas = nonpert.evolve_state(basis, sched, (0.0, 5.0), t_eval=[1.7, 3.0, 5.0])
    for i in range(times.size):
        nd = nonpert.detector_number_expectation(gammas[i])
        assert abs(nd - closed_form_nd(factors[:, i])) < 1e-10


def test_example_schedule_against_product_oracle():
    basis = nonpert.detector_field_basis()
    sched = nonpert.detector_example_schedule(basis, coupling=0.5, t_mod=2.0, gap=2 * np.pi)
    grid = np.linspace(0.0, 8.0, 9)
    _, _, gammas = nonpert.evolve_state(basis, sched, (0.0, 8.0), t_eval=grid)
    oracle = nonpert.product_integrator_oracle(basis, sched, grid, dt=2e-4)
    nd = np.array([nonpert.detector_number_expectation(g) for g in gammas])
    nd_o = np.array([nonpert.detector_number_expectation(g) for g in oracle])
    assert np.abs(nd - nd_o).max() < 1e-6


def test_vacuum_start_gives_ss_dagger_and_purity():
    basis = nonpert.detector_field_basis()
    sched = nonpert.detector_example_schedule(basis, coupling=0.4, t_mod=2.0, gap=np.pi)
    times, factors, gammas = nonpert.evolve_state(basis, sched, (0.0, 6.0), t_eval=[3.0, 6.0])
    for i in range(times.size):
        s = nonpert.evolution_operator(basis, factors[:, i])
        assert np.abs(s @ s.conj().T - gammas[i]).max() < 1e-8
        assert abs(np.real(np.linalg.det(gammas[i])) - 1.0) < 1e-8
        k = gaussian.kay(2)
        assert np.abs(s @ k @ s.conj().T - k).max() < 1e-8


def test_passive_schedule_conserves_total_number():
    basis = nonpert.detector_field_basis()
    idx = {lab: i for i, lab in enumerate(basis.labels)}

    def sched(t):
        lam = np.zeros((basis.dim, *np.shape(t)))
        lam[idx["bs_re"]] = 0.4 * np.cos(t)
        lam[idx["bs_im"]] = 0.3
        lam[idx["phase[d]"]] = 1.0
        return lam

    # squeezed initial state so the total number is nontrivial
    gamma0 = np.diag([np.exp(1.0), np.exp(0.4), np.exp(-1.0), np.exp(-0.4)]).astype(complex)
    gamma0 = (gamma0 + np.diag([np.exp(-1.0), np.exp(-0.4), np.exp(1.0), np.exp(0.4)])) / 2
    times, _, gammas = nonpert.evolve_state(
        basis, sched, (0.0, 6.0), gamma0=gamma0, t_eval=np.linspace(0, 6, 7)
    )
    totals = [nonpert.mean_occupations(g).sum() for g in gammas]
    assert np.ptp(totals) < 1e-8


def test_halved_step_consistency(monkeypatch):
    basis = nonpert.detector_field_basis()
    sched = nonpert.detector_example_schedule(basis, coupling=0.6, t_mod=2.0, gap=2 * np.pi)
    _, _, g1 = nonpert.evolve_state(basis, sched, (0.0, 6.0), t_eval=[6.0])
    monkeypatch.setattr(nonpert, "MAGNUS_H0", nonpert.MAGNUS_H0 / 2.0)
    _, _, g2 = nonpert.evolve_state(basis, sched, (0.0, 6.0), t_eval=[6.0])
    nd1 = nonpert.detector_number_expectation(g1[0])
    nd2 = nonpert.detector_number_expectation(g2[0])
    assert abs(nd1 - nd2) < 1e-7


def test_magnus_evolution_against_dop853_referee():
    """The default drive on the CLI's grid: S within 1e-8 max|S| of DOP853 at rtol 1e-13, symplectic to rounding."""
    basis = nonpert.detector_field_basis()
    sched = nonpert.detector_example_schedule(basis)
    grid = np.linspace(0.0, 40.0, 201)
    sol = nonpert.solve_factors(basis, sched, (0.0, 40.0), t_eval=grid)
    referee = dop853_evolution(basis, sched, (0.0, 40.0), grid)
    scale = np.abs(referee).max()
    assert scale > 100.0  # the drive squeezes: errors are relative to a large S
    assert np.abs(sol.s - referee).max() <= 1e-8 * scale
    assert gaussian.symplectic_defect(sol.s) <= 1e-15 * scale**2
    assert sol.step == nonpert.MAGNUS_H0 / 2 and sol.step_probe <= nonpert.MAGNUS_TOL


def test_step_probe_failing_down_to_the_floor_raises(monkeypatch):
    basis = nonpert.detector_field_basis()
    sched = nonpert.detector_example_schedule(basis, coupling=0.5, t_mod=2.0)
    monkeypatch.setattr(nonpert, "MAGNUS_TOL", 0.0)  # no probe passes: the step halves until the next is below the floor
    with pytest.raises(RuntimeError, match="MAGNUS_TOL"):
        nonpert.solve_factors(basis, sched, (0.0, 0.5), t_eval=[0.5])


def test_hamiltonian_matrix_matches_printed_structure():
    basis = nonpert.detector_field_basis()
    sched = nonpert.detector_example_schedule(basis, coupling=1.0, t_mod=np.sqrt(80.0), gap=2 * np.pi)
    t = 1.3
    h = sum(lam * g for lam, g in zip(sched(t), basis.generators))
    env = 0.5 * t**2 * np.exp(-t**2 / 80.0)
    phase = np.exp(1j * 2 * np.pi * t)
    assert abs(h[0, 1] - env * phase) < 1e-12  # beam-splitter entry
    assert abs(h[0, 3] - env * phase) < 1e-12  # two-mode squeezer entry
    assert abs(h[1, 2] - env * phase) < 1e-12
    assert np.abs(h - h.conj().T).max() < 1e-12


@PROPS
@given(
    basis_index=st.integers(0, len(BASES) - 1),
    f=st.floats(-3.0, 3.0),
    pick=st.integers(0, 20),
    phase=st.floats(0.0, 2 * np.pi),
    squeeze=st.booleans(),
)
def test_closed_form_factor_matches_expm(basis_index, f, pick, phase, squeeze):
    basis = BASES[basis_index]
    j = pick % basis.dim
    k = gaussian.kay(basis.n_modes)
    factors = np.zeros(basis.dim)
    factors[j] = -f  # evolution_operator builds exp(-i F_j K G_j)
    closed = nonpert.evolution_operator(basis, factors)
    assert np.abs(closed - expm(1j * f * (k @ basis.generators[j]))).max() < 1e-13
    # the same closed form gives any single generator of a unit-modulus value, and the gaussian maps
    n = basis.n_modes
    a, b = pick % n, (pick // n) % n
    value = np.exp(1j * phase) if squeeze or a != b else 1.0  # a phase rotation takes a real value
    g = gaussian.quadratic_generator(n, a, b, value, squeeze)
    single = gaussian.generator_exponentials(gaussian.generator_tables(g[None], ["g"]), f)[0]
    assert np.abs(single - expm(1j * f * (k @ g))).max() < 1e-13
    if a != b:
        for build, sq in ((gaussian.beam_splitter, False), (gaussian.two_mode_squeezer, True)):
            expect = expm(-1j * f * (k @ gaussian.quadratic_generator(n, a, b, 1j, sq)))
            assert np.abs(build(f, n, (a, b)).matrix - expect).max() < 1e-13


def test_trajectory_stack_matches_per_column_products():
    basis = nonpert.detector_field_basis()
    factors = np.random.default_rng(5).uniform(-0.8, 0.8, size=(basis.dim, 7))
    gamma0 = gaussian.two_mode_squeezed_state(0.3).covariance
    stack = nonpert.evolution_operator(basis, factors)
    columns = [nonpert.evolution_operator(basis, f) for f in factors.T]
    assert np.array_equal(stack, columns)
    expect = [s @ gamma0 @ s.conj().T for s in columns]
    assert np.array_equal(nonpert.covariance_trajectory(stack, gamma0), expect)
    # the one defect formula: a stack reads the largest of its matrices' defects
    assert gaussian.symplectic_defect(stack) == max(gaussian.symplectic_defect(s) for s in columns)
    nd = nonpert.detector_number_expectation(np.array(expect))
    assert np.array_equal(nd, [nonpert.detector_number_expectation(g) for g in expect])


def test_trajectory_refuses_one_non_symplectic_column():
    basis = nonpert.detector_field_basis()
    factors = np.zeros((basis.dim, 5))
    factors[:4, 3] = 20.0  # squeezers at cosh(40): S K S+ - K is all rounding, far above 1e-8
    assert gaussian.symplectic_defect(nonpert.evolution_operator(basis, factors[:, :3])) < 1e-12
    with pytest.raises(RuntimeError, match="lost symplecticity"):
        nonpert.covariance_trajectory(nonpert.evolution_operator(basis, factors))


def test_generic_hermitian_generator_rejected():
    rng = np.random.default_rng(7)
    n = 2
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    y = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    x, y = x + x.conj().T, y + y.T
    g = np.block([[x, y], [y.conj(), x.conj()]])
    std = nonpert.build_generator_basis(n)
    basis = nonpert.GeneratorBasis(n, std.generators[:-1] + (g,), std.labels[:-1] + ("generic",))
    with pytest.raises(ValueError, match="generic"):
        nonpert.solve_factors(basis, lambda t: np.zeros(basis.dim), (0.0, 1.0))
    with pytest.raises(ValueError, match="generic"):
        nonpert.evolution_operator(basis, np.zeros(basis.dim))
    # passes the closed-form identity, but its lower blocks are not the conjugates of the upper ones
    lopsided = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    basis = nonpert.GeneratorBasis(n, std.generators[:-1] + (lopsided,), std.labels[:-1] + ("lopsided",))
    with pytest.raises(ValueError, match="block structure"):
        nonpert.solve_factors(basis, lambda t: np.zeros(basis.dim), (0.0, 1.0))
    with pytest.raises(ValueError, match="block structure"):  # the oracle drops no imaginary part in silence
        nonpert.product_integrator_oracle(basis, lambda t: np.zeros((basis.dim, np.size(t))), [0.0, 0.1], dt=1e-2)


def test_factor_tables_built_once_per_basis(monkeypatch):
    calls = []
    build = nonpert.generator_tables
    monkeypatch.setattr(nonpert, "generator_tables", lambda gens, labels: calls.append(labels) or build(gens, labels))
    basis = nonpert.detector_field_basis()
    sched = nonpert.detector_example_schedule(basis, coupling=0.5, t_mod=2.0)
    _, factors, _ = nonpert.evolve_state(basis, sched, (0.0, 2.0), t_eval=[1.0, 2.0])
    nonpert.evolution_operator(basis, factors[:, -1])
    assert len(calls) == 1


@pytest.mark.parametrize(
    "coupling, grid, dt",
    [
        (0.5, [0.0, 0.37, 1.05, 1.05, 2.2, 3.0], 1e-2),  # spacings not multiples of dt
        (1.0, [0.0, 1.3, 4.0, 5.5], 0.3),  # Taylor steps of norm up to 0.44, near TAYLOR_THETA
        (1.0, [0.0, 1.3, 4.0, 5.5], 0.9),  # ||K H dt|| > 1 > TAYLOR_THETA: scaling and squaring
        # dt = 2^-10, grid times exact: 4,608 steps (over ORACLE_BATCH) to 4.5, 22 intervals of 192 steps (21 to a
        # batch), then 379 steps, a repeated time (0 steps) and 313 steps
        (0.5, [0.0, *(4.5 + 0.1875 * np.arange(23)), 8.995, 8.995, 9.3], 2.0**-10),
    ],
)
def test_batched_oracle_matches_sequential_referee(coupling, grid, dt):
    basis = nonpert.detector_field_basis()
    sched = nonpert.detector_example_schedule(basis, coupling=coupling, t_mod=2.0, gap=2 * np.pi)
    if dt > 0.5:  # the first step after t = 1.3 has its midpoint at 1.75
        kh = gaussian.kay(basis.n_modes) @ sum(lam * g for lam, g in zip(sched(1.75), basis.generators))
        assert np.abs(kh * dt).sum(axis=1).max() > 1.0
    gamma0 = np.diag([1.3, 1.1, 1.3, 1.1]).astype(complex)
    gamma0[0, 2] = gamma0[2, 0] = np.sqrt(1.3**2 - 1.0)
    batched = nonpert.product_integrator_oracle(basis, sched, grid, dt=dt, gamma0=gamma0)
    referee = expm_product_oracle(basis, sched, grid, dt=dt, gamma0=gamma0)
    assert batched.shape == referee.shape == (len(grid), 4, 4)
    repeated = np.flatnonzero(np.diff(grid) == 0.0)  # a repeated output time takes no step
    assert np.array_equal(batched[repeated], batched[repeated + 1])
    assert np.abs(batched - referee).max() < 1e-12 * np.abs(referee).max()


@settings(max_examples=30, deadline=None, database=None)
@given(
    n=st.integers(1, 3),
    drive=st.lists(st.floats(-1.0, 1.0), min_size=3 * 21, max_size=3 * 21),
    thermal=st.booleans(),
    r=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
    dt=st.floats(0.05, 0.8),
)
def test_batched_oracle_matches_sequential_referee_on_every_generator(n, drive, thermal, r, dt):
    """lambda_j(t) = c (a_j + b_j cos(3 w_j t)) on every generator of the N-mode basis, from a squeezed or thermal
    Gamma0: the batched oracle (real quadrature form) against the sequential complex-form referee.

    c caps sum_j |lambda_j| at 1, so steps of dt up to 0.8 reach both the Taylor series and scaling and squaring.
    """
    basis = BASES[n - 1]
    a, b, w = np.reshape(drive, (3, -1))[:, : basis.dim, None]
    c = 1.0 / max(1.0, np.abs(a).sum() + np.abs(b).sum())

    def sched(t):  # a float gives (dim,), an array of times (dim, n)
        lam = c * (a + b * np.cos(3.0 * w * np.atleast_1d(t)))
        return lam if np.ndim(t) else lam[:, 0]

    r = np.array(r[:n])
    gamma0 = np.zeros((2 * n, 2 * n), dtype=complex)
    gamma0[:n, :n] = gamma0[n:, n:] = np.diag(np.cosh(2 * r))  # thermal: symplectic eigenvalues cosh 2r
    if not thermal:  # single-mode squeezed vacua
        gamma0[:n, n:] = gamma0[n:, :n] = np.diag(np.sinh(2 * r))
    grid = [0.0, 0.37, 1.05, 1.05, 2.0]
    batched = nonpert.product_integrator_oracle(basis, sched, grid, dt=dt, gamma0=gamma0)
    referee = expm_product_oracle(basis, sched, grid, dt=dt, gamma0=gamma0)
    assert batched.shape == referee.shape == (len(grid), 2 * n, 2 * n)
    assert np.abs(batched - referee).max() < 1e-12 * np.abs(referee).max()


@settings(max_examples=30, deadline=None, database=None)
@given(n=st.integers(1, 3), size=st.integers(1, 3), theta=st.floats(0.0, 50.0), data=st.data())
def test_expm_matches_referees_through_the_squarings(n, size, theta, data):
    """A stack of real -i K H steps of largest infinity-norm theta: up to 7 squarings after the Taylor series.

    The 30-digit mpmath exponential is the exact referee.  scipy's Pade route is itself off by up to 6.8e-12
    of max|e^A| on such stacks (4,000 random draws, theta up to 50), so it is held to 2e-11.
    """
    basis = BASES[n - 1]
    lam = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=size * basis.dim, max_size=size * basis.dim))
    kgens = nonpert._to_quadrature(-1j * (gaussian.kay(n) @ np.stack(basis.generators)))
    a = np.tensordot(np.reshape(lam, (size, basis.dim)), kgens, axes=(1, 0))
    norm = np.abs(a).sum(axis=-1).max()
    a = a / norm * theta if norm > 0.0 else a
    out = nonpert.expm(a)
    with mpmath.workdps(30):
        exact = np.array([np.array(mpmath.expm(mpmath.matrix(m.tolist())).tolist(), dtype=float) for m in a])
    scale = np.abs(exact).max()
    assert np.abs(out - exact).max() <= 1e-12 * scale
    assert np.abs(out - expm(a)).max() <= 2e-11 * scale
    omega = np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(n))  # the (x1..xN, p1..pN) order of the quadrature form
    assert np.abs(out @ omega @ out.swapaxes(-1, -2) - omega).max() <= 1e-12 * scale**2


@pytest.mark.parametrize("t_mod", [0.0, -2.0, float("nan")])
def test_example_schedule_rejects_non_positive_t_mod(t_mod):
    with pytest.raises(ValueError, match="t_mod"):
        nonpert.detector_example_schedule(nonpert.detector_field_basis(), t_mod=t_mod)


# 1e-13 on [0, 1] would take 1e13 steps, past nonpert.ORACLE_MAX_STEPS
@pytest.mark.parametrize("dt", [0.0, -1e-3, np.nan, np.inf, 1e-13])
def test_oracle_rejects_bad_step(dt):
    basis = nonpert.detector_field_basis()
    sched = call_budget(nonpert.detector_example_schedule(basis, coupling=0.5, t_mod=2.0))
    with pytest.raises(ValueError, match="dt"):
        nonpert.product_integrator_oracle(basis, sched, [0.0, 1.0], dt=dt)


@pytest.mark.parametrize("grid", [[0.0, 2.0, 1.0], [0.0, np.nan, 1.0], []])
def test_oracle_rejects_bad_grid(grid):
    basis = nonpert.detector_field_basis()
    sched = call_budget(nonpert.detector_example_schedule(basis, coupling=0.5, t_mod=2.0))
    with pytest.raises(ValueError, match="t_grid"):
        nonpert.product_integrator_oracle(basis, sched, grid, dt=1e-2)


def test_oracle_rejects_non_finite_schedule():
    basis = nonpert.detector_field_basis()
    sched = lambda t: np.full((basis.dim, *np.shape(t)), np.nan)
    with pytest.raises(ValueError, match="non-finite"):
        nonpert.product_integrator_oracle(basis, sched, [0.0, 0.1], dt=1e-2)


def test_oracle_rejects_schedule_that_does_not_broadcast():
    basis = nonpert.detector_field_basis()
    with pytest.raises(ValueError, match=r"gave shape \(10,\), not \(10, 10\)"):
        nonpert.product_integrator_oracle(basis, lambda t: np.zeros(basis.dim), [0.0, 0.1], dt=1e-2)
    with pytest.raises(ValueError, match=r"gave shape \(10,\), not \(10, 20\)"):  # two nodes a Magnus step
        nonpert.solve_factors(basis, lambda t: np.zeros(basis.dim), (0.0, 0.1))


@pytest.mark.parametrize("t_eval", [[1.0, 0.5], [-0.5, 1.0], [0.5, np.nan], [], [[0.5, 1.0]]])
def test_solve_factors_rejects_bad_output_times(t_eval):
    basis = nonpert.detector_field_basis()
    sched = call_budget(nonpert.detector_example_schedule(basis, coupling=0.5, t_mod=2.0), budget=0)
    with pytest.raises(ValueError):
        nonpert.solve_factors(basis, sched, (0.0, 1.0), t_eval=t_eval)


def test_example_schedule_on_an_array_matches_scalar_calls():
    basis = nonpert.detector_field_basis()
    sched = nonpert.detector_example_schedule(basis, coupling=0.7, t_mod=3.0, gap=2.5)
    times = np.random.default_rng(11).uniform(0.0, 40.0, 257)
    batch = sched(times)
    stacked = np.stack([sched(float(t)) for t in times], axis=1)
    assert batch.shape == stacked.shape == (basis.dim, times.size)
    assert np.abs(batch - stacked).max() <= 1e-14 * np.abs(stacked).max()
    assert sched(1.3).shape == (basis.dim,)


def chart_singular_drive():
    """Constant bs_re = 0.5 and bs_im = 1e-9 on `build_generator_basis(2)`: F_bs_re reaches pi/4 at t = pi/2."""
    basis = nonpert.build_generator_basis(2)
    idx = {lab: i for i, lab in enumerate(basis.labels)}
    lam = np.zeros(basis.dim)
    lam[idx["bs_re[0,1]"]] = 0.5
    lam[idx["bs_im[0,1]"]] = 1e-9
    return basis, lambda t: np.multiply.outer(lam, np.ones(np.shape(t)))


def test_singular_matching_system_raises():
    """An output where the beam-splitter factor is pi/4, its partner drive non-zero: no F matches S there."""
    basis, sched = chart_singular_drive()
    with pytest.raises(RuntimeError, match="matching system singular"):
        nonpert.evolve_state(basis, sched, (0.0, 3.0), t_eval=[1.0, np.pi / 2, 3.0])


def test_integrate_and_match_across_chart_singularity():
    """S(t) integrates through the chart's singular point; F is matched on each side of it."""
    basis, sched = chart_singular_drive()
    grid = np.linspace(0.0, 3.0, 301)
    sol = nonpert.solve_factors(basis, sched, (0.0, 3.0), t_eval=grid)
    oracle = nonpert.product_integrator_oracle(basis, sched, grid, dt=1e-3)
    assert np.abs(nonpert.covariance_trajectory(sol.s) - oracle).max() < 1e-4
    assert np.abs(nonpert.evolution_operator(basis, sol.y) - sol.s).max() < 1e-8


@settings(max_examples=30, deadline=None, database=None)
@given(
    n=st.integers(1, 3),
    drive=st.lists(st.floats(-1.0, 1.0), min_size=3 * 21, max_size=3 * 21),
    t_end=st.floats(0.1, 2.0),
)
def test_random_drive_of_every_generator_against_oracle(n, drive, t_end):
    """lambda_j(t) = c (a_j + b_j cos(3 w_j t)) on every generator: Gamma against the oracle, S(F) against S.

    c caps sum_j |lambda_j| at 0.3.  Capping each |lambda_j| alone lets 21
    drives add up to a factor where the product chart is singular (item 5 of
    the roadmap), and the match then refuses.
    """
    basis = BASES[n - 1]
    a, b, w = np.reshape(drive, (3, -1))[:, : basis.dim, None]
    c = 0.3 / max(1.0, np.abs(a).sum() + np.abs(b).sum())

    def sched(t):  # a float gives (dim,), an array of times (dim, n)
        lam = c * (a + b * np.cos(3.0 * w * np.atleast_1d(t)))
        return lam if np.ndim(t) else lam[:, 0]

    grid = np.linspace(0.0, t_end, 5)
    sol = nonpert.solve_factors(basis, sched, (0.0, t_end), t_eval=grid)
    oracle = nonpert.product_integrator_oracle(basis, sched, grid, dt=1e-3)
    assert np.abs(nonpert.covariance_trajectory(sol.s) - oracle).max() < 1e-6
    assert np.abs(nonpert.evolution_operator(basis, sol.y) - sol.s).max() < 1e-8


def test_three_mode_passive_drive_against_oracle():
    """Detector (mode 0) coupled to two field modes by phase and beam-splitter drives."""
    basis = nonpert.build_generator_basis(3)
    idx = {lab: i for i, lab in enumerate(basis.labels)}

    def sched(t):  # a float gives (dim,), an array of times (dim, n)
        lam = np.zeros((basis.dim, *np.shape(t)))
        lam[idx["phase[0]"]] = 1.0
        lam[idx["phase[1]"]] = 1.5
        lam[idx["phase[2]"]] = 2.2
        lam[idx["bs_re[0,1]"]] = 0.4 * np.cos(t)
        lam[idx["bs_im[0,1]"]] = 0.3
        lam[idx["bs_re[0,2]"]] = 0.25 * np.sin(2.0 * t)
        lam[idx["bs_im[1,2]"]] = 0.2
        return lam

    r = np.array([1.0, 0.4, 0.0])  # squeezed detector and first field mode, vacuum second
    gamma0 = np.zeros((6, 6), dtype=complex)
    gamma0[:3, :3] = gamma0[3:, 3:] = np.diag(np.cosh(2 * r))
    gamma0[:3, 3:] = gamma0[3:, :3] = np.diag(np.sinh(2 * r))
    grid = np.linspace(0.0, 4.0, 5)
    _, _, gammas = nonpert.evolve_state(basis, sched, (0.0, 4.0), gamma0=gamma0, t_eval=grid)
    totals = [nonpert.mean_occupations(g).sum() for g in gammas]
    assert np.ptp(totals) < 1e-8
    oracle = nonpert.product_integrator_oracle(basis, sched, grid, dt=1e-3, gamma0=gamma0)
    nd = np.array([nonpert.detector_number_expectation(g) for g in gammas])
    nd_o = np.array([nonpert.detector_number_expectation(g) for g in oracle])
    assert np.ptp(nd) > 0.1  # the drive moves quanta off the detector
    assert np.abs(nd - nd_o).max() < 1e-6


@settings(max_examples=40, deadline=None, database=None)
@given(
    n=st.sampled_from([2, 3]),
    coeffs=st.lists(st.floats(-1.0, 1.0), min_size=3 * 9, max_size=3 * 9),
    r=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
)
def test_random_passive_drive_conserves_total_number(n, coeffs, r):
    """Phase and beam-splitter drives a + b cos(3 w t) with random a, b, w conserve sum_i <n_i>."""
    basis = BASES[n - 1]
    passive = [j for j, lab in enumerate(basis.labels) if lab.startswith(("phase", "bs_"))]
    a, b, w = np.reshape(coeffs, (3, -1))[:, : len(passive), None]
    # weak beam splitters: the product form's coordinates turn singular once a beam-splitter factor nears pi/4
    scale = np.where([basis.labels[j].startswith("bs_") for j in passive], 0.08, 1.0)[:, None]

    def sched(t):  # a float gives (dim,), an array of times (dim, n)
        lam = np.zeros((basis.dim, np.size(t)))
        lam[passive] = scale * (a + b * np.cos(3.0 * w * np.atleast_1d(t)))
        return lam if np.ndim(t) else lam[:, 0]

    r = np.array(r[:n])
    gamma0 = np.zeros((2 * n, 2 * n), dtype=complex)
    gamma0[:n, :n] = gamma0[n:, n:] = np.diag(np.cosh(2 * r))
    gamma0[:n, n:] = gamma0[n:, :n] = np.diag(np.sinh(2 * r))
    _, _, gammas = nonpert.evolve_state(basis, sched, (0.0, 2.0), gamma0=gamma0, t_eval=np.linspace(0.0, 2.0, 5))
    totals = [nonpert.mean_occupations(g).sum() for g in gammas]
    assert np.ptp(totals) < 1e-8 * max(1.0, totals[0])
