import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal

import oracle_rindler
from rqi import boxpair


def small_scenario(**kw):
    kw.setdefault("n_cut", 4)
    kw.setdefault("n_y", 800)
    kw.setdefault("n_quad", 400)
    return boxpair.BoxScenario(**kw)


def test_scenario_validation():
    with pytest.raises(ValueError):
        boxpair.BoxScenario(v=0.5, h=1.2)  # h > 2v
    with pytest.raises(ValueError):
        boxpair.BoxScenario(v=1.0)
    sc = boxpair.BoxScenario(v=0.5, h=1.0)
    assert abs(sc.gamma - 1.0 / np.sqrt(0.75)) < 1e-14


def test_tiny_positive_h_refused_and_the_smallest_matches_the_limit():
    with pytest.raises(ValueError, match="0 < h < 1e-7"):
        boxpair.BoxScenario(h=5e-8)
    limit = boxpair.cavity_entanglement(boxpair.BoxScenario(h=0.0, kappa=1.0))["entropy"]
    smallest = boxpair.cavity_entanglement(boxpair.BoxScenario(h=1e-7, kappa=1.0))["entropy"]
    assert abs(smallest - limit) < 1e-9


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["h", "kappa", "gap", "epsilon"])
def test_scenario_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match="finite"):
        boxpair.BoxScenario(**{field: value})


@pytest.mark.parametrize(
    "truncation",
    [{"n_cut": 0}, {"n_quad": 0}, {"n_cut": 8, "n_y": 9}],
    ids=["n_cut", "n_quad", "n_y"],
)
def test_scenario_rejects_bad_truncation(truncation):
    with pytest.raises(ValueError):
        boxpair.BoxScenario(**truncation)


def test_smallest_valid_y_grid_solves():
    sc = boxpair.BoxScenario(h=0.5, n_cut=1, n_y=3, n_quad=8)
    spec = boxpair.solve_rindler_spectrum(sc)
    assert spec.omegas.shape == (1, 1) and spec.omegas[0, 0] > 0


def test_spectrum_normalisation_and_boundaries():
    sc = small_scenario(h=0.5, kappa=0.7)
    spec = boxpair.solve_rindler_spectrum(sc)
    y = spec.y_grid
    for (n, m) in [(1, 1), (3, 2)]:
        u = spec.profiles[n - 1, m - 1] * spec.norms[n - 1, m - 1]
        assert abs(spec.omegas[n - 1, m - 1] * np.trapezoid(u * u, y) - 1.0) < 1e-6
        assert abs(u[0]) < 1e-10 and abs(u[-1]) < 1e-10
    # frequencies distinct and ordered in n at fixed m
    assert np.all(np.diff(spec.omegas, axis=0) > 0)


@pytest.mark.slow
def test_engines_agree():
    sc = small_scenario(h=0.5, kappa=0.5)
    s_fd = boxpair.solve_rindler_spectrum(sc)
    s_bs = oracle_rindler.rindler_spectrum(sc)
    assert np.abs(s_fd.omegas / s_bs.omegas - 1.0).max() < 1e-4
    e_fd = boxpair.cavity_entanglement(sc, spectrum=s_fd)["entropy"]
    e_bs = boxpair.cavity_entanglement(sc, spectrum=s_bs)["entropy"]
    assert abs(e_fd - e_bs) < 1e-7


# Profile residual max|T u - lam u| / (lam max|u|) against the referee's eigenvalues lam: at
# most 4.3e-10 over 3,000 random scenarios drawn as below (Omega at most 1.7e-11 off); 6.1e-9
# at h = 0.025, kappa = 0 with BISECT_RTOL = 1e-8, and 3.0e-9 there from full bisection.
PROFILE_RESIDUAL = 1e-9


@st.composite
def spectrum_scenarios(draw):
    # h from 1e-6: below about 1e-10 the grid's spacing in log(chi) is under its rounding step
    v = draw(st.floats(0.05, 0.95))
    n_cut = draw(st.integers(1, 8))
    return boxpair.BoxScenario(
        v=v,
        h=draw(st.floats(1e-6, 2.0 * v)),
        kappa=draw(st.floats(0.0, 8.0)),
        n_cut=n_cut,
        n_y=draw(st.integers(n_cut + 2, 1200)),
    )


@settings(max_examples=40, deadline=None, database=None)
@given(sc=spectrum_scenarios())
@example(sc=boxpair.BoxScenario(v=0.5, h=1.0, kappa=16.0 / 3.0))  # h = 2v: the far wall at the horizon
@example(sc=boxpair.BoxScenario(v=0.5, h=1.0, kappa=8.0))
@example(sc=boxpair.BoxScenario(v=0.5, h=0.025, kappa=0.0))
def test_spectrum_matches_full_bisection(sc):
    """The coarse bisection with Rayleigh-quotient eigenvalues against full-precision bisection of the same FD matrix."""
    spec = boxpair.solve_rindler_spectrum(sc)
    y = spec.y_grid
    dy = y[1] - y[0]
    off = -np.ones(y.size - 3) / dy**2
    for m in range(1, sc.n_cut + 1):
        diag = 2.0 / dy**2 + sc.kappa_m(m) ** 2 * np.exp(2.0 * y[1:-1])
        lam = eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(0, sc.n_cut - 1), tol=0.0)
        assert np.abs(spec.omegas[:, m - 1] / np.sqrt(lam) - 1.0).max() < 1e-10
        u = spec.profiles[:, m - 1, 1:-1].T  # interior grid values, one column per n
        tu = diag[:, None] * u
        tu[:-1] += off[:, None] * u[1:]
        tu[1:] += off[:, None] * u[:-1]
        assert (np.abs(tu - lam * u).max(axis=0) / (lam * np.abs(u).max(axis=0))).max() < PROFILE_RESIDUAL


def test_engines_agree_at_large_kappa_m():
    # kappa_m chi- = 38.2 here: the referee's root scan must start beyond the
    # evanescent region, where the boundary function's sign is noise
    sc = boxpair.BoxScenario(h=0.5, kappa=4.0, n_cut=8, n_y=1200)
    fd = boxpair.solve_rindler_spectrum(sc).omegas[:3, 7]
    roots = oracle_rindler.rindler_frequencies(1.5, 2.5, sc.kappa_m(8), 3)
    assert np.abs(roots / fd - 1.0).max() < 1e-5


def test_quadrature_nodes_built_once(monkeypatch):
    calls = []
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda n: calls.append(n) or leggauss(n))
    sc = small_scenario(h=0.5, kappa=0.5, n_quad=123)  # an order no other test uses
    spec = boxpair.solve_rindler_spectrum(sc)
    first = boxpair.rob_overlap_quadrature(sc, spectrum=spec)
    second = boxpair.rob_overlap_quadrature(sc, spectrum=spec)
    assert calls == [123]
    assert np.array_equal(first, second)


def test_h_to_zero_spectrum_continuity():
    for h, tol in ((1e-3, 5e-3), (0.4, 0.05)):  # near the limit, and still close at a moderate h
        sc = small_scenario(h=h, kappa=0.5)
        spec = boxpair.solve_rindler_spectrum(sc)
        lr = np.log((1.0 / sc.h + 0.5) / (1.0 / sc.h - 0.5))
        n = np.arange(1, sc.n_cut + 1)
        inertial = np.sqrt((n[:, None] * np.pi) ** 2 + (n[None, :] * np.pi) ** 2 + sc.kappa**2)
        assert np.abs(spec.omegas * lr / inertial - 1.0).max() < tol


def test_kappa_monotonicity_of_frequencies():
    prev = None
    for kap in (0.5, 1.0, 2.0):
        spec = boxpair.solve_rindler_spectrum(small_scenario(h=0.4, kappa=kap))
        if prev is not None:
            assert np.all(spec.omegas > prev)
        prev = spec.omegas


def test_alice_overlap_even_n_zero_and_quadrature():
    sc = small_scenario(h=0.3, kappa=0.6)
    assert boxpair.inertial_overlaps(sc, boxpair.ALICE_ZETA)[1, 0] == 0.0
    # closed form against direct quadrature
    for (n, m) in [(1, 1), (3, 2)]:
        om = np.sqrt((n * np.pi) ** 2 + sc.kappa_m(m) ** 2)
        vg = sc.v * sc.gamma
        t = sc.t_half

        def f(tau):
            eps = sc.epsilon * np.sin(2 * np.pi * vg * tau) ** 2
            lam = -1j * eps * np.sin(m * np.pi * (vg * tau - 0.5)) * np.exp(-1j * sc.gap * tau)
            return lam * np.exp(1j * om * sc.gamma * tau)

        re, _ = quad(lambda x: np.real(f(x)), -3 * t, -t, epsabs=1e-12, limit=200)
        im, _ = quad(lambda x: np.imag(f(x)), -3 * t, -t, epsabs=1e-12, limit=200)
        direct = np.sqrt(2.0 / om) * np.sin(n * np.pi / 2) * (re + 1j * im)
        assert abs(boxpair.inertial_overlaps(sc, boxpair.ALICE_ZETA)[n - 1, m - 1] - direct) < 1e-10


def test_rob_inertial_closed_form_vs_quadrature():
    sc = small_scenario(h=0.0, kappa=0.7)
    for (n, m) in [(1, 1), (1, 2), (3, 1)]:
        om = np.sqrt((n * np.pi) ** 2 + sc.kappa_m(m) ** 2)
        vg = sc.v * sc.gamma
        t = sc.t_half

        def f(tau):
            eps = sc.epsilon * np.sin(2 * np.pi * vg * tau) ** 2
            lam = -1j * eps * np.sin(m * np.pi * (vg * tau - 0.5)) * np.exp(-1j * sc.gap * tau)
            return lam * np.exp(1j * om * sc.gamma * tau)

        re, _ = quad(lambda x: np.real(f(x)), -t, t, epsabs=1e-12, limit=200)
        im, _ = quad(lambda x: np.imag(f(x)), -t, t, epsabs=1e-12, limit=200)
        direct = np.sqrt(2.0 / om) * np.sin(n * np.pi / 2) * (re + 1j * im)
        assert abs(boxpair.inertial_overlaps(sc, boxpair.ROB_ZETA)[n - 1, m - 1] - direct) < 1e-10


def test_rob_inertial_even_n_vanishes():
    # the x-profile factor sin(n pi / 2) kills even n for Rob as well
    sc = small_scenario(h=0.0, kappa=0.9)
    assert boxpair.inertial_overlaps(sc, boxpair.ROB_ZETA)[1, 0] == 0.0
    assert abs(boxpair.inertial_overlaps(sc, boxpair.ROB_ZETA)[0, 0]) > 0.0


def test_resonance_maximum_location():
    # local maximum of |1 + exp(i g_11)| sits where g_11 = -2 pi (odd m)
    sc0 = small_scenario(h=0.0, kappa=0.0)
    target = None
    kappas = np.linspace(3.0, 8.0, 401)
    phases = np.array([boxpair.resonance_phase(1, 1, small_scenario(h=0.0, kappa=k)) for k in kappas])
    cross = np.where(np.diff(np.sign(phases + 2 * np.pi)))[0]
    assert cross.size == 1
    kappa_star = kappas[cross[0]]
    factor = np.abs(1.0 + np.exp(1j * phases))
    assert abs(kappas[factor.argmax()] - kappa_star) < 2 * (kappas[1] - kappas[0])


def dense_entropy(f_alice, f_rob):
    """Referee for the closed form: eigenvalues of the full (1 + n_cut^2)-dim rho_R."""
    fvec = f_rob.ravel()
    rho = np.zeros((fvec.size + 1, fvec.size + 1), dtype=complex)
    rho[0, 0] = np.sum(np.abs(f_alice) ** 2)
    rho[1:, 1:] = np.outer(fvec, fvec.conj())
    evals = np.linalg.eigvalsh(rho / np.real(np.trace(rho)))
    assert evals.min() > -1e-10
    evals = evals[evals > 1e-16]
    return float(-np.sum(evals * np.log(evals)))


def test_entropy_binary_oracle_and_range():
    for h, kappa in [(0.5, 1.0), (0.0, 0.7), (1.0, 3.0)]:
        sc = small_scenario(h=h, kappa=kappa)
        res, f_a, f_r = boxpair.cavity_entanglement(sc, return_details=True)
        assert abs(res["entropy"] - dense_entropy(f_a, f_r)) < 1e-12
        assert 0.0 <= res["entropy"] <= np.log(2.0) + 1e-12
        assert not res["flagged"]


def test_entropy_monotone_in_h():
    for kap in (0.0, 2.0, 4.0):
        es = [
            boxpair.cavity_entanglement(small_scenario(h=h, kappa=kap))["entropy"]
            for h in np.linspace(0.05, 1.0, 8)
        ]
        assert np.all(np.diff(es) < 1e-9)


def test_zero_coupling_flag():
    sc = small_scenario(h=0.5, kappa=0.5, epsilon=0.0)
    res = boxpair.cavity_entanglement(sc)
    assert res["flagged"] and res["entropy"] == 0.0


def test_ncut_convergence():
    sc6 = boxpair.BoxScenario(h=0.5, kappa=1.0, n_cut=6, n_y=900, n_quad=500)
    sc10 = boxpair.BoxScenario(h=0.5, kappa=1.0, n_cut=10, n_y=900, n_quad=500)
    e6 = boxpair.cavity_entanglement(sc6)["entropy"]
    e10 = boxpair.cavity_entanglement(sc10)["entropy"]
    assert abs(e6 - e10) < 1e-4


GL_NODES = np.polynomial.legendre.leggauss(600)


def direct_overlaps(sc, zeta):
    """F_nm = sqrt(2/omega) sin(n pi/2) int Lambda exp(i omega gamma tau) dtau over a zeta window, by Gauss-Legendre."""
    x, w = GL_NODES
    vg = sc.v * sc.gamma
    lo, hi = zeta[0] / vg, zeta[1] / vg
    tau = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
    n = np.arange(1, sc.n_cut + 1)[:, None, None]
    m = np.arange(1, sc.n_cut + 1)[None, :, None]
    om = np.sqrt((n * np.pi) ** 2 + (m * np.pi) ** 2 + sc.kappa**2)
    eps = sc.epsilon * np.sin(2 * np.pi * vg * tau) ** 2
    lam = -1j * eps * np.sin(m * np.pi * (vg * tau - 0.5)) * np.exp(-1j * sc.gap * tau)
    integral = 0.5 * (hi - lo) * (lam * np.exp(1j * om * sc.gamma * tau)) @ w
    return np.sqrt(2.0 / om[..., 0]) * np.sin(n[..., 0] * np.pi / 2) * integral


@st.composite
def box_scenarios(draw):
    v = draw(st.floats(0.1, 0.9))
    n_cut = draw(st.integers(1, 4))
    return boxpair.BoxScenario(
        v=v,
        h=draw(st.one_of(st.just(0.0), st.floats(0.01, 2.0 * v))),
        kappa=draw(st.floats(0.0, 6.0)),
        gap=draw(st.floats(0.0, 10.0)),
        epsilon=draw(st.floats(0.1, 2.0)),
        n_cut=n_cut,
        n_y=draw(st.integers(n_cut + 2, 300)),
        n_quad=draw(st.integers(1, 200)),
    )


@settings(max_examples=40, deadline=None, database=None)
@given(sc=box_scenarios())
def test_box_pair_properties(sc):
    res = boxpair.cavity_entanglement(sc)
    assert not res["flagged"]
    assert 0.0 <= res["entropy"] <= np.log(2.0)
    assert abs(res["p_alice"] + res["p_rob"] - 1.0) <= 1e-15
    for zeta in (boxpair.ALICE_ZETA, boxpair.ROB_ZETA):
        f = boxpair.inertial_overlaps(sc, zeta)
        assert f.shape == (sc.n_cut, sc.n_cut)
        assert np.all(f[1::2] == 0.0)  # even n, exactly
        assert np.abs(f - direct_overlaps(sc, zeta)).max() < 1e-10


def test_binary_entropy_never_exceeds_ln2():
    # the 4,000 floats nearest 1/2: 2,000 below (spaced 2^-54) and 1/2 with 1,999 above (spaced 2^-53)
    ps = np.concatenate([0.5 - np.arange(1, 2001) * 2.0**-54, 0.5 + np.arange(2000) * 2.0**-53])
    assert len(set(ps.tolist())) == 4000
    assert max(boxpair.binary_entropy(p) for p in ps.tolist()) == np.log(2.0)


def test_inertial_overlap_phase_rate_near_zero():
    # the gap puts the (sin^2 constant, exp(+i m pi z)) term of F_11 at phase rate k = 1e-8, where
    # the difference form (exp(i k z2) - exp(i k z1)) / (i k) cancels and is 3.2e-10 off on Alice's window
    sc = small_scenario(h=0.0, kappa=0.3)
    vg = sc.v * sc.gamma
    sc = small_scenario(h=0.0, kappa=0.3, gap=vg * (np.pi + float(sc.omega_nm(1, 1)) / sc.v - 1e-8))
    for zeta in (boxpair.ALICE_ZETA, boxpair.ROB_ZETA):
        assert abs(boxpair.inertial_overlaps(sc, zeta)[0, 0] - direct_overlaps(sc, zeta)[0, 0]) < 1e-13
