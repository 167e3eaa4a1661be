import tracemalloc
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_fermion_fock import compose_I_to_III, reduced_charge, reduced_two_mode
from rqi import boson, entanglement, fermion


def cfg(**kw):
    kw.setdefault("n_side", 200)
    return fermion.FermionCavityConfig(**kw)


def test_a1_closed_form_values():
    assert abs(fermion.a1_entry(0, 1) - 1.0 / np.pi**2) < 1e-14
    assert abs(fermion.a2_entry(0, 0) + 1.0 / 96.0) < 1e-14
    assert fermion.a1_entry(1, 3) == 0.0  # even m + n
    assert fermion.a1_entry(4, 4) == 0.0  # diagonal
    # antisymmetry of A1, and A2 parity structure
    m, n = np.meshgrid(np.arange(-5, 6), np.arange(-5, 6), indexing="ij")
    a1 = fermion.a1_entry(m, n, 0.3)
    assert np.abs(a1 + a1.T).max() < 1e-14
    a2 = fermion.a2_entry(m, n, 0.3)
    odd = (m + n) % 2 != 0
    assert np.abs(np.where(odd & (m != n), a2, 0.0)).max() == 0.0


def test_a1_against_inner_product_quadrature():
    # independent route: A_mn = int_{-1/2}^{1/2} dZ conj(psi_m) psihat_n at T=0,
    # expanded to first order in h by central difference
    from scipy.integrate import quad

    s = 0.0
    def a_mn(m, n, h):
        lh = np.log((2 + h) / (2 - h))

        def integrand(z):
            lam = np.log((z + 1.0 / h) / (1.0 / h - 0.5)) / lh
            # spinor inner product of the 2-component (U+, U-) structure:
            # conj(psi_m) psihat_n = [e^{-i w_m u} e^{i W_n lam-phase} + c.c. term]
            w_m = (m + s) * np.pi
            phase_n = (n + s) * np.pi
            norm = 1.0 / np.sqrt(lh * np.sqrt((z + 1.0 / h) ** 2))
            plus = np.exp(-1j * w_m * (z + 0.5)) * np.exp(1j * phase_n * lam) * norm
            minus = np.exp(+1j * w_m * (z + 0.5)) * np.exp(-1j * phase_n * lam) * norm
            return plus + minus

        re, _ = quad(lambda z: np.real(integrand(z)), -0.5, 0.5, epsabs=1e-13, epsrel=1e-12, limit=200)
        im, _ = quad(lambda z: np.imag(integrand(z)), -0.5, 0.5, epsabs=1e-13, epsrel=1e-12, limit=200)
        return (re + 1j * im) / 2.0

    # the expansion is odd in h for odd m + n, so the one-sided ratio has
    # only an O(h^2) relative error
    h = 1e-4
    for m, n in [(0, 1), (1, 2), (-1, 2)]:
        # the integral computes (psi_m, psihat_n), i.e. the transposed entry
        num = (a_mn(m, n, h) - (1.0 if m == n else 0.0)) / h
        closed = fermion.a1_entry(n, m, s)
        assert abs(num - closed) < max(2e-6 * abs(closed), 5e-8)


def test_window_and_index():
    c = cfg(n_side=6)
    assert c.modes[0] == -6 and c.modes[-1] == 6
    assert c.index(0) == 6
    with pytest.raises(ValueError):
        c.index(9)


def test_negative_travel_times_refused():
    # u + v >= 0 is not enough: each stretch of the journey must be non-negative
    c = cfg(n_side=20)
    calls = [
        lambda: fermion.f_k(c, np.array([0.5, -0.2]), 1),
        lambda: fermion.f_k(c, np.nan, 1),
        lambda: fermion.oneway_f(c, -0.5, 0.6, 1),
        lambda: fermion.oneway_f(c, 1.0, np.array([0.3, -0.5]), 1),
        lambda: fermion.negativity_charge_state(c, -0.3, 1, -2),
        lambda: fermion.oneway_negativities(c, 0.8, -0.3, 1, -2),
        lambda: fermion.two_mode_density_matrix(c, -0.5, 1),
        lambda: fermion.charge_density_matrix(c, -0.5, 1, -2),
        lambda: fermion.f_k_split(c, np.nan, 1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="non-negative"):
            call()


def test_compose_orders_and_unitarity():
    c = cfg(n_side=30)
    a1 = fermion.a1_entry(*np.meshgrid(c.modes, c.modes, indexing="ij"))
    cal0, cal1, cal2 = compose_I_to_III(c, 0.0)
    assert np.abs(cal1 - (a1 + a1.conj().T)).max() < 1e-14
    assert np.abs(np.diag(cal1)).max() < 1e-14
    tau1 = 0.63
    cal0, cal1, cal2 = compose_I_to_III(c, tau1)
    # calA1[n, k] = (G_n - G_k) A1[n, k]
    g = np.diag(cal0)
    expect = (g[:, None] - g[None, :]) * a1
    assert np.abs(cal1 - expect).max() < 1e-12
    # first-order unitarity: conj(G0) calA1 + calA1+ G0 = 0
    res = cal0.conj() @ cal1 + cal1.conj().T @ cal0
    assert np.abs(res).max() < 1e-12
    # 2 Re(conj(G_k) calA2_kk) = -f_k: exact up to the window tail
    c_wide = cfg(n_side=200)
    cal0w, _, cal2w = compose_I_to_III(c_wide, tau1)
    k_i = c_wide.index(1)
    lhs = 2 * np.real(np.conj(cal0w[k_i, k_i]) * cal2w[k_i, k_i])
    fk = fermion.f_k(c_wide, tau1, 1)
    assert abs(lhs + fk) < 1e-9


def test_f_k_periodicity_zeros_parity():
    c = cfg()
    assert abs(fermion.f_k(c, 2.0, 1)) < 1e-10
    assert abs(fermion.f_k(c, 4.0, 2)) < 1e-10
    v1 = fermion.f_k(c, 0.37, 1)
    v2 = fermion.f_k(c, 0.37 + 2.0, 1)
    assert abs(v1 - v2) < 1e-8
    # s = 0 parity
    assert abs(fermion.f_k(c, 0.81, 1) - fermion.f_k(c, 0.81, -1)) < 1e-10
    # s != 0 breaks it
    c2 = cfg(s=0.25)
    assert abs(fermion.f_k(c2, 0.81, 1) - fermion.f_k(c2, 0.81, -1)) > 1e-4


def test_f_k_curve_shape_max_at_half_period():
    c = cfg()
    us = np.linspace(0.0, 1.0, 41)
    vals = np.array([fermion.f_k(c, 2 * u, 1) for u in us])
    assert vals.argmax() == 20  # u = 1/2
    assert vals[0] < 1e-10 and vals[-1] < 1e-10
    assert np.all(vals >= -1e-15)
    # symmetric about u = 1/2 for s = 0
    assert np.abs(vals - vals[::-1]).max() < 1e-10


def test_f_k_large_k_quadratic_divergence():
    c = cfg(n_side=400)
    tau1 = 0.61
    f8 = fermion.f_k(c, tau1, 8)
    f16 = fermion.f_k(c, tau1, 16)
    f32 = fermion.f_k(c, tau1, 32)
    assert abs(f16 / f8 - 4.0) < 0.4
    assert abs(f32 / f16 - 4.0) < 0.4


@pytest.mark.parametrize("n_side, tau1, k", [(3, 0.9, 1), (60, 0.001, 2)])
def test_f_k_guard_reads_the_outermost_nonzero_terms(n_side, tau1, k):
    # k + n_side even: the two edge modes have even k - p, so A1[k, p] = 0
    # there and the first non-zero tail term sits one mode further in
    with pytest.raises(RuntimeError, match="mode window too small"):
        fermion.f_k(cfg(n_side=n_side), tau1, k)


def test_split_and_printed_matrices_warn_where_f_k_refuses():
    # they read the same terms as f_k, but the Fock-space oracles compare them at windows this small,
    # so they warn rather than raise
    c = cfg(n_side=3)
    with pytest.raises(RuntimeError, match="mode window too small"):
        fermion.f_k(c, 0.9, 1)
    for call in (
        lambda: fermion.f_k_split(c, 0.9, 1),
        lambda: fermion.two_mode_density_matrix(c, 0.9, 1),
        lambda: fermion.charge_density_matrix(c, 0.9, 1, -2),
    ):
        with pytest.warns(RuntimeWarning, match="mode window too small"):
            call()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fermion.two_mode_density_matrix(cfg(), 0.9, 1)  # a converged window stays silent


def test_window_convergence():
    tau1 = 0.45
    small = fermion.f_k(cfg(n_side=200), tau1, 3)
    big = fermion.f_k(cfg(n_side=400), tau1, 3)
    assert abs(small - big) < 1e-6


def test_negativity_two_mode_limits():
    c = cfg(h=0.0)
    assert fermion.negativity_two_mode(c, 0.9, 1) == 0.5
    c2 = cfg(h=0.05)
    assert abs(fermion.negativity_two_mode(c2, 2.0, 1) - 0.5) < 1e-10
    val = fermion.negativity_two_mode(c2, 0.9, 1)
    assert val < 0.5


def test_negativity_two_mode_warning():
    c = cfg(h=0.9)
    with pytest.warns(fermion.PerturbativeValidityWarning):
        fermion.negativity_two_mode(c, 1.0, 8)


def test_negativity_warns_at_the_shared_relative_bound():
    # f h^2 = 0.27 < 0.5: the old rule stayed silent on a 27% correction
    c = cfg(h=0.3)
    with pytest.warns(fermion.PerturbativeValidityWarning, match=r"\|1 - 2N\|"):
        neg = fermion.negativity_two_mode(c, 1.0, 3)
    assert abs(1.0 - 2.0 * neg) >= boson.NB_VALIDITY_BOUND
    big = cfg(h=1.0)
    for call in (
        lambda: fermion.negativity_charge_state(big, 0.7, 1, -2),
        lambda: fermion.oneway_negativities(big, 0.5, 0.5, 1, -2),
    ):
        with pytest.warns(fermion.PerturbativeValidityWarning) as record:
            call()
        assert {w.filename for w in record} == {__file__}  # each warning points at the caller
    small = cfg(h=0.05)  # |1 - 2N| of order 1e-2: no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fermion.negativity_two_mode(small, 1.0, 3)
        fermion.negativity_charge_state(small, 0.7, 1, -2)
        fermion.oneway_negativities(small, 0.5, 0.5, 1, -2)


def test_negativities_take_arrays_of_travel_times():
    c = cfg(h=0.05, n_side=60)
    tau1, tau2 = np.array([0.0, 0.3, 0.7, 1.9]), np.array([0.5, 0.2, 1.1, 0.0])
    two = fermion.negativity_two_mode(c, tau1, 1)
    charge = fermion.negativity_charge_state(c, tau1, 1, -2)
    oneway = fermion.oneway_negativities(c, tau1, tau2, 1, -2)
    for i, (t1, t2) in enumerate(zip(tau1, tau2)):
        assert two[i] == fermion.negativity_two_mode(c, t1, 1)
        assert charge[i] == fermion.negativity_charge_state(c, t1, 1, -2)
        single = fermion.oneway_negativities(c, t1, t2, 1, -2)
        assert oneway["two_mode"][i] == single["two_mode"] and oneway["charge"][i] == single["charge"]
    with pytest.warns(fermion.PerturbativeValidityWarning):  # one point past the bound warns for the array
        fermion.negativity_two_mode(cfg(h=0.3, n_side=60), np.array([0.0, 1.0]), 3)


def test_negativity_charge_state_cases():
    c = cfg(h=0.05)
    # s = 0, k' = -k equals the two-mode value
    two = fermion.negativity_two_mode(c, 0.7, 1)
    charge = fermion.negativity_charge_state(c, 0.7, 1, -1)
    assert abs(two - charge) < 1e-12
    # even k - k': no interference; value is the bare average
    fk = fermion.f_k(c, 0.7, 2)
    fkp = fermion.f_k(c, 0.7, -2)
    no_inter = 0.5 - 0.25 * (fk + fkp) * c.h**2
    assert abs(fermion.negativity_charge_state(c, 0.7, 2, -2) - no_inter) < 1e-14
    # odd parity difference: interference diminishes the degradation
    with_inter = fermion.negativity_charge_state(c, 0.7, 1, -2)
    fk1 = fermion.f_k(c, 0.7, 1)
    fkm2 = fermion.f_k(c, 0.7, -2)
    assert with_inter >= 0.5 - 0.25 * (fk1 + fkm2) * c.h**2 - 1e-15
    with pytest.raises(ValueError):
        fermion.negativity_charge_state(c, 0.7, -1, -2)


def test_oneway_zero_lines_and_positivity():
    c = cfg()
    assert fermion.oneway_f(c, 0.0, 0.83, 1) == 0.0
    assert abs(fermion.oneway_f(c, 2.0, 0.83, 1)) < 1e-10  # E1 = 1
    u, v = 0.3, 0.7  # u + v = 1: E1 E2 = 1
    assert abs(fermion.oneway_f(c, 2 * u, 2 * v, 1)) < 1e-10
    val = fermion.oneway_f(c, 0.5, 0.5, 1)
    assert val > 0
    # period 2 delta in each argument
    assert abs(val - fermion.oneway_f(c, 0.5 + 2.0, 0.5, 1)) < 1e-8
    assert abs(val - fermion.oneway_f(c, 0.5, 0.5 + 2.0, 1)) < 1e-8


def test_oneway_generic_point_matches_windowed_sum():
    c = cfg(n_side=400)
    u = v = 0.25
    got = fermion.oneway_f(c, 2 * u, 2 * v, 1)
    # independent direct summation
    p = np.arange(-400, 401)
    e1 = np.exp(1j * np.pi * 2 * u)
    e12 = np.exp(1j * np.pi * 2 * (u + v))
    a1 = fermion.a1_entry(1, p)
    direct = np.sum(np.abs(e1 ** (1 - p) - 1) ** 2 * np.abs(e12 ** (1 - p) - 1) ** 2 * a1**2)
    assert abs(got - direct) < 1e-12
    assert got > 0


def test_oneway_negativities_dict():
    c = cfg(h=0.05)
    res = fermion.oneway_negativities(c, 0.5, 0.5, 1, -2)
    assert res["two_mode"] <= 0.5
    assert res["charge"] <= 0.5
    res_single = fermion.oneway_negativities(c, 0.5, 0.5, 1)
    assert set(res_single) == {"two_mode"}


def test_density_matrix_route_matches_closed_form_two_mode():
    c = cfg(h=1e-2, n_side=150)
    for k, sign in [(1, +1), (-1, -1), (2, +1)]:
        rho = fermion.two_mode_density_matrix(c, 0.7, k, sign=sign)
        neg_dense = entanglement.negativity_density_matrix(rho, (2, 2))
        neg_closed = fermion.negativity_two_mode(c, 0.7, k)
        assert abs(neg_dense - neg_closed) < 50 * c.h**3
        # the state is positive to the perturbative order, with unit trace
        w = np.linalg.eigvalsh(rho)
        assert w.min() > -100 * c.h**4
        assert abs(np.trace(rho).real - 1.0) < 1e-12


def test_density_matrix_route_matches_closed_form_charge():
    c = cfg(h=1e-2, n_side=150)
    for (k, kp), sign in [((1, -1), +1), ((1, -2), -1), ((2, -1), +1)]:
        rho = fermion.charge_density_matrix(c, 0.9, k, kp, sign=sign)
        neg_dense = entanglement.negativity_density_matrix(rho, (2, 4))
        neg_closed = fermion.negativity_charge_state(c, 0.9, k, kp)
        assert abs(neg_dense - neg_closed) < 50 * c.h**3


def test_density_matrix_scaling_in_h():
    c_ref = cfg(n_side=150)
    ratios = []
    for h in (0.02, 0.01, 0.005):
        c = fermion.FermionCavityConfig(s=0.0, h=h, n_side=150)
        rho = fermion.two_mode_density_matrix(c, 0.7, 1)
        neg_dense = entanglement.negativity_density_matrix(rho, (2, 2))
        neg_closed = fermion.negativity_two_mode(c, 0.7, 1)
        ratios.append(abs(neg_dense - neg_closed) / h**3)
    assert max(ratios) < 100 * max(min(ratios), 1e-6)


def test_fock_oracle_reproduces_printed_matrices():
    c = fermion.FermionCavityConfig(s=0.0, h=1e-2, n_side=3)
    for k, sign, tau1 in [(1, +1, 0.7), (-2, -1, 0.53)]:
        d = np.abs(
            reduced_two_mode(c, tau1, k, sign=sign, n_window=3)
            - fermion.two_mode_density_matrix(c, tau1, k, sign=sign)
        ).max()
        assert d < 2 * c.h**3
    for (k, kp), sign in [((1, -1), +1), ((2, -1), +1)]:
        d = np.abs(
            reduced_charge(c, 0.7, k, kp, sign=sign, n_window=3)
            - fermion.charge_density_matrix(c, 0.7, k, kp, sign=sign)
        ).max()
        assert d < 2 * c.h**3


def test_printed_matrices_build_no_window_array():
    # a (2 n_side + 1)^2 complex matrix at n_side = 400 is 10 MB; one column is 13 kB
    c = cfg(n_side=400)
    calls = [
        lambda: fermion.two_mode_density_matrix(c, 0.7, 1),
        lambda: fermion.charge_density_matrix(c, 0.7, 1, -2),
        lambda: fermion.f_k_split(c, 0.7, 1),
    ]
    for call in calls:
        call()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


def test_vacuum_trace_normalisation():
    # reconstructed vacuum trace is 1 + O(h^3)
    from oracle_fermion_fock import region_i_states

    c = fermion.FermionCavityConfig(s=0.0, h=1e-2, n_side=3)
    _, vac_i, _ = region_i_states(c, 0.6, list(range(-3, 4)), [1])
    assert abs(np.linalg.norm(vac_i) ** 2 - 1.0) < 2 * c.h**3


def test_s_zero_plus_limit_continuity():
    c0 = cfg(s=0.0)
    c_eps = cfg(s=1e-6)
    v0 = fermion.f_k(c0, 0.7, 1)
    veps = fermion.f_k(c_eps, 0.7, 1)
    assert abs(v0 - veps) < 1e-4


def test_h_range_validation():
    with pytest.raises(ValueError):
        fermion.FermionCavityConfig(h=2.0)
    with pytest.raises(ValueError):
        fermion.FermionCavityConfig(s=1.0)


# property tests: one s = 0 config, random travel times.  u = tau1 / 2 delta
# stays 0.01 away from the zero lines, where f_k's truncation guard rightly
# refuses the n_side = 200 window (the sum itself is ~0 there).
PROP_CFG = cfg()
PROPS = settings(max_examples=60, deadline=None, database=None)
interior_u = st.floats(0.01, 0.99)
modes = st.integers(1, 4)


@PROPS
@given(u=interior_u, k=modes, turns=st.integers(1, 3))
def test_f_k_period_and_parity_property(u, k, turns):
    c = PROP_CFG
    val = fermion.f_k(c, 2 * u, k)
    assert val >= 0.0
    assert abs(val - fermion.f_k(c, 2 * (u + turns), k)) < 1e-8
    assert abs(val - fermion.f_k(c, 2 * u, -k)) < 1e-10


@PROPS
@given(u=st.floats(0.0, 3.0), v=st.floats(0.0, 3.0), n=st.integers(0, 3), k=modes)
def test_oneway_zero_lines_property(u, v, n, k):
    c = PROP_CFG
    assert fermion.oneway_f(c, 2 * u, 2 * v, k) >= 0.0
    assert abs(fermion.oneway_f(c, 2 * n, 2 * v, k)) < 1e-10  # u in Z
    v_line = np.ceil(u) + n - u  # v >= 0 with u + v an integer
    assert abs(fermion.oneway_f(c, 2 * u, 2 * v_line, k)) < 1e-10


@PROPS
@given(
    points=st.lists(st.tuples(interior_u, st.floats(0.0, 6.0)), min_size=1, max_size=8),
    k=st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]),
    s=st.sampled_from([0.0, 0.25]),
)
def test_array_calls_equal_scalar_calls(points, k, s):
    c = cfg(s=s)
    taus = 2 * np.array([u for u, _ in points])
    tau2s = np.array([t2 for _, t2 in points])
    assert np.array_equal(fermion.f_k(c, taus, k), [fermion.f_k(c, t, k) for t in taus])
    got = fermion.oneway_f(c, taus, tau2s, k)
    assert np.array_equal(got, [fermion.oneway_f(c, t1, t2, k) for t1, t2 in zip(taus, tau2s)])
    assert isinstance(fermion.f_k(c, taus[0], k), float)
    assert isinstance(fermion.oneway_f(c, taus[0], tau2s[0], k), float)


@PROPS
@given(
    s=st.floats(0.0, 1.0, exclude_max=True),
    tau1=st.floats(0.0, 10.0),
    n_side=st.integers(2, 200),
    data=st.data(),
)
def test_column_route_matches_dense_composition(s, tau1, n_side, data):
    c = cfg(s=s, n_side=n_side)
    k = data.draw(st.integers(-n_side, n_side), label="k")
    cal0, cal1, cal2 = compose_I_to_III(c, tau1)
    k_i = c.index(k)
    g_k, col, a2_kk = fermion._column(c, tau1, k)
    a1 = fermion.a1_entry(c.modes, k, s)
    assert g_k == cal0[k_i, k_i]
    assert np.abs(col - cal1[:, k_i]).max() <= 1e-14 * np.abs(a1).max()
    a1_sq = np.sum(a1**2)
    assert abs(a2_kk - cal2[k_i, k_i]) <= 1e-14 * (2 * abs(fermion.a2_entry(k, k, s)) + a1_sq)
    # f_k^+- against the dense |calA1[p, k]|^2.  The dense phases G_p carry a
    # rounding error of a few eps |omega_p| tau1, which the sine-form weights do
    # not; on the zero lines (tau1 even) f_k -> 0 and that error is all that is
    # left, so it enters the bound as an absolute term, as does the subnormal
    # range that a tiny tau1 reaches.
    fp, fm = fermion.f_k_split(c, tau1, k)
    dense = np.abs(cal1[:, k_i]) ** 2
    pos = c.modes >= 0
    fk = dense.sum()
    dg = 4 * np.finfo(float).eps * np.pi * tau1 * (n_side + 1)
    tol = 1e-10 * fk + 2 * dg * np.sqrt(fk * a1_sq) + dg**2 * a1_sq + np.finfo(float).tiny
    assert fp >= 0.0 and fm >= 0.0
    assert abs(fp - dense[pos].sum()) <= tol
    assert abs(fm - dense[~pos].sum()) <= tol


def direct_window_sum(n_side, s, k, travel_times):
    """sum_p prod_j |exp(i pi t_j (k-p)) - 1|^2 |A1[k, p]|^2 over p in [-n_side, n_side] at 30 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        times = [mpmath.mpf(float(t)) for t in travel_times]
        total = mpmath.mpf(0)
        for p in range(-n_side, n_side + 1):
            q = k - p
            if q % 2 == 0:  # A1 vanishes on the diagonal and for even k - p
                continue
            a1 = (k + p + 2 * mpmath.mpf(s)) / (mpmath.pi**2 * q**3)  # |A1[k, p]| for odd k - p
            term, t = a1**2, mpmath.mpf(0)
            for tau in times:
                t += tau
                term *= abs(mpmath.expjpi(t * q) - 1) ** 2
            total += term
        return float(total)


@PROPS
@given(
    tau1=st.floats(0.0, 6.0),
    tau2=st.floats(0.0, 6.0),
    k=st.integers(-4, 4),
    s=st.floats(0.0, 0.99),
    n_side=st.integers(4, 60),
)
def test_window_sums_match_mpmath_direct_sum(tau1, tau2, k, s, n_side):
    c = cfg(s=s, n_side=n_side)
    got = fermion.oneway_f(c, tau1, tau2, k)
    ref = direct_window_sum(n_side, s, k, (tau1, tau2))
    assert got >= 0.0
    assert abs(got - ref) <= 1e-12 * abs(ref) + 1e-15
    try:
        got = fermion.f_k(c, tau1, k)
    except RuntimeError:  # the window is too small for tau1; the guard's own test covers it
        return
    ref = direct_window_sum(n_side, s, k, (tau1,))
    assert got >= 0.0
    assert abs(got - ref) <= 1e-12 * abs(ref) + 1e-15


@PROPS
@given(
    tau1=st.floats(0.0, 6.0),
    tau2=st.floats(0.0, 6.0),
    k=st.integers(-4, 4),
    s=st.floats(0.0, 0.99),
    n_side=st.integers(4, 60),
)
def test_degradation_terms_are_the_boson_segment_kernel(tau1, tau2, k, s, n_side):
    """The sine products of f_k and oneway_f are |A1_seg[p, k]|^2 of the segments ((1, tau1),) and
    ((1, tau1), (0, tau2), (-1, tau1)), A1_seg the phase sum of `boson.first_order_entries` read at the Dirac
    frequencies: the factored form of those two segments, as `closed_form_b_magnitude` is of the boson's."""
    c = cfg(s=s, n_side=n_side)
    p = c.modes
    a1 = fermion.a1_entry(p[:, None], p[None, :], s)
    dirac = SimpleNamespace(coeffs=SimpleNamespace(alpha1=a1, beta1=np.zeros_like(a1)))
    with mock.patch.object(boson, "mode_frequencies", lambda config: fermion.frequencies(c)):
        for h, tau, travel in (([1.0], [tau1], (tau1,)), ([1.0, 0.0, -1.0], [tau1, tau2, tau1], (tau1, tau2))):
            a_seg, _ = boson.first_order_entries(dirac, h, tau, np.arange(p.size), c.index(k))
            terms = fermion._degradation_terms(c, k, travel)
            phase = np.pi * (n_side + 1) * (2 * tau1 + tau2)
            bound = (1e-14 + 16 * np.finfo(float).eps * phase) * 16 * a1[:, c.index(k)] ** 2
            assert np.all(np.abs(np.abs(a_seg) ** 2 - terms) <= bound)


def full_window_terms(config, k, travel_times):
    """Referee: the degradation terms with a sine taken at every p of the window, as before the odd-only slice."""
    p = config.modes
    half_q = 0.5 * np.pi * (k - p)
    weights, t = 1.0, 0.0
    for tau in travel_times:
        t = t + np.asarray(tau, dtype=float)
        weights = weights * (2.0 * np.sin(t[..., None] * half_q)) ** 2
    return weights * np.abs(fermion.a1_entry(k, p, config.s)) ** 2


@st.composite
def travel_times(draw):
    """One or two travel times, each a scalar or an array; the values include 0, even integers and generic times."""
    value = st.one_of(st.sampled_from([0.0, 2.0, 4.0, 8.0]), st.floats(0.0, 10.0))
    size = draw(st.integers(1, 5))
    shapes = draw(st.sampled_from([((),), ((size,),), ((), ()), ((size,), ()), ((), (size,)), ((size, 1), (size,))]))
    return tuple(
        np.reshape(draw(st.lists(value, min_size=size, max_size=size)), shape) if shape else draw(value)
        for shape in shapes
    )


@settings(max_examples=300, deadline=None, database=None)
@given(
    s=st.sampled_from([0.0, 0.25, 0.5, 0.75]),
    n_side=st.sampled_from([2, 3, 60, 200]),
    data=st.data(),
    travel=travel_times(),
)
def test_odd_only_sines_are_bit_identical_to_the_full_window(s, n_side, data, travel):
    c = cfg(s=s, n_side=n_side)
    k = data.draw(st.integers(-n_side, n_side), label="k")
    got, ref = fermion._degradation_terms(c, k, travel), full_window_terms(c, k, travel)
    assert got.shape == ref.shape
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))
    assert np.array_equal(np.sum(got, axis=-1).view(np.int64), np.sum(ref, axis=-1).view(np.int64))
    even = (k - c.modes) % 2 == 0
    assert np.all(got[..., even].view(np.int64) == 0)  # +0.0, never -0.0


def test_huge_travel_times_are_refused_not_nan():
    c = cfg(n_side=20)
    calls = [
        lambda: fermion.f_k(c, 1e308, 1),
        lambda: fermion.f_k(c, np.array([0.5, np.inf]), 1),
        lambda: fermion.f_k_split(c, 1e308, 1),
        lambda: fermion.oneway_f(c, 1e308, 0.0, 1),
        lambda: fermion.oneway_f(c, 0.5, np.array([0.3, 1e308]), 1),
        lambda: fermion.oneway_f(c, 1e306, 1e308, 1),  # the first stretch's phase is finite, the sum's is not
        lambda: fermion.negativity_two_mode(c, 1e308, 1),
        lambda: fermion.negativity_charge_state(c, 1e308, 1, -2),
        lambda: fermion.oneway_negativities(c, 0.5, 1e308, 1, -2),
        lambda: fermion.two_mode_density_matrix(c, 1e308, 1),
        lambda: fermion.charge_density_matrix(c, 1e308, 1, -2),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any phase overflows
        for call in calls:
            with pytest.raises(ValueError, match="finite phase"):
                call()
        # the refusal sits at the overflow of the window's largest phase pi t (n_side + |k|) / 2, not below it
        edge = 0.5 * np.pi * (c.n_side + 1)
        assert np.isfinite(fermion.oneway_f(c, 0.4 * np.finfo(float).max / edge, 0.0, 1))
        with pytest.raises(ValueError, match="finite phase"):
            fermion.oneway_f(c, 0.6 * np.finfo(float).max / edge, 0.6 * np.finfo(float).max / edge, 1)
