import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import iv, kv

import oracle_rindler as o
from rqi import bessel as b


def test_zero_order_matches_real_bessel():
    for x in (0.3, 1.0, 3.0, 10.0):
        val = o.bessel_I_imag_order(0.0, x)
        assert abs(val.imag) < 1e-12
        assert abs(val.real - iv(0, x)) < 1e-10 * iv(0, x)
    assert abs(b.bessel_K_imag_order(0.0, 1.0) - kv(0, 1.0)) < 1e-9


def test_k0_at_one_value():
    assert abs(b.bessel_K_imag_order(0.0, 1.0) - 0.421024438) < 1e-8


def test_conjugation_symmetry():
    val_p = o.bessel_I_imag_order(2.0, 3.0)
    val_m = o.bessel_I_imag_order(-2.0, 3.0)
    assert abs(val_m - np.conj(val_p)) < 1e-12 * abs(val_p)


def k_imag_order_series(nu, x):
    """Referee for the K integral: K_{i nu}(x) = -pi Im[I_{i nu}(x)] / sinh(pi nu), nu != 0."""
    return float(-np.pi * o.bessel_I_imag_order(nu, x).imag / np.sinh(np.pi * nu))


def test_k_dual_route_agreement():
    for nu, x in [(1.0, 1.0), (0.5, 2.0), (2.0, 0.7), (3.0, 5.0)]:
        ser = k_imag_order_series(nu, x)
        integ = b.bessel_K_imag_order(nu, x)
        assert abs(ser - integ) < 1e-8 * max(abs(integ), 1e-8)


@pytest.mark.parametrize("nu", [0.0, 0.5, 2.0, 5.0, 10.0])
def test_k_matches_mpmath(nu):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for x in (0.05, 0.25, 1.0, 4.0, 20.0):
            ref = float(mpmath.re(mpmath.besselk(1j * nu, x)))
            assert abs(b.bessel_K_imag_order(nu, x) - ref) < 1e-14


@pytest.mark.parametrize("nu, x", [(np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan), (1.0, np.inf)])
def test_k_rejects_non_finite_order_or_argument(nu, x):
    with pytest.raises(ValueError, match="finite"):
        b.bessel_K_imag_order(nu, x)


def test_k_at_a_tiny_argument_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        ref = float(mpmath.re(mpmath.besselk(2j, mpmath.mpf("1e-300"))))
    assert abs(b.bessel_K_imag_order(2.0, 1e-300) - ref) < 1e-13


@pytest.mark.parametrize("x", [5e-324, 0.0, -1.0])
def test_k_refuses_a_subnormal_or_non_positive_argument(x):
    with pytest.raises(ValueError, match="positive"):
        b.bessel_K_imag_order(2.0, x)


@settings(max_examples=150, deadline=None, database=None)
@given(nu=st.floats(0.0, 12.0), log_x=st.floats(math.log(1e-3), math.log(60.0)))
def test_k_matches_mpmath_over_random_order_and_argument(nu, log_x):
    # nu = 12 lies above the largest order the benchmark grids reach: 11.1 at a = 0.475, Delta = 5.25
    mpmath = pytest.importorskip("mpmath")
    x = math.exp(log_x)
    with mpmath.workdps(30):
        ref = float(mpmath.re(mpmath.besselk(1j * nu, x)))
    assert abs(b.bessel_K_imag_order(nu, x) - ref) < 1e-14


def fresh_trapezoid(nu, x):
    """The trapezoid sum of `bessel_K_imag_order` with nodes built anew: np.arange, cosh and cos on each call."""
    t = np.arange(0.0, math.acosh(1.0 + 45.0 / x) + 1.0, b.K_STEP)
    f = np.exp(-x * np.cosh(t)) * np.cos(nu * t)
    return float(b.K_STEP * (f.sum() - 0.5 * f[0]))


@settings(max_examples=100, deadline=None, database=None)
@given(
    orders=st.lists(st.floats(0.0, 12.0), min_size=1, max_size=3),
    calls=st.lists(
        st.tuples(st.integers(0, 2), st.one_of(st.floats(math.log(1e-3), math.log(60.0)), st.floats(-690.0, 0.0))),
        min_size=2,
        max_size=20,
    ),
)
def test_kept_nodes_give_the_fresh_trapezoid_bit_for_bit(orders, calls):
    # orders repeat and alternate, arguments shrink (the support grows) and grow (it is sliced); each kept-node value
    # also equals a cold call's, from nodes and work buffer built anew, so the reused buffer carries nothing over
    for i, log_x in calls:
        nu, x = orders[i % len(orders)], math.exp(log_x)
        warm, kept = b.bessel_K_imag_order(nu, x), dict(b._NODES)
        b._NODES.update(nu=math.nan, cosh=np.empty(0), cos=np.empty(0), work=np.empty(0))
        try:
            assert warm == b.bessel_K_imag_order(nu, x) == fresh_trapezoid(nu, x)
        finally:
            b._NODES.update(kept)


def test_k_returns_a_python_float():
    assert type(b.bessel_K_imag_order(np.float64(2.0), np.float64(1.5))) is float


def test_k_positive_and_decaying():
    # beyond the turning point x ~ nu the function is positive and decaying
    for nu in (0.0, 0.7, 2.0):
        xs = nu + np.array([0.5, 1.0, 2.0, 4.0, 8.0])
        vals = np.array([b.bessel_K_imag_order(nu, x) for x in xs])
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) < 0)
    # large-x envelope sqrt(pi/2x) exp(-x) within 1 percent at x = 20
    x = 20.0
    env = np.sqrt(np.pi / (2 * x)) * np.exp(-x)
    assert abs(b.bessel_K_imag_order(0.0, x) / env - 1.0) < 0.01


def test_series_quadrature_consistency_via_wronskian_identity():
    # K_{i nu}(x) = -pi Im I_{i nu}(x) / sinh(pi nu)
    nu, x = 1.0, 1.0
    lhs = b.bessel_K_imag_order(nu, x)
    ival = o.bessel_I_imag_order(nu, x)
    rhs = -np.pi * ival.imag / np.sinh(np.pi * nu)
    assert abs(lhs - rhs) < 1e-8


def test_scaled_evaluation_handles_large_order_and_argument():
    mant, scale = o.bessel_I_imag_order_scaled(400.0, 50.0)
    assert np.isfinite(mant).all() if isinstance(mant, np.ndarray) else np.isfinite(mant)
    assert scale > 400.0  # dominated by exp(pi nu / 2)
    with pytest.raises(OverflowError):
        o.bessel_I_imag_order(2000.0, 10.0)


def test_rindler_roots_bracketing_and_ordering():
    chi_minus, chi_plus, kappa = 9.5, 10.5, 2.0
    roots = o.rindler_frequencies(chi_minus, chi_plus, kappa, 5)
    assert np.all(np.diff(roots) > 0)
    for r in roots:
        assert abs(o.rindler_boundary_function(r, chi_minus, chi_plus, kappa)) < 1e-6
    # no skipped roots: fine scan sign-change count matches
    grid = np.linspace(roots[0] * 0.5, roots[-1] + 0.5, 2000)
    vals = [o.rindler_boundary_function(w, chi_minus, chi_plus, kappa) for w in grid]
    changes = sum(1 for a_, b_ in zip(vals, vals[1:]) if a_ * b_ < 0)
    assert changes == sum(1 for r in roots if grid[0] <= r <= grid[-1])


def test_rindler_roots_massless_limit():
    # kappa -> 0: equation in y = log chi is free, Omega_n = n pi / log(chi+/chi-)
    chi_minus, chi_plus = 99.5, 100.5
    kappa = 1e-6
    roots = o.rindler_frequencies(chi_minus, chi_plus, kappa, 3)
    expect = np.arange(1, 4) * np.pi / np.log(chi_plus / chi_minus)
    assert np.abs(roots / expect - 1.0).max() < 1e-6


def test_rindler_frequency_monotone_in_kappa():
    chi_minus, chi_plus = 4.5, 5.5
    prev = None
    for kappa in (0.5, 1.0, 2.0, 4.0):
        r = o.rindler_frequencies(chi_minus, chi_plus, kappa, 1)[0]
        if prev is not None:
            assert r > prev
        prev = r


def test_inertial_limit_of_rindler_spectrum():
    # small h (within the series validity x <= 30): Omega_n log(chi+/chi-)
    # approaches the inertial sqrt(n^2 pi^2 + kappa^2) to 0.1 percent
    h = 0.02
    chi_minus, chi_plus = 1.0 / h - 0.5, 1.0 / h + 0.5
    kappa = 0.2
    roots = o.rindler_frequencies(chi_minus, chi_plus, kappa, 3)
    log_ratio = np.log(chi_plus / chi_minus)
    inertial = np.sqrt((np.arange(1, 4) * np.pi) ** 2 + kappa**2)
    assert np.abs(roots * log_ratio / inertial - 1.0).max() < 1e-3


def test_mode_profile_vanishes_at_walls_and_matches_quadrature_norm():
    chi_minus, chi_plus, kappa = 9.5, 10.5, 3.0
    omega = o.rindler_frequencies(chi_minus, chi_plus, kappa, 2)[1]
    chis = np.linspace(chi_minus, chi_plus, 801)
    prof = o.rindler_mode_profile(chis, chi_minus, kappa, omega)
    assert abs(prof[0]) < 1e-9 * np.abs(prof).max()
    assert abs(prof[-1]) < 1e-6 * np.abs(prof).max()
    norm = np.trapezoid(prof**2 / chis, chis)
    assert norm > 0
