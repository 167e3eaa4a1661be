import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from rqi import udw


def test_point_like_window_is_unity():
    w = udw.frequency_window(udw.SpatialProfile())
    assert np.all(w(np.linspace(-10, 10, 7)) == 1.0)


def test_gaussian_window_double_peaked():
    prof = udw.SpatialProfile(kind=udw.GAUSSIAN, sigma=1.0, peak=5.0)
    w = udw.frequency_window(prof)
    ks = np.linspace(-10, 10, 2001)
    vals = w(ks)
    top = np.sort(np.argsort(vals)[-2:])
    assert abs(ks[top[0]] + 5.0) < 0.02 and abs(ks[top[1]] - 5.0) < 0.02
    assert abs(vals.max() - 1.0) < 1e-6  # unit height peaks


def profile_position(profile, x, a=0.0):
    """Real-space profile f(x), normalised to match the closed-form window; a > 0 adds the exp(-2 a x) metric compensation."""
    gauss = np.exp(-0.5 * x**2 / profile.sigma**2) * 2.0 * np.cos(profile.peak * x)
    norm = 1.0 / (profile.sigma * np.sqrt(2.0 * np.pi))
    if a:
        return norm * np.exp(-2.0 * a * x) * gauss
    return norm * gauss


def test_window_matches_fourier_quadrature():
    prof = udw.SpatialProfile(kind=udw.GAUSSIAN, sigma=1.3, peak=4.0)
    w = udw.frequency_window(prof)
    xs = np.linspace(-40, 40, 200001)
    fx = profile_position(prof, xs)
    for k in np.linspace(0.2, 8.0, 20):
        numeric = np.trapezoid(fx * np.exp(1j * k * xs), xs).real
        assert abs(numeric - w(k)) < 1e-8


def test_rindler_adapted_profile_compensates_metric():
    a = 0.7
    prof = udw.SpatialProfile(kind=udw.GAUSSIAN, sigma=1.0, peak=3.0)
    xs = np.linspace(-30, 30, 400001)
    fx = profile_position(prof, xs, a)
    w = udw.frequency_window(prof)
    # the e^{2 a xi} measure of the Rindler transform cancels the profile factor
    for omega in (1.0, 3.0, 5.0):
        numeric = np.trapezoid(np.exp(2 * a * xs) * fx * np.exp(1j * omega * xs), xs).real
        assert abs(numeric - w(omega)) < 1e-6


def test_inertial_rates():
    assert udw.transition_rate_inertial(udw.DetectorParams(gap=1.0)) == 0.0
    val = udw.transition_rate_inertial(udw.DetectorParams(gap=-1.0))
    assert abs(val - 1.0 / (2 * np.pi)) < 1e-14
    # massive threshold: |gap| < m means no emission, boundary included
    assert udw.transition_rate_inertial(udw.DetectorParams(gap=-0.5, mass=1.0)) == 0.0
    assert udw.transition_rate_inertial(udw.DetectorParams(gap=-1.0, mass=1.0)) == 0.0
    assert udw.transition_rate_inertial(udw.DetectorParams(gap=-2.0, mass=1.0)) > 0.0
    rates = udw.transition_rate_inertial(udw.DetectorParams(gap=np.array([-2.0, -1.0, -0.5, 1.0]), mass=1.0))
    assert rates[0] > 0.0 and np.all(rates[1:] == 0.0)


def test_accelerated_point_like_curves():
    for a in (0.5, 1.0, 2.0):
        for gap in (-2.0, -0.5, 0.5, 2.0):
            det = udw.DetectorParams(gap=gap, accel=a)
            got = udw.transition_rate_accelerated(det, dim="3+1")
            expect = (gap / (2 * np.pi)) / np.expm1(2 * np.pi * gap / a)
            assert abs(got - expect) < 1e-12
            assert got > 0


def test_kms_condition_point_and_smeared():
    prof = udw.SpatialProfile(kind=udw.GAUSSIAN, sigma=0.7, peak=2.0)
    for a in (0.5, 1.0, 2.0):
        for gap in (0.4, 1.5, 4.5):
            for dim, p in (("1+1", prof), ("1+1", udw.SpatialProfile()), ("3+1", prof), ("3+1", udw.SpatialProfile())):
                rp = udw.transition_rate_accelerated(udw.DetectorParams(gap=gap, accel=a), p, dim=dim)
                rm = udw.transition_rate_accelerated(udw.DetectorParams(gap=-gap, accel=a), p, dim=dim)
                assert abs(rp / rm - np.exp(-2 * np.pi * gap / a)) < 1e-6


def test_boltzmann_suppression_small_acceleration():
    det_small = udw.DetectorParams(gap=1.0, accel=0.05)
    det_big = udw.DetectorParams(gap=1.0, accel=2.0)
    assert udw.transition_rate_accelerated(det_small, dim="1+1") < 1e-20
    assert udw.transition_rate_accelerated(det_big, dim="1+1") > 1e-3


@pytest.mark.parametrize("mass, accel", [(-1.0, 0.0), (0.0, -0.5), (np.nan, 1.0), (0.0, np.nan)])
def test_detector_params_reject_negative_mass_or_acceleration(mass, accel):
    with pytest.raises(ValueError):
        udw.DetectorParams(gap=1.0, mass=mass, accel=accel)


@pytest.mark.parametrize("sigma, peak", [(np.nan, 0.0), (np.inf, 0.0), (0.0, 0.0), (-1.0, 0.0), (1.0, np.nan), (1.0, np.inf)])
def test_gaussian_profile_rejects_bad_width_or_peak(sigma, peak):
    with pytest.raises(ValueError):
        udw.SpatialProfile(kind=udw.GAUSSIAN, sigma=sigma, peak=peak)


def test_accelerated_requires_positive_acceleration():
    with pytest.raises(ValueError):
        udw.transition_rate_accelerated(udw.DetectorParams(gap=1.0, accel=0.0))


@pytest.mark.parametrize("dim", ["2+1", "banana", "3 + 1"])
def test_accelerated_rejects_unknown_dim(dim):
    with pytest.raises(ValueError):
        udw.transition_rate_accelerated(udw.DetectorParams(gap=1.0, accel=1.0, mass=0.5), dim=dim)


@pytest.mark.parametrize("dim", udw.DIMS)
def test_accelerated_zero_gap_is_the_exact_limit(dim):
    # point-like massless: (Delta/2pi) / expm1(2 pi Delta / a) -> a / (4 pi^2)
    for a in (0.5, 1.0, 2.0):
        got = udw.transition_rate_accelerated(udw.DetectorParams(gap=0.0, accel=a), dim=dim)
        assert abs(got / (a / (4 * np.pi**2)) - 1.0) < 1e-15


@pytest.mark.parametrize("dim", udw.DIMS)
def test_accelerated_subnormal_gap_is_the_limit(dim):
    # Delta / 2pi underflows below about 1.4e-307: the rate used to come out 0 there
    prof = udw.SpatialProfile(kind=udw.GAUSSIAN, sigma=0.7, peak=2.0)
    rate = lambda gap: udw.transition_rate_accelerated(udw.DetectorParams(gap=gap, mass=0.5, accel=1.0), prof, dim)
    at_zero = rate(0.0)
    for gap in (5e-324, -5e-324, 1e-310, -1e-300):
        assert abs(rate(gap) / at_zero - 1.0) < 1e-15


@pytest.mark.parametrize("dim", udw.DIMS)
def test_accelerated_large_gap_limits_without_overflow_warning(dim):
    # expm1(2 pi 300) overflows to inf: the excitation rate is its limit 0, the de-excitation one 300 / 2pi
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        up = udw.transition_rate_accelerated(udw.DetectorParams(gap=300.0, accel=1.0), dim=dim)
        down = udw.transition_rate_accelerated(udw.DetectorParams(gap=-300.0, accel=1.0), dim=dim)
        both = udw.transition_rate_accelerated(udw.DetectorParams(gap=np.array([300.0, -300.0]), accel=1.0), dim=dim)
    assert up == 0.0 and down == 300.0 / (2.0 * np.pi)
    assert np.array_equal(both, [up, down])


def test_accelerated_zero_gap_continuous_when_smeared_and_massive():
    prof = udw.SpatialProfile(kind=udw.GAUSSIAN, sigma=0.7, peak=2.0)
    rate = lambda gap: udw.transition_rate_accelerated(udw.DetectorParams(gap=gap, mass=0.5, accel=1.0), prof, "3+1")
    at_zero = rate(0.0)
    assert at_zero > 0.0
    for gap in (-1e-6, 1e-6):
        assert abs(rate(gap) / at_zero - 1.0) < 1e-5


def test_window_limit_recovers_point_like():
    # sigma -> 0: the window tends to its sup 2, so the rate to 4x the
    # point-like one; within 2 percent at sigma 0.01
    prof = udw.SpatialProfile(kind=udw.GAUSSIAN, sigma=0.01, peak=5.0)
    det = udw.DetectorParams(gap=-1.0, accel=1.0)
    smeared = udw.transition_rate_accelerated(det, prof, dim="1+1")
    point = udw.transition_rate_accelerated(det, dim="1+1")
    assert abs(smeared / (4.0 * point) - 1.0) < 0.02
    inertial_sm = udw.transition_rate_inertial(udw.DetectorParams(gap=-1.0), prof)
    inertial_pt = udw.transition_rate_inertial(udw.DetectorParams(gap=-1.0))
    assert abs(inertial_sm / (4.0 * inertial_pt) - 1.0) < 0.02


def gaussian_packet(center=5.0):
    return lambda k: (2.0 / np.pi) ** 0.25 * np.exp(-((k - center) ** 2))


def test_single_particle_correction_zero_packet():
    prof = udw.SpatialProfile(kind=udw.GAUSSIAN, sigma=1.0, peak=5.0)
    res = udw.single_particle_correction(prof, None, 0.0, -1.0)
    assert res["iota"] == 0.0 and res["rate_delta"] == 0.0


def test_single_particle_correction_decays():
    prof = udw.SpatialProfile(kind=udw.GAUSSIAN, sigma=1.0, peak=5.0)
    packet = gaussian_packet()
    near = udw.single_particle_correction(prof, packet, 0.0, -1.0)
    far = udw.single_particle_correction(prof, packet, 50.0, -1.0)
    assert abs(far["iota"]) < 1e-6 * abs(near["iota"])


def nested_iota(profile, packet, t, gap, panels=100, order=20, chunk=10):
    """Referee: (iota_t(gap), iota_t(-gap), I(t)) with the s integral done numerically.

    100 Gauss-Legendre panels of 20 nodes over [0, |t| + 30 sigma], and I(t - s)
    at each node a 4001-node trapezoid over the correction's k range; `chunk`
    panels at a time keep each (s, k) temporary near 13 MB.
    """
    k = np.linspace(1e-9, profile.peak + 12.0 / profile.sigma, 4001)
    amp = packet(k) * udw.frequency_window(profile)(k) / np.sqrt(k)
    x, w = np.polynomial.legendre.leggauss(order)
    half = 0.5 * (abs(t) + 30.0 * profile.sigma) / panels
    s = half * (2.0 * np.arange(panels)[:, None] + 1.0 + x)  # (panel, node)
    iota = np.zeros(2, dtype=complex)
    for lo in range(0, panels, chunk):
        nodes = s[lo : lo + chunk].ravel()
        i_s = np.trapezoid(amp * np.exp(-1j * np.outer(t - nodes, k)), k, axis=1)
        iota += np.exp(-1j * np.outer([gap, -gap], nodes)) @ (np.tile(half * w, chunk) * i_s)
    return iota[0], iota[1], np.trapezoid(amp * np.exp(-1j * k * t), k)


@pytest.mark.parametrize("t", [0.0, 1.0, 5.0])
def test_single_particle_correction_matches_nested_s_integral(t):
    prof = udw.SpatialProfile(kind=udw.GAUSSIAN, sigma=1.0, peak=5.0)
    packet = gaussian_packet()
    iota, iota_neg, i_t = nested_iota(prof, packet, t, -1.0)
    res = udw.single_particle_correction(prof, packet, t, -1.0)
    assert abs(res["iota"] - iota) < 1e-9 * abs(iota)
    assert abs(udw.single_particle_correction(prof, packet, t, 1.0)["iota"] - iota_neg) < 1e-9 * abs(iota_neg)
    # the two terms of the rate correction nearly cancel at t = 0: bound by their size
    rate = 2.0 * np.real(np.conj(i_t) * iota + i_t * np.conj(iota_neg))
    assert abs(res["rate_delta"] - rate) < 1e-9 * 2.0 * abs(i_t) * (abs(iota) + abs(iota_neg))


def test_wightman_vacuum_term_factorises():
    # the one-particle Wightman function is vacuum * ||Phi||^2 + oscillation;
    # scaling the packet amplitude scales iota linearly (vacuum term separate)
    prof = udw.SpatialProfile(kind=udw.GAUSSIAN, sigma=1.0, peak=5.0)
    packet = gaussian_packet()
    res1 = udw.single_particle_correction(prof, packet, 1.0, -1.0)
    res2 = udw.single_particle_correction(prof, lambda k: 2 * packet(k), 1.0, -1.0)
    assert abs(res2["iota"] - 2 * res1["iota"]) < 1e-10 * abs(res1["iota"]) + 1e-14
    assert abs(res2["rate_delta"] - 4 * res1["rate_delta"]) < 1e-8 * abs(res1["rate_delta"]) + 1e-14


def assert_array_call_equals_scalar_calls(rate, half, **det):
    """A gap array of +-pairs and 0 gives exactly the per-gap scalar rates; a scalar gives a float."""
    gaps = np.concatenate([-np.array(half), [0.0], half])
    got = rate(udw.DetectorParams(gap=gaps, **det))
    scalars = [rate(udw.DetectorParams(gap=float(g), **det)) for g in gaps]
    assert all(type(r) is float for r in scalars)
    assert got.shape == gaps.shape and np.array_equal(got, scalars)


PROFILES = [
    udw.SpatialProfile(),
    udw.SpatialProfile(kind=udw.GAUSSIAN, sigma=0.7, peak=2.0),
    udw.SpatialProfile(kind=udw.GAUSSIAN, sigma=1.3, peak=1.0),
]


@settings(max_examples=60, deadline=None, database=None)
@given(half=st.lists(st.floats(0.0, 6.0), min_size=1, max_size=6), a=st.floats(0.3, 3.0), mass=st.floats(0.0, 2.0), profile=st.sampled_from(PROFILES))
@example(half=[4.884536585987863], a=1.0, mass=0.0, profile=PROFILES[2])  # a float gap once squared by pow, an array by x*x
def test_rate_array_equals_scalar_calls_closed_paths(half, a, mass, profile):
    # 1+1 (any window and mass) and point-like massless 3+1; the inertial rate likewise
    accel_11 = lambda det: udw.transition_rate_accelerated(det, profile, dim="1+1")
    assert_array_call_equals_scalar_calls(accel_11, half, mass=mass, accel=a)
    accel_31 = lambda det: udw.transition_rate_accelerated(det, dim="3+1")
    assert_array_call_equals_scalar_calls(accel_31, half, accel=a)
    inertial = lambda det: udw.transition_rate_inertial(det, profile)
    assert_array_call_equals_scalar_calls(inertial, half, mass=mass)


@settings(max_examples=4, deadline=None, database=None)
@given(
    half=st.lists(st.floats(0.1, 4.0), min_size=1, max_size=2),
    a=st.floats(0.5, 2.0),
    profile_mass=st.sampled_from([(p, m) for p in PROFILES for m in (0.0, 0.5)][1:]),  # all but point-like massless
)
def test_rate_array_equals_scalar_calls_3p1_quadrature(half, a, profile_mass):
    profile, mass = profile_mass
    accel_31 = lambda det: udw.transition_rate_accelerated(det, profile, dim="3+1")
    assert_array_call_equals_scalar_calls(accel_31, half, mass=mass, accel=a)


def test_pm_gap_pair_shares_one_density_weight(monkeypatch):
    calls = []
    weight = udw._density_weight
    monkeypatch.setattr(udw, "_density_weight", lambda *args: calls.append(args[0]) or weight(*args))
    det = udw.DetectorParams(gap=np.array([-1.0, 0.0, 1.0]), mass=0.5, accel=1.0)
    rates = udw.transition_rate_accelerated(det, dim="3+1")
    assert sorted(calls) == [0.0, 1.0]
    assert abs(rates[0] / rates[2] - np.exp(2 * np.pi)) < 1e-9 * np.exp(2 * np.pi)


def test_massless_smeared_3p1_weight_evaluates_each_k_once(monkeypatch):
    """The smeared massless integrand meets the calibration integral's nodes: each K_{i nu}(x) is computed once."""
    args = []
    k = udw.bessel_K_imag_order
    monkeypatch.setattr(udw, "bessel_K_imag_order", lambda nu, x: args.append((nu, x)) or k(nu, x))
    prof = udw.SpatialProfile(kind=udw.GAUSSIAN, sigma=1.0, peak=2.0)
    udw._density_weight(1.0, udw.DetectorParams(gap=1.0, accel=0.5), prof, "3+1")
    assert len(args) == len(set(args)) > 0


def quad_k(nu, x):
    """K_{i nu}(x) by adaptive quadrature of the same integral, the route the trapezoid rule replaced."""
    t_max = math.acosh(1.0 + 45.0 / x) + 1.0
    f = lambda t: math.exp(-x * math.cosh(t)) * math.cos(nu * t)
    return quad(f, 0.0, t_max, epsabs=1e-11, epsrel=1e-11, limit=200)[0]


def mpmath_k(nu, x):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        return float(mpmath.re(mpmath.besselk(1j * nu, x)))


def rate_3p1(gap, a, mass, profile, k=None):
    """3+1 accelerated rates at +-gap, with the library's K or with `k` in its place."""
    det = udw.DetectorParams(gap=np.array([gap, -gap]), mass=mass, accel=a)
    with pytest.MonkeyPatch.context() as mp:
        if k is not None:
            mp.setattr(udw, "bessel_K_imag_order", k)
        return udw.transition_rate_accelerated(det, profile, dim="3+1")


@settings(max_examples=40, deadline=None, database=None)
@given(
    gap=st.floats(-6.0, 6.0),
    a=st.floats(0.4, 3.0),
    mass=st.one_of(st.just(0.0), st.floats(0.1, 1.0)),
    kind=st.sampled_from([udw.POINT, udw.GAUSSIAN]),
    sigma=st.floats(0.5, 2.0),
)
def test_3p1_rate_kms_and_agreement_with_quadrature_k(gap, a, mass, kind, sigma):
    profile = udw.SpatialProfile(kind=kind, sigma=sigma)
    rates = rate_3p1(gap, a, mass, profile)
    assert np.all(np.isfinite(rates)) and np.all(rates > 0)
    assert abs(rates[0] / rates[1] / math.exp(-2 * math.pi * gap / a) - 1) < 1e-12
    # Both K routes sum terms of size up to 1 to a K of size exp(-pi nu / 2), so
    # their rounding, and the rates' drift between them, grows like exp(pi nu / 2).
    nu = abs(gap) / a
    tol = max(1e-9, 0.5 * np.finfo(float).eps * math.exp(math.pi * nu / 2))
    assert np.all(np.abs(rates / rate_3p1(gap, a, mass, profile, quad_k) - 1) < tol)


@pytest.mark.parametrize("gap, a, mass", [(5.25, 0.475, 0.5), (4.8, 0.42, 0.8)])
def test_3p1_rate_matches_mpmath_k_at_large_order(gap, a, mass):
    """Near the largest order of the grids, the rate with the library's K against the same rate with mpmath's K."""
    rates = rate_3p1(gap, a, mass, udw.SpatialProfile())
    assert np.all(np.abs(rates / rate_3p1(gap, a, mass, udw.SpatialProfile(), mpmath_k) - 1) < 1e-9)


@pytest.mark.parametrize("gap", [np.nan, np.inf, [1.0, np.nan], np.array([-np.inf, 0.5])])
def test_detector_params_reject_non_finite_gap(gap):
    with pytest.raises(ValueError, match="gap"):
        udw.DetectorParams(gap=gap, mass=0.5, accel=1.0)
