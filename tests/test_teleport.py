import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqi import boson, entanglement, gaussian, teleport


def scenario(r=0.5, kp=3, h=0.05, tau=0.9, n_max=20, alice_phase=0.0):
    cfg = boson.BosonCavityConfig(n_max=n_max, h=h)
    seg = boson.TrajectorySegment(((h, tau),))
    return teleport.TeleportScenario(r=r, kp=kp, config=cfg, segment=seg, alice_phase=alice_phase)


def test_fidelity_of_matched_resource_at_phi_zero():
    # h = 0 limit at phi = 0 gives the optimal value 1 / (1 + exp(-2r))
    sc = scenario(h=1e-12, tau=2.0 / 3.0)
    state = teleport.transformed_resource_state(sc)
    assert abs(teleport.fidelity(state) - 1.0 / (1.0 + np.exp(-1.0))) < 1e-9


def test_fidelity_classical_limit():
    # r -> 0 with identity correlations: F -> 1/2
    assert abs(teleport.fidelity(gaussian.vacuum_state(2)) - 0.5) < 1e-12


def test_zero_order_fidelity_phase_formula():
    r = 0.5
    for tau in (0.2, 0.5, 1.3):
        sc = scenario(r=r, h=1e-10, tau=tau)
        state = teleport.transformed_resource_state(sc)
        f0_formula = 1.0 / (1.0 + np.cosh(2 * r) - np.cos(sc.phi) * np.sinh(2 * r))
        assert abs(teleport.fidelity(state) - f0_formula) < 1e-8
    # phi = pi instance: F0 = 1 / (1 + cosh 1 + sinh 1)
    sc = scenario(r=0.5, h=1e-10, tau=1.0 / 3.0, alice_phase=np.pi - np.pi * 3 / 3.0 * 1.0)
    f0, _ = teleport.fidelity_expansion(sc)
    assert abs(1.0 / (1.0 + np.cosh(1.0) + np.sinh(1.0)) -
               1.0 / (1.0 + np.cosh(1.0) - np.cos(np.pi) * np.sinh(1.0))) < 1e-15


def test_transformed_state_phi_2pi_recovers_tmss():
    # massless periodicity: tau = 2 brings every phase back to a multiple of 2 pi
    sc = scenario(h=1e-10, tau=2.0)
    state = teleport.transformed_resource_state(sc)
    r = sc.r
    expect = np.zeros((4, 4))
    expect[:2, :2] = np.cosh(2 * r) * np.eye(2)
    expect[2:, 2:] = np.cosh(2 * r) * np.eye(2)
    expect[:2, 2:] = -np.sinh(2 * r) * np.diag([1.0, -1.0])
    expect[2:, :2] = expect[:2, 2:].T
    assert np.abs(gaussian.real_covariance(state) - expect).max() < 1e-7
    assert abs(state.purity_det() - 1.0) < 1e-7


def test_f_sums_nonnegative_and_convergent():
    sc = scenario(n_max=40)
    fa, fb = teleport.f_sums(sc)
    assert fa >= 0 and fb >= 0
    sc_big = scenario(n_max=80)
    fa2, fb2 = teleport.f_sums(sc_big)
    assert abs(fa2 - fa) < 1e-8
    assert abs(fb2 - fb) < 1e-8


def test_fidelity_expansion_zero_without_mixing():
    sc = scenario(h=1e-9, tau=2.0)  # phases aligned: A1, B1 columns vanish
    fa, fb = teleport.f_sums(sc)
    assert fa < 1e-12 and fb < 1e-12
    _, f2 = teleport.fidelity_expansion(sc)
    assert f2 < 1e-12


def test_series_vs_full_fidelity_residual_h4_at_corrected_phase():
    # at phi = 2 pi n the series is gauge-free: residual scales like h^4
    tau = 2.0 / 3.0
    hs = np.array([0.02, 0.04, 0.08])
    residuals = []
    for h in hs:
        sc = scenario(h=h, tau=tau, n_max=20)
        state = teleport.transformed_resource_state(sc)
        f0, f2 = teleport.fidelity_expansion(sc)
        residuals.append(abs(teleport.fidelity(state) - (f0 - f2 * h * h)))
    slope = np.polyfit(np.log(hs), np.log(residuals), 1)[0]
    assert 3.5 < slope < 4.5


def test_optimal_fidelity_phase_independent():
    vals = []
    for phase in np.linspace(0, 2 * np.pi, 10, endpoint=False):
        sc = scenario(alice_phase=phase)
        vals.append(teleport.optimal_fidelity_corrected(sc)["fidelity"])
    assert np.ptp(vals) < 1e-12


def test_optimal_fidelity_limits():
    sc0 = scenario(h=1e-10)
    res = teleport.optimal_fidelity_corrected(sc0)
    assert abs(res["fidelity"] - 1.0 / (1.0 + np.exp(-1.0))) < 1e-12
    with pytest.raises(ValueError, match="squeezing"):
        teleport.TeleportScenario(
            r=0.0, kp=3, config=boson.BosonCavityConfig(n_max=8, h=0.01),
            segment=boson.TrajectorySegment(((0.01, 0.5),)),
        )


@pytest.mark.parametrize("r, kp", [(-0.5, 3), (0.5, 0), (0.5, 21), (float("nan"), 3)])
def test_scenario_owns_squeezing_and_rob_label(r, kp):
    with pytest.raises(ValueError):
        scenario(r=r, kp=kp)


def test_closed_form_nu_vs_direct_symplectic_route_h4():
    tau = 0.9
    hs = np.array([0.02, 0.05, 0.1, 0.2])
    diffs = []
    for h in hs:
        sc = scenario(h=h, tau=tau)
        state = teleport.transformed_resource_state(sc)
        nu_direct = entanglement.smallest_pt_eigenvalue(state)
        nu_closed = teleport.optimal_fidelity_corrected(sc)["nu_minus"]
        diffs.append(abs(nu_direct - nu_closed))
    slope = np.polyfit(np.log(hs), np.log(diffs), 1)[0]
    assert 3.8 < slope < 4.2
    assert diffs[1] < 5e-4  # h = 0.05: the O(h^4) residual is small, not only steep


@pytest.mark.parametrize("label", [-1, 0, 21])
def test_mode_labels_outside_one_to_n_max_rejected(label):
    # 1-based labels: 0 and -1 are out of range, not the last modes
    cfg = boson.BosonCavityConfig(n_max=20, h=0.05)
    seg = boson.TrajectorySegment(((0.05, 0.9),))
    with pytest.raises(ValueError, match=r"1\.\.20"):
        teleport.TeleportScenario(r=0.5, kp=label, config=cfg, segment=seg)
    for k, kp in ((label, 2), (1, label)):
        with pytest.raises(ValueError, match=r"1\.\.20"):
            boson.closed_form_b_magnitude(cfg, 0.4, 0.3, 1.0, k, kp)


def test_gamma11_element_f_sum_combination():
    # second-order B-block (1,1) entry carries the f-sum combination
    # f_a + f_b - Re f_ab + cosh(2r)(f_b - f_a), written here with the
    # half-sum f's and the assembly's cross-sum phase convention (the
    # cosh-part cross term is a pure gauge of the unprinted second-order
    # diagonal coefficients and our closure sets it to zero)
    sc = scenario(h=1e-4, tau=0.7)
    state = teleport.transformed_resource_state(sc)
    a1, b1 = teleport.segment_first_order(sc.config, sc.segment)
    i = sc.kp - 1
    mask = np.ones(sc.config.n_max, dtype=bool)
    mask[i] = False
    f_a = 0.5 * float(np.sum(np.abs(a1[mask, i]) ** 2))
    f_b = 0.5 * float(np.sum(np.abs(b1[mask, i]) ** 2))
    f_ab = complex(np.sum(a1[mask, i] * b1[mask, i]))
    h2 = sc.config.h**2
    ch = np.cosh(2 * sc.r)
    got = (gaussian.real_covariance(state)[2, 2] - ch) / h2
    expect = 2 * (f_a + f_b) - 2 * np.real(f_ab) + 2 * ch * (f_b - f_a)
    assert abs(got - expect) < 1e-5 * max(1.0, abs(expect))


def test_fidelity_rejects_unphysical():
    bad = np.diag([0.1, 0.1, 0.1, 0.1])
    state = gaussian.CovarianceState(2, bad)
    with pytest.raises(ValueError):
        teleport.fidelity(state)


def test_massless_periodicity_in_tau():
    # all outputs are periodic in the acceleration time with period 2 delta
    base = scenario(h=0.05, tau=0.37)
    shifted = scenario(h=0.05, tau=0.37 + 2.0)
    fa0, fb0 = teleport.f_sums(base)
    fa1, fb1 = teleport.f_sums(shifted)
    assert abs(fa0 - fa1) < 1e-10 and abs(fb0 - fb1) < 1e-10
    nu0 = teleport.optimal_fidelity_corrected(base)["nu_minus"]
    nu1 = teleport.optimal_fidelity_corrected(shifted)["nu_minus"]
    assert abs(nu0 - nu1) < 1e-12


def close(got, expect, phase):
    """Agreement to 1e-14 relative, widened by the rounding of phases up to `phase` rad.

    Both routes round w_n tau (per point inside exp(i w_n tau), here inside
    sin((w_n -+ w_k') tau / 2)).  Over 5,000 random draws the two differed by
    at most 3.9 eps w_max tau relative; each is as far from a 40-digit sum.
    """
    return abs(got - expect) <= (1e-14 + 16 * np.finfo(float).eps * phase) * max(1.0, abs(expect))


@settings(max_examples=60, deadline=None, database=None)
@given(
    taus=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=4),
    hs=st.lists(st.floats(1e-6, 1.9), min_size=1, max_size=3),
    n_max=st.integers(2, 40),
    kp_frac=st.floats(0.0, 1.0),
    mass=st.floats(0.0, 3.0),
    r=st.floats(0.01, 3.0),
)
def test_block_grid_matches_one_block_scenarios(taus, hs, n_max, kp_frac, mass, r):
    kp = 1 + min(int(kp_frac * n_max), n_max - 1)
    cfg = boson.BosonCavityConfig(mass=mass, n_max=n_max, h=hs[0])
    tau, h = np.array(taus)[:, None], np.array(hs)[None, :]
    f_alpha, f_beta = teleport.block_sums(cfg, kp, tau[:, 0])
    fid, opt = teleport.block_fidelities(r, kp, cfg, tau, h)
    w_max = boson.mode_frequencies(cfg)[-1]
    assert fid.shape == opt.shape == (len(taus), len(hs))
    for i, t in enumerate(taus):
        for j, a in enumerate(hs):
            sc = teleport.TeleportScenario(
                r=r, kp=kp, config=boson.BosonCavityConfig(mass=mass, n_max=n_max, h=a),
                segment=boson.TrajectorySegment(((a, t),)),
            )
            fa, fb = teleport.f_sums(sc)
            assert close(f_alpha[i], fa, w_max * t) and close(f_beta[i], fb, w_max * t)
            f0, f2 = teleport.fidelity_expansion(sc)
            assert close(fid[i, j], f0 - f2 * a * a, w_max * t)
            assert close(opt[i, j], teleport.optimal_fidelity_corrected(sc)["fidelity"], w_max * t)


@pytest.mark.parametrize(
    "r, tau, h",
    [
        (0.0, 0.5, 0.1),
        (-0.5, 0.5, 0.1),
        (np.nan, 0.5, 0.1),
        (0.5, [0.5, -0.1], 0.1),
        (0.5, [0.5, np.nan], 0.1),
        (0.5, 0.5, [0.1, 2.5]),
        (0.5, 0.5, [-2.0, 0.1]),
        (0.5, 0.5, np.nan),
    ],
)
def test_block_fidelities_refuse_unphysical_inputs(r, tau, h):
    # at |h| = 2.5 the series used to return a fidelity of -0.059 without complaint
    cfg = boson.BosonCavityConfig(n_max=20)
    with pytest.raises(ValueError):
        teleport.block_fidelities(r, 3, cfg, tau, h)


@pytest.mark.parametrize("kp", [0, 21, -1])
def test_block_fidelities_refuse_bad_labels(kp):
    with pytest.raises(ValueError, match="mode labels"):
        teleport.block_fidelities(0.5, kp, boson.BosonCavityConfig(n_max=20), 0.5, 0.1)
