import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle_boson import first_order_oracle, segment_first_order
from rqi import boson, gaussian, teleport


def cfg(**kw):
    return boson.BosonCavityConfig(**kw)


def test_mode_frequencies_massless_and_massive():
    c = cfg(n_max=5)
    assert np.allclose(boson.mode_frequencies(c), np.arange(1, 6) * np.pi)
    cm = cfg(n_max=5, mass=2.0)
    w = boson.mode_frequencies(cm)
    assert np.all(np.diff(w) > 0)
    assert abs(w[0] - np.sqrt(np.pi**2 + 4.0)) < 1e-14


def test_bogo_first_order_structure():
    c = boson.bogo_first_order(cfg(n_max=8, mass=1.3))
    assert np.abs(np.diag(c.alpha1)).max() == 0.0
    assert np.abs(np.diag(c.beta1)).max() == 0.0
    m, n = np.meshgrid(np.arange(1, 9), np.arange(1, 9), indexing="ij")
    even = (m + n) % 2 == 0
    assert np.abs(c.alpha1[even]).max() == 0.0
    assert np.abs(c.beta1[even]).max() == 0.0
    assert np.abs(c.alpha1 + c.alpha1.T).max() < 1e-14  # antisymmetric
    assert np.abs(c.beta1 - c.beta1.T).max() < 1e-14  # symmetric


def test_bogo_first_order_against_quadrature_oracle():
    c = boson.bogo_first_order(cfg(n_max=4))
    a_o, b_o = first_order_oracle(2, 1, 0.0)
    assert abs(c.alpha1[1, 0] - a_o) < 1e-5 * abs(a_o)
    assert abs(c.beta1[1, 0] - b_o) < 1e-5 * abs(b_o)


def one_block(c, h_j, tau_j):
    return boson.compose_segment(c, boson.TrajectorySegment(((h_j, tau_j),)))


def test_building_block_limits():
    c = cfg(n_max=6)
    u = one_block(c, 0.0, 0.8)
    g = np.exp(1j * boson.mode_frequencies(c) * 0.8)
    assert np.abs(u.matrix - np.diag(np.concatenate([g.conj(), g]))).max() < 1e-14
    ident = one_block(c, c.h, 0.0)
    assert np.abs(ident.matrix - np.eye(12)).max() < 1e-12


def test_building_block_first_order_b_entry():
    c = cfg(n_max=12, h=1e-4)
    block = one_block(c, c.h, 1.0)
    _, b = boson.segment_blocks(block)
    coeffs = boson.bogo_first_order(c)
    omega = boson.mode_frequencies(c)
    expect = abs(coeffs.beta1[0, 1]) * abs(1 - np.exp(1j * (omega[0] + omega[1]))) * c.h
    assert abs(abs(b[0, 1]) - expect) < 1e-12


def test_building_block_warns_outside_validity():
    c = cfg(n_max=20, h=0.05)
    with pytest.warns(boson.PerturbativeValidityWarning):
        one_block(c, c.h, 0.5)


def test_compose_segment_zero_order_and_closed_form():
    c = cfg(n_max=12, h=1e-4)
    for lam, t1, t2 in [(1.0, 0.31, 0.47), (-1.0, 0.62, 0.17), (0.5, 1.1, 0.9)]:
        seg = boson.standard_segment(c.h, t1, t2, lam)
        smap = boson.compose_segment(c, seg)
        a, b = boson.segment_blocks(smap)
        g = np.exp(1j * boson.mode_frequencies(c) * seg.total_time)
        assert np.abs(np.diag(a) - g).max() < 1e-6  # zero order phase rotation
        closed = boson.closed_form_b_magnitude(c, t1, t2, lam, 1, 2)
        assert abs(abs(b[0, 1]) - closed) < 1e-8 * max(1.0, closed)
    with pytest.raises(ValueError):
        boson.compose_segment(c, boson.TrajectorySegment(()))


def test_empty_segment_refused_at_construction():
    with pytest.raises(ValueError, match="at least one block"):
        boson.TrajectorySegment(())


def test_segment_inverse_identity_to_h_squared():
    c = cfg(n_max=10, h=1e-3)
    seg = boson.standard_segment(c.h, 0.4, 0.3, -1.0)
    smap = boson.compose_segment(c, seg)
    sym_inv = smap.inverse()
    residual = np.abs(sym_inv.matrix @ smap.matrix - np.eye(2 * c.n_max)).max()
    assert residual < 100 * c.h**2
    assert residual > 0


def test_perturbative_unitarity_residual_shrinks_with_n_max():
    h = 1e-3
    # full residual on the interior block is O(h^2) plus a truncation tail
    c8 = cfg(n_max=8, h=h)
    co8 = boson.bogo_first_order(c8)
    alpha = np.eye(8) + co8.alpha1 * h
    beta = co8.beta1 * h
    assert np.abs(alpha @ alpha.T - beta @ beta.T - np.eye(8))[:4, :4].max() < 100 * h**2
    # isolate the tail: interior h^2 coefficient against a wide reference
    ref = boson.bogo_first_order(cfg(n_max=128, h=h))
    ref_block = (ref.alpha1 @ ref.alpha1.T - ref.beta1 @ ref.beta1.T)[:4, :4]
    tails = []
    for n_max in (8, 16, 32):
        co = boson.bogo_first_order(cfg(n_max=n_max, h=h))
        blk = (co.alpha1 @ co.alpha1.T - co.beta1 @ co.beta1.T)[:4, :4]
        tails.append(np.abs(blk - ref_block).max())
    assert tails[0] > tails[1] > tails[2]  # tail shrinks monotonically


def test_first_order_relations_exact_derivative():
    c = cfg(n_max=10, h=1e-4)
    seg = boson.standard_segment(c.h, 0.31, 0.47, 1.0)
    a1, b1 = (x / c.h for x in segment_first_order(c, seg))
    g = np.diag(np.exp(1j * boson.mode_frequencies(c) * seg.total_time))
    rel_a = np.abs(g.conj() @ a1.T + a1.conj() @ g).max()
    rel_b = np.abs(g.conj() @ b1.conj().T - b1.conj() @ g.conj()).max()
    assert rel_a < 1e-10
    assert rel_b < 1e-10
    # B swap identity B[k', k] = G_k' conj(G_k) B[k, k']
    gd = np.diag(g)
    assert abs(b1[1, 0] - gd[1] * np.conj(gd[0]) * b1[0, 1]) < 1e-10


@settings(max_examples=80, deadline=None, database=None)
@given(
    blocks=st.lists(
        st.tuples(st.one_of(st.just(0.0), st.floats(-1.9, 1.9)), st.floats(0.0, 10.0)), min_size=1, max_size=4
    ),
    n_max=st.integers(2, 40),
    mass=st.floats(0.0, 3.0),
)
def test_first_order_entries_match_dense_blocks(blocks, n_max, mass):
    c = cfg(mass=mass, n_max=n_max)
    seg = boson.TrajectorySegment(tuple(blocks))
    a1, b1 = segment_first_order(c, seg)
    h, tau = np.array(blocks).T
    n, m = np.meshgrid(np.arange(n_max), np.arange(n_max), indexing="ij")
    a, b = boson.first_order_entries(c, h, tau, n, m)
    # both routes round the phases w_n T; see `close` in test_teleport.py.  The
    # scale is the largest an entry can be, 2 sum_j |h_j| max(|alpha1|, |beta1|):
    # blocks can cancel every entry to rounding, e.g. ((1, 1), (1, 3)) at n_max = 2.
    # The smallest normal float is added because a subnormal h_j underflows the bound.
    phase = boson.mode_frequencies(c)[-1] * seg.total_time
    scale = 2 * np.sum(np.abs(h)) * max(np.abs(c.coeffs.alpha1).max(), np.abs(c.coeffs.beta1).max())
    bound = (1e-13 + 16 * np.finfo(float).eps * phase) * scale + np.finfo(float).tiny
    assert np.abs(a - a1).max() <= bound and np.abs(b - b1).max() <= bound


@settings(max_examples=60, deadline=None, database=None)
@given(
    tau1=st.floats(0.0, 5.0),
    tau2=st.floats(0.0, 5.0),
    lam=st.floats(-1.0, 1.0),
    h=st.floats(1e-6, 1.0),
    labels=st.tuples(st.integers(1, 12), st.integers(1, 12)).filter(lambda kk: kk[0] != kk[1]),
    mass=st.floats(0.0, 3.0),
)
def test_closed_form_b_is_the_segment_entry(tau1, tau2, lam, h, labels, mass):
    c = cfg(mass=mass, n_max=12, h=h)
    k, kp = labels
    h_j, tau_j = boson.standard_segment(h, tau1, tau2, lam).arrays
    _, b = boson.first_order_entries(c, h_j, tau_j, k - 1, kp - 1)
    closed = boson.closed_form_b_magnitude(c, tau1, tau2, lam, k, kp)
    phase = boson.mode_frequencies(c)[-1] * 2 * (tau1 + tau2)
    scale = 4 * h * abs(c.coeffs.beta1[k - 1, kp - 1])  # |B| <= 2 (1 + |lam|) h beta1
    assert abs(closed - abs(b)) <= (1e-14 + 16 * np.finfo(float).eps * phase) * scale


def test_two_mode_reduced_state_pure_to_h_squared():
    c = cfg(n_max=12, h=1e-4)
    seg = boson.standard_segment(c.h, 0.31, 0.47, 1.0)
    smap = boson.compose_segment(c, seg)
    state = boson.two_mode_reduced_state(smap.matrix, 1, 2)
    assert abs(state.purity_det() - 1.0) < 100 * c.h**2
    with pytest.raises(ValueError):
        boson.two_mode_reduced_state(smap.matrix, 1, 1)
    # h = 0 gives the vacuum back
    smap0 = boson.compose_segment(c, boson.TrajectorySegment(((0.0, 0.7),)))
    state0 = boson.two_mode_reduced_state(smap0.matrix, 1, 2)
    assert np.abs(state0.covariance - np.eye(4)).max() < 1e-12


def test_full_product_vs_truncated_two_modes():
    c = cfg(n_max=12, h=1e-4)
    seg = boson.standard_segment(c.h, 1.0 / 3.0, 1.0 / 3.0, 1.0)
    smap = boson.compose_segment(c, seg)
    state = boson.two_mode_reduced_state(smap.matrix, 1, 2)
    # truncated 2-mode product: the 4x4 sub-block of S restricted to (1, 2)
    idx = np.array([0, 1, c.n_max, c.n_max + 1])
    s_small = smap.matrix[np.ix_(idx, idx)]
    gam_small = s_small @ s_small.conj().T
    assert np.abs(gam_small - state.covariance).max() < 100 * c.h**2


def test_pt_eigenvalue_on_resonance():
    c = cfg(n_max=12, h=1e-4)
    seg = boson.standard_segment(c.h, 1.0 / 3.0, 1.0 / 3.0, 1.0)
    smap = boson.compose_segment(c, seg)
    _, b = boson.segment_blocks(smap)
    state = boson.two_mode_reduced_state(smap.matrix, 1, 2)
    tilde = gaussian.partial_transpose(state, 1)
    nus = gaussian.symplectic_spectrum(tilde)
    assert abs(nus.min() - (1.0 - 2.0 * abs(b[0, 1]))) < 1e-7


def test_resonance_check_cases():
    c = cfg(n_max=12, h=1e-4)
    omega = boson.mode_frequencies(c)
    t_res = 2 * np.pi / (omega[0] + omega[1])
    seg = boson.TrajectorySegment(((c.h, t_res / 2), (0.0, t_res / 2)))
    ok, res = boson.resonance_check(c, seg, 1, 2)
    assert ok and res < 1e-10
    seg_off = boson.TrajectorySegment(((c.h, 0.37), (0.0, 0.21)))
    ok_off, res_off = boson.resonance_check(c, seg_off, 1, 2)
    assert not ok_off and res_off > 1e-8
    # B1 = 0 for even k + k': resonant for any time, and nothing grows
    ok_even, res_even = boson.resonance_check(c, seg_off, 1, 3)
    assert ok_even and res_even < 100 * c.h**2
    assert res_even == 0.0
    assert boson.resonance_negativity(c, seg_off, 1, 3, 3)["negativity"] == 0.0


@settings(max_examples=100, deadline=None, database=None)
@given(
    tau1=st.floats(0.0, 2.0),
    tau2=st.floats(0.0, 2.0),
    lam=st.sampled_from([-1.0, 1.0]),
    labels=st.lists(st.integers(1, 20), min_size=2, max_size=2, unique=True),
)
# |1 - exp(i s T)| = 1.75 here, so not resonant: the exact negativity at N = 3 (7.01e-11) is
# 1/50 of the linear-growth value N |B1| (3.47e-9)
@example(tau1=0.3164714153789846, tau2=1.507793041688917, lam=1.0, labels=[9, 10])
def test_resonance_verdict_is_the_closed_form_condition(tau1, tau2, lam, labels):
    c = cfg(n_max=20, h=1e-4)
    k, kp = labels
    seg = boson.standard_segment(c.h, tau1, tau2, lam)
    omega = boson.mode_frequencies(c)
    detuning = abs(1.0 - np.exp(1j * (omega[k - 1] + omega[kp - 1]) * seg.total_time))
    expected = c.coeffs.beta1[k - 1, kp - 1] == 0 or detuning <= boson.RESONANCE_TOL
    resonant, _ = boson.resonance_check(c, seg, k, kp)
    assert resonant == expected
    res = boson.resonance_negativity(c, seg, k, kp, 3)
    assert res["resonant"] == expected
    if not expected:
        assert res["negativity"] == boson.segment_negativity_exact(c, seg, k, kp, 3)


@pytest.mark.parametrize("k, kp", [(1, 2), (2, 5), (9, 10), (4, 19)])
def test_resonant_times_give_linear_growth_without_a_composed_map(monkeypatch, k, kp):
    c = cfg(n_max=20, h=1e-4)
    calls = []
    original = boson.compose_segment

    def counted(config, segment):
        calls.append(segment)
        return original(config, segment)

    monkeypatch.setattr(boson, "compose_segment", counted)
    for t in boson.resonant_times(c, k, kp, 4):
        for share, lam in ((0.1, 1.0), (0.3, 1.0), (0.2, -1.0)):
            tau1 = share * t
            tau2 = t / 2 - tau1
            seg = boson.standard_segment(c.h, tau1, tau2, lam)
            assert boson.resonance_check(c, seg, k, kp)[0]
            res = boson.resonance_negativity(c, seg, k, kp, 3)
            assert res["resonant"]
            # the bound of test_closed_form_b_is_the_segment_entry, times N
            phase = boson.mode_frequencies(c)[-1] * 2 * (tau1 + tau2)
            scale = 4 * c.h * abs(c.coeffs.beta1[k - 1, kp - 1])
            bound = (1e-14 + 16 * np.finfo(float).eps * phase) * scale
            assert abs(res["negativity"] - 3 * boson.closed_form_b_magnitude(c, tau1, tau2, lam, k, kp)) <= 3 * bound
    assert calls == []


def test_resonance_negativity_special_times():
    c = cfg(n_max=12, h=1e-4)
    omega = boson.mode_frequencies(c)
    s = omega[0] + omega[1]
    assert boson.resonance_negativity(c, boson.standard_segment(c.h, 0.1, 0.1), 1, 2, 0)["negativity"] == 0.0
    # n even and tau2 = 2 pi m / s: negativity vanishes
    tau2 = 2 * np.pi / s
    tau1 = (2 * (2 * np.pi) / s - 2 * tau2) / 2  # T = T_2 (n even)
    seg = boson.standard_segment(c.h, tau1, tau2, 1.0)
    res = boson.resonance_negativity(c, seg, 1, 2, 3)
    assert res["resonant"]
    assert res["negativity"] < 1e-12
    # lam = -1, n even, tau2 = pi(2m+1)/s vanishes; lam = +1 same tau2 maximal
    tau2b = np.pi / s
    tau1b = (2 * (2 * np.pi) / s - 2 * tau2b) / 2
    seg_m = boson.standard_segment(c.h, tau1b, tau2b, -1.0)
    seg_p = boson.standard_segment(c.h, tau1b, tau2b, 1.0)
    neg_m = boson.resonance_negativity(c, seg_m, 1, 2, 3)["negativity"]
    neg_p = boson.resonance_negativity(c, seg_p, 1, 2, 3)["negativity"]
    assert neg_m < 1e-12
    coeffs = boson.bogo_first_order(c)
    max_possible = 3 * 4 * abs(coeffs.beta1[0, 1]) * c.h
    assert abs(neg_p - max_possible) < 1e-3 * max_possible


def test_linear_growth_on_resonance():
    c = cfg(n_max=12, h=1e-4)
    seg = boson.standard_segment(c.h, 1.0 / 3.0, 1.0 / 3.0, 1.0)
    smap = boson.compose_segment(c, seg)
    _, b = boson.segment_blocks(smap)
    slope = abs(b[0, 1])
    for reps in range(1, 6):
        exact = boson.segment_negativity_exact(c, seg, 1, 2, reps)
        assert abs(exact - reps * slope) < 0.01 * reps * slope
        linear = boson.resonance_negativity(c, seg, 1, 2, reps)
        assert linear["resonant"] and abs(exact - linear["negativity"]) < 0.01 * linear["negativity"]


@pytest.mark.parametrize("k, kp", [(0, 2), (2, 0), (-1, 2), (2, 21)])
def test_mode_labels_outside_1_to_n_max_rejected(k, kp):
    # label 0 would index k - 1 = -1, the last mode, and 21 would run off the end
    c = cfg(n_max=20, h=1e-4)
    seg = boson.standard_segment(c.h, 0.3, 0.3)
    smap = boson.compose_segment(c, seg)
    calls = [
        lambda: boson.resonance_check(c, seg, k, kp),
        lambda: boson.resonance_negativity(c, seg, k, kp, 3),
        lambda: boson.resonance_negativity(c, seg, k, kp, 0),
        lambda: boson.resonant_times(c, k, kp),
        lambda: boson.closed_form_b_magnitude(c, 0.3, 0.3, 1.0, k, kp),
        lambda: boson.two_mode_reduced_state(smap.matrix, k, kp),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"1\.\.20"):
            call()


@pytest.mark.parametrize("k, kp", [(2, 2), (1, 1)])
def test_repeated_mode_labels_rejected(k, kp):
    c = cfg(n_max=20, h=1e-4)
    seg = boson.standard_segment(c.h, 0.3, 0.3)
    smap = boson.compose_segment(c, seg)
    calls = [
        lambda: boson.closed_form_b_magnitude(c, 0.3, 0.3, 1.0, k, kp),
        lambda: boson.resonance_check(c, seg, k, kp),
        lambda: boson.resonance_negativity(c, seg, k, kp, 3),
        lambda: boson.two_mode_reduced_state(smap.matrix, k, kp),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="distinct"):
            call()


def test_segment_owns_block_limits():
    for blocks in (((2.5, 0.1),), ((-2.0, 0.1),), ((0.01, -0.1),), ((0.0, float("nan")),)):
        with pytest.raises(ValueError):
            boson.TrajectorySegment(blocks)


# single (h, tau) draws around the edges of the block rule: NaN, +-inf, negatives, |h| near 2
EDGE = st.one_of(
    st.floats(),
    st.sampled_from([2.0, -2.0, np.nextafter(2.0, 0.0), -np.nextafter(2.0, 0.0), 0.0, -0.0, -5e-324, np.nan, np.inf]),
)


def verdict(call):
    """None if the call is accepted, else its ValueError message; an accepted cavity path never gives NaN."""
    try:
        out = call()
    except ValueError as exc:
        return str(exc)
    assert np.all(np.isfinite(np.asarray(getattr(out, "blocks", out), dtype=complex)))
    return None


@settings(max_examples=100, deadline=None, database=None)
@given(h=EDGE, tau=EDGE)
@example(h=0.01, tau=2e306)  # n_max = 4: the one block's phase is finite, the standard segment's is not
@example(h=0.01, tau=1e308)
@example(h=3.0, tau=1e308)
def test_every_path_applies_the_same_block_rule(h, tau):
    c = cfg(n_max=4, h=1.0)  # lam = h enters closed_form_b_magnitude as lam * config.h = h
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refusing a huge tau may not overflow on the way
        segment = verdict(lambda: boson.TrajectorySegment(((h, tau),)))
        one_block = {
            verdict(lambda: boson.first_order_entries(c, [h], [tau], 0, 1)),
            verdict(lambda: teleport.block_fidelities(0.5, 3, c, tau, h)),
        }
        standard = {  # the standard segment (c.h, tau), (0, tau), (h, tau), (0, tau): what resonance-sweep plots
            verdict(lambda: boson.first_order_entries(c, [1.0, 0.0, h, 0.0], [tau] * 4, 0, 1)),
            verdict(lambda: boson.closed_form_b_magnitude(c, tau, tau, h, 1, 2)),
        }
    # the cavity paths of one segment share one verdict and message at every (h, tau), refusing where the segment's
    # largest phase 2 omega_{n_max} T overflows: T = tau for the one block, 4 tau for the standard segment
    assert len(one_block) == 1 and len(standard) == 1
    limit = np.finfo(float).max / (2.0 * boson.mode_frequencies(c)[-1])
    assert (one_block == {None}) == (tau >= 0 and tau / limit <= 1.0 and abs(h) < 2)
    assert (standard == {None}) <= (one_block == {None}) <= (segment is None)  # the segment knows no frequency
    if not tau > 1e300:  # no phase of this cavity overflows: one verdict and one message on every path
        assert one_block == standard == {segment}
        assert (segment is None) == (np.isfinite(tau) and tau >= 0 and abs(h) < 2)


def test_huge_finite_times_are_refused_not_nan():
    c = cfg(n_max=20, h=0.01)
    huge = boson.TrajectorySegment(((1e-4, 1e308),))  # T is finite, so the segment itself is accepted
    limit = np.finfo(float).max / (2.0 * boson.mode_frequencies(c)[-1])  # the cavity's largest T
    calls = (
        lambda: boson.first_order_entries(c, *huge.arrays, 0, 1),
        lambda: boson.resonance_check(c, huge, 1, 2),
        lambda: boson.resonance_negativity(c, huge, 1, 2, 3),
        lambda: boson.closed_form_b_magnitude(c, 1e308, 1e308, 0.3, 1, 2),
        lambda: boson.closed_form_b_magnitude(c, np.array([0.5, 1e308]), 0.5, 1.0, 1, 2),  # at any grid point
        lambda: teleport.block_fidelities(0.5, 3, c, 1e308, 0.01),
        lambda: teleport.block_fidelities(0.5, 3, c, np.array([[0.5], [1e308]]), np.array([0.0, 0.01])),
        lambda: boson.TrajectorySegment(((1e-4, 1e308), (0.0, 1e308))),  # T itself overflows
        # the standard segment's T = 2 (tau1 + tau2) = 1.2 limit: refused by the closed form and the segment path alike
        lambda: boson.closed_form_b_magnitude(c, 0.3 * limit, 0.3 * limit, 1.0, 1, 2),
        lambda: boson.resonance_check(c, boson.standard_segment(c.h, 0.3 * limit, 0.3 * limit), 1, 2),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any phase overflows
        for call in calls:
            with pytest.raises(ValueError, match="finite phases"):
                call()
        # and accepted, with finite results, at T = 0.8 limit on both paths
        assert np.isfinite(boson.closed_form_b_magnitude(c, 0.2 * limit, 0.2 * limit, 1.0, 1, 2))
        assert np.isfinite(boson.resonance_check(c, boson.standard_segment(c.h, 0.2 * limit, 0.2 * limit), 1, 2)[1])


def test_first_order_entries_refuses_bad_blocks_and_indices():
    c = cfg(n_max=8, h=1e-4)
    with pytest.raises(ValueError, match="non-negative"):
        boson.first_order_entries(c, [5.0], [-1.0], 0, 1)
    with pytest.raises(ValueError, match=r"\|h\| < 2"):
        boson.first_order_entries(c, [5.0], [1.0], 0, 1)
    # index -1 would read mode n_max
    for n, m in ((-1, 1), (0, 8), (np.arange(-1, 3), 1), (0, np.array([[1], [-2]]))):
        with pytest.raises(ValueError, match=r"0\.\.7"):
            boson.first_order_entries(c, [1e-4], [1.0], n, m)


def test_closed_form_refuses_what_its_segment_refuses():
    c = cfg(n_max=8, h=1e-4)
    # at any grid point, not only the first
    for tau1, tau2, lam in ((np.array([0.3, -0.5]), 0.3, 1.0), (0.3, np.array([0.2, -0.1]), 1.0), (0.3, 0.3, 1e5), (np.nan, 0.3, 1.0)):
        with pytest.raises(ValueError):
            boson.closed_form_b_magnitude(c, tau1, tau2, lam, 1, 2)


def test_negative_repetitions_refused_on_both_routes():
    # the exact route's matrix power would invert the map
    c = cfg(n_max=8, h=1e-4)
    seg = boson.standard_segment(c.h, 0.7, 0.4)
    for route in (boson.resonance_negativity, boson.segment_negativity_exact):
        with pytest.raises(ValueError, match="non-negative"):
            route(c, seg, 1, 2, -1)


def test_zero_repetitions_keep_the_resonance_verdict():
    c = cfg(n_max=8, h=1e-4)
    seg = boson.standard_segment(c.h, 0.7, 0.4)
    resonant, residual = boson.resonance_check(c, seg, 1, 2)
    assert not resonant and residual > 0  # residual 4.9e-7
    assert boson.resonance_negativity(c, seg, 1, 2, 0) == {"negativity": 0.0, "resonant": False, "residual": residual}


def test_validity_warning_for_large_repetitions():
    c = cfg(n_max=8, h=0.02)
    seg = boson.standard_segment(c.h, 1.0 / 3.0, 1.0 / 3.0, 1.0)
    with pytest.warns(boson.PerturbativeValidityWarning):
        boson.resonance_negativity(c, seg, 1, 2, 500)


def test_truncation_convergence_gate():
    c = cfg(n_max=10, h=1e-4)
    seg = boson.standard_segment(c.h, 1.0 / 3.0, 1.0 / 3.0, 1.0)
    doubled = cfg(n_max=20, h=1e-4)
    shift = boson.segment_negativity_exact(doubled, seg, 1, 2, 1) - boson.segment_negativity_exact(c, seg, 1, 2, 1)
    assert abs(shift) < 1e-6


def test_h_range_validation():
    with pytest.raises(ValueError):
        boson.BosonCavityConfig(h=2.0)
    with pytest.raises(ValueError):
        one_block(cfg(n_max=4), 2.5, 0.1)


def test_off_resonance_negativity_composes_once(monkeypatch):
    c = cfg(n_max=8, h=1e-4)
    seg = boson.standard_segment(1e-4, 0.7, 0.4)
    expected = boson.segment_negativity_exact(c, seg, 1, 2, 3)
    calls = []
    original = boson.compose_segment

    def counted(config, segment):
        calls.append(segment)
        return original(config, segment)

    monkeypatch.setattr(boson, "compose_segment", counted)
    res = boson.resonance_negativity(c, seg, 1, 2, 3)
    assert not res["resonant"]
    assert len(calls) == 1
    assert res["negativity"] == expected


def test_exact_negativity_certifies_only_the_composed_map(monkeypatch):
    c = cfg(n_max=8, h=1e-4)
    seg = boson.standard_segment(1e-4, 0.7, 0.4)
    expected = boson.segment_negativity_exact(c, seg, 1, 2, 3)
    calls = []
    original = gaussian.symplectic_defect

    def counted(matrix):
        calls.append(matrix.shape)
        return original(matrix)

    monkeypatch.setattr(gaussian, "symplectic_defect", counted)
    boson._composed.cache_clear()
    # four blocks and a third power, composed cold: only the product is checked
    assert boson.segment_negativity_exact(c, seg, 1, 2, 3) == expected
    assert len(calls) == 1
    # a repeat reads the kept map, certified once already
    assert boson.segment_negativity_exact(c, seg, 1, 2, 3) == expected
    assert len(calls) == 1


@settings(max_examples=40, deadline=None, database=None)
@given(
    segments=st.lists(
        st.lists(st.tuples(st.sampled_from([0.0, 1e-4, -3e-4, 2e-3]), st.floats(0.0, 4.0)), min_size=1, max_size=5),
        min_size=1,
        max_size=3,
    ),
    labels=st.lists(st.integers(1, 8), min_size=2, max_size=2, unique=True),
)
def test_kept_map_gives_the_cold_values(segments, labels):
    c = cfg(n_max=8, h=1e-4)
    segs = [boson.TrajectorySegment(tuple(blocks)) for blocks in segments]
    cold = {}
    for i, seg in enumerate(segs):
        for n in range(6):
            boson._composed.cache_clear()
            cold[i, n] = boson.segment_negativity_exact(c, seg, *labels, n)
    # repetitions of one segment in a row, then the segments interleaved: every warm value is the cold one
    warm = {(i, n): boson.segment_negativity_exact(c, seg, *labels, n) for i, seg in enumerate(segs) for n in range(6)}
    warm |= {(i, n): boson.segment_negativity_exact(c, seg, *labels, n) for n in range(6) for i, seg in enumerate(segs)}
    assert warm == cold


def test_kept_map_is_read_only():
    c = cfg(n_max=8, h=1e-4)
    smap = boson.compose_segment(c, boson.standard_segment(c.h, 0.7, 0.4))
    assert not smap.matrix.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        smap.matrix[0, 0] = 0.0


def test_validity_warning_fires_on_every_call():
    c = cfg(n_max=20, h=0.01)
    seg = boson.standard_segment(c.h, 0.5, 0.5, -1.0)
    for _ in range(2):  # the second call reads the kept map
        with pytest.warns(boson.PerturbativeValidityWarning) as record:
            boson.compose_segment(c, seg)
        assert len(record) == 2  # one per accelerated block


def test_one_map_is_kept(monkeypatch):
    c = cfg(n_max=8, h=1e-4)
    first, second = boson.standard_segment(c.h, 0.7, 0.4), boson.standard_segment(c.h, 0.7, 0.5)
    calls = []
    original = gaussian.symplectic_defect

    def counted(matrix):
        calls.append(matrix.shape)
        return original(matrix)

    monkeypatch.setattr(gaussian, "symplectic_defect", counted)
    boson._composed.cache_clear()
    maps = [boson.compose_segment(c, seg) for seg in (first, first, second, second, first)]
    assert len(calls) == 3  # first, second, and first again: the second segment replaced it
    assert maps[1] is maps[0] and maps[3] is maps[2] and maps[4] is not maps[0]
    assert np.array_equal(maps[4].matrix, maps[0].matrix)
    assert boson._composed.cache_info().currsize == 1


def test_composed_route_applies_the_cavity_block_rule():
    huge = boson.TrajectorySegment(((1e-4, 1e308),))  # T is finite, so the segment itself is accepted
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any phase overflows, not by the certificate as "defect nan"
        with pytest.raises(ValueError, match="finite phases"):
            boson.segment_negativity_exact(cfg(n_max=8, h=1e-4), huge, 1, 2)


def test_block_validity_warning_points_at_the_caller():
    c = cfg(n_max=20, h=0.01)
    builders = (
        lambda: one_block(c, c.h, 0.5),
        lambda: boson.compose_segment(c, boson.standard_segment(c.h, 0.5, 0.5)),
    )
    for build in builders:
        with pytest.warns(boson.PerturbativeValidityWarning) as record:
            build()
        assert {w.filename for w in record} == {__file__}


@settings(max_examples=60, deadline=None, database=None)
@given(
    points=st.lists(st.tuples(st.floats(0.0, 6.0), st.floats(0.0, 6.0)), min_size=1, max_size=8),
    lam=st.floats(-5.0, 5.0),
    labels=st.lists(st.integers(1, 8), min_size=2, max_size=2, unique=True),
    mass=st.sampled_from([0.0, 1.3]),
)
def test_closed_form_array_calls_equal_scalar_calls(points, lam, labels, mass):
    c = cfg(n_max=8, h=1e-3, mass=mass)
    k, kp = labels
    tau1, tau2 = np.array(points).T
    scalar = [boson.closed_form_b_magnitude(c, t1, t2, lam, k, kp) for t1, t2 in points]
    assert np.array_equal(boson.closed_form_b_magnitude(c, tau1, tau2, lam, k, kp), scalar)
    grid = boson.closed_form_b_magnitude(c, tau1[:, None], tau2[None, :], lam, k, kp)
    assert np.array_equal(grid, [[boson.closed_form_b_magnitude(c, t1, t2, lam, k, kp) for t2 in tau2] for t1 in tau1])
    assert all(isinstance(b, float) for b in scalar)
