import numpy as np
import pytest

from rqi import entanglement as e
from rqi import gaussian as g


def tmss(r):
    return g.two_mode_squeezed_state(r)


def test_vacuum_entropy_zero_and_no_nan_near_one():
    assert e.von_neumann_entropy(g.vacuum_state(2)) == 0.0
    nearly_pure = g.thermal_state([1.0 + 1e-14])
    val = e.von_neumann_entropy(nearly_pure)
    assert np.isfinite(val) and val < 1e-10


def test_entropy_instance_matches_direct_evaluation():
    r = 0.5
    nu = np.cosh(2 * r)
    direct = (nu + 1) / 2 * np.log((nu + 1) / 2) - (nu - 1) / 2 * np.log((nu - 1) / 2)
    assert abs(direct - 0.6594529591680) < 1e-10
    reduced = g.partial_trace(tmss(r), [0])
    assert abs(e.von_neumann_entropy(reduced) - direct) < 1e-12


@pytest.mark.parametrize("r", [0.1, 0.5, np.log(2.0), 2.0])
def test_tmss_entropy_closed_form(r):
    expect = np.cosh(r) ** 2 * np.log(np.cosh(r) ** 2) - np.sinh(r) ** 2 * np.log(np.sinh(r) ** 2)
    assert abs(e.entropy_of_entanglement(tmss(r), [0]) - expect) < 1e-10


def test_entropy_of_entanglement_guards():
    product = g.thermal_state([1.5, 1.5])
    with pytest.raises(ValueError):
        e.entropy_of_entanglement(product, [0])  # mixed global state
    pure_product = g.vacuum_state(2)
    assert e.entropy_of_entanglement(pure_product, [0]) == 0.0


@pytest.mark.parametrize("r", [0.1, 0.3, 0.5, 2.0])
def test_tmss_negativities(r):
    state = tmss(r)
    assert abs(e.negativity_gaussian(state) - (np.exp(2 * r) - 1) / 2) < 1e-10
    assert abs(e.log_negativity_gaussian(state) - 2 * r) < 1e-10


def test_vacuum_and_separable_negativity_zero():
    assert e.negativity_gaussian(g.vacuum_state(2)) == 0.0
    assert e.log_negativity_gaussian(g.vacuum_state(2)) == 0.0
    sep = g.thermal_state([1.5, 2.0])
    assert e.negativity_gaussian(sep) == 0.0


def test_measures_increase_with_squeezing():
    rs = [0.1, 0.4, 0.8, 1.5]
    neg = [e.negativity_gaussian(tmss(r)) for r in rs]
    logneg = [e.log_negativity_gaussian(tmss(r)) for r in rs]
    ent = [e.entropy_of_entanglement(tmss(r), [0]) for r in rs]
    for seq in (neg, logneg, ent):
        assert all(b > a for a, b in zip(seq, seq[1:]))


def test_local_symplectics_leave_negativity_invariant():
    rng = np.random.default_rng(21)
    r = 0.6
    state = tmss(r)
    base = e.negativity_gaussian(state)
    for _ in range(5):
        loc1 = g.random_symplectic(1, rng).matrix
        loc2 = g.random_symplectic(1, rng).matrix
        full = np.eye(4, dtype=complex)
        # embed the two local maps into the (a1, a2, a1+, a2+) ordering
        full[0, 0], full[0, 2] = loc1[0, 0], loc1[0, 1]
        full[2, 0], full[2, 2] = loc1[1, 0], loc1[1, 1]
        full[1, 1], full[1, 3] = loc2[0, 0], loc2[0, 1]
        full[3, 1], full[3, 3] = loc2[1, 0], loc2[1, 1]
        smap = g.SymplecticMap(2, full, defect_tol=1e-8)
        out = g.apply_map(smap, state)
        assert abs(e.negativity_gaussian(out) - base) < 1e-9
        assert abs(e.log_negativity_gaussian(out) - np.log(1 + 2 * base)) < 1e-9


def test_negativity_zero_iff_pt_spectrum_above_one():
    sep = g.thermal_state([1.2, 1.1])
    tilde = g.partial_transpose(sep, 1)
    nus = g.symplectic_spectrum(tilde)
    assert nus.min() >= 1 - 1e-10
    assert e.negativity_gaussian(sep) == 0.0


def bell_phi_plus():
    psi = np.zeros(4)
    psi[0] = psi[3] = 1 / np.sqrt(2)
    return np.outer(psi, psi)


def test_density_matrix_negativity_bell():
    rho = bell_phi_plus()
    assert abs(e.negativity_density_matrix(rho, (2, 2)) - 0.5) < 1e-12
    trace_norm = np.abs(np.linalg.eigvalsh(e.partial_transpose_dm(rho, (2, 2)))).sum()
    assert abs((trace_norm - 1.0) / 2.0 - 0.5) < 1e-12  # the trace-norm form (||rho^tp||_1 - 1)/2


def test_density_matrix_negativity_product_zero():
    rho = np.diag([1.0, 0.0, 0.0, 0.0])
    assert e.negativity_density_matrix(rho, (2, 2)) == 0.0


def test_density_matrix_validation():
    bad = np.eye(4) / 4.0
    bad[0, 1] = 0.3  # not Hermitian
    with pytest.raises(ValueError):
        e.negativity_density_matrix(bad, (2, 2))


def test_fock_truncated_tmss_matches_gaussian_negativity():
    # Schmidt form sum_n c_n |n, n> with c_n = tanh^n r / cosh r; the PT
    # negativity of the truncation is the explicit pair sum.
    r = 0.3
    n_ph = 4  # occupations 0..3
    c = np.tanh(r) ** np.arange(n_ph) / np.cosh(r)
    psi = np.zeros((n_ph, n_ph))
    for n in range(n_ph):
        psi[n, n] = c[n]
    psi = psi.ravel()
    rho = np.outer(psi, psi)
    rho /= np.trace(rho)
    neg = e.negativity_density_matrix(rho, (n_ph, n_ph))
    pair_sum = sum(c[i] * c[j] for i in range(n_ph) for j in range(i + 1, n_ph)) / np.sum(c**2)
    assert abs(neg - pair_sum) < 1e-12
    exact = (np.exp(2 * r) - 1) / 2
    truncation = np.tanh(r) ** n_ph  # leading missing pair is c_0 c_{n_ph}
    assert abs(neg - exact) < 3 * truncation


def test_fermionic_bell_negativity_half_at_zero_acceleration():
    from rqi import fermion

    cfg = fermion.FermionCavityConfig(s=0.0, h=0.0, n_side=20)
    rho = fermion.two_mode_density_matrix(cfg, 0.4, 1)
    assert abs(e.negativity_density_matrix(rho, (2, 2)) - 0.5) < 1e-12
