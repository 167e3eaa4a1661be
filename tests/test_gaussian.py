import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqi import gaussian as g

PROPS = settings(max_examples=40, deadline=None, database=None)
MODES = st.integers(1, 4)
SEEDS = st.integers(0, 2**32 - 1)


def test_symplectic_forms_match_bases():
    # K of the complex form becomes i Omega, Omega = direct sum of [[0, 1], [-1, 0]]
    assert np.array_equal(g.kay(2), np.diag([1.0, 1.0, -1.0, -1.0]))
    m = g.real_basis_matrix(2)
    omega = np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])
    assert np.abs(m @ g.kay(2) @ m.conj().T - 1j * omega).max() < 1e-15


@pytest.mark.parametrize("n", [1, 2, 3])
def test_basis_change_unitary_and_involutive(n):
    m = g.real_basis_matrix(n)
    assert np.allclose(m @ m.conj().T, np.eye(2 * n), atol=1e-14)
    assert np.allclose(m.conj().T @ m, np.eye(2 * n), atol=1e-14)
    # x_k = (a_k + a_k+) / sqrt 2, p_k = -i (a_k - a_k+) / sqrt 2
    assert np.allclose(m[0, [0, n]], [2**-0.5, 2**-0.5]) and np.allclose(m[1, [0, n]], [-1j * 2**-0.5, 1j * 2**-0.5])


def test_identity_covariance_basis_invariant():
    assert np.allclose(g.real_covariance(g.vacuum_state(2)), np.eye(4), atol=1e-14)


def test_round_trip_conversion_exact():
    state = g.two_mode_squeezed_state(0.7)
    m = g.real_basis_matrix(2)
    assert np.abs(m.conj().T @ g.real_covariance(state) @ m - state.covariance).max() < 1e-12


def test_real_covariance_rejects_broken_block_structure():
    # V and conj(V) blocks that differ have no real quadrature form
    lopsided = g.CovarianceState(1, np.diag([1.0, 2.0]))
    with pytest.raises(ValueError, match="no real quadrature form"):
        g.real_covariance(lopsided)


def test_beam_splitter_is_passive_block_diagonal():
    s = g.beam_splitter(0.4)
    n = 2
    alpha = s.matrix[n:, n:]
    beta = s.matrix[n:, :n]
    assert np.abs(beta).max() < 1e-12  # passive: no pair creation block
    assert np.allclose(alpha @ alpha.conj().T, np.eye(2), atol=1e-12)
    r = 0.4
    m = g.real_basis_matrix(n)
    real = m @ s.matrix @ m.conj().T
    assert np.abs(real.imag).max() < 1e-15
    # rotation blocks cos r / sin r between the two modes
    assert abs(real[0, 0] - np.cos(r)) < 1e-12
    assert abs(abs(real[0, 2]) - np.sin(r)) < 1e-12


def test_two_mode_squeezer_blocks():
    r = 0.37
    s = g.two_mode_squeezer(r).matrix
    assert np.allclose(np.diag(s[:2, :2]), np.cosh(r) * np.ones(2), atol=1e-12)
    assert abs(s[0, 3] - np.sinh(r)) < 1e-12
    assert abs(s[1, 2] - np.sinh(r)) < 1e-12


def test_apply_identity_and_squeezer():
    vac = g.vacuum_state(2)
    ident = g.SymplecticMap(2, np.eye(4, dtype=complex))
    assert np.allclose(g.apply_map(ident, vac).covariance, np.eye(4))
    r = 0.5
    tmss = g.apply_map(g.two_mode_squeezer(r), vac)
    expect = np.block(
        [
            [np.cosh(2 * r) * np.eye(2), np.sinh(2 * r) * np.array([[0, 1], [1, 0]])],
            [np.sinh(2 * r) * np.array([[0, 1], [1, 0]]), np.cosh(2 * r) * np.eye(2)],
        ]
    )
    assert np.abs(tmss.covariance - expect).max() < 1e-12


def test_rotation_moves_coherent_displacement_only():
    # a phase rotation leaves a coherent state's covariance (the vacuum's) unchanged
    rot = g.SymplecticMap(1, np.diag(np.exp([-0.9j, 0.9j])))  # a -> exp(-0.9 i) a
    out = g.apply_map(rot, g.vacuum_state(1))
    assert np.allclose(out.covariance, np.eye(2), atol=1e-12)


def test_symplectic_spectrum_cases():
    assert np.allclose(g.symplectic_spectrum(g.vacuum_state(3)), np.ones(3))
    assert np.abs(g.symplectic_spectrum(g.two_mode_squeezed_state(0.37)) - 1.0).max() < 1e-9  # pure
    r = 0.31
    reduced = g.partial_trace(g.two_mode_squeezed_state(r), keep=[1])
    assert abs(g.symplectic_spectrum(reduced)[0] - np.cosh(2 * r)) < 1e-12
    rng = np.random.default_rng(11)
    smap = g.random_symplectic(3, rng)
    pure = g.apply_map(smap, g.vacuum_state(3))
    assert np.abs(g.symplectic_spectrum(pure) - 1.0).max() < 1e-9


def test_partial_trace_blocks():
    r = 0.42
    tmss = g.two_mode_squeezed_state(r)
    kept = g.partial_trace(tmss, [0, 1])
    assert np.allclose(kept.covariance, tmss.covariance)
    th = g.thermal_state([1.3, 1.0, 2.0])
    sub = g.partial_trace(th, [0, 2])
    assert np.allclose(sub.covariance, np.diag([1.3, 2.0, 1.3, 2.0]))
    with pytest.raises(ValueError):
        g.partial_trace(th, [])


def test_partial_transpose_tmss_spectrum_and_involution():
    r = 0.25
    tmss = g.two_mode_squeezed_state(r)
    tilde = g.partial_transpose(tmss, mode=1)
    nus = g.symplectic_spectrum(tilde)
    assert np.allclose(np.sort(nus), [np.exp(-2 * r), np.exp(2 * r)], atol=1e-10)
    again = g.partial_transpose(tilde, mode=1)
    assert np.abs(again.covariance - tmss.covariance).max() < 1e-13
    # in the real view the transposition is the momentum flip p2 -> -p2
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    assert np.abs(g.real_covariance(tilde) - flip @ g.real_covariance(tmss) @ flip).max() < 1e-13
    sep = g.thermal_state([1.4, 1.1])
    nus = g.symplectic_spectrum(g.partial_transpose(sep, 1))
    assert nus.min() >= 1.0 - 1e-12


def test_random_composed_maps_symplectic_and_inverse_identity():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        smap = g.random_symplectic(n, rng)
        assert g.symplectic_defect(smap.matrix) < 1e-10
        k = g.kay(n)
        inv = k @ smap.matrix.conj().T @ k
        assert np.abs(inv @ smap.matrix - np.eye(2 * n)).max() < 1e-12
        assert abs(np.linalg.det(smap.matrix) - 1.0) < 1e-8


def test_physicality_and_purity_invariant_under_apply():
    rng = np.random.default_rng(3)
    state = g.thermal_state([1.2, 1.7])
    smap = g.random_symplectic(2, rng)
    out = g.apply_map(smap, state)
    assert out.is_physical()
    assert abs(out.purity_det() - state.purity_det()) < 1e-8


def complex_view(s):
    """The complex-form matrix M+ S M of a real interleaved-quadrature matrix."""
    m = g.real_basis_matrix(s.shape[0] // 2)
    return m.conj().T @ s @ m


def test_williamson_reconstruction():
    rng = np.random.default_rng(17)
    state = g.apply_map(g.random_symplectic(3, rng), g.thermal_state([1.1, 1.9, 3.2]))
    gamma = g.real_covariance(state)
    nus, s = g.williamson(state)
    assert np.allclose(np.sort(nus), [1.1, 1.9, 3.2], atol=1e-9)
    d = np.diag(np.repeat(nus, 2))
    assert np.abs(s @ d @ s.T - gamma).max() < 1e-9
    assert g.symplectic_defect(complex_view(s)) < 1e-9


@PROPS
@given(n=MODES, seed=SEEDS)
def test_products_and_inverses_stay_certified(n, seed):
    rng = np.random.default_rng(seed)
    a, b = g.random_symplectic(n, rng), g.random_symplectic(n, rng)
    product = g.SymplecticMap(n, a.matrix @ b.matrix)
    inverse = product.inverse()
    assert np.abs(inverse.matrix @ product.matrix - np.eye(2 * n)).max() < 1e-12


@PROPS
@given(n=MODES, seed=SEEDS, data=st.data())
def test_real_covariance_round_trips(n, seed, data):
    smap = g.random_symplectic(n, np.random.default_rng(seed))
    nus = data.draw(st.lists(st.floats(1.0, 4.0), min_size=n, max_size=n))
    state = g.apply_map(smap, g.thermal_state(nus))
    gamma = g.real_covariance(state)
    assert np.abs(gamma - gamma.T).max() < 1e-12 * np.abs(gamma).max()
    m = g.real_basis_matrix(n)
    assert np.abs(m.conj().T @ gamma @ m - state.covariance).max() < 1e-12


@PROPS
@given(n=MODES, seed=SEEDS, data=st.data())
def test_spectrum_and_williamson_recover_thermal_nus(n, seed, data):
    smap = g.random_symplectic(n, np.random.default_rng(seed))
    nus = np.sort(data.draw(st.lists(st.floats(1.0, 4.0), min_size=n, max_size=n)))
    state = g.apply_map(smap, g.thermal_state(nus))
    assert np.abs(g.symplectic_spectrum(state) - nus).max() < 1e-12
    w, s = g.williamson(state)
    gamma = g.real_covariance(state)
    assert np.abs(w - nus).max() < 1e-12
    assert np.abs(s @ np.diag(np.repeat(w, 2)) @ s.T - gamma).max() < 1e-12 * np.abs(gamma).max()
    assert g.symplectic_defect(complex_view(s)) < 1e-12


def test_random_symplectic_certifies_only_the_product(monkeypatch):
    calls = []
    original = g.symplectic_defect

    def counted(matrix):
        calls.append(matrix.shape)
        return original(matrix)

    monkeypatch.setattr(g, "symplectic_defect", counted)
    g.random_symplectic(3, np.random.default_rng(7))
    assert calls == [(6, 6)]  # six factors, one certificate
