"""Brute-force fermionic Fock-space oracle for the Dirac-cavity reduced states.

A small window of modes is represented exactly on the anti-symmetrised Fock
space (Jordan-Wigner ordered with the reference modes first).  Region-I states
are built operatorially from

    |0>_I = N exp(W) |0~>,   W = sum V_pq a+_p b+_q,  V = -calA1[q, p] conj(G_p) h
    a_k   = sum_{m>=0} calA[m, k] a~_m + sum_{m<0} calA[m, k] b~+_m

truncated at O(h^2), and the reduced density matrices are obtained by the
occupation-basis partial trace over the unobserved modes.  calA is composed
here as dense matrices from the closed-form entries (`compose_I_to_III`), not
by the column route of `rqi.fermion`.  Everything is independent of the
closed-form negativity formulas under test.
"""

from __future__ import annotations

import numpy as np

from rqi import fermion


def compose_I_to_III(config, tau1):
    """Order-by-order blocks of calA = A+ G(tau1) A over the whole window.

    Returns (calA0, calA1, calA2) with calA0 = G0, calA1 = G0 A1 + A1+ G0 and
    calA2 = G0 A2 + A2+ G0 + A1+ G0 A1 + G2.  The O(h^2) phase correction G2
    is not printed for fermions and is set to zero (its effect sits in the
    pure-phase part that cancels from every implemented observable).
    """
    m, n = np.meshgrid(config.modes, config.modes, indexing="ij")
    a1, a2 = fermion.a1_entry(m, n, config.s), fermion.a2_entry(m, n, config.s)
    g0 = np.exp(1j * (config.modes + config.s) * np.pi * tau1)
    a1_g0 = a1.conj().T * g0[None, :]
    cal1 = g0[:, None] * a1 + a1_g0
    cal2 = g0[:, None] * a2 + a2.conj().T * g0[None, :] + a1_g0 @ a1
    return np.diag(g0), cal1, cal2


class FockWindow:
    """Fermionic creation/annihilation matrices for an ordered mode list."""

    def __init__(self, modes_ordered):
        self.modes = list(modes_ordered)
        self.n = len(self.modes)
        self.dim = 2**self.n
        sz = np.array([[1.0, 0.0], [0.0, -1.0]])
        sm = np.array([[0.0, 0.0], [1.0, 0.0]])  # creation on |0> -> |1>
        eye = np.eye(2)
        self.create = {}
        for i, mode in enumerate(self.modes):
            ops = [sz] * i + [sm] + [eye] * (self.n - i - 1)
            mat = ops[0]
            for o in ops[1:]:
                mat = np.kron(mat, o)
            self.create[mode] = mat
        self.annihilate = {m: c.conj().T for m, c in self.create.items()}
        self.vacuum = np.zeros(self.dim)
        self.vacuum[0] = 1.0

    def partial_trace_keep(self, rho, keep_count):
        """Trace out all but the first `keep_count` JW slots (occupation basis)."""
        dk = 2**keep_count
        dr = 2 ** (self.n - keep_count)
        r = rho.reshape(dk, dr, dk, dr)
        return np.einsum("arbr->ab", r)


def region_i_states(config, tau1, window_modes, reference):
    """(|0>_I, {k: |1_k>_I}) truncated at O(h^2) in the given Fock window.

    `reference` lists the modes whose single-(anti)particle states are needed.
    The JW ordering puts the reference modes first.
    """
    ordered = list(reference) + [m for m in window_modes if m not in reference]
    fock = FockWindow(ordered)
    cal0, cal1, cal2 = compose_I_to_III(config, tau1)
    h = config.h
    cal = cal0 + cal1 * h + cal2 * h * h
    idx = {m: config.index(m) for m in window_modes}

    w_op = np.zeros((fock.dim, fock.dim), dtype=complex)
    for p in window_modes:
        if p < 0:
            continue
        for q in window_modes:
            if q >= 0:
                continue
            v_pq = -cal1[idx[q], idx[p]] * np.conj(cal0[idx[p], idx[p]]) * h
            w_op += v_pq * fock.create[p] @ fock.create[q]
    vac = fock.vacuum.astype(complex)
    vec = vac + w_op @ vac + 0.5 * (w_op @ (w_op @ vac))
    norm = 1.0 - 0.5 * float(np.sum(np.abs(w_op @ vac) ** 2))
    vac_i = norm * vec

    singles = {}
    for k in reference:
        op = np.zeros((fock.dim, fock.dim), dtype=complex)
        if k >= 0:
            # a_k+ = sum_{m>=0} conj(calA[m,k]) a~_m+ + sum_{m<0} conj(calA[m,k]) b~_m
            for m in window_modes:
                coef = np.conj(cal[idx[m], idx[k]])
                op += coef * (fock.create[m] if m >= 0 else fock.annihilate[m])
        else:
            # b_k+ = sum_{m>=0} calA[m,k] a~_m + sum_{m<0} calA[m,k] b~_m+
            for m in window_modes:
                coef = cal[idx[m], idx[k]]
                op += coef * (fock.annihilate[m] if m >= 0 else fock.create[m])
        singles[k] = op @ vac_i
    return fock, vac_i, singles


def reduced_two_mode(config, tau1, k, sign=+1, n_window=3):
    """tr_{not k} of the evolved Bell state rho (4x4, Alice x Rob mode k)."""
    window = [m for m in range(-n_window, n_window + 1)]
    fock, vac_i, singles = region_i_states(config, tau1, window, [k])
    one_k = singles[k]
    # Alice x Rob pure state (|0>|0> + sign |1>|1_k>)/sqrt(2); Alice is a qubit
    dim = fock.dim
    psi = np.zeros(2 * dim, dtype=complex)
    psi[:dim] = vac_i / np.sqrt(2.0)
    psi[dim:] = sign * one_k / np.sqrt(2.0)
    rho = np.outer(psi, psi.conj())
    # reshape to (alice, rob_k, rest | alice, rob_k, rest) and trace the rest
    rho = rho.reshape(2, 2, dim // 2, 2, 2, dim // 2)
    red = np.einsum("aircjr->aicj", rho).reshape(4, 4)
    return red


def reduced_charge(config, tau1, k, kp, sign=+1, n_window=3):
    """tr_{not k, k'} of the charge Bell state (8x8, Alice 2-dim x Rob 4-dim)."""
    window = [m for m in range(-n_window, n_window + 1)]
    fock, vac_i, singles = region_i_states(config, tau1, window, [k, kp])
    dim = fock.dim
    psi = np.zeros(2 * dim, dtype=complex)
    # Alice basis: 0 -> |1_k>+_A, 1 -> |1_k'>-_A; Rob carries the opposite mode
    psi[:dim] = singles[kp] / np.sqrt(2.0)
    psi[dim:] = sign * singles[k] / np.sqrt(2.0)
    rho = np.outer(psi, psi.conj())
    rho = rho.reshape(2, 4, dim // 4, 2, 4, dim // 4)
    red = np.einsum("aircjr->aicj", rho).reshape(8, 8)
    return red
