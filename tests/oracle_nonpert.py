"""Adaptive-ODE referee for the Magnus-step evolution of `rqi.nonpert`.

The evolution operator S(t) solves dS/dt = -i K H(t) S, H(t) = sum_j
lambda_j(t) G_j, S(t0) = 1.  Here it is integrated in the complex form by
scipy's eighth-order DOP853 with error control, one schedule call per
right-hand side: independent of the library's real quadrature form, its
Gauss-Legendre nodes, its batched exponentials and its step rule.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

from rqi.gaussian import kay


def dop853_evolution(basis, schedule, t_span, t_eval, rtol=1e-13, atol=1e-15):
    """S (n, 2N, 2N, complex form) at the output times `t_eval`, from S = 1 at t_span[0], by DOP853."""
    kgens = -1j * (kay(basis.n_modes) @ np.stack(basis.generators))  # -i K G_j
    d = kgens.shape[-1]

    def rhs(t, y):
        return (np.tensordot(schedule(t), kgens, axes=(0, 0)) @ y.reshape(d, d)).ravel()

    y0 = np.eye(d, dtype=complex).ravel()
    sol = solve_ivp(rhs, t_span, y0, method="DOP853", t_eval=t_eval, rtol=rtol, atol=atol)
    if not sol.success:
        raise RuntimeError(f"referee integration failed: {sol.message}")
    return sol.y.T.reshape(-1, d, d)
