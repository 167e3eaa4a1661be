"""Gaussian-state warm-up: build a two-mode squeezed state and quantify it.

The two-mode squeezer is the closed-form exponential of one quadratic
generator; acting on the vacuum it gives the standard cosh(2r)/sinh(2r)
covariance, which `gaussian.two_mode_squeezed_state` writes directly.
All three entanglement measures then come straight from the symplectic
spectrum machinery, and the closed forms are printed next to them.
"""

import numpy as np

from rqi import entanglement, gaussian

for r in (0.1, 0.3, 0.5, 1.0):
    state = gaussian.two_mode_squeezed_state(r)
    print(f"r = {r}")
    print(f"  smallest PT symplectic eigenvalue {entanglement.smallest_pt_eigenvalue(state):.6f}"
          f"  (exp(-2r) = {np.exp(-2*r):.6f})")
    print(f"  entropy of entanglement {entanglement.entropy_of_entanglement(state, [0]):.8f}")
    print(f"  negativity              {entanglement.negativity_gaussian(state):.8f}"
          f"  closed form {(np.exp(2*r)-1)/2:.8f}")
    print(f"  log-negativity          {entanglement.log_negativity_gaussian(state):.8f}"
          f"  closed form {2*r:.8f}")

# Williamson form of a noisy state: diagonalise and reconstruct
rng = np.random.default_rng(1)
state = gaussian.apply_map(gaussian.random_symplectic(2, rng), gaussian.thermal_state([1.3, 2.1]))
nus, s = gaussian.williamson(state)
gamma = gaussian.real_covariance(state)
recon = s @ np.diag(np.repeat(nus, 2)) @ s.T
print(f"\nWilliamson spectrum {nus}, reconstruction error {np.abs(recon - gamma).max():.2e}")
