"""Teleportation fidelity when the receiver's cavity accelerates.

Alice and Rob share a two-mode squeezed resource; Rob's cavity then runs
through a stretch of uniform acceleration. The O(h^2) mode mixing degrades
the optimal fidelity by (1 + exp(-2r)) [f_beta + f_alpha tanh r] h^2 / (...);
at the microwave-circuit parameters the correction peaks near 4 percent of
the total fidelity.
"""

import numpy as np

from rqi import boson, entanglement, teleport

r, kp = 0.5, 3
h = np.sqrt(0.06)
cfg = boson.BosonCavityConfig(n_max=30)

f_ideal = 1.0 / (1.0 + np.exp(-2 * r))
print(f"ideal optimal fidelity 1/(1+e^-2r) = {f_ideal:.6f}")
print("tau, f_alpha, f_beta (per unit h^2), corrected optimal fidelity, drop in % of total:")
taus = np.linspace(0.1, 2.0, 20)
# the one-block segments ((1, tau),), one per tau: blocks lie on the last axis
fa, fb = teleport.f_sums(cfg, kp, [1.0], taus[:, None])
_, opt, _ = teleport.block_fidelities(r, kp, cfg, taus, h)
drop = 100 * (f_ideal - opt) / f_ideal
for row in zip(taus, fa, fb, opt, drop):
    print("  {:4.2f}  {:8.5f}  {:.2e}  {:.6f}  {:5.2f}%".format(*row))
print(f"\nworst-case correction {drop.max():.2f}% of the total fidelity at tau = {taus[drop.argmax()]:.2f}")

# the closed-form smallest PT eigenvalue against the assembled-state route
scen = teleport.TeleportScenario(
    r=r, kp=kp, config=boson.BosonCavityConfig(n_max=20, h=0.1),
    segment=boson.TrajectorySegment(((0.1, 0.9),)),
)
state = teleport.transformed_resource_state(scen)
print(f"\nnu- direct {entanglement.smallest_pt_eigenvalue(state):.8f} vs closed "
      f"{teleport.optimal_fidelity_corrected(scen)['nu_minus']:.8f} (difference is O(h^4))")
