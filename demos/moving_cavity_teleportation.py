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
cfg = boson.BosonCavityConfig(n_max=30, h=h)

f_ideal = 1.0 / (1.0 + np.exp(-2 * r))
print(f"ideal optimal fidelity 1/(1+e^-2r) = {f_ideal:.6f}")
print("tau, f_alpha, f_beta, corrected optimal fidelity, drop in % of total:")
best = (0.0, 0.0)
for tau in np.linspace(0.1, 2.0, 20):
    scen = teleport.TeleportScenario(
        r=r, kp=kp, config=cfg, segment=boson.TrajectorySegment(((h, tau),))
    )
    fa, fb = teleport.f_sums(scen)
    res = teleport.optimal_fidelity_corrected(scen)
    drop = 100 * (f_ideal - res["fidelity"]) / f_ideal
    best = max(best, (drop, tau))
    print(f"  {tau:4.2f}  {fa:8.5f}  {fb:.2e}  {res['fidelity']:.6f}  {drop:5.2f}%")
print(f"\nworst-case correction {best[0]:.2f}% of the total fidelity at tau = {best[1]:.2f}")

# the closed-form smallest PT eigenvalue against the assembled-state route
scen = teleport.TeleportScenario(
    r=r, kp=kp, config=boson.BosonCavityConfig(n_max=20, h=0.1),
    segment=boson.TrajectorySegment(((0.1, 0.9),)),
)
state = teleport.transformed_resource_state(scen)
print(f"\nnu- direct {entanglement.smallest_pt_eigenvalue(state):.8f} vs closed "
      f"{teleport.optimal_fidelity_corrected(scen)['nu_minus']:.8f} (difference is O(h^4))")
