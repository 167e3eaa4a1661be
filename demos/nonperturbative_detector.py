"""Non-perturbative evolution of a detector coupled to one field mode.

The covariance evolution operator S(t) is integrated by symplectic Magnus
steps and decomposed into a product of one-generator exponentials, so the
full covariance trajectory comes out without any perturbative truncation.
The brute-force fixed-step product integrator certifies the result.
"""

import numpy as np

from rqi import nonpert

basis = nonpert.detector_field_basis()
schedule = nonpert.detector_example_schedule(basis, coupling=1.0, t_mod=np.sqrt(80.0), gap=2 * np.pi)

grid = np.linspace(0.0, 44.0, 23)
times, factors, gammas = nonpert.evolve_state(basis, schedule, (0.0, 44.0), t_eval=grid)
nd = nonpert.detector_number_expectation(gammas)

print("tau, N_d(tau)  (grows with oscillations, then freezes after switch-off):")
for t, n in zip(times, nd):
    bar = "#" * int(min(n, 6.0) * 10)
    print(f"  {t:5.1f}  {n:12.6e}  {bar}")

print("\nfactor functions that stay at zero through the whole drive:")
final = factors[:, -1]
zeros = [basis.labels[j] for j in range(basis.dim) if np.abs(factors[j]).max() < 1e-10]
print(" ", zeros if zeros else "(none)")

print("\ncross-check against the fixed-step product integrator (coarse drive):")
sched2 = nonpert.detector_example_schedule(basis, coupling=0.5, t_mod=2.0, gap=2 * np.pi)
sub = np.linspace(0.0, 8.0, 5)
_, _, g_ode = nonpert.evolve_state(basis, sched2, (0.0, 8.0), t_eval=sub)
g_oracle = nonpert.product_integrator_oracle(basis, sched2, sub, dt=1e-4)
for t, a, b in zip(sub, nonpert.detector_number_expectation(g_ode), nonpert.detector_number_expectation(g_oracle)):
    print(f"  tau = {t}: ode {a:.10f}  oracle {b:.10f}  |diff| {abs(a-b):.1e}")
