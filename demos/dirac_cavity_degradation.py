"""Entanglement degradation of fermionic cavity modes under non-uniform motion.

Two cavities start with a maximally entangled Bell pair; one accelerates for
proper time tau1. The negativity degrades as (1 - f_k h^2)/2 with f_k a
periodic window sum that vanishes whenever tau1 is a multiple of 2 delta;
for charge-entangled pairs an interference term softens the degradation when
the two modes differ in parity. The one-way journey adds a second phase and
its zero lines u in Z, u + v in Z.
"""

import numpy as np

from rqi import fermion

cfg = fermion.FermionCavityConfig(s=0.0, h=0.05, n_side=200)

print("u = tau1/2delta, f_1(u), two-mode negativity:")
for u in np.linspace(0.0, 1.0, 11):
    fk = fermion.f_k(cfg, 2 * u, 1)
    neg = fermion.negativity_two_mode(cfg, 2 * u, 1)
    print(f"  {u:4.2f}  {fk:10.6f}  {neg:.8f}")

print("\ncharge-entangled pairs at u = 0.35:")
for k, kp in [(1, -1), (1, -2), (2, -1), (2, -2)]:
    val = fermion.negativity_charge_state(cfg, 0.7, k, kp)
    tag = "interference" if (k - kp) % 2 == 1 else "no interference"
    print(f"  (k, k') = ({k}, {kp}): {val:.8f}  [{tag}]")

print("\none-way journey surface samples (u, v, f~~_1):")
for u, v in [(0.25, 0.25), (0.5, 0.5), (0.3, 0.7), (1.0, 0.4)]:
    print(f"  {u:4.2f} {v:4.2f}  {fermion.oneway_f(cfg, 2 * u, 2 * v, 1):.8f}")

# spectrum-offset dependence: s breaks the k <-> -k symmetry
print("\nf_k at u = 0.3 for boundary offsets s:")
for s in (0.0, 0.25, 0.5, 0.75):
    c = fermion.FermionCavityConfig(s=s, h=0.05, n_side=200)
    print(f"  s = {s}: f_1 = {fermion.f_k(c, 0.6, 1):.6f}, "
          f"f_-1 = {fermion.f_k(c, 0.6, -1):.6f}")
