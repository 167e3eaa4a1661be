"""Entangling an inertial and an accelerated 2-D cavity with one atom.

An excited atom sweeps through Alice's box and then Rob's uniformly
accelerated box; post-selecting on its ground state leaves the two fields
sharing one excitation. Rob's mode functions are imaginary-order Bessel
solutions of the Rindler wave equation; their overlap with the atom's
worldline sets the emission amplitudes and hence the entropy of
entanglement.
"""

import numpy as np

from rqi import boxpair

scen = boxpair.BoxScenario(h=0.5, kappa=1.0)
spec = boxpair.solve_rindler_spectrum(scen)
print("lowest accelerated-box frequencies Omega_nm (n rows, m columns):")
print(np.round(spec.omegas[:3, :3], 4))
lr = np.log((1 / scen.h + 0.5) / (1 / scen.h - 0.5))
n = np.arange(1, 4)
inertial = np.sqrt((n[:, None] * np.pi) ** 2 + (n[None, :] * np.pi) ** 2 + scen.kappa**2)
print("Omega * log(chi+/chi-) over the inertial values (h -> 0 would give 1):")
print(np.round(spec.omegas[:3, :3] * lr / inertial, 4))

f_alice, f_rob = boxpair.alice_overlaps(scen), boxpair.rob_overlap_quadrature(scen, spectrum=spec)
res = boxpair.cavity_entanglement(scen, spectrum=spec)
print(f"\nemission weights: Alice {np.sum(np.abs(f_alice)**2):.6f}, "
      f"Rob {np.sum(np.abs(f_rob)**2):.6f}")
print(f"entropy of entanglement {res['entropy']:.6f} (max ln 2 = {np.log(2):.6f})")

print("\nentropy along the acceleration axis at kappa = 1 (degrades monotonically):")
for h in (0.05, 0.3, 0.6, 0.9, 1.0):
    e = boxpair.cavity_entanglement(boxpair.BoxScenario(h=h, kappa=1.0, n_cut=6))["entropy"]
    print(f"  h = {h:4.2f}: {e:.8f}")

print("\nentropy along the bare-mass axis at h = 0.3 (oscillatory decay):")
for kap in np.linspace(0.0, 8.0, 9):
    e = boxpair.cavity_entanglement(boxpair.BoxScenario(h=0.3, kappa=float(kap), n_cut=6))["entropy"]
    print(f"  kappa = {kap:3.1f}: {e:.8f}")

g = boxpair.resonance_phase(1, 1, boxpair.BoxScenario(h=0.0, kappa=5.4, n_cut=4))
print(f"\nresonance factor |1 + e^(i g_11)| at kappa = 5.4: {abs(1 + np.exp(1j * g)):.4f} "
      "(the g = -2 pi crossing)")
