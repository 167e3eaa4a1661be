"""Unruh-DeWitt detector transition rates with spatial smearing.

A detector with a Gaussian-peaked coupling profile sees the field through a
frequency window; inertially it only de-excites above the mass threshold,
while under uniform acceleration it responds thermally (KMS detailed
balance) with the window reshaping the spectrum.
"""

import numpy as np

from rqi import udw

profile = udw.SpatialProfile(kind=udw.GAUSSIAN, sigma=1.0, peak=5.0)
window = udw.frequency_window(profile)
print("frequency window (double-peaked around +-5):")
for k in (0.0, 2.5, 5.0, 7.5):
    print(f"  |f~({k})| = {window(k):.6f}")

print("\ninertial rates (massive threshold at |gap| = m):")
for gap, m in [(1.0, 0.0), (-1.0, 0.0), (-0.5, 1.0), (-2.0, 1.0)]:
    rate = udw.transition_rate_inertial(udw.DetectorParams(gap=gap, mass=m))
    print(f"  gap = {gap:+.1f}, m = {m}: rate = {rate:.6f}")

print("\naccelerated (1+1) point-like rates and the KMS check:")
for a in (0.5, 1.0, 2.0):
    gap = 1.0
    rp = udw.transition_rate_accelerated(udw.DetectorParams(gap=gap, accel=a), dim="1+1")
    rm = udw.transition_rate_accelerated(udw.DetectorParams(gap=-gap, accel=a), dim="1+1")
    print(f"  a = {a}: F(+1) = {rp:.6e}, F(-1) = {rm:.6e}, "
          f"ratio/exp(-2 pi gap/a) = {rp / rm / np.exp(-2 * np.pi * gap / a):.12f}")

print("\naccelerated 3+1 with a smeared massive detector:")
det = udw.DetectorParams(gap=-1.0, mass=0.4, accel=1.0)
print(f"  smeared: {udw.transition_rate_accelerated(det, profile, dim='3+1'):.6e}")
print(f"  point  : {udw.transition_rate_accelerated(udw.DetectorParams(gap=-1.0, accel=1.0), dim='3+1'):.6e}")

print("\nsingle-particle correction dies off at late times (Riemann-Lebesgue):")
packet = lambda k: (2 / np.pi) ** 0.25 * np.exp(-((k - 5.0) ** 2))
for t in (0.0, 5.0, 10.0):
    res = udw.single_particle_correction(profile, packet, t, -1.0)
    print(f"  t = {t:5.1f}: |iota| = {abs(res['iota']):.3e}")
