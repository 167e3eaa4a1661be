"""Entanglement generated by shaking a cavity: resonances and linear growth.

A rigid cavity accelerates, coasts, accelerates again and coasts; repeating
that segment at a resonant total time T = 2 n pi / (w_k + w_k') makes the
mode-pair negativity grow linearly with the number of repetitions, i.e. the
motion acts as a two-mode squeezing gate.  Times are in units of the cavity
length delta.  Resonance is decided from the segment's total time alone; the
composed map of the segment gives the exact negativities.
"""

import numpy as np

from rqi import boson

cfg = boson.BosonCavityConfig(n_max=20, h=1e-4)
omega = boson.mode_frequencies(cfg)
k, kp = 1, 2

# resonant segment: T = 2 tau1 + 2 tau2 = T_2, coasting tuned to the maximum
tau1 = tau2 = 1.0 / 3.0
segment = boson.standard_segment(cfg.h, tau1, tau2, lam=1.0)
resonant, residual = boson.resonance_check(cfg, segment, k, kp)
print(f"segment total time {segment.total_time:.4f}, resonant: {resonant} (residual {residual:.1e})")
print(f"resonant times for (k, k') = (1, 2): {boson.resonant_times(cfg, k, kp, 3)}")

_, b = boson.segment_blocks(boson.compose_segment(cfg, segment))
print(f"|B^(1)_12| h = {abs(b[0, 1]):.4e} "
      f"(closed form {boson.closed_form_b_magnitude(cfg, tau1, tau2, 1.0, k, kp):.4e})")

print("\nrepetitions vs negativity (exact product route, linear prediction):")
for reps in range(1, 6):
    exact = boson.segment_negativity_exact(cfg, segment, k, kp, reps)
    print(f"  N = {reps}: {exact:.6e}   linear {reps * abs(b[0, 1]):.6e}")

# off resonance the growth stalls and oscillates
seg_off = boson.TrajectorySegment(((cfg.h, 0.37), (0.0, 0.21), (cfg.h, 0.37), (0.0, 0.21)))
vals = [boson.segment_negativity_exact(cfg, seg_off, k, kp, n) for n in range(1, 6)]
print("\noff-resonance negativities:", np.round(np.array(vals) / vals[0], 3), "(in units of N = 1)")
