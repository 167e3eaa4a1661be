"""Per-layer metrics computed from the tracer's per-pass snapshots.

Conventions: ``*_calls``, ``*_steps`` and ``cli.rows`` count the first traced
pass, whose inputs are fixed by the seed, so they repeat exactly.  ``*_us``
and ``*_ms`` are means per call, pooled over the traced passes.  ``*_s`` are
totals per pass, averaged over the traced passes.  A layer the workload does
not reach reads 0.
"""

from __future__ import annotations

import numpy as np

CLI_COMMANDS = (
    "box-entangle",
    "nonpert-evolve",
    "detector-rate",
    "resonance-sweep",
    "teleport-fidelity",
    "oneway-surface",
    "fermion-negativity",
)
IMPORTS = ("rqi.cli", "rqi.bessel", "rqi.nonpert", "rqi.udw", "rqi.gaussian")


class Passes:
    """Snapshots (stats, counters, top_level) of the traced passes."""

    def __init__(self, snapshots):
        self.snaps = snapshots

    def _stats(self, name):
        return [s[0][name] for s in self.snaps if name in s[0]]

    def count(self, name):
        if not self.snaps:
            return 0
        first = self.snaps[0]
        if name in first[1]:
            return first[1][name]
        return first[0][name].calls if name in first[0] else 0

    def per_call(self, name, scale, self_time=False):
        stats = self._stats(name)
        calls = sum(s.calls for s in stats)
        if calls == 0:
            return 0.0
        return scale * sum(s.self_time if self_time else s.total for s in stats) / calls

    def per_pass(self, name):
        if not self.snaps:
            return 0.0
        return sum(s.total for s in self._stats(name)) / len(self.snaps)

    def pct_ms(self, name, q):
        durations = [d for s in self._stats(name) for d in s.durations]
        return 1e3 * float(np.percentile(durations, q)) if durations else 0.0

    def teleport_point_us(self):
        points = sum(s.calls for s in self._stats("teleport.fidelity_expansion"))
        if points == 0:
            return 0.0
        busy = sum(s.total for n in ("teleport.fidelity_expansion", "teleport.optimal_fidelity_corrected") for s in self._stats(n))
        return 1e6 * busy / points


# name -> function of (Passes, context); units are declared in BENCHMARK.json
def _per_layer():
    m = {
        "boxpair.spectrum_ms": lambda p, c: p.per_call("boxpair.solve_rindler_spectrum", 1e3),
        "boxpair.rob_overlap_ms": lambda p, c: p.per_call("boxpair.rob_overlap_quadrature", 1e3, self_time=True),
        "boxpair.alice_overlaps_ms": lambda p, c: p.per_call("boxpair.alice_overlaps", 1e3),
        "boxpair.entropy_ms": lambda p, c: p.per_call("boxpair.cavity_entanglement", 1e3, self_time=True),
        "boxpair.point_ms_p50": lambda p, c: p.pct_ms("boxpair.cavity_entanglement", 50),
        "boxpair.point_ms_p90": lambda p, c: p.pct_ms("boxpair.cavity_entanglement", 90),
        "boxpair.spectrum_calls": lambda p, c: p.count("boxpair.solve_rindler_spectrum"),
        "nonpert.rhs_calls": lambda p, c: p.count("nonpert.rhs"),
        "nonpert.rhs_us": lambda p, c: p.per_call("nonpert.rhs", 1e6),
        "nonpert.expm_calls": lambda p, c: p.count("nonpert.expm"),
        "nonpert.solve_factors_s": lambda p, c: p.per_pass("nonpert.solve_factors"),
        "nonpert.evolution_operator_ms": lambda p, c: p.per_call("nonpert.evolution_operator", 1e3),
        "nonpert.oracle_s": lambda p, c: p.per_pass("nonpert.product_integrator_oracle"),
        # only the oracle builds H(t) matrices: one per fixed step
        "nonpert.oracle_steps": lambda p, c: p.count("nonpert.hamiltonian_matrix"),
        "udw.rate_ms_p50": lambda p, c: p.pct_ms("udw.transition_rate_accelerated", 50),
        "udw.rate_ms_p90": lambda p, c: p.pct_ms("udw.transition_rate_accelerated", 90),
        "udw.rate_calls": lambda p, c: p.count("udw.transition_rate_accelerated"),
        "bessel.k_calls": lambda p, c: p.count("bessel.bessel_K_imag_order"),
        "bessel.k_us": lambda p, c: p.per_call("bessel.bessel_K_imag_order", 1e6),
        "teleport.point_us": lambda p, c: p.teleport_point_us(),
        "teleport.f_sums_calls": lambda p, c: p.count("teleport.f_sums"),
        "boson.bogo_first_order_calls": lambda p, c: p.count("boson.bogo_first_order"),
        "boson.closed_form_b_us": lambda p, c: p.per_call("boson.closed_form_b_magnitude", 1e6),
        "boson.segment_negativity_exact_ms": lambda p, c: p.per_call("boson.segment_negativity_exact", 1e3),
        "fermion.f_k_us": lambda p, c: p.per_call("fermion.f_k", 1e6),
        "fermion.oneway_f_us": lambda p, c: p.per_call("fermion.oneway_f", 1e6),
        "gaussian.symplectic_defect_calls": lambda p, c: p.count("gaussian.symplectic_defect"),
        "gaussian.symplectic_defect_s": lambda p, c: p.per_pass("gaussian.symplectic_defect"),
        "gaussian.symplectic_spectrum_calls": lambda p, c: p.count("gaussian.symplectic_spectrum"),
    }
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}_s"] = lambda p, c, cmd=cmd: p.per_pass("cli." + cmd)
    m["cli.write_csv_s"] = lambda p, c: p.per_pass("cli.write_csv")
    m["cli.rows"] = lambda p, c: p.count("cli.rows")
    for mod in IMPORTS:
        m[f"import.{mod}_ms"] = lambda p, c, mod=mod: c["import_ms"].get(mod, 0.0)
    m["host.wall_s"] = lambda p, c: c["untraced_wall_s"]
    m["host.cal_ms"] = lambda p, c: 1e3 * c["cal_s"]
    m["trace.overhead_s"] = lambda p, c: c["traced_wall_s"] - c["untraced_wall_s"]
    m["trace.coverage"] = lambda p, c: c["coverage"]
    return m


PER_LAYER = _per_layer()


def layer_metrics(snapshots, context):
    """Every per-layer metric, as {name: value}."""
    passes = Passes(snapshots)
    return {name: float(fn(passes, context)) for name, fn in PER_LAYER.items()}
