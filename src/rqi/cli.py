"""Batch front end: reproduce the figure data sets as CSV plus a summary JSON.

Every command reads an optional JSON config (``--config file.json``) whose
keys must match the command's parameters; command-line flags override file
values.  Numeric payloads are written with 17 significant digits so reruns
are bit-identical.  ``--check`` executes the command's invariant suite
instead of producing data.  ``RQI_THREADS`` (a positive integer, clamped to
the CPU count) sets the worker threads of the grid sweeps.

Exit codes: 0 ok, 2 config error, 3 numeric failure / invariant violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import boson, boxpair, entanglement, fermion, gaussian, nonpert, teleport, udw


class ConfigError(Exception):
    pass


def _fmt(x):
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def write_summary(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


def grid_values(spec):
    """{"min": a, "max": b, "steps": n} -> inclusive linspace."""
    if isinstance(spec, dict):
        missing = {"min", "max", "steps"} - set(spec)
        if missing:
            raise ConfigError(f"grid spec missing keys {sorted(missing)}")
        n = int(spec["steps"])
        if n < 1:
            raise ConfigError("grids must be non-empty")
        return np.linspace(float(spec["min"]), float(spec["max"]), n)
    arr = np.atleast_1d(np.asarray(spec, dtype=float))
    if arr.size == 0:
        raise ConfigError("grids must be non-empty")
    return arr


def n_workers():
    """Worker threads from RQI_THREADS (default 1), at most one per CPU."""
    text = os.environ.get("RQI_THREADS", "1")
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"RQI_THREADS must be a positive integer, got {text!r}")
    return min(workers, os.cpu_count() or 1)


def parallel_map(func, items):
    workers = n_workers()
    if workers == 1:
        return [func(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(func, items))


def merge_config(defaults, args):
    """defaults < json file < explicit flags; unknown json keys rejected."""
    params = dict(defaults)
    path = getattr(args, "config", None)
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                file_params = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        unknown = set(file_params) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        params.update(file_params)
    for key in defaults:
        val = getattr(args, key, None)
        if val is not None:
            params[key] = val
    bad = sorted(key for key, val in params.items() if _non_finite(val))
    if bad:
        raise ConfigError(f"non-finite numbers in {bad}")
    return params


def _non_finite(value):
    """True when a scalar, list or grid dict holds NaN or an infinity."""
    if isinstance(value, dict):
        return any(_non_finite(v) for v in value.values())
    if isinstance(value, list):
        return any(_non_finite(v) for v in value)
    return isinstance(value, float) and not np.isfinite(value)


# --------------------------------------------------------------------------
# commands: each returns (CSV header or None, rows, summary extras)


def cmd_measures(params):
    r = float(params["r"])
    if params["state"] != "tmss":
        raise ConfigError("only the 'tmss' state family is implemented")
    state = gaussian.two_mode_squeezed_state(r)
    extras = {
        "entropy": entanglement.entropy_of_entanglement(state, [0]),
        "negativity": entanglement.negativity_gaussian(state),
        "log_negativity": entanglement.log_negativity_gaussian(state),
    }
    return None, None, extras


def check_measures(params):
    r = 0.37
    state = gaussian.two_mode_squeezed_state(r)
    ok = abs(entanglement.log_negativity_gaussian(state) - 2 * r) < 1e-10
    ok &= abs(entanglement.negativity_gaussian(state) - (np.exp(2 * r) - 1) / 2) < 1e-10
    nus = gaussian.symplectic_spectrum(state)
    ok &= np.all(np.abs(nus - 1.0) < 1e-9)
    return bool(ok)


def cmd_resonance_sweep(params):
    cfg = boson.BosonCavityConfig(
        mass=float(params["mass"]), n_max=int(params["n_max"]), h=float(params["h"])
    )
    k, kp, reps = int(params["k"]), int(params["kp"]), int(params["repetitions"])
    lam = float(params["lam"])
    tau1 = grid_values(params["tau1"])
    tau2 = grid_values(params["tau2"])
    rows = []

    def one(t1):
        local = []
        for t2 in tau2:
            b = boson.closed_form_b_magnitude(cfg, t1, t2, lam, k, kp)
            local.append((t1, t2, 2.0 * reps * b))
        return local

    for chunk in parallel_map(one, tau1):
        rows.extend(chunk)
    # rows where resonance_negativity would warn: nu_correction = 2 N |B|
    flagged = sum(1 for _, _, nu in rows if nu / 2.0 >= boson.NB_VALIDITY_BOUND)
    extras = {"validity_warnings": flagged, "n_max_h": cfg.n_max * abs(cfg.h)}
    return ["tau1", "tau2", "nu_correction"], rows, extras


def check_resonance_sweep(params):
    cfg = boson.BosonCavityConfig(n_max=12, h=1e-4)
    seg = boson.standard_segment(cfg.h, 1.0 / 3.0, 1.0 / 3.0)
    smap = boson.compose_segment(cfg, seg)
    ok = gaussian.symplectic_defect(smap.matrix, gaussian.COMPLEX) < 1e-6
    res = boson.resonance_negativity(cfg, seg, 1, 2, 3)
    ok &= res["resonant"]
    exact = boson.segment_negativity_exact(cfg, seg, 1, 2, 3)
    ok &= abs(exact - res["negativity"]) < 0.01 * max(res["negativity"], 1e-12)
    return bool(ok)


def cmd_teleport_fidelity(params):
    r, k, kp = float(params["r"]), int(params["k"]), int(params["kp"])
    n_max = int(params["n_max"])
    taus = grid_values(params["tau"])
    hs = grid_values(params["h"])
    cfgs = [boson.BosonCavityConfig(n_max=n_max, h=float(h)) for h in hs]
    rows = []
    for tau in taus:
        for h, cfg in zip(hs, cfgs):
            seg = boson.TrajectorySegment(((float(h), float(tau)),))
            scen = teleport.TeleportScenario(r=r, k=k, kp=kp, config=cfg, segment=seg)
            f0, f2 = teleport.fidelity_expansion(scen)
            opt = teleport.optimal_fidelity_corrected(scen)
            rows.append((tau, h, f0 - f2 * h * h, opt["fidelity"]))
    h_max = float(np.max(hs))
    extras = {"n_max_h": n_max * h_max, "perturbative_ok": n_max * h_max < 1.0}
    return ["tau", "a", "fidelity", "fidelity_opt"], rows, extras


def check_teleport_fidelity(params):
    cfg = boson.BosonCavityConfig(n_max=12, h=0.05)
    seg = boson.TrajectorySegment(((cfg.h, 0.9),))
    scen = teleport.TeleportScenario(r=0.5, k=1, kp=3, config=cfg, segment=seg)
    state = teleport.transformed_resource_state(scen)
    nu_direct = entanglement.smallest_pt_eigenvalue(state)
    nu_closed = teleport.optimal_fidelity_corrected(scen)["nu_minus"]
    return abs(nu_direct - nu_closed) < 5e-4


def cmd_fermion_negativity(params):
    us = grid_values(params["u"])
    n_side = int(params["n_side"])
    svals = (0.0, 0.25, 0.5, 0.75)
    header = ["u"] + [f"f_s{si}_k{k}" for si in range(4) for k in (1, -1)]
    cfgs = [fermion.FermionCavityConfig(s=s, n_side=n_side) for s in svals]
    rows = []
    for u in us:
        row = [u]
        for cfg in cfgs:
            for k in (1, -1):
                row.append(fermion.f_k(cfg, 2.0 * u * cfg.delta, k))
        rows.append(tuple(row))
    # convergence probe: window doubling at a generic point (cfgs[0] has s = 0)
    probe_small = fermion.f_k(cfgs[0], 0.9, 1)
    probe_big = fermion.f_k(fermion.FermionCavityConfig(s=0.0, n_side=2 * n_side), 0.9, 1)
    shift = abs(probe_big - probe_small)
    return header, rows, {"window_doubling_shift": shift, "converged": shift < 1e-6}


def check_fermion_negativity(params):
    cfg = fermion.FermionCavityConfig(s=0.0, n_side=150)
    ok = abs(fermion.f_k(cfg, 2.0, 1)) < 1e-10  # period
    ok &= abs(fermion.f_k(cfg, 0.6, 1) - fermion.f_k(cfg, 0.6, -1)) < 1e-10
    return bool(ok)


def cmd_oneway_surface(params):
    us = grid_values(params["u"])
    vs = grid_values(params["v"])
    cfg = fermion.FermionCavityConfig(s=float(params["s"]), n_side=int(params["n_side"]))
    k = int(params["k"])

    def one(u):
        return [(u, v, fermion.oneway_f(cfg, 2 * u * cfg.delta, 2 * v * cfg.delta, k)) for v in vs]

    rows = []
    for chunk in parallel_map(one, us):
        rows.extend(chunk)
    return ["u", "v", "f_oneway"], rows, {}


def check_oneway_surface(params):
    cfg = fermion.FermionCavityConfig(s=0.0, n_side=150)
    ok = abs(fermion.oneway_f(cfg, 0.0, 0.7, 1)) < 1e-12
    ok &= abs(fermion.oneway_f(cfg, 0.6, 2.0 - 0.6, 1)) < 1e-10  # u + v integer
    return bool(ok)


def cmd_detector_rate(params):
    gaps = grid_values(params["gap"])
    profile = _build_profile(params)
    if params["dim"] not in udw.DIMS:
        raise ConfigError(f"dim must be one of {list(udw.DIMS)}, got {params['dim']!r}")
    rows = []
    for gap in gaps:
        det = udw.DetectorParams(gap=float(gap), mass=float(params["mass"]), accel=float(params["a"]))
        if params["trajectory"] == "inertial":
            rate = udw.transition_rate_inertial(det, profile)
        elif params["trajectory"] == "accelerated":
            rate = udw.transition_rate_accelerated(det, profile, dim=params["dim"])
        else:
            raise ConfigError("trajectory must be 'inertial' or 'accelerated'")
        rows.append((gap, rate))
    return ["gap", "rate"], rows, {}


def _build_profile(params):
    kind = params["profile"]
    if kind == "point":
        return udw.SpatialProfile()
    if kind in (udw.GAUSSIAN, udw.RINDLER_GAUSSIAN):
        return udw.SpatialProfile(
            kind=kind, sigma=float(params["sigma"]), peak=float(params["peak"]), accel=float(params["a"])
        )
    raise ConfigError(f"unknown profile {kind!r}")


def check_detector_rate(params):
    det = udw.DetectorParams(gap=1.3, mass=0.0, accel=1.0)
    r_plus = udw.transition_rate_accelerated(det, dim="1+1")
    r_minus = udw.transition_rate_accelerated(udw.DetectorParams(gap=-1.3, accel=1.0), dim="1+1")
    ok = abs(r_plus / r_minus - np.exp(-2 * np.pi * 1.3)) < 1e-9
    ok &= udw.transition_rate_inertial(udw.DetectorParams(gap=-0.5, mass=1.0)) == 0.0
    return bool(ok)


def cmd_nonpert_evolve(params):
    basis = nonpert.detector_field_basis()
    schedule = nonpert.detector_example_schedule(
        basis, coupling=float(params["coupling"]), t_mod=np.sqrt(float(params["t_sq"])), gap=float(params["gap"])
    )
    t_end = float(params["t_end"])
    t_eval = np.linspace(0.0, t_end, 201) if params["tau"] is None else grid_values(params["tau"])
    if t_eval[0] < 0.0 or (np.diff(t_eval) <= 0.0).any():
        raise ConfigError("--tau (or 0 to --t-end) must start at or above 0 and increase strictly")
    sol = nonpert.solve_factors(basis, schedule, (0.0, max(t_end, t_eval[-1])), t_eval=t_eval)
    gammas = nonpert.covariance_trajectory(basis, sol.y)
    rows = []
    for i, t in enumerate(sol.t):
        nd = nonpert.detector_number_expectation(gammas[i])
        rows.append((t, nd, *sol.y[:, i]))
    header = ["tau", "n_d"] + [f"F{j+1}" for j in range(basis.dim)]
    final_f = sol.y[:, -1]
    zero_factors = [basis.labels[j] for j in range(basis.dim) if abs(final_f[j]) < 1e-10]
    return header, rows, {"zero_factors": zero_factors, "rhs_calls": int(sol.nfev)}


def check_nonpert_evolve(params):
    basis = nonpert.detector_field_basis()
    schedule = nonpert.detector_example_schedule(basis, coupling=0.3, t_mod=2.0, gap=2 * np.pi)
    times, factors, gammas = nonpert.evolve_state(basis, schedule, (0.0, 8.0), t_eval=[0.0, 4.0, 8.0])
    s = nonpert.evolution_operator(basis, factors[:, -1])
    ok = gaussian.symplectic_defect(s, gaussian.COMPLEX) < 1e-8
    ok &= abs(np.real(np.linalg.det(gammas[-1])) - 1.0) < 1e-8
    return bool(ok)


def cmd_box_entangle(params):
    hs = grid_values(params["h"])
    kappas = grid_values(params["kappa"])
    scen_base = dict(
        v=float(params["v"]),
        gap=float(params["gap"]),
        epsilon=float(params["epsilon"]),
        n_cut=int(params["n_cut"]),
    )
    try:  # the truncation is user input: reject it here, not mid-sweep
        boxpair.BoxScenario(n_cut=scen_base["n_cut"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    def one(h):
        out = []
        for kap in kappas:
            res = boxpair.cavity_entanglement(boxpair.BoxScenario(h=float(h), kappa=float(kap), **scen_base))
            out.append(((h, kap, res["entropy"]), res["flagged"]))
        return out

    points = [p for chunk in parallel_map(one, hs) for p in chunk]
    # flagged: grid points with no emission amplitude, written as entropy 0
    return ["h", "kappa", "entropy"], [row for row, _ in points], {"flagged": sum(f for _, f in points)}


def check_box_entangle(params):
    scen = boxpair.BoxScenario(h=0.4, kappa=0.5, n_cut=4, n_y=600, n_quad=300)
    spec = boxpair.solve_rindler_spectrum(scen)
    w_hat = spec.omegas * np.log((1 / scen.h + 0.5) / (1 / scen.h - 0.5))
    n = np.arange(1, scen.n_cut + 1)
    inertial = np.sqrt(
        (n[:, None] * np.pi) ** 2 + (n[None, :] * np.pi) ** 2 + scen.kappa**2
    )
    ok = np.abs(w_hat / inertial - 1.0).max() < 0.05
    res = boxpair.cavity_entanglement(scen, spectrum=spec)
    ok &= 0.0 <= res["entropy"] <= np.log(2.0) + 1e-9
    return bool(ok)


COMMANDS = {
    "measures": (
        cmd_measures,
        check_measures,
        {"state": "tmss", "r": 0.5},
    ),
    "resonance-sweep": (
        cmd_resonance_sweep,
        check_resonance_sweep,
        {
            "k": 1,
            "kp": 2,
            "repetitions": 5,
            "h": 1e-4,
            "lam": 1.0,
            "mass": 0.0,
            "n_max": 20,
            "tau1": {"min": 0.01, "max": 2.0, "steps": 50},
            "tau2": {"min": 0.0, "max": 2.0, "steps": 50},
        },
    ),
    "teleport-fidelity": (
        cmd_teleport_fidelity,
        check_teleport_fidelity,
        {
            "r": 0.5,
            "k": 1,
            "kp": 3,
            "n_max": 20,
            "tau": {"min": 0.0, "max": 2.0, "steps": 41},
            "h": {"min": 0.0, "max": 0.245, "steps": 20},
        },
    ),
    "fermion-negativity": (
        cmd_fermion_negativity,
        check_fermion_negativity,
        {"u": {"min": 0.0, "max": 1.0, "steps": 101}, "n_side": 200},
    ),
    "oneway-surface": (
        cmd_oneway_surface,
        check_oneway_surface,
        {
            "s": 0.0,
            "k": 1,
            "n_side": 200,
            "u": {"min": 0.0, "max": 1.0, "steps": 64},
            "v": {"min": 0.0, "max": 1.0, "steps": 64},
        },
    ),
    "detector-rate": (
        cmd_detector_rate,
        check_detector_rate,
        {
            "trajectory": "accelerated",
            "profile": "point",
            "dim": "1+1",
            "a": 1.0,
            "mass": 0.0,
            "sigma": 1.0,
            "peak": 5.0,
            "gap": {"min": -5.0, "max": 5.0, "steps": 101},
        },
    ),
    "nonpert-evolve": (
        cmd_nonpert_evolve,
        check_nonpert_evolve,
        {"coupling": 1.0, "t_sq": 80.0, "gap": 2 * np.pi, "t_end": 40.0, "tau": None},
    ),
    "box-entangle": (
        cmd_box_entangle,
        check_box_entangle,
        {
            "v": 0.5,
            "gap": np.sqrt(2.0) * np.pi,
            "epsilon": 1.0,
            "n_cut": 8,
            "h": {"min": 0.025, "max": 1.0, "steps": 40},
            "kappa": {"min": 0.0, "max": 8.0, "steps": 40},
        },
    ),
}


def build_parser():
    parser = argparse.ArgumentParser(prog="rqi", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, defaults) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON parameter file")
        p.add_argument("--out", default=None, help="output prefix (default: the command name)")
        p.add_argument("--check", action="store_true", help="run the invariant suite instead")
        for key, val in defaults.items():
            flag = "--" + key.replace("_", "-")
            if isinstance(val, dict) or val is None:
                p.add_argument(flag, type=json.loads, default=None, dest=key)
            elif isinstance(val, int):
                p.add_argument(flag, type=int, default=None, dest=key)
            elif isinstance(val, float):
                p.add_argument(flag, type=float, default=None, dest=key)
            else:
                p.add_argument(flag, type=str, default=None, dest=key)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    run, check, defaults = COMMANDS[args.command]
    try:
        params = merge_config(defaults, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.check:
        try:
            ok = check(params)
        except Exception as exc:  # noqa: BLE001 - report, then signal failure
            print(f"invariant suite crashed: {exc}", file=sys.stderr)
            return 3
        print(f"{args.command}: invariants {'ok' if ok else 'VIOLATED'}")
        return 0 if ok else 3
    out_prefix = args.out or args.command.replace("-", "_")
    try:
        header, rows, extras = run(params)
        summary = {"command": args.command, "params": params}
        if header is not None:
            write_csv(out_prefix + ".csv", header, rows)
            summary["rows"] = len(rows)
        write_summary(out_prefix + ".json", {**summary, **extras})
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - numeric failure path
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
