"""Batch front end: reproduce the figure data sets as CSV plus a summary JSON.

A command's parameters are the keyword arguments of its ``cmd_*`` function,
defaults included.  Every command reads an optional JSON config
(``--config file.json``) whose keys must match them; command-line flags
override file values.  Flag and file values alike are converted to the type
of the parameter's default: finite floats, integers (integral values only),
strings, and grids (a non-empty JSON list of finite numbers, or
``{"min": a, "max": b, "steps": n}`` with exactly these keys and n an
integral value of at least 1); a JSON boolean is not a number.  Numeric
payloads are written with 17 significant digits so reruns are bit-identical.

Exit codes: 0 ok, 2 config error (unknown key, wrong type, non-finite
number, or a value the physics rejects, such as a mode label outside
1..n_max, a repeated mode label, a negative travel time or one whose phase overflows, a teleportation
squeezing r <= 0 or a `measures` r past 1e-9 relative accuracy), 3 numeric
failure (an ArithmeticError, ValueError or RuntimeError; a non-finite CSV cell
is one, and that CSV is not written).  Any other exception, such as a
TypeError, an ImportError or an OSError, propagates with its traceback.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
from contextlib import contextmanager

import numpy as np


class ConfigError(Exception):
    pass


# rows per % operation (256 run as fast as 2,048; the chunk's strings and floats stay near 55 kB, off a large write's
# peak), and the cap on a grid column's distinct values, so their strings never outnumber one chunk's cells either
CSV_CHUNK_ROWS = 256


def write_csv(path, header, rows):
    """Header line, then each row of the 2-D float array `rows` as %.17g cells.

    "%.17g" % x and format(x, ".17g") share one float formatter: a chunk formatted at once matches cell by cell.  A grid
    column (fewer distinct bit patterns than rows, at most CSV_CHUNK_ROWS) is formatted once per value, into %s fields.
    """
    rows = np.asarray(rows, dtype=float)
    grids, step = {}, 4096  # rows per sort below: it sets the search's speed and memory, not which columns qualify
    for j in range(len(header)):  # distinct values by sorted slices: small copies, and np.unique is many times slower
        distinct, start = np.empty(0, dtype=np.int64), 0
        while start < len(rows) and distinct.size <= CSV_CHUNK_ROWS:
            bits = np.sort(np.concatenate((distinct, rows[start : start + step, j].view(np.int64))))
            distinct, start = bits[np.concatenate(([True], bits[1:] != bits[:-1]))], start + step
        if distinct.size <= CSV_CHUNK_ROWS and distinct.size < len(rows):
            grids[j] = distinct, np.array(["%.17g" % x for x in distinct.view(float).tolist()], dtype=object)
    line = ",".join("%s" if j in grids else "%.17g" for j in range(len(header))) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(rows), CSV_CHUNK_ROWS):
            chunk = rows[start : start + CSV_CHUNK_ROWS]
            cells = chunk.astype(object) if grids else chunk
            for j, (distinct, text) in grids.items():
                cells[:, j] = text[np.searchsorted(distinct, chunk[:, j].view(np.int64))]
            fh.write(line * len(chunk) % tuple(cells.ravel().tolist()))


def write_summary(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


def grid(lo, hi, steps):
    """The grid spec {"min": lo, "max": hi, "steps": steps}: a default of a grid parameter, never mutated."""
    return {"min": lo, "max": hi, "steps": steps}


def grid_values(spec, scale=1.0):
    """A `merge_config` grid ({min, max, steps} -> inclusive linspace, list -> array) times scale (inf on overflow)."""
    values = np.linspace(float(spec["min"]), float(spec["max"]), spec["steps"]) if isinstance(spec, dict) else spec
    with np.errstate(over="ignore"):
        return scale * np.asarray(values, dtype=float)


def parameters(run):
    """A command's parameters and their defaults: the keyword arguments of its function."""
    return {key: p.default for key, p in inspect.signature(run).parameters.items()}


def merge_config(run, args):
    """defaults < json file < explicit flags, each typed like its default; unknown json keys rejected."""
    defaults = parameters(run)
    given = {}
    path = getattr(args, "config", None)
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                given = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        if not isinstance(given, dict):
            raise ConfigError("a config file holds one JSON object")
        unknown = set(given) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    given.update({key: getattr(args, key) for key in defaults if getattr(args, key, None) is not None})
    return {**defaults, **{key: _typed(key, val, defaults[key]) for key, val in given.items()}}


def _typed(key, value, default):
    """A flag text or config-file value converted to the type of `default`; NaN, ±inf and booleans refused."""
    grid = default is None or isinstance(default, dict)  # a JSON list or {"min", "max", "steps"}
    try:
        if grid:
            return _grid(json.loads(value) if isinstance(value, str) else value)
        if isinstance(default, str):
            if not isinstance(value, str):
                raise TypeError
            return value
        if isinstance(value, bool):
            raise TypeError
        number = float(value)
        if not math.isfinite(number) or (isinstance(default, int) and not number.is_integer()):
            raise ValueError
        return int(number) if isinstance(default, int) else number
    except (TypeError, ValueError, OverflowError) as exc:
        kind = "a grid" if grid else "a finite " + type(default).__name__
        raise ConfigError(f"{key}: cannot read {value!r} as {kind}") from exc


def _grid(spec):
    """A non-empty list of finite numbers, or {"min", "max", "steps"} with finite numbers and an integral steps >= 1."""
    if isinstance(spec, list):
        ok = bool(spec) and all(_is_number(v) for v in spec)
    else:
        ok = (
            isinstance(spec, dict)
            and set(spec) == {"min", "max", "steps"}
            and all(_is_number(v) for v in spec.values())
            and float(spec["steps"]).is_integer()
            and spec["steps"] >= 1
        )
    if not ok:
        raise ValueError
    return {**spec, "steps": int(spec["steps"])} if isinstance(spec, dict) else spec


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


@contextmanager
def _user_input():
    """Objects built from parameters before a sweep: a ValueError there is a config error."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# --------------------------------------------------------------------------
# commands: keyword parameters, defaults included; each imports the modules it runs, so a launch loads no others,
# and returns (CSV header or None, 2-D float rows, summary extras)


def cmd_measures(*, r=0.5):
    from . import entanglement, gaussian
    with _user_input():  # an r whose nu~ misses entanglement.PT_ERROR_BOUND, or whose cosh 2r overflows
        state = gaussian.two_mode_squeezed_state(r)
        extras = {
            "negativity": entanglement.negativity_gaussian(state),
            "log_negativity": entanglement.log_negativity_gaussian(state),
            "nu_error_estimate": entanglement.pt_eigenvalue_error(state),
        }
    return None, None, {**extras, "entropy": entanglement.entropy_of_entanglement(state, [0])}


def cmd_resonance_sweep(
    *, k=1, kp=2, repetitions=5, h=1e-4, lam=1.0, mass=0.0, n_max=20, tau1=grid(0.01, 2.0, 50), tau2=grid(0.0, 2.0, 50)
):
    from . import boson
    tau1, tau2 = grid_values(tau1), grid_values(tau2)
    with _user_input():  # the cavity, the mode labels and the segment's limits
        cfg = boson.BosonCavityConfig(mass=mass, n_max=n_max, h=h)
        if repetitions < 0:
            raise ValueError("repetitions must be non-negative")
        nu = 2.0 * repetitions * boson.closed_form_b_magnitude(cfg, tau1[:, None], tau2[None, :], lam, k, kp)
    t1, t2 = np.meshgrid(tau1, tau2, indexing="ij")
    rows = np.column_stack([t1.ravel(), t2.ravel(), nu.ravel()])
    # points where resonance_negativity would warn, and the largest relative h^2 term: N |B| = nu_correction / 2
    flagged = int(np.count_nonzero(nu / 2.0 >= boson.NB_VALIDITY_BOUND))
    extras = {"validity_warnings": flagged, "largest_correction": float(np.max(nu)) / 2.0}
    return ["tau1", "tau2", "nu_correction"], rows, extras


def cmd_teleport_fidelity(*, r=0.5, kp=3, n_max=20, tau=grid(0.0, 2.0, 41), h=grid(0.0, 0.245, 20)):
    from . import boson, teleport
    taus, hs = grid_values(tau), grid_values(h)
    with _user_input():  # n_max, then r, k', |h| < 2 and tau >= 0 with finite phases over the whole grid
        cfg = boson.BosonCavityConfig(n_max=n_max)
        fid, opt, correction = teleport.block_fidelities(r, kp, cfg, taus[:, None], hs[None, :])
        # truncation probe: the optimal fidelity over the grid with n_max doubled (its phases run faster)
        doubled = boson.BosonCavityConfig(n_max=2 * n_max)
        shift = float(np.max(np.abs(teleport.block_fidelities(r, kp, doubled, taus[:, None], hs[None, :])[1] - opt)))
    t, a = np.meshgrid(taus, hs, indexing="ij")
    # points whose relative h^2 correction reaches the bound resonance-sweep counts against
    flagged = int(np.count_nonzero(correction >= boson.NB_VALIDITY_BOUND))
    extras = {"validity_warnings": flagged, "largest_correction": float(np.max(correction)), "perturbative_ok": flagged == 0}
    extras.update(n_max_doubling_shift=shift, converged=shift < 1e-6)
    rows = np.column_stack([t.ravel(), a.ravel(), fid.ravel(), opt.ravel()])
    return ["tau", "a", "fidelity", "fidelity_opt"], rows, extras


def cmd_fermion_negativity(*, u=grid(0.0, 1.0, 101), n_side=200):
    from . import fermion
    us, times = grid_values(u), grid_values(u, 2.0)  # travel times 2u
    header = ["u"] + [f"f_s{si}_k{k}" for si in range(4) for k in (1, -1)]
    with _user_input():  # the window and the travel times
        cfgs = [fermion.FermionCavityConfig(s=s, n_side=n_side) for s in (0.0, 0.25, 0.5, 0.75)]
        rows = np.column_stack([us, *(fermion.f_k(cfg, times, k) for cfg in cfgs for k in (1, -1))])
    # convergence probe: window doubling at a generic point (cfgs[0] has s = 0)
    probe_small = fermion.f_k(cfgs[0], 0.9, 1)
    probe_big = fermion.f_k(fermion.FermionCavityConfig(s=0.0, n_side=2 * n_side), 0.9, 1)
    shift = abs(probe_big - probe_small)
    return header, rows, {"window_doubling_shift": shift, "converged": shift < 1e-6}


def cmd_oneway_surface(*, s=0.0, k=1, n_side=200, u=grid(0.0, 1.0, 64), v=grid(0.0, 1.0, 64)):
    from . import fermion
    us, vs, times = grid_values(u), grid_values(v), grid_values(v, 2.0)
    with _user_input():  # the window, the mode label and the travel times 2u and 2v
        cfg = fermion.FermionCavityConfig(s=s, n_side=n_side)
        # one call per u: a single (u, v, window) broadcast would hold tens of MB per temporary
        f = np.array([fermion.oneway_f(cfg, tu, times, k) for tu in grid_values(u, 2.0)])
    ug, vg = np.meshgrid(us, vs, indexing="ij")
    return ["u", "v", "f_oneway"], np.column_stack([ug.ravel(), vg.ravel(), f.ravel()]), {}


def cmd_detector_rate(
    *, trajectory="accelerated", profile="point", dim="1+1", a=1.0, mass=0.0, sigma=1.0, peak=5.0,
    gap=grid(-5.0, 5.0, 101),
):
    from . import udw
    gaps = grid_values(gap)
    if trajectory not in ("inertial", "accelerated"):
        raise ConfigError("trajectory must be 'inertial' or 'accelerated'")
    if trajectory == "accelerated" and a <= 0:
        raise ConfigError("the accelerated trajectory needs a positive acceleration --a")
    if dim not in udw.DIMS:
        raise ConfigError(f"dim must be one of {list(udw.DIMS)}, got {dim!r}")
    with _user_input():
        shape = udw.SpatialProfile(kind=profile, sigma=sigma, peak=peak)
        det = udw.DetectorParams(gap=gaps, mass=mass, accel=a)
    if trajectory == "inertial":
        rates = udw.transition_rate_inertial(det, shape)
    else:
        rates = udw.transition_rate_accelerated(det, shape, dim=dim)
    return ["gap", "rate"], np.column_stack([gaps, rates]), {}


def cmd_nonpert_evolve(*, coupling=1.0, t_sq=80.0, gap=2 * np.pi, t_end=40.0, tau=None):
    from . import nonpert
    basis = nonpert.detector_field_basis()
    with _user_input():  # the schedule refuses t_mod = sqrt(t_sq) <= 0
        schedule = nonpert.detector_example_schedule(basis, coupling=coupling, t_mod=np.sqrt(max(t_sq, 0.0)), gap=gap)
    t_eval = np.linspace(0.0, t_end, 201) if tau is None else grid_values(tau)
    if t_eval[0] < 0.0 or (np.diff(t_eval) <= 0.0).any():
        raise ConfigError("--tau (or 0 to --t-end) must start at or above 0 and increase strictly")
    sol = nonpert.solve_factors(basis, schedule, (0.0, t_eval[-1]), t_eval=t_eval)
    nd = nonpert.detector_number_expectation(nonpert.covariance_trajectory(sol.s))
    rows = np.column_stack([sol.t, nd, sol.y.T])
    header = ["tau", "n_d"] + [f"F{j+1}" for j in range(basis.dim)]
    final_f = sol.y[:, -1]
    zero_factors = [basis.labels[j] for j in range(basis.dim) if abs(final_f[j]) < 1e-10]
    work = {k: getattr(sol, k) for k in ("magnus_steps", "step", "step_probe", "newton_iterations", "subdivisions")}
    return header, rows, {"zero_factors": zero_factors, **work}


def cmd_box_entangle(
    *, v=0.5, gap=np.sqrt(2.0) * np.pi, epsilon=1.0, n_cut=8, h=grid(0.025, 1.0, 40), kappa=grid(0.0, 8.0, 40)
):
    from . import boxpair
    h, kap = (x.ravel() for x in np.meshgrid(grid_values(h), grid_values(kappa), indexing="ij"))
    with _user_input():  # every grid point's scenario is checked before the sweep
        scenarios = [
            boxpair.BoxScenario(h=hi, kappa=ki, v=v, gap=gap, epsilon=epsilon, n_cut=n_cut)
            for hi, ki in zip(h.tolist(), kap.tolist())
        ]
    results = [boxpair.cavity_entanglement(scen) for scen in scenarios]
    # flagged: grid points with no emission amplitude, written as entropy 0
    flagged = sum(res["flagged"] for res in results)
    rows = np.column_stack([h, kap, [res["entropy"] for res in results]])
    return ["h", "kappa", "entropy"], rows, {"flagged": flagged}


COMMANDS = {
    "measures": cmd_measures,
    "resonance-sweep": cmd_resonance_sweep,
    "teleport-fidelity": cmd_teleport_fidelity,
    "fermion-negativity": cmd_fermion_negativity,
    "oneway-surface": cmd_oneway_surface,
    "detector-rate": cmd_detector_rate,
    "nonpert-evolve": cmd_nonpert_evolve,
    "box-entangle": cmd_box_entangle,
}


def build_parser(command=None):
    """The `rqi` parser: given a command's name, with that command's subparser alone (usage still lists them all)."""
    one = command in COMMANDS
    parser = argparse.ArgumentParser(prog="rqi", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="{%s}" % ",".join(COMMANDS) if one else None)
    for name, run in [(command, COMMANDS[command])] if one else COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)  # no prefix of one flag may set another
        p.add_argument("--config", default=None, help="JSON parameter file")
        p.add_argument("--out", default=None, help="output prefix (default: the command name)")
        for key in parameters(run):  # values stay text here; merge_config types them
            p.add_argument("--" + key.replace("_", "-"), default=None, dest=key)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    run = COMMANDS[args.command]
    out_prefix = args.out or args.command.replace("-", "_")
    try:
        params = merge_config(run, args)
        header, rows, extras = run(**params)
        summary = {"command": args.command, "params": params}
        if header is not None:
            bad = [name for name, ok in zip(header, np.isfinite(rows).all(axis=0)) if not ok]
            if bad:  # exit 0 never writes a non-finite cell
                raise FloatingPointError(f"column {bad[0]!r} has non-finite cells")
            write_csv(out_prefix + ".csv", header, rows)
            summary["rows"] = len(rows)
        write_summary(out_prefix + ".json", {**summary, **extras})
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, ValueError, RuntimeError) as exc:  # numeric failures; anything else is a bug and raises
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
