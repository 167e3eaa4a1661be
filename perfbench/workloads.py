"""The benchmark workloads: seeded inputs, one compute pass, verification.

Four parts each produce one figure data set; a workload runs one part or
several back to back, and a pass produces one verified data set per part.
``compute`` is the timed part: the ``rqi`` CLI calls (argument parsing,
numerics, CSV and JSON writing) and the library calls a user makes to check
them (the fixed-step oracle, the composed-product route).  ``verify`` is untimed and touches no ``rqi`` code:
it reads the CSVs back and counts the units that fail their checks.

Inputs come from ``inputs(seed, index, size)``.  Pass 0 of every run is the
canonical grid, the one the references in ``refs.json`` were produced on, so
every run checks its outputs against them whatever the seed.  Every later
pass gets its own jitter from ``(seed, index)``, so a cache keyed on argument
values cannot turn later passes into lookups; the jitter is small, so every
pass costs about the same.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from contextlib import nullcontext

import numpy as np

from rqi import boson, cli, nonpert

LN2 = math.log(2.0)

# Reference tolerances, none looser than the repo's own test for the quantity.
TOL_BOX_ENTROPY = 1e-7  # FD-vs-Bessel engine bound, tests/test_boxpair.py
TOL_ND_ORACLE = 1e-4  # N_d against the fixed-step oracle, acceptance 09
TOL_ND_REF = 1e-6  # N_d against the seed-commit values (tighter than 1e-4)
TOL_KMS = 1e-6  # KMS ratio residual, acceptance 08
TOL_RATE_REL = 1e-8  # smeared 3+1 rates against the seed-commit values
TOL_CLOSED_FORM = 1e-12  # closed-form surfaces (resonance, teleport)
TOL_F = 1e-10  # f_k / one-way sums: zero lines, parity, references
TOL_F_ZERO = 1e-8  # f_k zeros at u = 0, 1 (acceptance 06)
TOL_COMPOSED_REL = 1e-8  # composed-route negativity against the seed commit
TOL_LINEAR = 0.01  # on-resonance linear growth and first-order agreement, acceptance 04


def no_span(_name):
    return nullcontext()


def _rng(seed, index):
    return np.random.default_rng([int(seed), int(index)])


def _floats(values):
    return [float(x) for x in values]


def run_cli(span, outdir, command, **params):
    """``rqi <command> --out <outdir>/<command> --<key> <value> ...``; returns the exit code."""
    out = outdir / command.replace("-", "_")
    argv = [command, "--out", str(out)]
    for key, val in params.items():
        text = json.dumps(val) if isinstance(val, (list, dict)) else str(val)
        argv += ["--" + key.replace("_", "-"), text]
    with span("cli." + command):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse rejects the call
            return exc.code if isinstance(exc.code, int) else 2


class Table:
    """A CSV written by the CLI: header, float rows (bad rows read as NaN), digest."""

    def __init__(self, path):
        data = path.read_bytes()
        self.sha256 = hashlib.sha256(data).hexdigest()
        lines = data.decode("utf-8", errors="replace").splitlines()
        self.header = lines[0].split(",") if lines else []
        width = len(self.header)
        rows = []
        for line in lines[1:]:
            try:
                vals = [float(x) for x in line.split(",")]
            except ValueError:
                vals = []
            rows.append(vals if len(vals) == width else [math.nan] * width)
        self.values = np.array(rows, dtype=float).reshape(len(rows), width)

    def col(self, name):
        return self.values[:, self.header.index(name)]


class Verdict:
    """Units attempted and failed in one pass, with the first failure notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.digests = {}

    def add(self, label, ok):
        ok = np.asarray(ok, dtype=bool)
        self.attempted += ok.size
        bad = int(ok.size - np.count_nonzero(ok))
        self.failed += bad
        if bad and len(self.notes) < 10:
            first = int(np.flatnonzero(~ok)[0])
            self.notes.append(f"{label}: {bad} of {ok.size} units failed (first at row {first})")

    def absorb(self, other, prefix):
        """Add a part's verdict to this one, labelled with the part's name."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes += [f"{prefix}: {n}" for n in other.notes][: max(0, 10 - len(self.notes))]
        self.digests.update({f"{prefix}/{k}": d for k, d in other.digests.items()})

    def table(self, outdir, command, rc, expected_rows):
        """Read a command's CSV; None (and every unit failed) if the call failed."""
        path = outdir / (command.replace("-", "_") + ".csv")
        if rc != 0 or not path.is_file():
            self.add(f"{command} exit {rc}", np.zeros(expected_rows, dtype=bool))
            return None
        table = Table(path)
        self.digests[command] = table.sha256
        if table.values.shape[0] != expected_rows:
            self.add(f"{command} row count {table.values.shape[0]} != {expected_rows}", np.zeros(expected_rows, dtype=bool))
            return None
        return table


def _ref_ok(got, ref, abs_tol=0.0, rel_tol=0.0):
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    return np.abs(got - ref) <= abs_tol + rel_tol * np.abs(ref)


def _sample_rows(n, count=12):
    return sorted(set(np.linspace(0, n - 1, min(n, count)).astype(int).tolist()))


# --------------------------------------------------------------------------
# box-entangle


class BoxEntangle:
    """``rqi box-entangle`` on h x kappa; h = 0 (closed form) up to 2v = 1."""

    name = "box-entangle"
    why = "boxpair does over 95% of the work: Rindler spectrum, overlap quadrature and entropy per grid point"

    def inputs(self, seed, index, size="full"):
        if size == "tiny":
            return {"h": [0.0, 0.5], "kappa": [0.0, 4.0]}
        # every 10th h of the CLI's 40-point figure grid plus h = 0; every 13th kappa
        h_fig = np.linspace(0.025, 1.0, 40)[9::10]
        k_fig = np.linspace(0.0, 8.0, 40)[::13]
        hs, ks = h_fig.copy(), k_fig.copy()
        if index > 0:
            rng = _rng(seed, index)
            hs[:-1] += rng.uniform(-0.08, 0.08, hs.size - 1)  # keep h = 2v
            ks[1:-1] += rng.uniform(-0.8, 0.8, ks.size - 2)  # keep kappa = 0, 8
        return {"h": [0.0] + _floats(hs), "kappa": _floats(ks)}

    def compute(self, inp, outdir, span=no_span):
        rc = run_cli(span, outdir, self.name, h=inp["h"], kappa=inp["kappa"])
        return {"rc": rc}

    def verify(self, inp, outdir, result, refs=None):
        v = Verdict()
        grid = np.array([(h, k) for h in inp["h"] for k in inp["kappa"]])  # the CLI's row order
        t = v.table(outdir, self.name, result["rc"], len(grid))
        if t is None:
            return v
        ent = t.col("entropy")
        ok = np.isfinite(ent) & (ent >= 0.0) & (ent <= LN2 + 1e-12)
        ok &= (t.col("h") == grid[:, 0]) & (t.col("kappa") == grid[:, 1])
        if refs is not None:
            ok &= _ref_ok(ent, refs["entropy"], abs_tol=TOL_BOX_ENTROPY)
        v.add("box entropy", ok)
        return v

    def reference(self, inp, outdir, result):
        return {"entropy": Table(outdir / "box_entangle.csv").col("entropy").tolist()}


# --------------------------------------------------------------------------
# nonpert-oracle


class NonpertOracle:
    """``rqi nonpert-evolve`` at its defaults, then the fixed-step oracle on the same schedule."""

    name = "nonpert-oracle"
    why = "nonpert alone: adaptive factor ODE with thousands of heavy RHS calls beside tens of thousands of tiny oracle steps"
    oracle_dt = 1e-3

    def inputs(self, seed, index, size="full"):
        inp = {"coupling": 1.0, "t_sq": 80.0, "gap": 2.0 * np.pi, "t_end": 40.0, "n_out": 201}
        if size == "tiny":
            inp.update(t_end=4.0, n_out=21)
        if index > 0:
            rng = _rng(seed, index)
            inp["coupling"] *= 1.0 + rng.uniform(-0.02, 0.02)
            inp["t_sq"] *= 1.0 + rng.uniform(-0.02, 0.02)
            inp["gap"] *= 1.0 + rng.uniform(-0.01, 0.01)
        return inp

    def grid(self, inp):
        return np.linspace(0.0, inp["t_end"], inp["n_out"])

    def compute(self, inp, outdir, span=no_span):
        rc = run_cli(
            span,
            outdir,
            "nonpert-evolve",
            coupling=inp["coupling"],
            t_sq=inp["t_sq"],
            gap=inp["gap"],
            t_end=inp["t_end"],
            tau={"min": 0.0, "max": inp["t_end"], "steps": inp["n_out"]},
        )
        try:
            basis = nonpert.detector_field_basis()
            schedule = nonpert.detector_example_schedule(
                basis, coupling=inp["coupling"], t_mod=np.sqrt(inp["t_sq"]), gap=inp["gap"]
            )
            gammas = nonpert.product_integrator_oracle(basis, schedule, self.grid(inp), dt=self.oracle_dt)
            nd_oracle = [nonpert.detector_number_expectation(g) for g in gammas]
        except Exception as exc:  # noqa: BLE001 - a raising oracle fails its units
            nd_oracle = [math.nan] * inp["n_out"]
            print(f"oracle failed: {exc!r}", file=sys.stderr)
        return {"rc": rc, "nd_oracle": np.array(nd_oracle, dtype=float)}

    def verify(self, inp, outdir, result, refs=None):
        v = Verdict()
        grid = self.grid(inp)
        t = v.table(outdir, "nonpert-evolve", result["rc"], grid.size)
        if t is None:
            return v
        nd = t.col("n_d")
        oracle = result["nd_oracle"]
        if oracle.shape != nd.shape:
            oracle = np.full(nd.shape, math.nan)
        ok = np.isfinite(nd) & (nd >= -1e-12) & (t.col("tau") == grid)
        ok &= np.abs(nd - oracle) < TOL_ND_ORACLE
        if refs is not None:
            ok &= _ref_ok(nd, refs["n_d"], abs_tol=TOL_ND_REF)
            ok &= _ref_ok(oracle, refs["n_d_oracle"], abs_tol=TOL_ND_REF)
        v.add("N_d vs oracle", ok)
        return v

    def reference(self, inp, outdir, result):
        nd = Table(outdir / "nonpert_evolve.csv").col("n_d")
        return {"n_d": nd.tolist(), "n_d_oracle": result["nd_oracle"].tolist()}


# --------------------------------------------------------------------------
# detector-rates


class DetectorRates:
    """``rqi detector-rate`` in 3+1: massless Gaussian and massive point-like, +-gap grid with 0."""

    name = "detector-rates"
    why = "udw and bessel alone: nested quad over K_{i nu}; +-gap pairs share Xi(|gap|), a cache or shortcut shows only here"
    # (profile, field mass); sigma and peak are the CLI defaults
    profiles = (("gaussian", 0.0), ("point", 0.5))

    def inputs(self, seed, index, size="full"):
        g_max, n_pos, accels = 5.0, 5, [0.5, 2.0]
        if size == "tiny":
            g_max, n_pos, accels = 2.0, 1, [1.0]
        if index > 0:
            rng = _rng(seed, index)
            g_max *= 1.0 + rng.uniform(-0.05, 0.05)
            accels = [a * (1.0 + rng.uniform(-0.05, 0.05)) for a in accels]
        pos = g_max * np.arange(1, n_pos + 1) / n_pos
        # built from one half so that every +gap has its exact -gap partner
        gaps = np.concatenate([-pos[::-1], [0.0], pos])
        return {"gap": _floats(gaps), "a": _floats(accels)}

    def calls(self, inp):
        """(output directory, profile, field mass, acceleration) of each CLI call."""
        return [(f"detector-rate-{prof}-{i}", prof, mass, a) for prof, mass in self.profiles for i, a in enumerate(inp["a"])]

    def compute(self, inp, outdir, span=no_span):
        rcs = []
        for sub, prof, mass, a in self.calls(inp):
            (outdir / sub).mkdir(parents=True, exist_ok=True)
            rcs.append(
                run_cli(span, outdir / sub, "detector-rate", trajectory="accelerated", dim="3+1", profile=prof, mass=mass, a=a, gap=inp["gap"])
            )
        return {"rcs": rcs}

    def _tables(self, v, inp, outdir, result):
        for (sub, _, _, a), rc in zip(self.calls(inp), result["rcs"]):
            t = v.table(outdir / sub, "detector-rate", rc, len(inp["gap"]))
            if t is not None:
                v.digests[sub] = v.digests.pop("detector-rate")
            yield sub, a, t

    def verify(self, inp, outdir, result, refs=None):
        v = Verdict()
        gaps = np.array(inp["gap"])
        pair = gaps.size - 1 - np.arange(gaps.size)  # index of -gap
        for sub, a, t in self._tables(v, inp, outdir, result):
            if t is None:
                continue
            rate = t.col("rate")
            ok = np.isfinite(rate) & (rate > 0.0) & (t.col("gap") == gaps)
            # F(|gap|) / F(-|gap|) = exp(-2 pi |gap| / a); both rows of a pair share the verdict
            up, down = np.where(gaps > 0, rate, rate[pair]), np.where(gaps > 0, rate[pair], rate)
            with np.errstate(divide="ignore", invalid="ignore"):
                kms = np.abs(up / down - np.exp(-2.0 * np.pi * np.abs(gaps) / a))
            ok &= (gaps == 0.0) | (kms < TOL_KMS)
            if refs is not None:
                ok &= _ref_ok(rate, refs[sub], rel_tol=TOL_RATE_REL)
            v.add(sub, ok)
        return v

    def reference(self, inp, outdir, result):
        return {sub: t.col("rate").tolist() for sub, _, t in self._tables(Verdict(), inp, outdir, result)}


# --------------------------------------------------------------------------
# cavity-sweeps


# resonance-sweep at the CLI defaults (k = 1, k' = 2, N = 5, h = 1e-4, massless):
# nu = 2 N |B| and |B| = h beta1_12 |1 - G| |1 + G'| <= 4 h beta1_12
_BETA1_12 = 2.0 * np.pi**2 * 2.0 / (np.sqrt(np.pi * 2.0 * np.pi) * (3.0 * np.pi) ** 3)
RESONANCE_NU_MAX = 2 * 5 * 4 * 1e-4 * _BETA1_12 * (1.0 + 1e-12)


class CavitySweeps:
    """Many sub-millisecond points: four cheap CLI surfaces plus the composed-product route."""

    name = "cavity-sweeps"
    why = "tens of thousands of cheap points: call overhead, small dense algebra, SymplecticMap checks, CSV writing"
    reps = 5  # repetitions 1..5 on the composed route, as acceptance 04
    r = 0.5  # teleport squeezing (CLI default)

    def inputs(self, seed, index, size="full"):
        n_res, n_tau, n_h, n_uv, n_u, n_travel = 200, 61, 30, 96, 101, 24
        if size == "tiny":
            n_res, n_tau, n_h, n_uv, n_u, n_travel = 10, 5, 3, 6, 11, 4
        res = {"tau1": [0.01, 2.0], "tau2": [0.0, 2.0]}
        tele = {"tau": [0.0, 2.0], "h": [0.0, 0.245]}
        uv = np.linspace(0.0, 1.0, n_uv)
        # travel times j/12: even j are the resonant n/6, odd j are off resonance
        travel = np.arange(1, n_travel + 1) / 12.0
        if index > 0:
            rng = _rng(seed, index)
            res["tau1"] = [0.01 + rng.uniform(0.0, 0.01), 2.0 - rng.uniform(0.0, 0.02)]
            res["tau2"] = [rng.uniform(0.0, 0.01), 2.0 - rng.uniform(0.0, 0.02)]
            tele["tau"][1] -= rng.uniform(0.0, 0.05)
            tele["h"][1] -= rng.uniform(0.0, 0.01)  # h = 0 column kept
            # mirror-symmetric jitter keeps the zero lines u = 0, u = 1, u + v = 1
            half = n_uv // 2
            uv[1:half] += rng.uniform(-0.3, 0.3, half - 1) * (uv[1] - uv[0])
            uv[n_uv - half :] = 1.0 - uv[:half][::-1]
            travel[0::2] += rng.uniform(-1.0 / 48.0, 1.0 / 48.0, travel[0::2].size)
        return {
            "resonance": {k: {"min": lo, "max": hi, "steps": n_res} for k, (lo, hi) in res.items()},
            "teleport": {
                "tau": {"min": tele["tau"][0], "max": tele["tau"][1], "steps": n_tau},
                "h": {"min": tele["h"][0], "max": tele["h"][1], "steps": n_h},
            },
            "oneway": _floats(uv),
            # fermion-negativity stays on the figure's u spacing: f_k's truncation
            # guard rightly refuses u below about 0.005 at n_side = 200
            "fermion": {"min": 0.0, "max": 1.0, "steps": n_u},
            "travel": _floats(travel),
        }

    def compute(self, inp, outdir, span=no_span):
        rcs = {
            "resonance-sweep": run_cli(span, outdir, "resonance-sweep", **inp["resonance"]),
            "teleport-fidelity": run_cli(span, outdir, "teleport-fidelity", **inp["teleport"]),
            "oneway-surface": run_cli(span, outdir, "oneway-surface", u=inp["oneway"], v=inp["oneway"]),
            "fermion-negativity": run_cli(span, outdir, "fermion-negativity", u=inp["fermion"]),
        }
        cfg = boson.BosonCavityConfig(n_max=20, h=1e-4)
        travel = inp["travel"]
        exact = np.full((len(travel), self.reps), math.nan)
        closed = np.full(len(travel), math.nan)
        for i, tau in enumerate(travel):
            try:
                seg = boson.standard_segment(cfg.h, tau, tau, 1.0)
                closed[i] = boson.closed_form_b_magnitude(cfg, tau, tau, 1.0, 1, 2)
                for n in range(1, self.reps + 1):
                    exact[i, n - 1] = boson.segment_negativity_exact(cfg, seg, 1, 2, n)
            except Exception as exc:  # noqa: BLE001 - a raising call fails its units
                print(f"composed route failed at tau={tau}: {exc!r}", file=sys.stderr)
        return {"rcs": rcs, "exact": exact, "closed": closed}

    def verify(self, inp, outdir, result, refs=None):
        v = Verdict()
        rcs = result["rcs"]
        refs = refs or {}

        res = inp["resonance"]
        t = v.table(outdir, "resonance-sweep", rcs["resonance-sweep"], res["tau1"]["steps"] * res["tau2"]["steps"])
        if t is not None:
            nu = t.col("nu_correction")
            ok = np.isfinite(nu) & (nu >= 0.0) & (nu <= RESONANCE_NU_MAX)
            ok &= self._refs(refs, "resonance", nu, rel_tol=TOL_CLOSED_FORM)
            v.add("resonance-sweep", ok)

        tele = inp["teleport"]
        t = v.table(outdir, "teleport-fidelity", rcs["teleport-fidelity"], tele["tau"]["steps"] * tele["h"]["steps"])
        if t is not None:
            fid, opt, a = t.col("fidelity"), t.col("fidelity_opt"), t.col("a")
            ok = np.isfinite(fid) & np.isfinite(opt)
            # the optimal fidelity is in [1/2, 1]; the uncorrected one can fall below
            # the classical 1/2 away from phi = 2 pi n, but never above the optimum
            ok &= (opt >= 0.5) & (opt <= 1.0) & (fid > 0.0) & (fid <= opt + TOL_CLOSED_FORM)
            ideal = 1.0 / (1.0 + np.exp(-2.0 * self.r))
            ok &= (a != 0.0) | (np.abs(opt - ideal) < TOL_CLOSED_FORM)
            ok &= self._refs(refs, "teleport", fid, abs_tol=TOL_CLOSED_FORM)
            v.add("teleport-fidelity", ok)

        uv = np.array(inp["oneway"])
        t = v.table(outdir, "oneway-surface", rcs["oneway-surface"], uv.size**2)
        if t is not None:
            u, w, f = t.col("u"), t.col("v"), t.col("f_oneway")
            zero_line = (u == 0.0) | (u == 1.0) | (np.abs(u + w - 1.0) < 1e-12)
            ok = np.isfinite(f) & (f >= -1e-15) & (~zero_line | (np.abs(f) < TOL_F))
            ok &= self._refs(refs, "oneway", f, abs_tol=TOL_F)
            v.add("oneway-surface", ok)

        t = v.table(outdir, "fermion-negativity", rcs["fermion-negativity"], inp["fermion"]["steps"])
        if t is not None:
            u = t.col("u")
            fs = t.values[:, 1:]
            ok = np.all(np.isfinite(fs) & (fs >= -1e-15), axis=1)
            ok &= ((u != 0.0) & (u != 1.0)) | np.all(np.abs(fs) < TOL_F_ZERO, axis=1)
            ok &= np.abs(t.col("f_s0_k1") - t.col("f_s0_k-1")) < TOL_F  # parity at s = 0
            ok &= np.all(self._refs(refs, "fermion", fs, abs_tol=TOL_F), axis=1)
            v.add("fermion-negativity", ok)

        exact, closed = result["exact"], result["closed"]
        n = np.arange(1, self.reps + 1)
        slope = exact[:, :1]
        ok = np.isfinite(exact) & (exact >= 0.0) & (exact <= n * slope * (1 + TOL_LINEAR) + 1e-12)
        ok[:, 0] &= np.abs(exact[:, 0] - closed) <= TOL_LINEAR * closed + 1e-12
        sixths = np.array(inp["travel"]) * 6.0
        on_res = (np.abs(sixths - np.round(sixths)) < 1e-9)[:, None]
        ok &= ~on_res | (np.abs(exact - n * slope) <= TOL_LINEAR * n * slope + 1e-12)
        if "composed" in refs:
            ok &= _ref_ok(exact, refs["composed"], abs_tol=1e-18, rel_tol=TOL_COMPOSED_REL)
        v.add("segment_negativity_exact", ok.ravel())
        return v

    @staticmethod
    def _refs(refs, key, values, abs_tol=0.0, rel_tol=0.0):
        """Sampled rows against the seed-commit values; all-true without references."""
        ok = np.ones(values.shape, dtype=bool)
        if key in refs:
            rows = refs[key]["rows"]
            ok[rows] = _ref_ok(values[rows], refs[key]["values"], abs_tol=abs_tol, rel_tol=rel_tol)
        return ok

    def reference(self, inp, outdir, result):
        out = {}
        for key, csv, col in (
            ("resonance", "resonance_sweep", "nu_correction"),
            ("teleport", "teleport_fidelity", "fidelity"),
            ("oneway", "oneway_surface", "f_oneway"),
        ):
            vals = Table(outdir / f"{csv}.csv").col(col)
            rows = _sample_rows(vals.size)
            out[key] = {"rows": rows, "values": vals[rows].tolist()}
        fs = Table(outdir / "fermion_negativity.csv").values[:, 1:]
        rows = _sample_rows(fs.shape[0])
        out["fermion"] = {"rows": rows, "values": fs[rows].tolist()}
        out["composed"] = result["exact"].tolist()
        return out


# --------------------------------------------------------------------------
# workloads


class Composite:
    """Parts run back to back in one pass, each in its own directory; their verdicts add up.

    Inputs, results and references are dicts keyed by part name.
    """

    def __init__(self, name, why, parts):
        self.name, self.why, self.parts = name, why, parts

    def inputs(self, seed, index, size="full"):
        return {p.name: p.inputs(seed, index, size) for p in self.parts}

    def compute(self, inp, outdir, span=no_span):
        out = {}
        for p in self.parts:
            (outdir / p.name).mkdir(parents=True, exist_ok=True)
            out[p.name] = p.compute(inp[p.name], outdir / p.name, span)
        return out

    def verify(self, inp, outdir, result, refs=None):
        v = Verdict()
        for p in self.parts:
            part_refs = refs[p.name] if refs is not None else None
            v.absorb(p.verify(inp[p.name], outdir / p.name, result[p.name], part_refs), p.name)
        return v

    def reference(self, inp, outdir, result):
        return {p.name: p.reference(inp[p.name], outdir / p.name, result[p.name]) for p in self.parts}


PARTS = {p.name: p for p in (BoxEntangle(), NonpertOracle(), DetectorRates(), CavitySweeps())}

# Few workloads with long runs: on a shared host the time of one part varies
# with the host's load over tens of seconds, so three of the four parts share
# one workload and every run of it lasts long enough to average that out.
WORKLOADS = {
    w.name: w
    for w in (
        Composite(
            "heavy-points",
            "few costly points: boxpair spectra and overlaps, the nonpert ODE beside its oracle, the nested 3+1 udw/bessel quadrature",
            [PARTS["box-entangle"], PARTS["nonpert-oracle"], PARTS["detector-rates"]],
        ),
        PARTS["cavity-sweeps"],
    )
}
