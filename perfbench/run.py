"""Benchmark: time to a verified figure data set, per workload.

    python3 perfbench/run.py --workload heavy-points --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.  One
client runs passes closed-loop (the next pass starts when the previous one
has finished and been verified) for ``--seconds``: a pass starts only if a
typical pass would end within them, and at least one pass runs.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` the first half of the time runs untraced and the second half
traced, and the line carries the per-layer metrics.  Metric names and units
come from ``BENCHMARK.json``.  Untraced pass times are also rescaled to a
reference host speed by calibration slices run during the pass
(``timed_pass``).  Pass 0 of every run is the canonical grid and
is also checked against ``refs.json``.  The line before it is
the run's report: provenance, pass times, failures and CSV digests.  The
same report is written to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PINS = ("RQI_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_LAUNCHES = 5  # timed fresh-interpreter launches behind setup_s
SIZE = "full"  # grid size passed to the workloads; the smoke tests set "tiny"
TRACE_INDEX = 1000  # traced passes take inputs 1000, 1001, ...: fixed by the seed, apart from the untraced ones
CAL_REF_S = 0.065  # time of calibration_slice on the reference host (perfbench/README.md)


class SetupError(Exception):
    pass


def pin_threads():
    """Pin every thread pool to one thread; False if numpy was loaded before the pins."""
    for key in PINS:
        os.environ[key] = "1"
    return "numpy" not in sys.modules


def probe_setup():
    """Cold start of ``import rqi.cli`` in fresh interpreters, with ``-X importtime``.

    One discarded warm-up launch writes the bytecode cache; the median of the
    remaining launches is ``setup_s``.  Import times are cumulative
    milliseconds per module, medians over the same launches.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-X", "importtime", "-c", "import rqi.cli"]
    walls, per_module = [], {}
    for i in range(SETUP_LAUNCHES + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise SetupError(f"'import rqi.cli' failed:\n{proc.stderr[-2000:]}")
        if i == 0:
            continue
        walls.append(wall)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                per_module.setdefault(parts[2].strip(), []).append(int(parts[1]) / 1e3)
    import_ms = {mod: statistics.median(v) for mod, v in per_module.items() if mod.startswith("rqi")}
    return {"setup_s": statistics.median(walls), "launch_s": walls, "import_ms": import_ms}


def calibration_slice():
    """Seconds taken by a fixed mix of the kinds of work the passes do, with no rqi code.

    Quadrature over a Python integrand, small dense linear algebra, and plain
    Python arithmetic and formatting.  On a shared host the speed of such code
    drifts by tens of percent within seconds and over minutes; the slice's
    time follows it, so a pass time divided by the slices run during the pass
    does not.
    """
    import numpy as np
    from scipy.integrate import quad
    from scipy.linalg import expm

    t0 = time.perf_counter()
    for nu in np.linspace(1.0, 20.0, 60):
        quad(lambda t, nu=nu: np.exp(-0.05 * np.cosh(t)) * np.cos(nu * t), 0.0, 8.5, epsabs=1e-11, epsrel=1e-11, limit=200)
    m = np.arange(16.0).reshape(4, 4) / 40.0
    for i in range(666):
        expm(m * (1.0 + 1e-3 * i))
    a = np.cos(np.arange(3600.0)).reshape(60, 60)
    for i in range(50):
        np.linalg.eigh(a + a.T + i)
    "\n".join(",".join(repr(v) for v in (0.5 * i, 0.25 * i * i, 1.0 / (1.0 + i))) for i in range(10000))
    return time.perf_counter() - t0


def blas_threads():
    """Thread count each bundled OpenBLAS reports (numpy's and scipy's)."""
    import ctypes
    import glob

    import numpy
    import scipy

    out = {}
    for pkg in (numpy, scipy):
        for path in sorted(glob.glob(os.path.dirname(pkg.__file__) + ".libs/*openblas*")):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[os.path.basename(path)] = int(fn())
                    break
    return out


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_sha256():
    import hashlib

    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rqi").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(seed, pinned_first):
    import platform

    import numpy
    import scipy

    blas = blas_threads()
    pins = {key: os.environ.get(key) for key in PINS}
    pins_ok = pinned_first and all(v == "1" for v in pins.values()) and all(n == 1 for n in blas.values())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "pins": pins,
        "blas_threads": blas,
        "pins_ok": bool(pins_ok),
        "commit": git_commit(),
        "source_sha256": source_sha256(),
        "seed": seed,
    }


class Run:
    """Outcome of closed-loop passes: times, units, notes, digests, trace snapshots."""

    def __init__(self):
        self.walls = []
        self.ref_walls = []  # untraced walls at the reference host speed
        self.cals = []  # calibration slices of the untraced passes
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.digests = {}
        self.snapshots = []
        self.reference_checked = False


def timed_pass(workload, inp, passdir, tracer):
    """Run one pass; (result, wall seconds, calibration slices).

    Untraced, a calibration slice runs as each CLI call opens (the workloads'
    ``span`` hook) and once more at the end, so the slices sample the host's
    speed through the pass; their time is left out of the wall time.
    """
    slices = []

    @contextmanager
    def calibrating_span(_name):
        slices.append(calibration_slice())
        yield

    span = tracer.span if tracer is not None else calibrating_span
    t0 = time.perf_counter()
    result = workload.compute(inp, passdir, span)
    if tracer is None:
        slices.append(calibration_slice())
    return result, time.perf_counter() - t0 - sum(slices), slices


def measure(workload, seed, seconds, size, workdir, refs, first_index=0, tracer=None):
    """Run and verify passes while the next is expected to end within ``seconds`` (at least one)."""
    run = Run()
    start = time.perf_counter()
    cycles = []  # pass, calibration and verification
    index = first_index
    while True:
        t_cycle = time.perf_counter()
        inp = workload.inputs(seed, index, size)
        passdir = workdir / f"pass{index}"
        passdir.mkdir(parents=True)
        result, wall, slices = timed_pass(workload, inp, passdir, tracer)
        run.walls.append(wall)
        if slices:
            run.cals += slices
            run.ref_walls.append(wall * CAL_REF_S / statistics.mean(slices))
        if tracer is not None:
            run.snapshots.append(tracer.take())
        check_refs = refs if index == 0 else None
        verdict = workload.verify(inp, passdir, result, check_refs)
        run.reference_checked |= check_refs is not None
        run.attempted += verdict.attempted
        run.failed += verdict.failed
        run.notes += [f"pass {index}: {n}" for n in verdict.notes][: max(0, 20 - len(run.notes))]
        if index == first_index:
            run.digests = verdict.digests
        shutil.rmtree(passdir)
        index += 1
        now = time.perf_counter()
        cycles.append(now - t_cycle)
        if now - start + statistics.median(cycles) > seconds:
            return run


def load_refs(workload_name, size):
    if size != "full":
        return None
    with open(HERE / "refs.json", encoding="utf-8") as fh:
        return json.load(fh)[workload_name]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "rqi" / "__init__.py").is_file():
        print(f"error: no rqi sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    pinned_first = pin_threads()
    try:
        setup = probe_setup()
    except (SetupError, subprocess.SubprocessError) as exc:
        print(f"error: set-up probe failed: {exc}", file=sys.stderr)
        return 3

    sys.path.insert(0, str(ROOT / "src"))
    import rqi

    if Path(rqi.__file__).resolve().parent != ROOT / "src" / "rqi":
        print(f"error: imported rqi from {rqi.__file__}, not from this checkout", file=sys.stderr)
        return 2
    from layers import layer_metrics
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    calibration_slice()  # warm-up: first calls load and compile library code
    refs = load_refs(args.workload, SIZE)
    out_root = ROOT / ".perfbench"
    workdir = out_root / f"work-{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    try:
        if args.trace:
            untraced = measure(workload, args.seed, args.seconds / 2, SIZE, workdir, refs)
            tracer = Tracer()
            with tracer.installed():
                traced = measure(
                    workload, args.seed, args.seconds / 2, SIZE, workdir, refs, TRACE_INDEX, tracer
                )
            runs = [untraced, traced]
        else:
            runs = [measure(workload, args.seed, args.seconds, SIZE, workdir, refs)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    if args.trace:
        traced = runs[1]
        context = {
            "import_ms": setup["import_ms"],
            "untraced_wall_s": statistics.median(runs[0].walls),
            "cal_s": statistics.median(runs[0].cals),
            "traced_wall_s": statistics.median(traced.walls),
            "coverage": sum(s[2] for s in traced.snapshots) / sum(traced.walls),
        }
        values = layer_metrics(traced.snapshots, context)
    else:
        values = {
            "wall_ref_s": statistics.median(runs[0].ref_walls),
            "setup_s": setup["setup_s"],
            "pass_frac": (attempted - failed) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    spec = SPEC["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in spec}

    prov = provenance(args.seed, pinned_first)
    if not prov["pins_ok"]:
        print("warning: thread pins not in effect for this run; see provenance", file=sys.stderr)
    report = {
        "workload": args.workload,
        "why": workload.why,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": SIZE,
        "provenance": prov,
        "setup": setup,
        "passes": [
            {"walls_s": r.walls, "ref_walls_s": r.ref_walls, "cals_s": r.cals, "attempted": r.attempted, "failed": r.failed}
            for r in runs
        ],
        "reference_checked": any(r.reference_checked for r in runs),
        "failures": [n for r in runs for n in r.notes],
        "csv_sha256": runs[0].digests,
        "metrics": metrics,
    }
    out_root.mkdir(exist_ok=True)
    with open(out_root / f"report-{args.workload}-s{args.seed}-t{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
