"""The benchmark's own tests.

    python3 -m pytest perfbench -q

Tiny grids only; the whole file runs in about a minute.
"""

from __future__ import annotations

import importlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import rqi  # noqa: E402
import run  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from tracer import MODULES, Tracer  # noqa: E402
from workloads import LN2, PARTS, WORKLOADS  # noqa: E402

SPEC = run.SPEC


def _bench(args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(PER_LAYER)


def _tiny_run(monkeypatch, capsys, workload, seed, trace):
    """``run.main`` in this process on the tiny grids; (exit code, last stdout line)."""
    for key in run.PINS:  # run.main pins these; restore them after the test
        monkeypatch.setenv(key, "1")
    monkeypatch.setattr(run, "SIZE", "tiny")
    monkeypatch.setattr(run, "SETUP_LAUNCHES", 1)
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke(workload, trace, monkeypatch, capsys):
    code, last = _tiny_run(monkeypatch, capsys, workload, 3, trace)
    assert code == 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {m["name"]: m["unit"] for m in want}
    if not trace:
        assert all(v["value"] > 0 for v in last["metrics"].values())


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(["--workload", "cavity-sweeps", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _corrupt(path, row, column, text):
    lines = path.read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[column] = text
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


# (part, CSV relative to the pass directory, row, column, bad value, units that must fail)
CORRUPTIONS = [
    ("box-entangle", "box_entangle.csv", 0, 2, "0.9", 1),  # entropy above ln 2
    ("nonpert-oracle", "nonpert_evolve.csv", 3, 1, "0.5", 1),  # N_d off the oracle
    ("detector-rates", "detector-rate-gaussian-0/detector_rate.csv", 0, 1, "nan", 2),  # the row and its KMS partner
    ("cavity-sweeps", "resonance_sweep.csv", 7, 2, "-1", 1),  # negative correction
    ("cavity-sweeps", "teleport_fidelity.csv", 2, 1, "junk", 1),  # unparsable row
]


@pytest.mark.parametrize("name,csv,row,column,bad,failures", CORRUPTIONS)
def test_corrupted_row_is_counted(tmp_path, name, csv, row, column, bad, failures):
    workload = PARTS[name]
    inp = workload.inputs(5, 0, "tiny")
    result = workload.compute(inp, tmp_path)
    clean = workload.verify(inp, tmp_path, result)
    assert clean.failed == 0 and clean.attempted > 0
    _corrupt(tmp_path / csv, row, column, bad)
    bad_run = workload.verify(inp, tmp_path, result)
    assert bad_run.attempted == clean.attempted
    assert bad_run.failed == failures


def test_corrupted_row_reaches_the_run_totals(tmp_path, monkeypatch):
    workload = PARTS["box-entangle"]
    compute = workload.compute

    def corrupting(inp, outdir, span):
        out = compute(inp, outdir, span)
        _corrupt(outdir / "box_entangle.csv", 1, 2, "nan")
        return out

    monkeypatch.setattr(workload, "compute", corrupting)
    result = run.measure(workload, 7, 0.0, "tiny", tmp_path, None)
    assert result.attempted == 4 and result.failed == 1


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_pass_0_is_canonical_for_every_seed(name):
    workload = WORKLOADS[name]
    assert workload.inputs(3, 0) == workload.inputs(0, 0) == workload.inputs(101, 0)
    assert workload.inputs(3, 1) != workload.inputs(0, 1)


def test_every_seed_checks_refs_on_pass_0(tmp_path, monkeypatch):
    workload = PARTS["box-entangle"]
    verify = workload.verify
    seen = []

    def recording(inp, outdir, result, refs=None):
        seen.append(refs)
        return verify(inp, outdir, result)

    monkeypatch.setattr(workload, "verify", recording)
    run.measure(workload, 7, 0.0, "tiny", tmp_path / "a", {"entropy": []})
    run.measure(workload, 7, 0.0, "tiny", tmp_path / "b", {"entropy": []}, first_index=run.TRACE_INDEX)
    assert seen == [{"entropy": []}, None]


def test_plausible_but_wrong_entropy_fails_the_references(tmp_path):
    # an entropy of ln 2 passes the invariants, but not the canonical references
    workload = PARTS["box-entangle"]
    refs = run.load_refs("heavy-points", "full")["box-entangle"]
    inp = workload.inputs(9, 0)
    result = workload.compute(inp, tmp_path)
    assert workload.verify(inp, tmp_path, result, refs).failed == 0
    _corrupt(tmp_path / "box_entangle.csv", 10, 2, repr(LN2))
    assert workload.verify(inp, tmp_path, result).failed == 0
    assert workload.verify(inp, tmp_path, result, refs).failed == 1


def test_composite_counts_a_part_failure(tmp_path):
    workload = WORKLOADS["heavy-points"]
    inp = workload.inputs(5, 0, "tiny")
    result = workload.compute(inp, tmp_path)
    clean = workload.verify(inp, tmp_path, result)
    assert clean.failed == 0
    assert clean.attempted == sum(p.verify(inp[p.name], tmp_path / p.name, result[p.name]).attempted for p in workload.parts)
    _corrupt(tmp_path / "nonpert-oracle" / "nonpert_evolve.csv", 3, 1, "0.5")
    bad = workload.verify(inp, tmp_path, result)
    assert bad.failed == 1 and bad.notes[0].startswith("nonpert-oracle: ")


def test_untraced_pass_time_leaves_out_the_calibration(tmp_path, monkeypatch):
    def sleeping_slice():
        t0 = time.perf_counter()
        time.sleep(0.05)
        return time.perf_counter() - t0

    monkeypatch.setattr(run, "calibration_slice", sleeping_slice)
    workload = PARTS["detector-rates"]
    t0 = time.perf_counter()
    result = run.measure(workload, 7, 0.0, "tiny", tmp_path, None)
    elapsed = time.perf_counter() - t0
    n_cli = len(workload.calls(workload.inputs(7, 0, "tiny")))
    assert len(result.cals) == n_cli + 1  # one slice per CLI call, one at the end
    assert 0.0 < result.walls[0] < elapsed - sum(result.cals)
    assert result.ref_walls == [result.walls[0] * run.CAL_REF_S / statistics.mean(result.cals)]


def _rqi_namespaces():
    mods = [rqi] + [importlib.import_module("rqi." + m) for m in MODULES]
    return {(mod.__name__, k): v for mod in mods for k, v in vars(mod).items()}


def _same(a, b):
    return a.keys() == b.keys() and all(a[key] is b[key] for key in a)


def test_traced_run_restores_every_name(capsys, monkeypatch):
    before = _rqi_namespaces()
    tracer = Tracer()
    with tracer.installed():
        during = _rqi_namespaces()
        rebound = {key for key in before if during[key] is not before[key]}
        assert {("rqi.udw", "bessel_K_imag_order"), ("rqi.nonpert", "expm"), ("rqi.gaussian", "symplectic_defect")} <= rebound
    assert _same(_rqi_namespaces(), before)

    code, last = _tiny_run(monkeypatch, capsys, "cavity-sweeps", 2, 1)
    assert code == 0
    assert _same(_rqi_namespaces(), before)
    assert last["metrics"]["gaussian.symplectic_defect_calls"]["value"] > 0
