import hashlib
import json

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rqi import boson, cli, teleport


def run(argv):
    return cli.main(argv)


def read_lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def test_measures_json(tmp_path):
    out = tmp_path / "m"
    assert run(["measures", "--r", "0.5", "--out", str(out)]) == 0
    payload = json.loads((tmp_path / "m.json").read_text())
    assert abs(payload["log_negativity"] - 1.0) < 1e-12
    assert abs(payload["negativity"] - (np.exp(1.0) - 1) / 2) < 1e-12
    assert abs(payload["entropy"] - 0.6594529591680) < 1e-9


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"r": 0.25}))
    out = tmp_path / "m"
    assert run(["measures", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((tmp_path / "m.json").read_text())
    assert abs(payload["log_negativity"] - 0.5) < 1e-12
    # flags override the file
    assert run(["measures", "--config", str(cfg), "--r", "0.1", "--out", str(out)]) == 0
    payload = json.loads((tmp_path / "m.json").read_text())
    assert abs(payload["log_negativity"] - 0.2) < 1e-12


def tmss_closed_forms(r):
    """Acceptance 01's closed forms at 30 digits: negativity (e^{2|r|} - 1)/2, log-negativity 2|r|, entropy."""
    with mpmath.workdps(30):
        r = abs(mpmath.mpf(r))
        ch, sh = mpmath.cosh(r) ** 2, mpmath.sinh(r) ** 2
        entropy = ch * mpmath.log(ch) - (sh * mpmath.log(sh) if sh else 0)
        return {"negativity": (mpmath.exp(2 * r) - 1) / 2, "log_negativity": 2 * r, "entropy": entropy}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
@settings(max_examples=200, deadline=None, database=None)
@given(r=st.floats(-50.0, 400.0))
@example(r=5.5)  # nu~ is about 1e-7 relative off: refused
@example(r=7.0)
@example(r=400.0)  # cosh 2r overflows
def test_measures_accurate_or_refused(tmp_path_factory, r):
    out = tmp_path_factory.mktemp("m") / "m"
    code = run(["measures", f"--r={r!r}", "--out", str(out)])
    assert code in (0, 2)
    if code == 2:
        assert not out.with_suffix(".json").exists()
        return
    payload = json.loads(out.with_suffix(".json").read_text())
    assert payload["nu_error_estimate"] <= 1e-9
    for key, expect in tmss_closed_forms(r).items():  # relative, with acceptance 01's floor of 1
        assert abs(payload[key] - float(expect)) <= 1e-9 * max(1.0, float(expect)), key


def test_unknown_config_key_exit_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nope": 1}))
    assert run(["measures", "--config", str(cfg)]) == 2


def test_resonance_sweep_csv_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = [
        "resonance-sweep",
        "--tau1", '{"min": 0.2, "max": 1.0, "steps": 4}',
        "--tau2", '{"min": 0.0, "max": 1.0, "steps": 3}',
        "--n-max", "8",
    ]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    lines1 = read_lines(str(out1) + ".csv")
    lines2 = read_lines(str(out2) + ".csv")
    assert lines1 == lines2  # bit-identical reruns
    assert lines1[0] == "tau1,tau2,nu_correction"
    assert len(lines1) == 1 + 4 * 3
    summary = json.loads((tmp_path / "a.json").read_text())
    assert summary["rows"] == 12


def test_teleport_fidelity_csv(tmp_path):
    out = tmp_path / "t"
    assert run([
        "teleport-fidelity",
        "--tau", '{"min": 0.0, "max": 1.0, "steps": 3}',
        "--h", '{"min": 0.0, "max": 0.2, "steps": 2}',
        "--n-max", "10",
        "--out", str(out),
    ]) == 0
    lines = read_lines(str(out) + ".csv")
    assert lines[0] == "tau,a,fidelity,fidelity_opt"
    assert len(lines) == 1 + 6
    # h = 0 rows carry the uncorrected optimum
    first = lines[1].split(",")
    assert abs(float(first[3]) - 1 / (1 + np.exp(-1.0))) < 1e-9


def test_teleport_validity_flags_use_largest_magnitude_h(tmp_path):
    out = tmp_path / "t"
    assert run(["teleport-fidelity", "--h", "[-0.9, 0.01]", "--tau", "[0.5]", "--out", str(out)]) == 0
    summary = json.loads((tmp_path / "t.json").read_text())
    # the largest relative h^2 term is that of h = -0.9, not of max(h) = 0.01
    _, _, correction = teleport.block_fidelities(0.5, 3, boson.BosonCavityConfig(n_max=20), 0.5, np.array([-0.9, 0.01]))
    assert summary["largest_correction"] == correction[0] >= boson.NB_VALIDITY_BOUND > correction[1]
    assert summary["validity_warnings"] == 1 and summary["perturbative_ok"] is False


def test_teleport_validity_reads_the_h2_terms(tmp_path):
    # the largest relative h^2 term is 3.9% at the defaults, where n_max |h| = 4.9 used to read as invalid
    assert run(["teleport-fidelity", "--out", str(tmp_path / "d")]) == 0
    summary = json.loads((tmp_path / "d.json").read_text())
    assert summary["validity_warnings"] == 0 and summary["perturbative_ok"] is True
    assert 0.038 < summary["largest_correction"] < 0.040
    args = ["--h", "[0, 1.0, 1.9]", "--kp", "4", "--n-max", "12"]
    assert run(["teleport-fidelity", *args, "--out", str(tmp_path / "h")]) == 0
    summary = json.loads((tmp_path / "h.json").read_text())
    r, kp, cfg = 0.5, 4, boson.BosonCavityConfig(n_max=12)
    taus, hs = np.linspace(0.0, 2.0, 41)[:, None], np.array([[0.0, 1.0, 1.9]])
    f_alpha, f_beta = (f * hs**2 for f in teleport.f_sums(cfg, kp, [1.0], taus[..., None]))
    f0, f2, nu = teleport._series(r, boson.mode_frequencies(cfg)[kp - 1] * taus, f_alpha, f_beta)
    opt0 = 1.0 / (1.0 + np.exp(-2 * r))
    ratio = np.maximum(f2 / f0, (opt0 - 1.0 / (1.0 + nu)) / opt0)
    assert summary["validity_warnings"] == np.count_nonzero(ratio >= boson.NB_VALIDITY_BOUND) > 0
    assert summary["perturbative_ok"] is False


def test_teleport_fidelity_finite_at_large_squeezing(tmp_path):
    # cosh 2r overflowed: --r 400 wrote NaN in 420 of 820 fidelity cells with exit 0
    assert run(["teleport-fidelity", "--r", "400", "--out", str(tmp_path / "t")]) == 0
    rows = np.array([[float(x) for x in line.split(",")] for line in read_lines(str(tmp_path / "t.csv"))[1:]])
    assert rows.shape == (820, 4) and np.all(np.isfinite(rows))
    tau, fid, opt = rows[:, 0], rows[:, 2], rows[:, 3]
    assert np.all(fid[tau == 0.0] == 1.0) and np.all(fid[tau > 0.0] < 1e-300)  # phi = 3 pi tau
    # 1 / (1 + nu-) with nu- = e^{-800} + h^2 terms
    assert np.all(opt[rows[:, 1] == 0.0] == 1.0) and np.all((opt > 0.5) & (opt <= 1.0))


def test_fermion_negativity_csv(tmp_path):
    out = tmp_path / "f"
    assert run([
        "fermion-negativity",
        "--u", '{"min": 0.0, "max": 1.0, "steps": 5}',
        "--n-side", "60",
        "--out", str(out),
    ]) == 0
    lines = read_lines(str(out) + ".csv")
    assert lines[0].startswith("u,f_s0_k1,f_s0_k-1")
    assert len(lines) == 6
    row0 = [float(x) for x in lines[1].split(",")]
    assert all(abs(v) < 1e-9 for v in row0[1:])  # u = 0: all f vanish


def test_fermion_negativity_refusal_names_travel_time(tmp_path, capsys):
    # u = 0.9995 sits next to a zero of f_k, where the window's tail dominates
    assert run(["fermion-negativity", "--u", "[0.5, 0.9995]", "--out", str(tmp_path / "f")]) == 3
    assert not (tmp_path / "f.csv").exists()
    assert "1.999" in capsys.readouterr().err


def test_oneway_surface_zero_lines(tmp_path):
    out = tmp_path / "o"
    assert run([
        "oneway-surface",
        "--u", '{"min": 0.0, "max": 1.0, "steps": 5}',
        "--v", '{"min": 0.0, "max": 1.0, "steps": 5}',
        "--n-side", "60",
        "--out", str(out),
    ]) == 0
    rows = [line.split(",") for line in read_lines(str(out) + ".csv")[1:]]
    for u, v, f in rows:
        u, v, f = float(u), float(v), float(f)
        if abs(u - round(u)) < 1e-12 or abs(u + v - round(u + v)) < 1e-12:
            assert abs(f) < 1e-9


def test_detector_rate_csv(tmp_path):
    out = tmp_path / "d"
    assert run([
        "detector-rate",
        "--trajectory", "inertial",
        "--mass", "1.0",
        "--gap", '{"min": -3.0, "max": 3.0, "steps": 7}',
        "--out", str(out),
    ]) == 0
    rows = {float(l.split(",")[0]): float(l.split(",")[1]) for l in read_lines(str(out) + ".csv")[1:]}
    assert rows[1.0] == 0.0 and rows[-1.0] == 0.0  # below the mass threshold
    assert rows[-3.0] > 0.0


def test_nonpert_evolve_csv(tmp_path):
    out = tmp_path / "n"
    assert run([
        "nonpert-evolve",
        "--coupling", "0.4",
        "--t-sq", "4.0",
        "--t-end", "6.0",
        "--tau", "[0.0, 3.0, 6.0]",
        "--out", str(out),
    ]) == 0
    lines = read_lines(str(out) + ".csv")
    assert lines[0].startswith("tau,n_d,F1")
    assert len(lines[0].split(",")) == 12
    assert float(lines[1].split(",")[1]) == 0.0


def test_box_entangle_csv(tmp_path):
    out = tmp_path / "b"
    assert run([
        "box-entangle",
        "--h", '{"min": 0.2, "max": 0.6, "steps": 2}',
        "--kappa", '{"min": 0.0, "max": 1.0, "steps": 2}',
        "--n-cut", "3",
        "--out", str(out),
    ]) == 0
    lines = read_lines(str(out) + ".csv")
    assert lines[0] == "h,kappa,entropy"
    vals = [float(l.split(",")[2]) for l in lines[1:]]
    assert all(0.0 <= v <= np.log(2.0) + 1e-9 for v in vals)


# Small fixed grids and the sha256 of the CSV each command wrote on them before
# the CLI became table-driven, with the summary JSON keys of the same runs.
# fermion-negativity and oneway-surface were re-recorded when the degradation
# weights moved to sine form: 8 cells of each moved, all on the zero lines
# (u = 1, and u + v = 1 for the one-way sum), by at most 8.8e-34.
GOLDEN = {
    "resonance-sweep": (
        ["--tau1", '{"min": 0.2, "max": 1.0, "steps": 4}', "--tau2", '{"min": 0.0, "max": 1.0, "steps": 3}', "--n-max", "8"],
        "014585ea0591206aa956a82b96482a83bfc196b32a256613c21e06470c2dbc43",
        {"command", "largest_correction", "params", "rows", "validity_warnings"},
    ),
    "teleport-fidelity": (
        ["--tau", '{"min": 0.0, "max": 1.0, "steps": 3}', "--h", '{"min": 0.0, "max": 0.2, "steps": 2}', "--n-max", "10"],
        "b1c4c7531e98662d636a7ef71a29bc1ca317b91baad3a4eb364015c4c5ea4510",
        {"command", "converged", "largest_correction", "n_max_doubling_shift", "params", "perturbative_ok", "rows", "validity_warnings"},
    ),
    "fermion-negativity": (
        ["--u", '{"min": 0.0, "max": 1.0, "steps": 5}', "--n-side", "60"],
        "2652e9499ce11470cd8abe9d9a751ddaab3d8c7094632afa0d350acf103d5a57",
        {"command", "converged", "params", "rows", "window_doubling_shift"},
    ),
    "oneway-surface": (
        ["--u", '{"min": 0.0, "max": 1.0, "steps": 5}', "--v", '{"min": 0.0, "max": 1.0, "steps": 5}', "--n-side", "60"],
        "f6dbd49a219b71baae8ee5af449e2cc004c1c4c09209a287f4def40016c3ba0f",
        {"command", "params", "rows"},
    ),
}
# box-entangle: (h, kappa, entropy) rows of the same recording.  The entropy is
# compared to 1e-12 because the closed form replaced a dense eigensolve there.
GOLDEN_BOX_ARGS = ["--h", "[0.0, 0.5]", "--kappa", "[0.0, 1.0]", "--n-cut", "3"]
GOLDEN_BOX_ROWS = [
    (0.0, 0.0, 0.69314718055994529),
    (0.0, 1.0, 0.69314718055994529),
    (0.5, 0.0, 0.69303228420548946),
    (0.5, 1.0, 0.69301675682996799),
]

# nonpert-evolve: (tau, n_d, F1..F10) rows recorded with the DOP853 solve.  The
# RK45 rows before them lay 9.9e-11 from a tight reference (DOP853 at rtol 1e-13,
# atol 1e-15); these lie 7.1e-12 from it.  Compared to 1e-15.
GOLDEN_NONPERT_ARGS = ["--coupling", "0.4", "--t-sq", "4.0", "--t-end", "6.0", "--tau", "[0.0, 3.0, 6.0]"]
GOLDEN_NONPERT_ROWS = [
    (0.0,) * 12,
    (
        3.0, 0.0010368924188279838, -0.002778818512353118, -0.032027724872359033, 0.00022266488612524362,
        0.0010117000664648891, -0.043367235575709123, -0.0029321016120642152, -0.0041877834365879867,
        -0.031919431322386269, 8.951042962156192e-05, -0.043790255696315492,
    ),
    (
        6.0, 3.4948740610385443e-06, 3.8407751465218536e-05, -0.0018668532004532594, 2.5969832761925498e-08,
        3.490654304759125e-06, -0.048542264617327135, -0.0023673042098907868, -5.2510461974411915e-05,
        -0.0018665184479289591, 3.3923183177735821e-07, -0.048695864947692423,
    ),
]

# detector-rate: (gap, rate) rows of the same recording, made when a zero gap
# was replaced by 1e-12.  The exact Delta -> 0 limit moved that row by 3.1e-12
# relative, so the rows are compared to 1e-10 relative.
GOLDEN_DETECTOR_ARGS = ["--dim", "3+1", "--profile", "gaussian", "--mass", "0.5", "--gap", "[-1.0, 0.0, 1.0]"]
GOLDEN_DETECTOR_ROWS = [
    (-1.0, 1.3985140824461265e-08),
    (0.0, 6.6461371452993985e-13),
    (1.0, 2.6116449584552866e-11),
]


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_csv_digest(tmp_path, command):
    args, digest, keys = GOLDEN[command]
    out = tmp_path / "g"
    assert run([command, *args, "--out", str(out)]) == 0
    assert hashlib.sha256((tmp_path / "g.csv").read_bytes()).hexdigest() == digest
    assert set(json.loads((tmp_path / "g.json").read_text())) == keys


def test_golden_box_entangle(tmp_path):
    out = tmp_path / "g"
    assert run(["box-entangle", *GOLDEN_BOX_ARGS, "--out", str(out)]) == 0
    lines = read_lines(str(out) + ".csv")
    assert lines[0] == "h,kappa,entropy"
    rows = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
    assert len(rows) == len(GOLDEN_BOX_ROWS)
    for (h, kap, ent), (h0, kap0, ent0) in zip(rows, GOLDEN_BOX_ROWS):
        assert (h, kap) == (h0, kap0)
        assert abs(ent - ent0) < 1e-12
    assert set(json.loads((tmp_path / "g.json").read_text())) == {"command", "flagged", "params", "rows"}


def test_box_entangle_counts_flagged_points(tmp_path):
    out = tmp_path / "g"
    assert run(["box-entangle", *GOLDEN_BOX_ARGS, "--epsilon", "0", "--out", str(out)]) == 0
    assert json.loads((tmp_path / "g.json").read_text())["flagged"] == 4
    assert [float(line.split(",")[2]) for line in read_lines(str(out) + ".csv")[1:]] == [0.0] * 4


def test_golden_nonpert_evolve(tmp_path):
    out = tmp_path / "g"
    assert run(["nonpert-evolve", *GOLDEN_NONPERT_ARGS, "--out", str(out)]) == 0
    lines = read_lines(str(out) + ".csv")
    assert lines[0] == "tau,n_d," + ",".join(f"F{j}" for j in range(1, 11))
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert rows.shape == (3, 12)
    assert np.abs(rows - np.array(GOLDEN_NONPERT_ROWS)).max() < 1e-15
    summary = json.loads((tmp_path / "g.json").read_text())
    assert set(summary) == {"command", "params", "rhs_calls", "rows", "zero_factors"}
    assert isinstance(summary["rhs_calls"], int) and summary["rhs_calls"] > 0


def test_golden_detector_rate(tmp_path):
    out = tmp_path / "g"
    assert run(["detector-rate", *GOLDEN_DETECTOR_ARGS, "--out", str(out)]) == 0
    lines = read_lines(str(out) + ".csv")
    assert lines[0] == "gap,rate"
    rows = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
    assert len(rows) == len(GOLDEN_DETECTOR_ROWS)
    for (gap, rate), (gap0, rate0) in zip(rows, GOLDEN_DETECTOR_ROWS):
        assert gap == gap0
        assert abs(rate - rate0) <= 1e-10 * abs(rate0)
    assert set(json.loads((tmp_path / "g.json").read_text())) == {"command", "params", "rows"}


def test_box_entangle_bad_truncation_exit_2(tmp_path):
    args = ["box-entangle", "--h", "[0.5]", "--kappa", "[0.0]", "--out", str(tmp_path / "b")]
    assert run(args + ["--n-cut", "0"]) == 2
    assert run(args + ["--n-cut", "2000"]) == 2  # more modes than the y grid can hold


@pytest.mark.parametrize("h", ["[1e-11]", "[1e-12]"])
def test_box_entangle_tiny_h_exit_2(tmp_path, h):
    # the y grid, about h wide, loses its spacing to rounding (1e-11) or has none left (1e-12)
    assert run(["box-entangle", "--h", h, "--kappa", "[1]", "--out", str(tmp_path / "b")]) == 2
    assert not (tmp_path / "b.csv").exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("args", [["--gap", "[-1e300]"], ["--profile", "gaussian", "--gap", "[-1e155]"]])
def test_non_finite_cell_exit_3(tmp_path, capsys, args):
    # flat**2 overflows to an inf rate; with the gaussian profile 0 * inf gives a nan one
    assert run(["detector-rate", "--trajectory", "inertial", *args, "--out", str(tmp_path / "d")]) == 3
    assert not (tmp_path / "d.csv").exists()
    assert "column 'rate' has non-finite cells" in capsys.readouterr().err


@pytest.mark.parametrize("dim", ["2+1", "banana"])
def test_detector_rate_bad_dim_exit_2(tmp_path, dim):
    args = ["detector-rate", "--gap", "[1.0]", "--dim", dim, "--out", str(tmp_path / "d")]
    assert run(args) == 2
    assert not (tmp_path / "d.csv").exists()


# one non-finite number per command, in a grid list, a grid dict or a scalar flag
NON_FINITE = [
    ["measures", "--r", "nan"],
    ["resonance-sweep", "--tau1", "[NaN]", "--tau2", "[0.5]"],
    ["resonance-sweep", "--h", "nan", "--tau1", "[0.5]", "--tau2", "[0.5]"],
    ["teleport-fidelity", "--tau", "[Infinity]", "--h", "[0.0]", "--n-max", "6"],
    ["fermion-negativity", "--u", "[NaN]", "--n-side", "60"],
    ["oneway-surface", "--u", "[0.5]", "--v", "[NaN]", "--n-side", "60"],
    ["detector-rate", "--gap", "[NaN]"],
    ["detector-rate", "--gap", '{"min": 0.0, "max": Infinity, "steps": 2}'],
    ["nonpert-evolve", "--tau", "[1.0, NaN]", "--t-end", "2.0"],
    ["nonpert-evolve", "--coupling", "nan", "--tau", "[0.0, 1.0]", "--t-end", "1.0"],
    ["box-entangle", "--h", "[NaN]", "--kappa", "[0.0]", "--n-cut", "3"],
    ["box-entangle", "--h", "[0.5]", "--kappa", "[-Infinity]", "--n-cut", "3"],
]


@pytest.mark.parametrize("argv", NON_FINITE, ids=lambda a: " ".join(a[:3]))
def test_non_finite_input_exit_2(tmp_path, argv):
    assert run([*argv, "--out", str(tmp_path / "x")]) == 2
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "grid",
    [
        '{"min": 0.0, "max": 1.0, "steps": 2.5}',
        '{"min": 0.0, "max": 1.0, "steps": "abc"}',
        '{"min": 0.0, "max": 1.0, "steps": 0}',
        '{"min": "a", "max": 1.0, "steps": 3}',
        '{"min": 0.0, "max": 1.0, "steps": 3, "extra": 1}',
        '{"min": 0.0, "max": 1.0}',
        '["a", 0.5]',
        "[true, 0.5]",
        "[[0.5]]",
        "0.5",
    ],
)
def test_malformed_grid_exit_2(tmp_path, grid):
    assert run(["fermion-negativity", "--u", grid, "--n-side", "60", "--out", str(tmp_path / "f")]) == 2
    assert not (tmp_path / "f.csv").exists()


def test_non_finite_config_file_exit_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"gap": {"min": -1.0, "max": NaN, "steps": 3}}')
    assert run(["detector-rate", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 2
    assert not (tmp_path / "d.csv").exists()


@pytest.mark.parametrize(
    "times",
    [
        ["--tau", "[]", "--t-end", "4.0"],
        ["--tau", "[3.0, 1.0]", "--t-end", "4.0"],
        ["--tau", "[1.0, 1.0]", "--t-end", "4.0"],
        ["--tau", "[-1.0, 1.0]", "--t-end", "4.0"],
        ["--t-end", "-1.0"],  # the default grid 0 to t_end runs backwards
        ["--t-end", "0.0"],
    ],
)
def test_nonpert_evolve_bad_output_times_exit_2(tmp_path, times):
    assert run(["nonpert-evolve", *times, "--out", str(tmp_path / "n")]) == 2
    assert not (tmp_path / "n.csv").exists()


def count_calls(monkeypatch, module, name):
    """Route module.name through a counter; returns the list of its arguments."""
    calls = []
    original = getattr(module, name)

    def counted(config):
        calls.append(config)
        return original(config)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_bogoliubov_matrices_built_once_per_config(tmp_path, monkeypatch):
    built = count_calls(monkeypatch, boson, "bogo_first_order")
    for hs in ("[0.01, 0.02]", "[0.0, 0.01, -0.02, 0.03, 0.04]"):
        built.clear()
        grid = ["--tau", "[0.3, 0.6, 0.9]", "--h", hs, "--n-max", "6"]
        assert run(["teleport-fidelity", *grid, "--out", str(tmp_path / "t")]) == 0
        # one config for the surface and one for the doubled-n_max probe, whatever the h grid
        assert [c.n_max for c in built] == [6, 12]


def test_teleport_truncation_probe(tmp_path):
    assert run(["teleport-fidelity", "--out", str(tmp_path / "d")]) == 0
    summary = json.loads((tmp_path / "d.json").read_text())
    assert summary["converged"] is True and 0.0 < summary["n_max_doubling_shift"] < 1e-6
    assert run(["teleport-fidelity", "--n-max", "4", "--out", str(tmp_path / "s")]) == 0
    summary = json.loads((tmp_path / "s.json").read_text())
    assert summary["converged"] is False and summary["n_max_doubling_shift"] > 1e-6


def test_write_csv_matches_per_cell_format(tmp_path):
    awkward = [-0.0, 5e-324, 1e308, 3.0, 2.0**53, -1.0 / 3.0, float("inf"), float("nan")]
    rows = [
        (np.float64(awkward[i % 8]), awkward[(3 * i + 1) % 8], float(i)) for i in range(2 * cli.CSV_CHUNK_ROWS + 5)
    ]
    path = tmp_path / "w.csv"
    cli.write_csv(str(path), ["a", "b", "c"], rows)
    expect = "a,b,c\n" + "".join(",".join(format(float(x), ".17g") for x in row) + "\n" for row in rows)
    assert path.read_text(encoding="utf-8") == expect
    cli.write_csv(str(path), ["a"], [])
    assert path.read_text(encoding="utf-8") == "a\n"


def test_resonance_validity_warnings_count_rows(tmp_path):
    grid = ["--tau1", '{"min": 0.2, "max": 1.0, "steps": 5}', "--tau2", '{"min": 0.0, "max": 1.0, "steps": 4}']
    assert run(["resonance-sweep", *grid, "--out", str(tmp_path / "d")]) == 0
    assert json.loads((tmp_path / "d.json").read_text())["validity_warnings"] == 0
    assert run(["resonance-sweep", *grid, "--h", "1.5", "--out", str(tmp_path / "h")]) == 0
    summary = json.loads((tmp_path / "h.json").read_text())
    nus = [float(line.split(",")[2]) for line in read_lines(str(tmp_path / "h.csv"))[1:]]
    # nu_correction = 2 N |B|; resonance_negativity warns once N |B| >= 0.1
    expected = sum(1 for nu in nus if nu / 2.0 >= 0.1)
    assert 0 < expected < len(nus)
    assert summary["validity_warnings"] == expected
    assert summary["largest_correction"] == max(nus) / 2.0


# Values the library rejects are bad input, caught before the sweep.  Mode
# labels are 1-based: 0 and -1 are out of range, not the last modes.
OUT_OF_RANGE = [
    ["teleport-fidelity", "--kp", "0", "--tau", "[0.5]", "--h", "[0.01]"],
    ["teleport-fidelity", "--kp", "21", "--tau", "[0.5]", "--h", "[0.01]"],
    ["teleport-fidelity", "--kp", "-1", "--tau", "[0.5]", "--h", "[0.01]"],
    ["resonance-sweep", "--k", "-1", "--tau1", "[0.5]", "--tau2", "[0.5]"],
    ["resonance-sweep", "--k", "0", "--tau1", "[0.5]", "--tau2", "[0.5]"],
    ["resonance-sweep", "--kp", "21", "--tau1", "[0.5]", "--tau2", "[0.5]"],
    ["resonance-sweep", "--h", "2.5", "--tau1", "[0.5]", "--tau2", "[0.5]"],
    ["teleport-fidelity", "--n-max", "1", "--kp", "1", "--tau", "[0.5]", "--h", "[0.01]"],
    ["oneway-surface", "--s", "1.5", "--u", "[0.5]", "--v", "[0.5]"],
    ["oneway-surface", "--k", "500", "--u", "[0.5]", "--v", "[0.5]"],
    ["fermion-negativity", "--n-side", "1", "--u", "[0.5]"],
    ["detector-rate", "--profile", "gaussian", "--sigma", "-1", "--gap", "[1.0]"],
    ["detector-rate", "--profile", "banana", "--gap", "[1.0]"],
    ["box-entangle", "--v", "0.2", "--h", "[0.5]", "--kappa", "[0.0]", "--n-cut", "3"],
    ["teleport-fidelity", "--r", "0", "--tau", "[0.5]", "--h", "[0.01]"],
    ["teleport-fidelity", "--r", "-0.5", "--tau", "[0.5]", "--h", "[0.01]"],
    ["resonance-sweep", "--repetitions", "-1", "--tau1", "[0.3]", "--tau2", "[0.2]"],
    ["resonance-sweep", "--kp", "1", "--tau1", "[0.3]", "--tau2", "[0.2]"],
    ["detector-rate", "--a", "0", "--gap", "[1.0]"],
    ["detector-rate", "--trajectory", "inertial", "--mass", "-1", "--gap", "[-0.5]"],
    ["nonpert-evolve", "--t-sq", "0", "--tau", "[0.0, 1.0]"],
    ["nonpert-evolve", "--t-sq", "-4", "--tau", "[0.0, 1.0]"],
    ["resonance-sweep", "--tau1", "[-0.5]", "--tau2", "[-0.3]"],
    ["resonance-sweep", "--lam", "1e5", "--tau1", "[0.5]", "--tau2", "[0.5]"],
    ["fermion-negativity", "--u", "[-0.3]"],
    ["oneway-surface", "--u", "[-0.5]", "--v", "[0.5]"],
    ["oneway-surface", "--u", "[0.5]", "--v", "[-0.5]"],
    # the grid is checked at its largest |h| and smallest tau only
    ["teleport-fidelity", "--h", "[0.01, -2.5]", "--tau", "[0.5]"],
    ["teleport-fidelity", "--h", "[0.01]", "--tau", "[0.5, -0.1]"],
]


@pytest.mark.parametrize("argv", OUT_OF_RANGE, ids=lambda a: " ".join(a[:3]))
def test_out_of_range_input_exit_2(tmp_path, argv):
    assert run([*argv, "--out", str(tmp_path / "x")]) == 2
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("n_max", ["abc", 20.5, [20], "20.5", True], ids=["text", "float", "list", "float-text", "bool"])
def test_config_value_of_wrong_type_exit_2(tmp_path, n_max):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_max": n_max}))
    args = ["resonance-sweep", "--config", str(cfg), "--tau1", "[0.5]", "--tau2", "[0.5]"]
    assert run([*args, "--out", str(tmp_path / "x")]) == 2
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "argv, config",
    [(["measures"], {"r": True}), (["detector-rate", "--gap", "[1.0]"], {"a": True, "sigma": False})],
    ids=["measures", "detector-rate"],
)
def test_config_boolean_for_a_number_exit_2(tmp_path, argv, config):
    # true is not 1.0: a JSON boolean is refused wherever a number is expected, as inside a grid
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run([*argv, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert not (tmp_path / "x.json").exists()


def test_config_values_typed_like_flags(tmp_path):
    # an integral float is an int, an int is a float, and both match the flags
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_max": 8.0, "h": 1, "tau1": [0.5, 1.0], "tau2": [0.25]}))
    assert run(["resonance-sweep", "--config", str(cfg), "--out", str(tmp_path / "f")]) == 0
    flags = ["--n-max", "8", "--h", "1.0", "--tau1", "[0.5, 1.0]", "--tau2", "[0.25]"]
    assert run(["resonance-sweep", *flags, "--out", str(tmp_path / "g")]) == 0
    assert read_lines(str(tmp_path / "f.csv")) == read_lines(str(tmp_path / "g.csv"))
    assert (tmp_path / "f.json").read_text() == (tmp_path / "g.json").read_text()

    cfg.write_text(json.dumps({"r": 1}))
    assert run(["measures", "--config", str(cfg), "--out", str(tmp_path / "m")]) == 0
    assert run(["measures", "--r", "1.0", "--out", str(tmp_path / "n")]) == 0
    assert (tmp_path / "m.json").read_text() == (tmp_path / "n.json").read_text()


@pytest.mark.parametrize(
    "argv",
    [["measures", "--check"], ["measures", "--state", "tmss"], ["teleport-fidelity", "--k", "1"]],
    ids=lambda a: " ".join(a),
)
def test_unknown_flag_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
