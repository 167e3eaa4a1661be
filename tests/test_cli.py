import hashlib
import json
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rqi import boson, boxpair, cli, nonpert, teleport


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


def test_measures_unentangled_writes_unsigned_zero(tmp_path):
    assert run(["measures", "--r", "0", "--out", str(tmp_path / "m")]) == 0
    text = (tmp_path / "m.json").read_text()
    assert '"log_negativity": 0.0' in text and '"negativity": 0.0' in text
    assert "-0.0" not in text


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


def test_measures_refuses_a_huge_r_without_a_warning(tmp_path):
    """cosh 2r at r = 200 is finite, but the squares in a plain norm of the state overflow: no warning may escape."""
    out = tmp_path / "m"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["measures", "--r", "200", "--out", str(out)]) == 2
    assert not out.with_suffix(".json").exists()


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

# nonpert-evolve: (tau, n_d, F1..F10) rows recorded with S(t) integrated by Magnus
# steps (kept step 0.005) and F matched to it by Newton.  Against S from DOP853 at
# rtol 1e-13, atol 1e-15, with F matched to that S, the rows lie 0, 6.0e-11 and
# 6.8e-11 from it (N_d 4.8e-13 and 4.2e-15); the DOP853-route rows before them
# lay 7.6e-12 from these.  Compared to 1e-15.
GOLDEN_NONPERT_ARGS = ["--coupling", "0.4", "--t-sq", "4.0", "--t-end", "6.0", "--tau", "[0.0, 3.0, 6.0]"]
GOLDEN_NONPERT_ROWS = [
    (0.0,) * 12,
    (
        3.0, 0.001036892418356583, -0.002778818517636752, -0.03202772486458056, 0.00022266488383390225,
        0.001011700068865286, -0.04336723552081058, -0.0029321016038660226, -0.004187783437890031,
        -0.031919431315686975, 8.951042874770463e-05, -0.04379025563667613,
    ),
    (
        6.0, 3.494874057707875e-06, 3.840775122532684e-05, -0.0018668531996229613, 2.5970562135972502e-08,
        3.4906541069246674e-06, -0.048542264557115085, -0.002367304201837499, -5.251046191339011e-05,
        -0.0018665184469919467, 3.392308322310736e-07, -0.048695864885828694,
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
    assert set(summary) == {
        "command", "magnus_steps", "newton_iterations", "params", "rows", "step", "step_probe", "subdivisions",
        "zero_factors",
    }
    assert isinstance(summary["magnus_steps"], int) and summary["magnus_steps"] > 0
    assert summary["step"] == nonpert.MAGNUS_H0 / 2 and 0.0 < summary["step_probe"] <= nonpert.MAGNUS_TOL
    assert isinstance(summary["newton_iterations"], int) and summary["newton_iterations"] >= 3
    assert summary["subdivisions"] == 0


def test_nonpert_evolve_halves_the_step_where_the_probe_fails(tmp_path):
    """At gap 4 pi the steps of MAGNUS_H0 and MAGNUS_H0 / 2 differ by more than MAGNUS_TOL: the step halves again.

    On the outputs [0, 3, 6] the match also fails and intervals are halved 11 times.  Each midpoint S is
    integrated from the last matched time: 7,975 steps in all, where integrating from the last output took 11,210.
    """
    out = tmp_path / "g"
    args = ["--gap", str(4 * np.pi), "--t-end", "6.0", "--tau", "[0.0, 3.0, 6.0]"]
    assert run(["nonpert-evolve", *args, "--out", str(out)]) == 0
    summary = json.loads((tmp_path / "g.json").read_text())
    assert summary["step"] == nonpert.MAGNUS_H0 / 4 and 0.0 < summary["step_probe"] <= nonpert.MAGNUS_TOL
    assert summary["subdivisions"] == 11 and summary["newton_iterations"] == 92
    assert summary["magnus_steps"] == 7975  # 6 (1 + 2 + 4) / MAGNUS_H0 = 4,200 of them before any retry


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


def test_box_entangle_refuses_a_truncation_past_the_galerkin_bound(tmp_path, capsys, monkeypatch):
    """From n_cut + 1 >= 4 sqrt(n_y - 2), 138.45 on the CLI's n_y = 1200 grid, the spectrum's Galerkin basis is
    the dense identity: n_cut = 140 would stack 140 dense 1198 x 1198 matrices.  Refused before any solve."""
    monkeypatch.setattr(boxpair, "solve_rindler_spectrum", lambda sc: pytest.fail(f"solved at n_cut = {sc.n_cut}"))
    out = tmp_path / "b"
    assert run(["box-entangle", "--n-cut", "140", "--h", "[0.5]", "--kappa", "[1]", "--out", str(out)]) == 2
    assert not (tmp_path / "b.csv").exists()
    assert "n_cut + 1 < 4 sqrt(n_y - 2) = 138.45" in capsys.readouterr().err


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
    # grid columns (fewer distinct values than rows, at most CSV_CHUNK_ROWS of them) are formatted once per
    # value and gathered; every other column is formatted cell by cell.  Both must give per-cell bytes.
    n = cli.CSV_CHUNK_ROWS
    nans = np.array([0x7FF8000000000000, 0x7FF8000000000001, -0x0008000000000000], dtype=np.int64).view(float)
    special = [-0.0, 0.0, 5e-324, -5e-324, 1e308, float("inf"), float("-inf"), *nans, 2.0**53, -1.0 / 3.0]
    awkward = [-0.0, 5e-324, 1e308, 3.0, 2.0**53, -1.0 / 3.0, float("inf"), float("nan")]
    t1, t2 = np.meshgrid(np.linspace(0.01, 2.0, 200), np.linspace(0.0, 2.0, 200), indexing="ij")
    tables = {
        # grid, grid and distinct columns, over two chunk boundaries
        "mixed": [(np.float64(awkward[i % 8]), awkward[(3 * i + 1) % 8], float(i)) for i in range(2 * n + 5)],
        # exactly CSV_CHUNK_ROWS distinct values (a grid column) beside CSV_CHUNK_ROWS + 1 (not one)
        "limit": [((i % n) / 7.0, (i % (n + 1)) / 7.0) for i in range(2 * n + 2)],
        # -0.0 beside 0.0, NaN payloads, +-inf and subnormals, in a grid column and in a distinct one
        "special": [(x, x if i < len(special) else i / 3.0) for i, x in enumerate(special * n)],
        "signed zeros": [(z,) for z in (-0.0, 0.0, 0.0, -0.0, 2.5)] * 3,
        "one row": [(-0.0, float("nan"), 1.0 / 3.0)],
        # the resonance-sweep layout: two grid columns whose values change inside chunks
        "sweep": np.column_stack([t1.ravel(), t2.ravel(), np.random.default_rng(3).random(t1.size)]),
    }
    path = tmp_path / "w.csv"
    for name, rows in tables.items():
        header = [f"c{j}" for j in range(len(rows[0]))]
        cli.write_csv(str(path), header, rows)
        cells = "".join(",".join(format(float(x), ".17g") for x in row) + "\n" for row in rows)
        assert path.read_bytes() == (",".join(header) + "\n" + cells).encode(), name
    cli.write_csv(str(path), ["a"], [])
    assert path.read_text(encoding="utf-8") == "a\n"
    cli.write_csv(str(path), ["a", "b"], np.empty((0, 2)))
    assert path.read_text(encoding="utf-8") == "a,b\n"


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
    # a mass whose square overflows a float
    ["detector-rate", "--mass", "1e300", "--trajectory", "inertial", "--gap", "[1]"],
    ["detector-rate", "--dim", "3+1", "--mass", "1e300", "--gap", "[1]"],
    ["resonance-sweep", "--mass", "1e200", "--tau1", "[0.5]", "--tau2", "[0.5]"],
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
    # a finite time whose largest phase overflows is bad input, not a grid of NaN cells (exit 3)
    ["resonance-sweep", "--tau1", "[1e308]"],
    ["resonance-sweep", "--tau1", "[4e305]", "--tau2", "[4e305]"],  # only the standard segment's 2 omega_20 T overflows
    ["teleport-fidelity", "--tau", "[1e308]"],
    ["teleport-fidelity", "--tau", "[1e306]"],  # only the doubled-n_max probe's phases overflow
    ["oneway-surface", "--u", "[1e308]", "--v", "[0]"],
    ["oneway-surface", "--u", "[0]", "--v", "[1e308]"],
    ["fermion-negativity", "--u", "[1e308]"],
]


@pytest.mark.parametrize("argv", OUT_OF_RANGE, ids=lambda a: " ".join(a[:3]))
def test_out_of_range_input_exit_2(tmp_path, argv):
    with warnings.catch_warnings():  # bad input is refused before any arithmetic on it can overflow or warn
        warnings.simplefilter("error")
        assert run([*argv, "--out", str(tmp_path / "x")]) == 2
    assert not (tmp_path / "x.csv").exists()


def test_fermion_window_too_small_stays_exit_3(tmp_path, capsys):
    # u = 0.9995 is a grid point where the default window's edge terms are not negligible: a numeric failure
    assert run(["fermion-negativity", "--u", "[0.9995]", "--out", str(tmp_path / "f")]) == 3
    assert "mode window too small" in capsys.readouterr().err
    assert not (tmp_path / "f.csv").exists()


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
