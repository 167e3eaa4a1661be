"""The import graph: a launch loads only the modules its command runs.

Each check runs in a fresh interpreter, since this test session has long
since imported every module and scipy; where scipy must not be needed, that
interpreter blocks it (`sys.modules["scipy"] = None`), so any import of it
fails.  Wall times are not tested: on a shared host they are too noisy to
gate on.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
MODULES = ["bessel", "boson", "boxpair", "entanglement", "fermion", "gaussian", "nonpert", "teleport", "udw"]
# commands that need no scipy, each on a tiny grid
SCIPY_FREE = {
    "nonpert-evolve": ["--t-end", "1.0", "--tau", "[0.0, 0.5, 1.0]"],
    "measures": [],
    "resonance-sweep": ["--tau1", "[0.5]", "--tau2", "[0.5]"],
    "teleport-fidelity": ["--tau", "[0.5]", "--h", "[0.1]"],
    "fermion-negativity": ["--u", "[0.5]"],
    "oneway-surface": ["--u", "[0.5]", "--v", "[0.5]"],
    "detector-rate": ["--dim", "1+1", "--gap", "[-1, 1]"],
    "box-entangle": ["--h", "[0.5]", "--kappa", "[1]", "--n-cut", "3"],
}
BLOCK_SCIPY = "import sys; sys.modules['scipy'] = None\n"


def python(code, cwd):
    """Run `code` in a fresh interpreter that imports rqi from this checkout."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def test_cli_import_loads_no_scipy(tmp_path):
    proc = python("import sys, rqi.cli; print('scipy' in sys.modules)", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


@pytest.mark.parametrize("command", SCIPY_FREE)
def test_closed_form_command_loads_no_scipy(command, tmp_path):
    argv = [command, *SCIPY_FREE[command], "--out", "run"]
    proc = python(BLOCK_SCIPY + f"from rqi import cli; print(cli.main({argv!r}))", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


def test_williamson_needs_no_scipy(tmp_path):
    code = (
        BLOCK_SCIPY + "import numpy as np\n"
        "from rqi import gaussian as g\n"
        "state = g.apply_map(g.two_mode_squeezer(0.4), g.thermal_state([1.5, 2.5]))\n"
        "nus, s = g.williamson(state)\n"
        "rebuilt = s @ np.diag(np.repeat(nus, 2)) @ s.T\n"
        "print(np.abs(nus - [1.5, 2.5]).max() < 1e-12, np.abs(rebuilt - g.real_covariance(state)).max() < 1e-12)\n"
    )
    proc = python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True"]


def test_every_module_reachable_from_the_package(tmp_path):
    code = (
        "import json, rqi\n"
        "listed = sorted(set(rqi.__all__) & set(dir(rqi)))\n"  # before any submodule is loaded
        "first = type(rqi.udw).__name__\n"
        "names = {}\n"
        "exec('from rqi import *', names)\n"
        "try:\n"
        "    rqi.nowhere\n"
        "    missing = None\n"
        "except AttributeError as exc:\n"
        "    missing = str(exc)\n"
        "print(json.dumps([first, listed, sorted(set(names) - {'__builtins__'}), missing]))\n"
    )
    proc = python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    first, listed, star, missing = json.loads(proc.stdout)
    assert first == "module"
    assert listed == MODULES
    assert star == MODULES
    assert missing == "module 'rqi' has no attribute 'nowhere'"


def test_missing_module_is_not_a_numeric_failure(tmp_path):
    # a broken install: the command's own module cannot be imported
    code = (
        "import sys\n"
        "sys.modules['rqi.fermion'] = None\n"
        "from rqi import cli\n"
        "sys.exit(cli.main(['fermion-negativity', '--u', '[0.5]', '--out', 'run']))\n"
    )
    proc = python(code, tmp_path)
    assert proc.returncode not in (0, 3)
    assert "ModuleNotFoundError" in proc.stderr
    assert "fermion-negativity failed" not in proc.stderr
