"""scipy loads only on the paths that call it, and never its package init.

Importing scipy.linalg or scipy.integrate costs more than the rest of a CLI
call.  Only the finite-difference oracle uses scipy, and it loads the three
compiled routines it calls by file path.  Each test runs the CLI in a fresh
interpreter, because this test process has imported scipy long before.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

KG_LEVELS = ["levels", "--model", "kg", "--De-cm", "55147417000", "--re", "1.1198", "--mu-amu", "1",
             "--a", "1732450", "--b", "1732450", "--mass", "500", "--n-max", "0"]
NONREL_LEVELS = ["levels", "--molecule", "CH", "--n-max", "1"]
POTENTIAL = ["potential", "--molecule", "CH", "--samples", "5"]
NONREL_ORACLE_CHECK = ["oracle-check", "--models", "nonrel", "--molecules", "CH"]

_PROBE = """
import contextlib, importlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import hgmorse.cli
loaded = [scipy_modules()]
for step in json.loads(sys.argv[1]):
    if isinstance(step, str):  # a module to import
        importlib.import_module(step)
    else:
        with contextlib.redirect_stdout(io.StringIO()):
            code = hgmorse.cli.main(step)
        assert code == 0, (step, code)
    loaded.append(scipy_modules())
print(json.dumps(loaded))
"""


def _scipy_modules_after(*steps):
    """The scipy modules loaded after `import hgmorse.cli`, then after each step:
    a CLI argv list to run, or a module name to import."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(steps)],
                         capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def test_cli_import_does_not_import_the_thread_pool():
    # the FD oracle imports concurrent.futures when it first spreads solves over threads
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, hgmorse.cli; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_cli_paths_without_the_fd_oracle_do_not_import_scipy():
    assert _scipy_modules_after(KG_LEVELS, NONREL_LEVELS, POTENTIAL) == [[], [], [], []]


def test_fd_oracle_paths_skip_scipy_package_init():
    after_import, after_levels, after_check, control = _scipy_modules_after(
        NONREL_LEVELS + ["--oracle"], NONREL_ORACLE_CHECK, "scipy.linalg")
    assert after_import == []
    for loaded in (after_levels, after_check):
        assert "scipy.linalg" not in loaded and "scipy.integrate" not in loaded
    # positive control: the probe sees scipy.linalg once something imports it
    assert "scipy.linalg" in control
