"""scipy loads only on the paths that call it.

Importing scipy.linalg costs more than the rest of `import hgmorse.cli`, and
only the finite-difference oracle uses it.  Each test runs the CLI in a fresh
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

_PROBE = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import hgmorse.cli
loaded = [scipy_modules()]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = hgmorse.cli.main(argv)
    assert code == 0, (argv, code)
    loaded.append(scipy_modules())
print(json.dumps(loaded))
"""


def _scipy_modules_after(*argvs):
    """The scipy modules loaded after `import hgmorse.cli`, then after each CLI run."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(argvs)],
                         capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def test_cli_paths_without_the_fd_oracle_do_not_import_scipy():
    assert _scipy_modules_after(KG_LEVELS, NONREL_LEVELS, POTENTIAL) == [[], [], [], []]


def test_levels_oracle_imports_scipy():
    # the probe can see scipy when a path does load it
    after_import, after_nonrel, after_oracle = _scipy_modules_after(NONREL_LEVELS, NONREL_LEVELS + ["--oracle"])
    assert after_import == after_nonrel == []
    assert "scipy.linalg" in after_oracle
