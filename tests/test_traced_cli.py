"""The traced benchmark entry point still sees every relativistic solve, residual and check.

perfbench/spans.py traces by rebinding the public hgmorse functions in every
module that binds them.  A caller that reached a solver or residual through a
reference taken at import time would bypass the tracer, and traced runs would
report zero calls; these tests run the traced CLI and count the spans.
"""

import importlib.util
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from hgmorse.checks import pseudospin_params
from hgmorse.molecules import find_molecule, to_potential_params
from hgmorse.units import CM_INV_TO_EV, HBAR_C_EV_ANGSTROM

ROOT = Path(__file__).resolve().parents[1]
SPANS_PY = ROOT / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)

SOLVERS = ("relativistic.solve_kg_energy", "relativistic.solve_dirac_spin", "relativistic.solve_dirac_pseudospin")


def _scaled_ch_argv(M):
    p, part = to_potential_params(find_molecule("CH"), 1.0, 1.0, 0.025)
    s = part.mu_energy / M
    return ["--mass", repr(M), "--De-cm", repr(p.D_e * s / CM_INV_TO_EV), "--re", "1.1198",
            "--mu-amu", "1.0", "--a", repr(s), "--b", repr(s)]


def _pseudospin_argv(M):
    p, _ = to_potential_params(find_molecule("CH"), 0.0, 0.0, 0.025)
    b = pseudospin_params(p, M, HBAR_C_EV_ANGSTROM).b
    return ["--mass", repr(M), "--molecule", "CH", "--a", "0", "--b", repr(b)]


def _traced(tmp_path, argv):
    """(span counts, stdout) of one traced CLI run."""
    out = tmp_path / "spans.bin"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, str(SPANS_PY), str(out), "0", "--", *argv],
                         capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    header, cols = spans.load(str(out))
    assert header["absent"] == []
    return Counter(header["names"][i] for i in cols["name"]), run.stdout


def _data_rows(stdout):
    return [line for line in stdout.splitlines()[1:] if not line.startswith("#")]


@pytest.mark.parametrize("model, argv, solves", [
    ("kg", _scaled_ch_argv(500.0) + ["--n-max", "1"], 3),
    ("dirac-spin", _scaled_ch_argv(500.0) + ["--kappa=-1,1", "--n-max", "0"], 2),
    ("dirac-pseudospin", _pseudospin_argv(500.0) + ["--kappa=1,2", "--n-max", "1"], 4),
])
def test_traced_levels_counts_solves_and_residuals(tmp_path, model, argv, solves):
    counts, stdout = _traced(tmp_path, ["levels", "--model", model, *argv])
    solver = SOLVERS[("kg", "dirac-spin", "dirac-pseudospin").index(model)]
    assert counts[solver] == solves
    assert sum(counts[name] for name in SOLVERS) == solves
    rows = _data_rows(stdout)
    assert rows
    assert counts["relativistic.residual"] == len(rows)
    assert counts["rootfind.scan_brackets"] >= solves
    assert counts["relativistic.spec"] == 0


def test_traced_sweep_counts_solves(tmp_path):
    counts, stdout = _traced(tmp_path, ["sweep", "--model", "dirac-spin", *_scaled_ch_argv(500.0),
                                        "--kappa=-1", "--n-max", "0", "--param", "a",
                                        "--from", "1500000", "--to", "1900000", "--steps", "3"])
    assert counts["relativistic.solve_dirac_spin"] == 3
    assert counts["relativistic.residual"] == 0
    assert [row.rsplit(",", 1)[1] for row in _data_rows(stdout)] == ["ok"] * 3


def test_traced_oracle_check_counts_each_check_once(tmp_path):
    counts, _ = _traced(tmp_path, ["oracle-check", "--models", "nonrel,kg,dirac-spin,dirac-pseudospin",
                                   "--molecules", "CH"])
    # the per-layer checks.*_s benchmark metrics read these six spans
    names = [name for name, *_ in spans.TARGETS if name.startswith("checks.")]
    assert len(names) == 6
    assert {name: counts[name] for name in names} == dict.fromkeys(names, 1)
