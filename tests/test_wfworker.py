"""The benchmark's wavefunction worker still runs against the public library API.

perfbench/wfworker.py calls the solvers, specs, residuals and radial values
of hgmorse directly, so a reshaped call there would show only in a benchmark
run.  These tests run one operation of each kind in process, plus the
worker's costliest states: nonrel n = 8 and pseudospin n = 2.
"""

import importlib.util
import math
from pathlib import Path

import pytest

WFWORKER_PY = Path(__file__).resolve().parents[1] / "perfbench" / "wfworker.py"
_spec = importlib.util.spec_from_file_location("perfbench_wfworker", WFWORKER_PY)
wfworker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(wfworker)

BASE = {"a": 1.0, "b": 1.0, "alpha": 0.025, "n": 1}


@pytest.mark.parametrize("op", [
    pytest.param({"kind": "nonrel", "mol": "CH", "l": 0}, id="nonrel"),
    pytest.param({"kind": "kg", "mol": "NO", "M": 500.0, "l": 0}, id="kg"),
    pytest.param({"kind": "spin", "mol": "NO", "M": 500.0, "kappa": -1}, id="spin"),
    pytest.param({"kind": "pseudospin", "mol": "CO", "M": 500.0, "kappa": 1}, id="pseudospin"),
    pytest.param({"kind": "nonrel", "mol": "N2", "l": 1, "n": 8}, id="nonrel-n8"),
    pytest.param({"kind": "pseudospin", "mol": "CH", "M": 5000.0, "kappa": 1, "n": 2}, id="pseudospin-n2"),
])
def test_run_op_gives_a_normalized_state(op):
    out = wfworker.run_op({**BASE, **op})
    assert out["finite"]
    assert math.isfinite(out["E"]) and math.isfinite(out["log_norm"])
    assert abs(out["grid_norm"] - 1.0) <= 1e-4
    if op["kind"] != "nonrel":
        assert abs(out["residual"]) <= 1e-9
