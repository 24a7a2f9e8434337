"""The reference-table scoring and calibration against their scalar loops.

`validate` builds each molecule's potential once and evaluates every
energy in plain floats at the strengths it scans, on a float rebuild of
the numpy calibration grid.  The loops here are the reference: one
`energy_nonrel` call per energy, with a fresh potential per call, on
`np.linspace`'s grid.  Every result must match bit for bit, over grid
sizes, screening parameters, a `--config` hbar c and a custom table.
"""

import math
import re

import numpy as np
import pytest

from hgmorse.cli import main
from hgmorse.errors import InvalidParameter, NoBoundState
from hgmorse.molecules import find_molecule, to_potential_params
from hgmorse.nonrel import energy_nonrel
from hgmorse.units import DEFAULT_UNITS, load_config
from hgmorse.validate import (
    ReferenceRow,
    calibrate,
    check_reference_shape,
    load_reference,
    packaged_reference_path,
    per_molecule_diagnostics,
    score,
)


def _model_energy(molecule, n, l, a, b, alpha, u):
    params, part = to_potential_params(find_molecule(molecule), a, b, alpha, u)
    return energy_nonrel(params, part, n, l)


def calibrate_loop(rows, alpha, grid, u):
    target = next(row.E_eV for row in rows if row.molecule == "CH" and row.n == 0 and row.l == 0)
    best = None
    for a in np.linspace(0.0, 5.0, grid):
        for b in np.linspace(0.0, 5.0, grid):
            dev = abs(_model_energy("CH", 0, 0, float(a), float(b), alpha, u) - target)
            if best is None or dev < best[0]:
                best = (dev, float(a), float(b))
    dev, a, b = best
    return a, b, dev


def diagnostics_loop(rows, alpha, u):
    out = {}
    by_molecule = {}
    for row in rows:
        by_molecule.setdefault(row.molecule, []).append(row)
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    for name, column in by_molecule.items():
        def sse(b):
            return sum((_model_energy(name, r.n, r.l, 1.0, b, alpha, u) - r.E_eV) ** 2 for r in column)

        lo, hi = -4.0, 1.0
        c = hi - gr * (hi - lo)
        d = lo + gr * (hi - lo)
        fc, fd = sse(c), sse(d)
        for _ in range(80):
            if fc < fd:
                hi, d, fd = d, c, fc
                c = hi - gr * (hi - lo)
                fc = sse(c)
            else:
                lo, c, fc = c, d, fd
                d = lo + gr * (hi - lo)
                fd = sse(d)
        b_best = 0.5 * (lo + hi)
        worst = max(abs(_model_energy(name, r.n, r.l, 1.0, b_best, alpha, u) - r.E_eV) for r in column)
        out[name] = (b_best, worst)
    return out


def score_loop(rows, a, b, alpha, u):
    devs = {}
    for row in rows:
        devs.setdefault(row.molecule, []).append(abs(_model_energy(row.molecule, row.n, row.l, a, b, alpha, u)
                                                     - row.E_eV))
    flat = [d for column in devs.values() for d in column]
    return {"per_molecule": {name: (max(column), sum(column) / len(column)) for name, column in devs.items()},
            "max": max(flat), "mean": sum(flat) / len(flat), "count": len(flat)}


@pytest.fixture(scope="module")
def custom_table(tmp_path_factory):
    """The packaged table in reverse row order, each energy moved by up to 3 meV."""
    lines = packaged_reference_path().read_text().splitlines()
    kept = [line for line in lines if not line or line.startswith(("#", "molecule,"))]
    data = [line for line in lines if line not in kept]
    for k, line in enumerate(reversed(data)):
        name, n, l, E = line.split(",")
        kept.append(f"{name},{n},{l},{float(E) + 1e-3 * (k % 7 - 3)!r}")
    path = tmp_path_factory.mktemp("table") / "table2.csv"
    path.write_text("\n".join(kept) + "\n")
    return path


@pytest.fixture(scope="module")
def hbar_units(tmp_path_factory):
    cfg = tmp_path_factory.mktemp("config") / "units.cfg"
    cfg.write_text("hbar_c = 1973.2698\n")
    return load_config(cfg)[0]


@pytest.fixture(params=["packaged", "custom"])
def rows(request, custom_table):
    return load_reference(None if request.param == "packaged" else custom_table)


@pytest.fixture(params=["default", "hbar_c"])
def units(request, hbar_units):
    return DEFAULT_UNITS if request.param == "default" else hbar_units


@pytest.mark.parametrize("alpha", [0.025, 0.1])
@pytest.mark.parametrize("grid", [1, 2, 7, 51])
def test_calibrate_matches_the_scalar_loop(rows, units, alpha, grid):
    got = calibrate(rows, alpha, grid, units)
    assert got == calibrate_loop(rows, alpha, grid, units)
    assert all(type(x) is float for x in got)


#: at 0.115 and 0.18 a pairwise (numpy) sum of the squared deviations flips a
#: golden-section comparison, and a fitted b moves in its last bits
@pytest.mark.parametrize("alpha", [0.025, 0.1, 0.115, 0.18])
def test_diagnostics_match_the_scalar_loop(rows, units, alpha):
    got, expected = per_molecule_diagnostics(rows, alpha, units), diagnostics_loop(rows, alpha, units)
    assert list(got.items()) == list(expected.items())
    assert all(type(x) is float for pair in got.values() for x in pair)


@pytest.mark.parametrize("alpha", [0.025, 0.1])
@pytest.mark.parametrize("a,b", [(0.0, 0.0), (1.0, 1.0), (4.9, 0.3)])
def test_score_matches_the_scalar_loop(rows, units, alpha, a, b):
    got, expected = score(rows, a, b, alpha, units), score_loop(rows, a, b, alpha, units)
    assert got == expected
    assert list(got["per_molecule"]) == list(expected["per_molecule"])
    assert all(type(x) is float for pair in got["per_molecule"].values() for x in pair)
    assert type(got["max"]) is float and type(got["mean"]) is float


def test_calibrate_finds_an_exact_grid_hit():
    # a CH(0,0) target equal to one grid point's energy: zero deviation there
    grid = 7
    values = np.linspace(0.0, 5.0, grid).tolist()
    p, part = to_potential_params(find_molecule("CH"), values[2], values[4], 0.025)
    target = energy_nonrel(p, part, 0, 0)
    rows = [ReferenceRow("CH", 0, 0, target) if (r.molecule, r.n, r.l) == ("CH", 0, 0) else r
            for r in load_reference()]
    assert calibrate(rows, 0.025, grid) == (values[2], values[4], 0.0)


def test_calibrate_without_a_ch_ground_row_is_a_usage_error(capsys, tmp_path):
    lines = packaged_reference_path().read_text().splitlines()
    table = tmp_path / "no_ground.csv"
    table.write_text("\n".join(line.replace("CH,0,0,", "CH,6,0,") for line in lines) + "\n")
    with pytest.raises(InvalidParameter, match="CH row with n = 0, l = 0"):
        calibrate(load_reference(table))
    # the CLI checks the table's shape first
    assert main(["validate", "--calibrate", "--table2", str(table)]) == 2
    assert capsys.readouterr().err == "error: reference table: CH row (n, l) = (6, 0) is outside n <= 5, l <= n\n"


def test_a_quantum_number_past_int64_is_unbound_not_a_crash(capsys, tmp_path):
    # l(l + 1) of l = 1e20 would not fit an int64 column
    lines = packaged_reference_path().read_text().splitlines()
    table = tmp_path / "huge_l.csv"
    table.write_text("\n".join(line.replace("HCl,5,5,", "HCl,5,100000000000000000000,") for line in lines) + "\n")
    with pytest.raises(NoBoundState, match="past the last bound level"):
        score(load_reference(table), 0.0, 0.0)
    # the CLI checks the table's shape first
    assert main(["validate", "--no-timestamp", "--table2", str(table)]) == 2
    assert capsys.readouterr().err == ("error: reference table: HCl row (n, l) = (5, 100000000000000000000) "
                                       "is outside n <= 5, l <= n\n")


@pytest.mark.parametrize("old,new,message", [
    ("CO,2,1,", "CO,2,0,", "CO repeats (n, l) = (2, 0)"),
    ("NO,3,2,", "NO,2,3,", "NO row (n, l) = (2, 3) is outside n <= 5, l <= n"),
    ("N2,4,4,", "N2,-1,0,", "N2 row (n, l) = (-1, 0) is outside n <= 5, l <= n"),
    ("HCl,0,0,", "HCl,0,-1,", "HCl row (n, l) = (0, -1) is outside n <= 5, l <= n"),
], ids=["repeat", "l-above-n", "negative-n", "negative-l"])
def test_a_table_off_the_level_triangle_is_a_usage_error(capsys, tmp_path, old, new, message):
    lines = packaged_reference_path().read_text().splitlines()
    assert sum(line.startswith(old) for line in lines) == 1
    table = tmp_path / "off_triangle.csv"
    table.write_text("\n".join(line.replace(old, new) for line in lines) + "\n")
    with pytest.raises(InvalidParameter, match=re.escape(message)):
        check_reference_shape(load_reference(table))
    assert main(["validate", "--no-timestamp", "--table2", str(table)]) == 2
    assert capsys.readouterr() == ("", f"error: reference table: {message}\n")


def test_the_packaged_table_in_any_row_order_passes_the_shape_check():
    rows = load_reference()
    check_reference_shape(rows[::-1])
