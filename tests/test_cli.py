import json
import math
import os
import re
import struct
import subprocess
import sys
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hgmorse.checks import pseudospin_params
from hgmorse.cli import EXIT_CHECK_FAILED, main
from hgmorse.errors import InvalidParameter, NoBoundState
from hgmorse.molecules import builtin_molecules, find_molecule, to_potential_params
from hgmorse.nonrel import energy_nonrel
from hgmorse.oracle import oracle_energies
from hgmorse.potential import PotentialParams
from hgmorse.record import replace
from hgmorse.relativistic import (
    pseudospin_printed_eq_residual,
    pseudospin_residual,
    solve_dirac_pseudospin,
    solve_dirac_spin,
    spin_printed_eq_residual,
    spin_residual,
)
from hgmorse.units import CM_INV_TO_EV, HBAR_C_EV_ANGSTROM, float_linspace
from hgmorse.validate import calibrate, load_reference, packaged_reference_path

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv,code", [
    (["levels", "--molecule", "CH", "--n-max", "1"], 0),
    (["potential", "--molecule", "CH", "--samples", "3", "--format", "json"], 0),
    (["oracle-check", "--models", "dirac-pseudospin", "--alpha", "0.2", "--molecules", "CH"], 1),
    (["levels", "--molecule", "XX"], 2),
    (["levels", "--bogus"], 2),
    (["levels", "--model", "dirac-pseudospin", "--molecule", "CH", "--a", "1", "--b", "1", "--mass", "500",
      "--n-max", "1", "--kappa", "1,2"], 3),
], ids=["levels", "json", "check-failed", "usage", "argparse", "no-bound-state"])
def test_module_entry_matches_in_process_main(capsys, argv, code):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    child = subprocess.run([sys.executable, "-m", "hgmorse.cli", *argv], capture_output=True, text=True, env=env,
                           timeout=300)
    assert (child.returncode, child.stdout, child.stderr) == run(capsys, *argv)
    assert child.returncode == code


def test_console_script_goes_through_run():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    assert scripts == {"hgmorse": "hgmorse.cli:run"}


def test_levels_triangular_layout(capsys):
    code, out, _ = run(capsys, "levels", "--model", "nonrel", "--molecule", "CH",
                       "--a", "0", "--b", "0", "--alpha", "0.025", "--n-max", "2")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "molecule,model,n,l,E_eV,oracle_E_eV,abs_dev_eV"
    assert len(lines) == 1 + 6


def test_levels_oracle_deviation_column(capsys):
    code, out, _ = run(capsys, "levels", "--molecule", "CH", "--a", "0", "--b", "0",
                       "--n-max", "1", "--oracle")
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        dev = float(line.split(",")[-1])
        assert dev <= 5e-4


def test_levels_kg_requires_mass(capsys):
    code, _, err = run(capsys, "levels", "--model", "kg", "--molecule", "CH")
    assert code == 2
    assert "mass" in err


def test_levels_output_is_deterministic(capsys):
    args = ("levels", "--molecule", "HCl", "--a", "1", "--b", "0.5", "--n-max", "3")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_levels_json_format(capsys):
    code, out, _ = run(capsys, "levels", "--molecule", "CH", "--a", "0", "--b", "0",
                       "--n-max", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 3


def _nonrel_rows(capsys, *argv):
    """(n, l, E, oracle E, deviation) of a nonrel CH table at a = b = 0, parsed once from CSV and once from JSON."""
    common = ("levels", "--molecule", "CH", "--a", "0", "--b", "0", *argv)
    code, out, _ = run(capsys, *common)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "molecule,model,n,l,E_eV,oracle_E_eV,abs_dev_eV"
    csv_rows = []
    for line in lines[1:]:
        _, _, n, l, E, oracle_E, dev = line.split(",")
        csv_rows.append((int(n), int(l), float(E), float(oracle_E) if oracle_E else None,
                         float(dev) if dev else None))
    code, out, _ = run(capsys, *common, "--format", "json")
    assert code == 0
    json_rows = [(r["n"], r["l"], r["E_eV"], r["oracle_E_eV"], r["abs_dev_eV"]) for r in json.loads(out)["rows"]]
    return csv_rows, json_rows


def test_levels_single_row_has_empty_oracle_columns(capsys):
    for rows in _nonrel_rows(capsys, "--n-max", "0", "--l-max", "0"):
        assert len(rows) == 1
        assert rows[0][:2] == (0, 0)
        assert rows[0][3] is None and rows[0][4] is None


def test_levels_oracle_columns(capsys):
    for rows in _nonrel_rows(capsys, "--n-max", "1", "--l-max", "1", "--oracle"):
        assert [(n, l) for n, l, *_ in rows] == [(0, 0), (1, 0), (1, 1)]
        for _, _, E, oracle_E, dev in rows:
            assert dev is not None and dev <= 5e-4
            assert dev == abs(E - oracle_E)


def test_levels_relativistic_kg(capsys, ch_unit):
    p, part = ch_unit
    scale = part.mu_energy / 500.0
    code, out, _ = run(capsys, "levels", "--model", "kg",
                       "--De-cm", str(p.D_e * scale / CM_INV_TO_EV), "--re", "1.1198",
                       "--mu-amu", "1.0", "--a", str(scale), "--b", str(scale),
                       "--mass", "500", "--n-max", "0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "molecule,model,n,l,kappa,D,E_eV,residual,cross_check_residual"
    assert len(lines) >= 2
    resid = float(lines[1].split(",")[7])
    assert abs(resid) <= 1e-9


def test_levels_exit_3_when_nothing_bound(capsys):
    # unscaled molecular strengths cannot bind at M = 500
    code, _, err = run(capsys, "levels", "--model", "dirac-pseudospin", "--molecule", "CH",
                       "--a", "1", "--b", "1", "--mass", "500", "--n-max", "1", "--kappa", "1,2")
    assert code == 3


def test_levels_kappa_list_parses_space_separated(capsys, ch_unit):
    p, part = ch_unit
    scale = part.mu_energy / 500.0
    common = ("levels", "--model", "dirac-spin", "--De-cm", str(p.D_e * scale / CM_INV_TO_EV),
              "--re", "1.1198", "--mu-amu", "1.0", "--a", str(scale), "--b", str(scale),
              "--mass", "500", "--n-max", "0")
    code, out, _ = run(capsys, *common, "--kappa", "-1,1,-2")
    assert code == 0
    assert [line.split(",")[4] for line in out.strip().splitlines()[1:]] == ["-1", "1", "-2"]
    assert run(capsys, *common, "--kappa=-1,1,-2") == (code, out, "")


def test_potential_curve_output(capsys):
    code, out, _ = run(capsys, "potential", "--molecule", "CH", "--a", "0", "--b", "0",
                       "--r-min", "1", "--r-max", "3", "--samples", "3")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "r,V_exact,V_approx"
    assert len(lines) == 4
    assert lines[1].startswith("1,")
    assert lines[3].startswith("3,")


def test_potential_json_cells_equal_the_csv_cells(capsys):
    argv = ("potential", "--molecule", "CH", "--a", "1", "--b", "1", "--samples", "5")
    _, csv_out, _ = run(capsys, *argv)
    code, json_out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(json_out)["rows"] == [line.split(",") for line in csv_out.splitlines()[1:]]


def test_potential_bad_range(capsys):
    code, _, err = run(capsys, "potential", "--molecule", "CH", "--r-min", "5", "--r-max", "1")
    assert code == 2


def test_sweep_a_strictly_decreasing(capsys):
    code, out, _ = run(capsys, "sweep", "--molecule", "CH", "--b", "0", "--param", "a",
                       "--from", "0", "--to", "5", "--steps", "11", "--n-max", "0")
    assert code == 0
    lines = [line for line in out.strip().splitlines() if line and not line.startswith("#")]
    energies = [float(line.split(",")[3]) for line in lines[1:]]
    assert all(b < a for a, b in zip(energies, energies[1:]))
    assert any("monotonic decreasing" in line for line in out.splitlines() if line.startswith("#"))


def test_sweep_two_steps_row_count(capsys):
    code, out, _ = run(capsys, "sweep", "--molecule", "CH", "--param", "b",
                       "--from", "0", "--to", "1", "--steps", "2", "--n-max", "1")
    lines = [line for line in out.strip().splitlines() if line and not line.startswith("#")]
    assert code == 0
    assert len(lines) == 1 + 2 * 3  # header + 2 sweep points x 3 states


def test_sweep_b_reports_shape(capsys):
    # the repulsive Yukawa term raises the level with b until it unbinds at
    # b = 9, where the FD spectrum has no level below D_e (see test_nonrel); the
    # squared closed form once went on past it, falling, and read "non-monotonic (max near b = 9)"
    code, out, _ = run(capsys, "sweep", "--molecule", "CH", "--a", "0", "--param", "b",
                       "--from", "0", "--to", "12", "--steps", "25", "--n-max", "0")
    assert code == 0
    shape_lines = [line for line in out.splitlines() if line.startswith("# shape")]
    assert shape_lines == ["# shape n=0 l=0: monotonic increasing"]
    statuses = [line.split(",")[-1] for line in out.splitlines()[1:] if not line.startswith("#")]
    assert statuses == ["ok"] * 18 + ["no_bound_state"] * 7


def _sweep_series(out: str, n: int, l: int) -> tuple[list[float], list[float]]:
    rows = [line.split(",") for line in out.splitlines()[1:] if not line.startswith("#")]
    assert all(row[4] == "ok" for row in rows)
    picked = [row for row in rows if (int(row[1]), int(row[2])) == (n, l)]
    return [float(row[0]) for row in picked], [float(row[3]) for row in picked]


def test_sweep_alpha_reports_a_non_monotonic_shape(capsys):
    # CH n = 0, l = 10 at a = 0, b = 1: the level dips to its least near alpha = 0.37,
    # with every step bound, and rises again to the sweep's upper end
    code, out, _ = run(capsys, "sweep", "--molecule", "CH", "--a", "0", "--b", "1", "--param", "alpha",
                       "--from", "0.01", "--to", "1", "--steps", "23", "--n-max", "0", "--l-max", "10",
                       "--rectangular")
    assert code == 0
    alphas, energies = _sweep_series(out, 0, 10)
    assert alphas[int(np.argmin(energies))] == pytest.approx(0.37)
    assert out.splitlines()[-1] == "# shape n=0 l=10: non-monotonic (min near alpha = 0.37)"


def test_sweep_alpha_reports_a_peak_at_its_greatest_level(capsys):
    # CH n = 0, l = 0 at a = 1, b = -1: the level rises to its greatest near alpha = 0.46 and falls again
    code, out, _ = run(capsys, "sweep", "--molecule", "CH", "--a", "1", "--b", "-1", "--param", "alpha",
                       "--from", "0.01", "--to", "1", "--steps", "23", "--n-max", "0")
    assert code == 0
    alphas, energies = _sweep_series(out, 0, 0)
    assert alphas[int(np.argmax(energies))] == pytest.approx(0.46)
    assert energies[0] < energies[10] and energies[-1] < energies[10]
    assert out.splitlines()[-1] == "# shape n=0 l=0: non-monotonic (max near alpha = 0.46)"


def test_sweep_that_turns_twice_names_no_extreme(capsys):
    # CH n = 1, l = 1 at a = -1, b = 5 rises to alpha = 0.55, dips to 0.775 and rises again:
    # its least and greatest levels are at the ends of the sweep
    code, out, _ = run(capsys, "sweep", "--molecule", "CH", "--a", "-1", "--b", "5", "--param", "alpha",
                       "--from", "0.01", "--to", "1", "--steps", "23", "--n-max", "1", "--l-max", "1",
                       "--rectangular")
    assert code == 0
    _, energies = _sweep_series(out, 1, 1)
    assert int(np.argmin(energies)) == 0 and int(np.argmax(energies)) == len(energies) - 1
    assert out.splitlines()[-1] == "# shape n=1 l=1: non-monotonic"


@pytest.mark.parametrize("param,start,stop", [("De", "20000", "40000"), ("re", "0.9", "1.4")])
def test_sweep_De_and_re_match_energy_nonrel(capsys, param, start, stop):
    code, out, _ = run(capsys, "sweep", "--molecule", "CH", "--a", "1", "--b", "0.5", "--param", param,
                       "--from", start, "--to", stop, "--steps", "3", "--n-max", "1")
    assert code == 0
    p, part = to_potential_params(find_molecule("CH"), 1.0, 0.5, 0.025)
    expected = [f"{param},n,l,E_eV,status"]
    for value in np.linspace(float(start), float(stop), 3):
        De = float(value) * CM_INV_TO_EV if param == "De" else p.D_e
        re = float(value) if param == "re" else p.r_e
        p_i = PotentialParams(a=1.0, b=0.5, D_e=De, r_e=re, alpha=0.025)
        for n, l in ((0, 0), (1, 0), (1, 1)):
            expected.append(f"{float(value):.17g},{n},{l},{energy_nonrel(p_i, part, n, l):.17g},ok")
    lines = out.splitlines()
    assert lines[:len(expected)] == expected
    assert all(line.startswith("# shape") for line in lines[len(expected):])


def test_sweep_nan_step_is_an_invalid_parameter_row(capsys):
    code, out, _ = run(capsys, "sweep", "--molecule", "CH", "--param", "a", "--from", "nan", "--to", "1",
                       "--steps", "3", "--n-max", "0")
    assert code == 0
    E = energy_nonrel(*to_potential_params(find_molecule("CH"), 1.0, 0.0, 0.025), 0, 0)
    assert out.splitlines()[1:4] == ["nan,0,0,,invalid_parameter", "nan,0,0,,invalid_parameter", f"1,0,0,{E:.17g},ok"]


def test_sweep_json_cells_equal_the_csv_cells(capsys):
    argv = ("sweep", "--molecule", "CH", "--param", "a", "--from", "nan", "--to", "1", "--steps", "3", "--n-max", "1")
    _, csv_out, _ = run(capsys, *argv)
    code, json_out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    payload = json.loads(json_out)
    rows, lines = payload["rows"], csv_out.splitlines()
    assert payload["param"] == "a" and lines[0] == "a,n,l,E_eV,status"
    assert len(rows) == 3 * 3
    assert [",".join("" if cell is None else str(cell) for cell in row) for row in rows] == lines[1:1 + len(rows)]
    assert [f"# shape {line}" for line in payload["shape"]] == lines[1 + len(rows):]
    assert rows[0] == ["nan", 0, 0, None, "invalid_parameter"]


def test_validate_packaged_reference(capsys):
    code, out, _ = run(capsys, "validate", "--calibrate", "--no-timestamp")
    assert code == 0
    assert "entries scored: 105" in out
    assert "verdict: NOT reproducible" in out
    assert "gate E(n+1,l) > E(n,l) for n < 5, every molecule: PASS" in out
    assert "gate HCl n=1 ordering E(1,0) < E(1,1): PASS" in out
    assert "signature: sha256" in out


def test_validate_reports_deterministically(capsys):
    _, out1, _ = run(capsys, "validate", "--no-timestamp", "--a", "1", "--b", "1")
    _, out2, _ = run(capsys, "validate", "--no-timestamp", "--a", "1", "--b", "1")
    assert out1 == out2


def test_validate_synthetic_perfect_reference(capsys, tmp_path):
    lines = ["molecule,n,l,E_eV"]
    for mol in builtin_molecules():
        p, part = to_potential_params(mol, 1.0, 1.0, 0.025)
        for n in range(6):
            for l in range(n + 1):
                lines.append(f"{mol.name},{n},{l},{energy_nonrel(p, part, n, l):.17g}")
    ref = tmp_path / "ref.csv"
    ref.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "validate", "--table2", str(ref), "--a", "1", "--b", "1",
                       "--no-timestamp")
    assert code == 0
    assert "reproduced within 0.005 eV" in out
    assert float(next(l for l in out.splitlines() if l.startswith("overall")).split("=")[1].split()[0]) < 1e-12


def test_validate_exit_code_follows_gates(capsys, monkeypatch):
    import hgmorse.validate as validate_mod

    monkeypatch.setattr(validate_mod, "qualitative_gates",
                        lambda *args, **kwargs: {"monotone_in_n": True, "hcl_n1_l_ordering": False})
    code, _, _ = run(capsys, "validate", "--no-timestamp", "--a", "1", "--b", "1")
    assert code == EXIT_CHECK_FAILED


def test_validate_missing_reference(capsys, tmp_path):
    code, _, err = run(capsys, "validate", "--table2", str(tmp_path / "nope.csv"))
    assert code == 2


def test_validate_timestamp_header_leaves_body_and_signature_unchanged(capsys):
    _, plain, _ = run(capsys, "validate", "--no-timestamp")
    code, stamped, _ = run(capsys, "validate")
    assert code == 0
    header, _, rest = stamped.partition("\n")
    assert header.startswith("# generated: ")
    assert datetime.fromisoformat(header.removeprefix("# generated: ")).tzinfo is not None
    assert rest == plain


@pytest.mark.parametrize("body,message", [
    ("molecule,n,l,E_eV\nCH,0,0\n", "{ref}:2: expected 4 fields, got 3"),
    ("CH,0,zero,-1.0\n", "{ref}:1: invalid literal for int()"),
    ("molecule,n,l,E_eV\n# no rows\n", "{ref}: no reference rows"),
    ("CH,0,0,-1.0\n", "reference table malformed: {{'CH': 1}}"),
    ("molecule,n,l,E_eV\nCH,0,0,-1.0\nCH,1,0,nan\n", "{ref}:3: E_eV must be finite, got nan"),
], ids=["field-count", "bad-number", "no-rows", "shape", "non-finite"])
def test_bad_reference_table_is_a_usage_error(capsys, tmp_path, body, message):
    ref = tmp_path / "ref.csv"
    ref.write_text(body)
    code, out, err = run(capsys, "validate", "--no-timestamp", "--table2", str(ref))
    assert code == 2
    assert out == ""
    assert err.startswith("error: " + message.format(ref=ref))


@pytest.mark.parametrize("kind", ["directory", "non-utf8", "missing"])
@pytest.mark.parametrize("argv", [
    ("levels", "--molecule", "CH", "--n-max", "0", "--config"),
    ("levels", "--molecule", "CH", "--n-max", "0", "--molecule-file"),
    ("validate", "--no-timestamp", "--table2"),
], ids=["config", "molecule-file", "table2"])
def test_unreadable_input_file_is_a_usage_error(capsys, tmp_path, argv, kind):
    path = tmp_path / "input.txt"
    if kind == "directory":
        path.mkdir()
    elif kind == "non-utf8":
        path.write_bytes(b"\xff\n")
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert str(path) in err


@pytest.mark.parametrize("option,argv,body", [
    ("--config", ("levels", "--molecule", "CH", "--a", "1", "--b", "1.5", "--n-max", "0"), "b_sign = -1\n"),
    ("--molecule-file", ("levels", "--molecule", "XY", "--n-max", "1"),
     "name,De_cm,re_angstrom,mu_amu\nXY,31838.08,1.1198,0.929931\n"),
    ("--table2", ("validate", "--no-timestamp", "--a", "1", "--b", "1"),
     packaged_reference_path().read_text(encoding="utf-8")),
], ids=["config", "molecule-file", "table2"])
def test_input_file_with_a_byte_order_mark_reads_as_without(capsys, tmp_path, option, argv, body):
    # editors on Windows save UTF-8 with a leading U+FEFF; it must not reach the first key, name or header
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(body, encoding="utf-8")
    marked.write_text(body, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    code, out, err = run(capsys, *argv, option, str(plain))
    assert (code, err) == (0, "")
    assert run(capsys, *argv, option, str(marked)) == (code, out, err)


@pytest.mark.parametrize("argv,first_lines", [
    (("potential", "--molecule", "CH", "--samples", "200000"), [b"r,V_exact,V_approx\n"]),
    (("levels", "--molecule", "CH", "--n-max", "0"), []),
], ids=["long-table-after-one-line", "short-table-at-once"])
def test_closed_stdout_exits_141_without_a_message(argv, first_lines):
    # the reader goes away, as `| head -1` does: during the writes of a long table, or before a
    # short one leaves stdout's buffer, so that only the final flush meets the closed pipe
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen([sys.executable, "-m", "hgmorse.cli", *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    assert [proc.stdout.readline() for _ in first_lines] == first_lines
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 141
    assert err == b""


def test_sweep_relativistic_flags_unbound_points(capsys, ch_unit):
    p, part = ch_unit
    scale = part.mu_energy / 500.0
    code, out, _ = run(capsys, "sweep", "--model", "kg", "--param", "a",
                       "--De-cm", str(p.D_e * scale / CM_INV_TO_EV), "--re", "1.1198",
                       "--mu-amu", "1.0", "--b", str(scale), "--mass", "500",
                       "--from", "0", "--to", str(2 * scale), "--steps", "3", "--n-max", "0")
    assert code == 0
    lines = [line for line in out.strip().splitlines() if line and not line.startswith("#")]
    assert lines[0] == "a,n,l,E_eV,status"
    assert all(line.endswith(",ok") for line in lines[1:])


def test_sweep_relativistic_requires_mass(capsys):
    code, _, err = run(capsys, "sweep", "--model", "kg", "--molecule", "CH", "--param", "a",
                       "--from", "0", "--to", "1", "--steps", "2")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("levels", "--molecule", "CH", "--a", "nan"),
    ("levels", "--molecule", "CH", "--b", "inf"),
    ("levels", "--molecule", "CH", "--alpha", "inf"),
    ("potential", "--molecule", "CH", "--a", "nan"),
])
def test_non_finite_potential_parameter_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "must be finite" in err


@pytest.mark.parametrize("alpha,message", [("1000", "overflows"), ("1e-300", "underflows")])
def test_out_of_range_alpha_is_a_usage_error(capsys, alpha, message):
    code, out, err = run(capsys, "levels", "--molecule", "CH", "--alpha", alpha)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err


def test_sweep_out_of_range_alpha_step_is_an_invalid_parameter_row(capsys):
    code, out, _ = run(capsys, "sweep", "--molecule", "CH", "--param", "alpha", "--from", "0.02", "--to", "1000",
                       "--steps", "2")
    assert code == 0
    E = energy_nonrel(*to_potential_params(find_molecule("CH"), 0.0, 0.0, 0.02), 0, 0)
    assert out.splitlines()[1:3] == [f"0.02,0,0,{E:.17g},ok", "1000,0,0,,invalid_parameter"]


@pytest.mark.parametrize("start,stop,values", [
    ("1", "inf", ["nan", "inf", "inf"]),  # 0*inf at the first step
    ("-1e308", "1e308", ["nan", "inf", "1e+308"]),  # stop - start overflows
])
def test_sweep_non_finite_grid_is_quiet(capsys, start, stop, values):
    # the grid is float arithmetic: its inf and nan steps raise no warning (pytest makes one an error)
    code, out, err = run(capsys, "sweep", "--molecule", "CH", "--param", "a", "--from", start, "--to", stop,
                         "--steps", "3", "--n-max", "0")
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == [f"{v},0,0,,invalid_parameter" for v in values] + ["# shape n=0 l=0: undetermined"]


def _bits(values: list[float]) -> list[bytes]:
    return [struct.pack("<d", v) for v in values]


_GRID_ENDS = st.one_of(
    st.floats(),  # finite of every size, with inf and NaN
    st.floats(-1e-320, 1e-320),  # subnormal: numpy's step == 0 branch
    st.floats(1e307, 1.7e308).flatmap(lambda x: st.sampled_from((x, -x))),  # stop - start overflows
    st.sampled_from((math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324)),
)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(start=_GRID_ENDS, stop=_GRID_ENDS, steps=st.integers(1, 500), same=st.booleans())
@example(start=0.0, stop=5e-324, steps=3, same=False)
@example(start=-1e-322, stop=1e-322, steps=500, same=False)
@example(start=-1e308, stop=1e308, steps=3, same=False)
@example(start=1.0, stop=math.inf, steps=2, same=False)
@example(start=math.nan, stop=1.0, steps=3, same=False)
@example(start=0.25, stop=0.25, steps=7, same=True)
@example(start=math.inf, stop=1.0, steps=1, same=False)  # one value: 0*(stop - start) + start
# the validate calibration grids
@example(start=0.0, stop=5.0, steps=1, same=False)
@example(start=0.0, stop=5.0, steps=2, same=False)
@example(start=0.0, stop=5.0, steps=7, same=False)
@example(start=0.0, stop=5.0, steps=51, same=False)
@example(start=0.0, stop=5.0, steps=201, same=False)
def test_sweep_grid_is_numpy_linspace_bit_for_bit(start, stop, steps, same):
    # the sweep and the validate calibration share float_linspace
    stop = start if same else stop
    with np.errstate(all="ignore"):
        expected = np.linspace(start, stop, steps).tolist()
    assert _bits(float_linspace(start, stop, steps)) == _bits(expected)


def test_sweep_non_finite_closed_form_is_an_invalid_parameter_row(capsys):
    code, out, _ = run(capsys, "sweep", "--molecule", "CH", "--param", "a", "--from", "0", "--to", "1e308",
                       "--steps", "2")
    assert code == 0
    E = energy_nonrel(*to_potential_params(find_molecule("CH"), 0.0, 0.0, 0.025), 0, 0)
    assert out.splitlines()[1:3] == [f"0,0,0,{E:.17g},ok", "1e+308,0,0,,invalid_parameter"]


KG_LEVELS = ("levels", "--model", "kg", "--molecule", "CH", "--mass", "500")
KG_SWEEP = ("sweep", "--model", "kg", "--molecule", "CH", "--mass", "500", "--param", "a", "--from", "0", "--to", "1",
            "--steps", "2")


@pytest.mark.parametrize("argv", (KG_LEVELS + ("--scan-points", "10"), KG_LEVELS + ("--tol", "1e-9"),
                                  KG_SWEEP + ("--scan-points", "10"), KG_SWEEP + ("--tol", "1e-9"),
                                  ("oracle-check", "--grid-points", "4001")),
                         ids=("levels-scan-points", "levels-tol", "sweep-scan-points", "sweep-tol",
                              "oracle-check-grid-points"))
def test_removed_numerics_option_is_a_usage_error(capsys, argv):
    # the root scan, the bisection width and the FD grid are constants, not options
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err

def test_potential_infinite_r_max_is_a_usage_error(capsys):
    code, out, err = run(capsys, "potential", "--molecule", "CH", "--r-max", "inf", "--samples", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_overflowing_potential_curve_is_a_usage_error(capsys):
    code, out, err = run(capsys, "potential", "--molecule", "CH", "--a", "1e308", "--b", "1e308", "--samples", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "not finite" in err


def test_non_finite_energy_is_a_usage_error(capsys):
    code, out, err = run(capsys, "levels", "--molecule", "CH", "--a", "1e308", "--b", "1e308", "--n-max", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "not finite" in err


def test_validate_overflow_is_a_usage_error_naming_the_level(capsys):
    code, out, err = run(capsys, "validate", "--a", "1e308", "--b", "1e308", "--no-timestamp")
    assert (code, out) == (2, "")
    assert err == "error: E(n=0, l=0) is not finite: the closed form overflows at these parameters\n"


def test_relativistic_overflow_is_a_usage_error(capsys):
    code, out, err = run(capsys, "levels", "--model", "kg", "--molecule", "CH", "--mass", "1e156", "--n-max", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "QuantumNumbers(n=0, l=0, D=3)" in err and "not finite" in err


def test_relativistic_sweep_marks_an_overflowing_step_invalid(capsys):
    code, out, _ = run(capsys, "sweep", "--model", "dirac-spin", "--molecule", "CH", "--mass", "500",
                       "--kappa=-1", "--n-max", "0", "--param", "a", "--from", "0", "--to", "1e308", "--steps", "3")
    assert code == 0
    assert [line.rsplit(",", 1)[1] for line in out.splitlines()[1:4]] == \
        ["no_bound_state", "invalid_parameter", "invalid_parameter"]


@pytest.mark.parametrize("command", [
    ("levels", "--model", "kg"),
    ("sweep", "--model", "dirac-spin", "--kappa=-1", "--param", "a", "--from", "0", "--to", "1", "--steps", "2"),
])
def test_config_hbar_c_whose_square_underflows_is_a_usage_error(capsys, tmp_path, command):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("hbar_c = 1e-170\n")
    code, out, err = run(capsys, *command, "--molecule", "CH", "--mass", "500", "--n-max", "0", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "hbar_c^2 underflows" in err


@pytest.mark.parametrize("mass", ["-5", "nan", "0", "inf"])
@pytest.mark.parametrize("command", [
    ("levels",),
    ("sweep", "--param", "a", "--from", "0", "--to", "1", "--steps", "2"),
])
def test_mass_must_be_finite_and_positive(capsys, command, mass):
    code, out, err = run(capsys, *command, "--model", "kg", "--molecule", "CH", f"--mass={mass}")
    assert code == 2
    assert out == ""
    assert "--mass must be finite and > 0" in err


@pytest.mark.parametrize("option,value", [("--cs", "nan"), ("--cs", "-inf"), ("--cps", "inf"), ("--cps", "nan")])
@pytest.mark.parametrize("command", [
    ("levels",),
    ("sweep", "--param", "a", "--from", "0", "--to", "1", "--steps", "2"),
])
def test_spin_constant_must_be_finite(capsys, command, option, value):
    model = "dirac-spin" if option == "--cs" else "dirac-pseudospin"
    code, out, err = run(capsys, *command, "--model", model, "--molecule", "CH", "--a", "1", "--b", "1",
                         "--mass", "500", "--n-max", "0", f"{option}={value}")
    assert code == 2
    assert out == ""
    assert f"{option} must be finite" in err


@pytest.mark.parametrize("argv,option,value", [
    (("levels", "--molecule", "CH", "--a", "1", "--n-max", "1"), "--b", "-1e-1"),
    (("levels", "--molecule", "CH", "--a", "1", "--n-max", "1"), "--b", "-.5e-1"),
    (("sweep", "--molecule", "CH", "--param", "b", "--to", "0", "--steps", "2"), "--from", "-2E-1"),
    (("sweep", "--molecule", "CH", "--param", "b", "--from", "-1", "--steps", "2"), "--to", "-1e-2"),
    (("levels", "--model", "dirac-spin", "--molecule", "CH", "--mass", "500", "--n-max", "0"), "--cs", "-1e-3"),
    (("levels", "--model", "dirac-pseudospin", "--molecule", "CH", "--mass", "500", "--n-max", "0"), "--cps", "-1e3"),
])
def test_dash_led_option_value_parses_as_in_the_equals_form(capsys, argv, option, value):
    spaced = run(capsys, *argv, option, value)
    assert spaced[0] != 2
    assert spaced == run(capsys, *argv, f"{option}={value}")


def test_oracle_check_details_csv(capsys):
    code, out, _ = run(capsys, "oracle-check", "--models", "nonrel", "--details")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "model,n,l,E_closed,E_oracle,abs_dev,grid_points,extrapolated"
    assert lines[1] == "# molecule = CH"
    first = lines[2].split(",")
    assert first[0] == "nonrel" and first[6] == "20001" and first[7] == "True"
    assert float(first[5]) <= 5e-4


def test_oracle_check_details_runs_each_fd_comparison_once(capsys, monkeypatch):
    import hgmorse.checks as checks

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return oracle_energies(*args, **kwargs)

    monkeypatch.setattr(checks, "oracle_energies", counted)
    # with nonrel the verdict reuses the detail rows; without it the details solve them alone
    for models, equivalence_verdicts in (("nonrel", 2), ("kg", 0)):
        calls.clear()
        code, out, _ = run(capsys, "oracle-check", "--models", models, "--details", "--molecules", "CH,NO")
        assert code == 0
        # one FD solve per (strength pair, l) and molecule
        assert len(calls) == 2 * 6
        lines = out.splitlines()
        assert [line for line in lines if line.startswith("# molecule")] == ["# molecule = CH", "# molecule = NO"]
        assert sum(line.startswith("nonrel,") for line in lines) == 2 * 24
        assert [line.split(" ", 2)[:2] for line in lines if line.startswith("oracle-equivalence")] == \
            [["oracle-equivalence", "PASS"]] * equivalence_verdicts


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_levels_oracle_pinned_to_one_cpu_prints_the_same_bytes():
    # pinned, numpy's BLAS starts one thread; unpinned, one per CPU: the DVR eigenvalues
    # must not depend on that
    argv = ["levels", "--molecule", "CH", "--a", "2.375", "--b", "0.51", "--n-max", "3", "--oracle"]
    child = ("import os, sys\n"
             "if sys.argv[1] == 'pin':\n"
             "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
             "from hgmorse.cli import main\n"
             "sys.exit(main(sys.argv[2:]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    pinned, free = (subprocess.run([sys.executable, "-c", child, mode, *argv], capture_output=True, env=env,
                                   timeout=300) for mode in ("pin", "free"))
    assert pinned.returncode == free.returncode == 0
    assert pinned.stdout == free.stdout
    assert len(pinned.stdout.splitlines()) == 1 + 10


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_oracle_check_pinned_to_one_cpu_prints_the_same_bytes():
    # pinned, each molecule's FD solves run one after another; unpinned, on up to one FD worker
    # per CPU; only each molecule's own "in X.X s" wall time may differ
    argv = ["oracle-check", "--details", "--molecules", "CH,NO", "--models", "nonrel,kg"]
    child = ("import os, sys\n"
             "if sys.argv[1] == 'pin':\n"
             "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
             "from hgmorse.cli import main\n"
             "sys.exit(main(sys.argv[2:]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    pinned, free = (subprocess.run([sys.executable, "-c", child, mode, *argv], capture_output=True, env=env,
                                   timeout=300) for mode in ("pin", "free"))
    assert pinned.returncode == free.returncode == 0
    untimed = [re.sub(rb" in \d+\.\d s$", b"", line) for line in pinned.stdout.splitlines()]
    assert untimed == [re.sub(rb" in \d+\.\d s$", b"", line) for line in free.stdout.splitlines()]
    # the CSV header, two molecule blocks of 24 rows, and seven verdicts, the timing cut from both
    # oracle-equivalence lines
    assert len(untimed) == 1 + 2 * 25 + 7
    assert sum(line.endswith(b" eV") for line in untimed) == 2


def test_oracle_worker_error_keeps_its_exit_code(capsys):
    # the closed form binds every level, but the first l column's DVR potential overflows
    code, out, err = run(capsys, "levels", "--molecule", "CH", "--a", "1e306", "--b", "1e306",
                         "--n-max", "2", "--oracle")
    assert code == EXIT_CHECK_FAILED
    assert out == ""
    assert err == "solver failure: DVR Hamiltonian is not finite on the grid\n"


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads the peak RSS from /proc")
def test_levels_oracle_reaches_n_80_in_bounded_memory():
    # CH's l = 0 column up to n = 80 in a fresh process: every level agrees with the closed
    # form, and the DVR box stays a few hundred points, far under its budget.  The peak RSS
    # is VmHWM: the child's ru_maxrss would also count this test process, which the child
    # shares memory with until it execs
    argv = ["levels", "--molecule", "CH", "--n-max", "80", "--l-max", "0", "--oracle"]
    child = ("import re, sys\n"
             "from hgmorse.cli import main\n"
             "code = main(sys.argv[1:])\n"
             "with open('/proc/self/status') as status:\n"
             "    print(re.search(r'VmHWM:\\s*(\\d+) kB', status.read()).group(1), file=sys.stderr)\n"
             "sys.exit(code)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", child, *argv], capture_output=True, text=True, env=env,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    rows = done.stdout.splitlines()[1:]
    assert [int(row.split(",")[2]) for row in rows] == list(range(81))
    assert max(float(row.split(",")[6]) for row in rows) <= 1e-9
    assert int(done.stderr) < 100 * 1024  # KiB


@pytest.mark.parametrize("option,value", [("--molecules", "CH,CH"), ("--molecules", "CH,NO,CH"),
                                          ("--models", "nonrel,nonrel")])
def test_oracle_check_rejects_repeated_values(capsys, option, value):
    code, out, err = run(capsys, "oracle-check", option, value)
    assert code == 2
    assert out == ""
    assert "repeated" in err


def test_oracle_check_rejects_empty_models(capsys):
    code, _, err = run(capsys, "oracle-check", "--models", "")
    assert code == 2


def test_oracle_check_rejects_unknown_model(capsys):
    code, _, err = run(capsys, "oracle-check", "--models", "schrodinger-cat")
    assert code == 2


def test_oracle_check_exit_code_follows_the_records(capsys, monkeypatch):
    import hgmorse.checks as checks

    code, passing, _ = run(capsys, "oracle-check", "--models", "kg")
    assert code == 0
    real = checks.check_cross_identities
    monkeypatch.setattr(checks, "check_cross_identities", lambda *args: replace(real(*args), pair=1.0))
    code, failing, _ = run(capsys, "oracle-check", "--models", "kg")
    assert code == EXIT_CHECK_FAILED
    passing, failing = passing.splitlines(), failing.splitlines()
    assert [line.split(" ", 2)[:2] for line in passing] == [["relativistic-residuals", "PASS"],
                                                           ["cross-identities", "PASS"]]
    assert failing[0] == passing[0]
    assert failing[1].startswith("cross-identities FAIL KG/spin max|dE| = 1 eV, ")


def test_oracle_check_fails_a_broken_spin_doublet(capsys, monkeypatch):
    import hgmorse.checks as checks

    real = checks.check_cross_identities
    monkeypatch.setattr(checks, "check_cross_identities", lambda *args: replace(real(*args), doublet=1.0))
    code, out, _ = run(capsys, "oracle-check", "--models", "kg")
    assert code == EXIT_CHECK_FAILED
    line = out.splitlines()[1]
    assert line.startswith("cross-identities FAIL KG/spin max|dE| = ")
    assert line.endswith(", spin-doublet max|dE| = 1 eV")


def test_oracle_check_reports_unbound_states(capsys):
    # at alpha = 0.2 the scaled CH well binds no KG or spin n = 1 state at M = 500,
    # and cases of the residuals check bind too few states: both verdicts print and fail
    code, out, _ = run(capsys, "oracle-check", "--models", "kg,dirac-spin,dirac-pseudospin",
                       "--alpha", "0.2", "--molecules", "CH")
    assert code == EXIT_CHECK_FAILED
    lines = out.splitlines()
    assert [line.split(" ", 2)[:2] for line in lines] == [["relativistic-residuals", "FAIL"],
                                                         ["cross-identities", "FAIL"]]
    assert lines[0].endswith(", a case bound too few states")
    assert lines[1].endswith(", no bound state at M=500 l=0; M=500 l=1")


def test_residuals_verdict_reports_binding_apart_from_flips():
    from hgmorse.checks import RelativisticResiduals

    name, ok, detail = RelativisticResiduals(8, 1e-15, True, False).verdict()
    assert not ok
    assert detail.endswith("shooting flips within 1e-8*M: True, a case bound too few states")
    assert RelativisticResiduals(8, 1e-15, False, True).verdict()[2].endswith("within 1e-8*M: False")


def test_config_b_sign_flips_yukawa(capsys, tmp_path):
    cfg = tmp_path / "flip.cfg"
    cfg.write_text("b_sign = -1\n")
    _, out_plus, _ = run(capsys, "levels", "--molecule", "CH", "--a", "1", "--b", "1.5", "--n-max", "0")
    _, out_flip, _ = run(capsys, "levels", "--molecule", "CH", "--a", "1", "--b", "1.5",
                         "--n-max", "0", "--config", str(cfg))
    e_plus = float(out_plus.strip().splitlines()[1].split(",")[4])
    e_flip = float(out_flip.strip().splitlines()[1].split(",")[4])
    assert e_flip < e_plus  # attractive Yukawa binds deeper


@pytest.mark.parametrize("argv", [
    ("levels", "--molecule", "CH", "--n-max", "0"),
    ("potential", "--molecule", "CH", "--samples", "3"),
    ("sweep", "--molecule", "CH", "--param", "a", "--from", "0", "--to", "1", "--steps", "2"),
    ("validate", "--no-timestamp"),
    ("oracle-check", "--models", "kg"),
])
def test_config_non_numeric_b_sign_is_a_usage_error(capsys, tmp_path, argv):
    # every command that takes --config checks b_sign, also where no potential applies it
    cfg = tmp_path / "sign.cfg"
    for value in ("minus", "2"):
        cfg.write_text(f"b_sign = {value}\n")
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "b_sign" in err


@pytest.mark.parametrize("argv", [
    ("levels", "--molecule", "CH", "--n-max", "0"),
    ("potential", "--molecule", "CH", "--samples", "3"),
    ("sweep", "--molecule", "CH", "--param", "a", "--from", "0", "--to", "1", "--steps", "2"),
    ("validate", "--no-timestamp"),
    ("oracle-check", "--models", "kg"),
])
def test_config_unknown_key_is_a_usage_error(capsys, tmp_path, argv):
    # a misspelled key must not fall back to the default constant silently
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("hbar-c = 1000\n")
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "hbar-c" in err and "hbar_c" in err


@pytest.mark.parametrize("argv", [
    ("levels", "--molecule", "CH", "--a", "1", "--b", "1.5", "--n-max", "0"),
    ("validate", "--no-timestamp"),
])
def test_config_repeated_key_is_a_usage_error(capsys, tmp_path, argv):
    # the last value must not win silently, as a repeated molecule name does not
    cfg = tmp_path / "dup.cfg"
    cfg.write_text("b_sign = -1\n# the second one\nb_sign = 1\n")
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert f"{cfg}:3: repeated config key 'b_sign'" in err


@pytest.mark.parametrize("grid", [0, -2])
def test_calibration_grid_below_one_is_a_usage_error(capsys, grid):
    with pytest.raises(InvalidParameter, match="calibration grid"):
        calibrate(load_reference(), grid=grid)
    code, out, err = run(capsys, "validate", "--calibrate", "--calibration-grid", str(grid))
    assert code == 2
    assert out == ""
    assert "calibration grid" in err


@pytest.mark.parametrize("command", [
    ("levels",),
    ("sweep", "--param", "a", "--from", "1500000", "--to", "1900000", "--steps", "2"),
])
@pytest.mark.parametrize("model", ["nonrel", "kg", "dirac-spin", "dirac-pseudospin"])
def test_negative_n_max_is_a_usage_error(capsys, command, model):
    code, out, err = run(capsys, *command, "--model", model, "--n-max", "-1", "--mass", "500",
                         "--De-cm", "55147417000", "--re", "1.1198", "--mu-amu", "1", "--b", "1732450")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_forced_coarse_grid_surfaces_grid_too_coarse(capsys, monkeypatch):
    # with the DVR's point budget lowered to 60, the 12 levels of the l = 0 column need
    # more points than it allows: a usage error, not a solver failure
    import hgmorse.oracle

    monkeypatch.setattr(hgmorse.oracle, "_DVR_MAX_POINTS", 60)
    code, out, err = run(capsys, "levels", "--molecule", "CH", "--a", "0", "--b", "0",
                         "--n-max", "11", "--oracle")
    assert code == 2
    assert out == ""
    assert re.fullmatch(r"error: 12 levels at l = 0 need a \d+-point DVR grid, over the budget of 60\n", err)


def test_levels_grid_points_is_a_usage_error(capsys):
    # the DVR of levels --oracle sizes its own grid; levels has no --grid-points
    code, out, _ = run(capsys, "levels", "--molecule", "CH", "--n-max", "1", "--oracle", "--grid-points", "20001")
    assert code == 2
    assert out == ""


def test_usage_error_exit_code(capsys):
    assert main(["levels", "--model", "warp-drive"]) == 2
    assert main(["levels"]) == 2  # no molecule and no explicit parameters


def _spin_case():
    """Explicit-mode CLI arguments and library parameters of CH scaled to M = 500 eV."""
    from hgmorse.molecules import Molecule
    p, part = to_potential_params(find_molecule("CH"), 1.0, 1.0, 0.025)
    s = part.mu_energy / 500.0
    De_cm = p.D_e * s / CM_INV_TO_EV
    params, _ = to_potential_params(Molecule("custom", De_cm, 1.1198, 1.0), s, s, 0.025)
    argv = ("--model", "dirac-spin", "--mass", "500", "--De-cm", repr(De_cm), "--re", "1.1198",
            "--mu-amu", "1.0", "--a", repr(s), "--b", repr(s))
    return params, 500.0, argv


def _pseudospin_case(M):
    """CLI arguments and library parameters of CH with checks.pseudospin_params strengths at mass M."""
    b = pseudospin_params(to_potential_params(find_molecule("CH"), 0.0, 0.0, 0.025)[0], M, HBAR_C_EV_ANGSTROM).b
    params, _ = to_potential_params(find_molecule("CH"), 0.0, b, 0.025)
    argv = ("--model", "dirac-pseudospin", "--mass", repr(M), "--molecule", "CH", "--a", "0", "--b", repr(b))
    return params, M, argv


def _library_rows(model, params, M, kappas, n_max, all_roots=False):
    """The levels rows of a Dirac model, straight from the library."""
    solve, residual, printed = {
        "dirac-spin": (solve_dirac_spin, spin_residual, spin_printed_eq_residual),
        "dirac-pseudospin": (solve_dirac_pseudospin, pseudospin_residual, pseudospin_printed_eq_residual),
    }[model]
    molecule = "custom" if model == "dirac-spin" else "CH"
    rows = []
    for n in range(n_max + 1):
        for kappa in kappas:
            row = {"molecule": molecule, "model": model, "n": n, "l": None, "kappa": kappa, "D": None,
                   "oracle_E_eV": None, "abs_dev_eV": None}
            try:
                energies = solve(params, M, kappa, 0.0, n, all_roots=all_roots)
            except NoBoundState:
                rows.append({**row, "E_eV": None, "residual": None, "cross_check_residual": None,
                             "status": "no_bound_state"})
                continue
            for E in energies:
                rows.append({**row, "E_eV": E, "residual": residual(params, M, E, kappa, 0.0, n),
                             "cross_check_residual": printed(params, M, E, kappa, 0.0, n), "status": "ok"})
    return rows


def _csv_lines(rows):
    def fmt(x):
        return "" if x is None else f"{x:.17g}"

    lines = ["molecule,model,n,l,kappa,D,E_eV,residual,cross_check_residual"]
    for r in rows:
        if r["status"] != "ok":
            lines.append(f"# {r['status']}: n={r['n']} l= kappa={r['kappa']}")
        else:
            lines.append(f"{r['molecule']},{r['model']},{r['n']},,{r['kappa']},,{fmt(r['E_eV'])},"
                         f"{fmt(r['residual'])},{fmt(r['cross_check_residual'])}")
    return lines


@pytest.mark.parametrize("model", ["dirac-spin", "dirac-pseudospin"])
def test_levels_json_dirac_matches_library(capsys, model):
    params, M, argv = _spin_case() if model == "dirac-spin" else _pseudospin_case(500.0)
    code, out, _ = run(capsys, "levels", *argv, "--kappa=-1,1,2", "--n-max", "1", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows == _library_rows(model, params, M, (-1, 1, 2), 1)
    assert any(r["status"] == "ok" for r in rows)


def test_levels_all_roots_and_no_bound_state_rows(capsys):
    # at M = 50 eV the only n = 0, kappa = 1 pseudospin root lies on the
    # positive-energy branch: a comment row by default, a data row with --all-roots
    params, M, argv = _pseudospin_case(50.0)
    common = ("levels", *argv, "--kappa=1,2,-1", "--n-max", "1")
    code, out, _ = run(capsys, *common)
    assert code == 0
    assert out.splitlines() == _csv_lines(_library_rows("dirac-pseudospin", params, M, (1, 2, -1), 1))
    assert "# no_bound_state: n=0 l= kappa=1" in out.splitlines()
    code, out_all, _ = run(capsys, *common, "--all-roots")
    assert code == 0
    all_rows = _library_rows("dirac-pseudospin", params, M, (1, 2, -1), 1, all_roots=True)
    assert out_all.splitlines() == _csv_lines(all_rows)
    assert any(r["E_eV"] is not None and r["E_eV"] > 0.0 for r in all_rows)


def test_nonrel_levels_past_the_last_bound_level_are_no_bound_state_rows(capsys):
    # CH at alpha = 0.2, a = b = 1 binds n = 0..104 at l = 0; the squared closed
    # form would go on printing falling energies at n = 105..107
    argv = ("--molecule", "CH", "--a", "1", "--b", "1", "--alpha", "0.2", "--l-max", "0")
    code, out, _ = run(capsys, "levels", *argv, "--n-max", "107")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1 + 108
    assert lines[105].startswith("CH,nonrel,104,0,")
    assert lines[106:] == [f"# no_bound_state: n={n} l=0 kappa=" for n in (105, 106, 107)]
    code, out, _ = run(capsys, "sweep", *argv, "--n-max", "105", "--param", "b", "--from", "1", "--to", "1.5",
                       "--steps", "2")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:] if not line.startswith("#")]
    # a stronger Yukawa barrier unbinds n = 104 too
    assert [row[4] for row in rows if row[1] == "104"] == ["ok", "no_bound_state"]
    assert [row[3:] for row in rows if row[1] == "105"] == [["", "no_bound_state"]] * 2


def test_sweep_dirac_pseudospin_matches_library(capsys):
    params, M, argv = _pseudospin_case(500.0)
    start, stop = 0.7 * params.b, 1.3 * params.b
    code, out, _ = run(capsys, "sweep", *argv, "--kappa=1,2", "--n-max", "1", "--param", "b",
                       "--from", repr(start), "--to", repr(stop), "--steps", "3")
    assert code == 0
    expected = ["b,n,kappa,E_eV,status"]
    for value in np.linspace(start, stop, 3):
        p_i = PotentialParams(a=0.0, b=float(value), D_e=params.D_e, r_e=params.r_e, alpha=params.alpha)
        for n in range(2):
            for kappa in (1, 2):
                try:
                    E = f"{solve_dirac_pseudospin(p_i, M, kappa, 0.0, n)[0]:.17g}"
                    status = "ok"
                except NoBoundState:
                    E, status = "", "no_bound_state"
                expected.append(f"{float(value):.17g},{n},{kappa},{E},{status}")
    lines = out.splitlines()
    assert lines[:len(expected)] == expected
    assert [line for line in lines[len(expected):] if not line.startswith("# shape")] == []
    assert any(line.endswith(",ok") for line in expected)


@pytest.mark.parametrize("argv", [
    ("levels", "--model", "dirac-spin", "--molecule", "CH", "--mass", "500", "--kappa=-1,-1"),
    ("sweep", "--model", "dirac-spin", "--param", "a", "--from", "1500000", "--to", "1900000", "--steps", "3",
     "--n-max", "0", "--mass", "500", "--De-cm", "55147417000", "--re", "1.1198", "--mu-amu", "1",
     "--b", "1732450", "--kappa=-1,-1"),
    ("sweep", "--model", "dirac-spin", "--param", "b", "--from", "1500000", "--to", "1900000", "--steps", "3",
     "--n-max", "0", "--mass", "500", "--De-cm", "55147417000", "--re", "1.1198", "--mu-amu", "1",
     "--a", "1732450", "--kappa", "1,-1,1"),
])
def test_repeated_kappa_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "repeated" in err


# CH scaled to M = 500 eV, where the kg and spin levels bind
_SCALED_CH = ("--De-cm", "55147417000", "--re", "1.1198", "--mu-amu", "1", "--a", "1732450", "--b", "1732450",
              "--mass", "500", "--n-max", "0")


@pytest.mark.parametrize("argv,message", [
    (("levels", "--model", "dirac-spin", "--molecule", "CH", "--mass", "500", "--kappa", "0"),
     "kappa list must be nonzero integers"),
    (("levels", "--model", "dirac-spin", "--molecule", "CH", "--mass", "500", "--kappa", "1,x"),
     "bad --kappa list '1,x'"),
    (("sweep", "--molecule", "CH", "--param", "a", "--from", "0", "--to", "1", "--steps", "1"),
     "--steps must be >= 2, got 1"),
    *((("levels", "--model", model, *_SCALED_CH, "--oracle"), f"--oracle supports only --model nonrel, not {model}")
      for model in ("kg", "dirac-spin", "dirac-pseudospin")),
])
def test_bad_state_step_or_oracle_option_is_a_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


def test_oracle_check_pseudospin_shooting_flips_at_alpha_0_2(capsys):
    # near r = 0 the pseudospin equation is limit-circle at M = 500 and 5000 eV;
    # the shooting oracle confirms all three roots.  The verdict still fails
    # because no pseudospin state binds at M = 50 eV at this alpha
    code, out, _ = run(capsys, "oracle-check", "--models", "dirac-pseudospin", "--alpha", "0.2", "--molecules", "CH")
    assert code == EXIT_CHECK_FAILED
    assert out == ("relativistic-residuals FAIL 3 levels, max|residual| = 2.7e-15, "
                   "shooting flips within 1e-8*M: True, a case bound too few states\n")

def test_oracle_check_scoped_to_pseudospin(capsys):
    from hgmorse.checks import MASS_MATRIX

    code, out, _ = run(capsys, "oracle-check", "--models", "dirac-pseudospin")
    assert code == 0
    p, _ = to_potential_params(find_molecule("CH"), 1.0, 1.0, 0.025)
    bound = 0
    for M in MASS_MATRIX:
        pps = pseudospin_params(p, M, HBAR_C_EV_ANGSTROM)
        for kappa, n in ((1, 0), (1, 1), (2, 0)):
            try:
                solve_dirac_pseudospin(pps, M, kappa, 0.0, n)
                bound += 1
            except NoBoundState:
                pass
    lines = out.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"relativistic-residuals PASS {bound} levels,")
