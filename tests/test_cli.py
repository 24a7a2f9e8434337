import json

from hgmorse.cli import EXIT_CHECK_FAILED, main
from hgmorse.molecules import builtin_molecules, to_potential_params
from hgmorse.nonrel import energy_nonrel


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_levels_relativistic_kg(capsys, ch_unit):
    from hgmorse.units import CM_INV_TO_EV

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
    from hgmorse.units import CM_INV_TO_EV

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
    code, out, _ = run(capsys, "sweep", "--molecule", "CH", "--a", "0", "--param", "b",
                       "--from", "0", "--to", "12", "--steps", "25", "--n-max", "0")
    assert code == 0
    shape_lines = [line for line in out.splitlines() if line.startswith("# shape")]
    assert len(shape_lines) == 1
    assert "non-monotonic" in shape_lines[0]


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


def test_sweep_relativistic_flags_unbound_points(capsys, ch_unit):
    from hgmorse.units import CM_INV_TO_EV

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


def test_oracle_check_details_csv(capsys):
    code, out, _ = run(capsys, "oracle-check", "--models", "nonrel", "--details")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "model,n,l,E_closed,E_oracle,abs_dev,grid_points,extrapolated"
    assert lines[1] == "# molecule = CH"
    first = lines[2].split(",")
    assert first[0] == "nonrel" and first[6] == "20001" and first[7] == "True"
    assert float(first[5]) <= 5e-4


def test_oracle_check_rejects_empty_models(capsys):
    code, _, err = run(capsys, "oracle-check", "--models", "")
    assert code == 2


def test_oracle_check_rejects_unknown_model(capsys):
    code, _, err = run(capsys, "oracle-check", "--models", "schrodinger-cat")
    assert code == 2


def test_config_b_sign_flips_yukawa(capsys, tmp_path):
    cfg = tmp_path / "flip.cfg"
    cfg.write_text("b_sign = -1\n")
    _, out_plus, _ = run(capsys, "levels", "--molecule", "CH", "--a", "1", "--b", "1.5", "--n-max", "0")
    _, out_flip, _ = run(capsys, "levels", "--molecule", "CH", "--a", "1", "--b", "1.5",
                         "--n-max", "0", "--config", str(cfg))
    e_plus = float(out_plus.strip().splitlines()[1].split(",")[4])
    e_flip = float(out_flip.strip().splitlines()[1].split(",")[4])
    assert e_flip < e_plus  # attractive Yukawa binds deeper


def test_forced_coarse_grid_surfaces_grid_too_coarse(capsys):
    # 12 oracle levels from a 101-point grid trips the resolvability heuristic
    code, _, err = run(capsys, "levels", "--molecule", "CH", "--a", "0", "--b", "0",
                       "--n-max", "11", "--oracle", "--grid-points", "101")
    assert code == 1
    assert "101-point grid" in err


def test_usage_error_exit_code(capsys):
    assert main(["levels", "--model", "warp-drive"]) == 2
    assert main(["levels"]) == 2  # no molecule and no explicit parameters
