import pytest

from hgmorse.errors import InvalidParameter, ParseError
from hgmorse.molecules import (
    CSV_HEADER,
    Molecule,
    builtin_molecules,
    find_molecule,
    load_molecules,
    to_potential_params,
)


def test_builtin_count_and_values():
    mols = builtin_molecules()
    assert len(mols) == 5
    assert find_molecule("HCl").De_cm == 37255.00
    assert find_molecule("CH") == Molecule("CH", 31838.08, 1.1198, 0.929931)
    assert find_molecule("N2").mu_amu == 7.003350


def test_unknown_molecule():
    with pytest.raises(InvalidParameter):
        find_molecule("XY")


def test_molecule_validation():
    with pytest.raises(InvalidParameter):
        Molecule("", 1.0, 1.0, 1.0)
    with pytest.raises(InvalidParameter):
        Molecule("X", -1.0, 1.0, 1.0)


def serialize_molecules(molecules):
    lines = [CSV_HEADER]
    for m in molecules:
        lines.append(f"{m.name},{m.De_cm:.17g},{m.re_angstrom:.17g},{m.mu_amu:.17g}")
    return "\n".join(lines) + "\n"


def test_round_trip(tmp_path):
    path = tmp_path / "mols.csv"
    path.write_text(serialize_molecules(builtin_molecules()))
    assert tuple(load_molecules(path)) == builtin_molecules()


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# nothing here\n")
    assert load_molecules(path) == []


def test_load_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("name,De_cm,re_angstrom,mu_amu\nXY,100.0,1.0,-2.0\n")
    with pytest.raises(InvalidParameter, match=":2:"):
        load_molecules(path)
    path.write_text("XY,100.0,1.0\n")
    with pytest.raises(ParseError, match=":1:"):
        load_molecules(path)
    path.write_text("XY,100.0,abc,1.0\n")
    with pytest.raises(ParseError, match=":1:"):
        load_molecules(path)


def test_load_rejects_duplicates(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("XY,100.0,1.0,1.0\nXY,200.0,1.0,1.0\n")
    with pytest.raises(InvalidParameter, match="duplicate"):
        load_molecules(path)


def test_to_potential_params_conversions():
    p, part = to_potential_params(find_molecule("CH"), 0.0, 0.0, 0.025)
    assert p.D_e == pytest.approx(3.9474, rel=2e-5)
    assert p.q == pytest.approx(0.028390542455857863, rel=1e-14)
    assert p.a == 0.0 and p.b == 0.0
    _, part_n2 = to_potential_params(find_molecule("N2"), 0.0, 0.0, 0.025)
    assert part_n2.mu_energy == pytest.approx(6.5236e9, rel=1e-4)


def test_to_potential_params_b_sign_switch():
    p_plus, _ = to_potential_params(find_molecule("CH"), 1.0, 2.0, 0.025, b_sign=1.0)
    p_minus, _ = to_potential_params(find_molecule("CH"), 1.0, 2.0, 0.025, b_sign=-1.0)
    assert p_plus.b == 2.0 and p_minus.b == -2.0
    with pytest.raises(InvalidParameter):
        to_potential_params(find_molecule("CH"), 1.0, 2.0, 0.025, b_sign=0.5)
