import mpmath as mp
import pytest

from hgmorse.errors import InvalidParameter, ParseError
from hgmorse.nonrel import ParticleSpec
from hgmorse.units import (
    DEFAULT_UNITS,
    UnitConstants,
    amu_to_mass_energy,
    cm_inverse_to_ev,
    load_config,
)

mp.mp.dps = 40


def test_constants_values():
    assert DEFAULT_UNITS.hbar_c == 1973.29
    assert DEFAULT_UNITS.cm_inv_to_ev == 1.239841984e-4
    assert DEFAULT_UNITS.amu_to_ev == 931.49410242e6


def test_cm_inverse_to_ev_zero():
    assert cm_inverse_to_ev(0.0) == 0.0


@pytest.mark.parametrize("x", [31838.08, 96288.04])
def test_cm_inverse_to_ev_reference(x):
    expected = float(mp.mpf(repr(x)) * mp.mpf("1.239841984e-4"))
    assert cm_inverse_to_ev(x) == pytest.approx(expected, rel=1e-15)


def test_cm_inverse_to_ev_magnitudes():
    # spot values quoted to 5 significant digits
    assert cm_inverse_to_ev(31838.08) == pytest.approx(3.9474, rel=2e-5)
    assert cm_inverse_to_ev(96288.04) == pytest.approx(11.938, rel=2e-5)


def test_amu_to_mass_energy():
    assert amu_to_mass_energy(1.0) == pytest.approx(9.3149410242e8, rel=1e-12)
    expected = float(mp.mpf("0.929931") * mp.mpf("931.49410242e6"))
    assert amu_to_mass_energy(0.929931) == pytest.approx(expected, rel=1e-15)
    assert amu_to_mass_energy(0.929931) == pytest.approx(8.6622e8, rel=1e-4)


def test_amu_to_mass_energy_rejects_nonpositive():
    with pytest.raises(InvalidParameter):
        amu_to_mass_energy(-1.0)
    with pytest.raises(InvalidParameter):
        amu_to_mass_energy(0.0)


def test_hbar2_over_2mu_identity():
    mu = DEFAULT_UNITS.hbar_c**2 / 2.0
    assert ParticleSpec(mu).kinetic_scale == pytest.approx(1.0, rel=1e-15)


def test_hbar2_over_2mu_reference_values():
    ch = float(mp.mpf("1973.29") ** 2 / (2 * mp.mpf("0.929931") * mp.mpf("931.49410242e6")))
    assert ParticleSpec(amu_to_mass_energy(0.929931)).kinetic_scale == pytest.approx(ch, rel=1e-14)
    assert ParticleSpec(amu_to_mass_energy(0.929931)).kinetic_scale == pytest.approx(2.2476e-3, rel=1e-4)
    n2 = ParticleSpec(amu_to_mass_energy(7.003350)).kinetic_scale
    assert n2 == pytest.approx(2.985e-4, rel=1e-3)


def test_hbar2_over_2mu_rejects_nonpositive():
    with pytest.raises(InvalidParameter):
        ParticleSpec(0.0).kinetic_scale


def test_round_trip_relative():
    for x in (1.0, 12.34, 9876.5, 1e6):
        back = cm_inverse_to_ev(x) / DEFAULT_UNITS.cm_inv_to_ev
        assert abs(back - x) <= 1e-14 * x


def test_hbar2_over_2mu_strictly_decreasing():
    values = [ParticleSpec(mu).kinetic_scale for mu in (1e6, 1e7, 1e8, 1e9)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_unit_constants_reject_nonpositive():
    with pytest.raises(InvalidParameter):
        UnitConstants(hbar_c=-1.0)


def test_config_rejects_an_hbar_c_whose_square_underflows(tmp_path):
    # the relativistic fields divide by hbar_c^2, which must not be zero or subnormal
    UnitConstants(hbar_c=1.5e-154)
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("hbar_c = 1e-170\n")
    with pytest.raises(InvalidParameter, match="hbar_c"):
        load_config(cfg)


def test_config_override(tmp_path):
    cfg = tmp_path / "units.cfg"
    cfg.write_text("# custom constants\nhbar_c = 1973.0\ncm_inv_to_ev = 1.0e-4\n")
    u, _ = load_config(cfg)
    assert u.hbar_c == 1973.0
    assert u.cm_inv_to_ev == 1.0e-4
    assert u.amu_to_ev == DEFAULT_UNITS.amu_to_ev


def test_config_rejects_garbage(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not a key value line\n")
    with pytest.raises(ParseError):
        load_config(cfg)
