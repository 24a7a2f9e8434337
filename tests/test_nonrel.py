import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from hgmorse.checks import check_normalization
from hgmorse.errors import InvalidParameter, NoBoundState
from hgmorse.nonrel import (
    ParticleSpec,
    WavefunctionSpec,
    _energy_nonrel_printed,
    energy_nonrel,
    level_indices,
    make_wavefunction,
    radial_wavefunction,
    wavefunction_exponents,
)
from hgmorse.oracle import fd_schrodinger_modes, oracle_energies, RadialGrid, scipy_extension
from hgmorse.potential import PotentialParams
from hgmorse.wavefun import SWaveform, support_window
from ode_helpers import schrodinger_ode_coefficient
from wavefun_helpers import count_nodes, log_norm_closed_form


def test_energy_rejects_negative_quantum_numbers(ch_free):
    p, part = ch_free
    with pytest.raises(InvalidParameter):
        energy_nonrel(p, part, -1, 0)
    with pytest.raises(InvalidParameter):
        energy_nonrel(p, part, 0, -1)


@pytest.mark.parametrize("a,b", [(1e308, 1e308), (1e200, 0.0)])
def test_energy_rejects_an_overflowing_closed_form(ch_free, a, b):
    # nan from inf - inf at the first pair, OverflowError from a square at the second
    p, part = ch_free
    with pytest.raises(InvalidParameter, match="not finite"):
        energy_nonrel(dataclasses.replace(p, a=a, b=b), part, 0, 0)


def test_energy_l_zero_has_no_centrifugal_term(ch_unit):
    # at l = 0 the additive (hbar^2 alpha^2 / 2 mu) l(l+1) piece is exactly absent
    p, part = ch_unit
    T = part.two_mu_over_hbar2
    a2 = p.alpha**2
    phi = T * p.D_e * p.q**2 / a2
    P = 0.5 + math.sqrt(0.25 + phi)
    N = P * P + T * (p.b / p.alpha - p.a / p.alpha - 2 * p.D_e * p.q / a2 - p.D_e * p.q**2 / a2)
    expected = p.D_e - p.a * p.alpha - (a2 / (4 * T)) * (N / P) ** 2
    assert energy_nonrel(p, part, 0, 0) == expected


def test_energy_against_oracle_ground_state(ch_free):
    p, part = ch_free
    fd, err = oracle_energies(p, part, 0, 1)
    assert abs(energy_nonrel(p, part, 0, 0) - float(fd[0])) <= 5e-4


def test_printed_variant_fails_oracle(ch_free):
    # the rejected transcription differs by ~0.2 eV; keeps the correction honest
    p, part = ch_free
    fd, _ = oracle_energies(p, part, 0, 1)
    assert abs(_energy_nonrel_printed(p, part, 0, 0) - float(fd[0])) > 0.1
    assert abs(energy_nonrel(p, part, 0, 0) - float(fd[0])) < 1e-6


def test_hcl_level_ordering_matches_reference_table(hcl_free):
    # reference values -1.924396284 < -1.920701408 fix the l-ordering at n = 1
    p0, part = hcl_free
    for a, b in ((0.0, 0.0), (1.0, 0.5), (3.0, 0.3)):
        p = PotentialParams(a=a, b=b, D_e=p0.D_e, r_e=p0.r_e, alpha=p0.alpha)
        assert energy_nonrel(p, part, 1, 0) < energy_nonrel(p, part, 1, 1)


def test_every_level_below_dissociation_with_real_exponents():
    from hgmorse.molecules import builtin_molecules, to_potential_params

    for mol in builtin_molecules():
        p, part = to_potential_params(mol, 1.0, 1.0, 0.025)
        for n in range(6):
            for l in range(n + 1):
                E = energy_nonrel(p, part, n, l)
                assert E < p.D_e
                omega, phi_exp = wavefunction_exponents(p, part, E, l)
                assert math.isfinite(omega) and math.isfinite(phi_exp)


def test_monotonicity_in_n_every_molecule():
    from hgmorse.molecules import builtin_molecules, to_potential_params

    for mol in builtin_molecules():
        p, part = to_potential_params(mol, 0.0, 0.0, 0.025)
        for l in (0, 1, 2):
            energies = [energy_nonrel(p, part, n, l) for n in range(6)]
            assert all(b > a for a, b in zip(energies, energies[1:]))


def test_energy_strictly_decreasing_in_a(ch_free):
    p0, part = ch_free
    values = []
    for a in np.arange(0.0, 5.01, 0.5):
        p = PotentialParams(a=float(a), b=0.0, D_e=p0.D_e, r_e=p0.r_e, alpha=p0.alpha)
        values.append(energy_nonrel(p, part, 0, 0))
    assert all(b < a for a, b in zip(values, values[1:]))


def test_exponents_threshold_raises(ch_free):
    p, part = ch_free
    with pytest.raises(NoBoundState):
        wavefunction_exponents(p, part, p.D_e, 0)


def test_exponents_edge_limit_for_weak_well():
    # q -> 0 with a negligible well sends the edge exponent to 1
    p = PotentialParams(a=0.0, b=0.0, D_e=1e-12, r_e=1e-6, alpha=0.025)
    part = ParticleSpec(mu_energy=9.3e8)
    _, phi_exp = wavefunction_exponents(p, part, -1.0, 0)
    assert phi_exp == pytest.approx(1.0, abs=1e-6)


def test_exponents_reference_pair(ch_unit):
    p, part = ch_unit
    E = energy_nonrel(p, part, 0, 0)
    omega, phi_exp = wavefunction_exponents(p, part, E, 0)
    T = part.two_mu_over_hbar2
    assert omega == pytest.approx(math.sqrt(T * (p.D_e - E) / p.alpha**2 - T * p.a / p.alpha), rel=1e-14)
    assert phi_exp == pytest.approx(0.5 + math.sqrt(0.25 + T * p.D_e * p.q**2 / p.alpha**2), rel=1e-14)


def test_wavefunction_vanishes_at_boundaries(ch_free):
    p, part = ch_free
    spec = make_wavefunction(p, part, 0, 0)
    w = SWaveform(spec.omega, spec.phi_exp, 0, p.alpha)
    r_lo, r_hi = support_window(w)
    peak = max(abs(radial_wavefunction(spec, r)) for r in np.linspace(r_lo, r_hi, 200))
    assert abs(radial_wavefunction(spec, 0.25 * r_lo)) < 1e-12 * peak
    assert abs(radial_wavefunction(spec, 4.0 * r_hi)) < 1e-12 * peak
    with pytest.raises(InvalidParameter):
        radial_wavefunction(spec, 0.0)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_wavefunction_node_counts(ch_free, n):
    p, part = ch_free
    spec = make_wavefunction(p, part, n, 0)
    w = SWaveform(spec.omega, spec.phi_exp, n, p.alpha)
    assert count_nodes(w, spec.log_norm) == n


def test_wavefunction_nodes_match_fd_eigenvector(ch_free):
    p, part = ch_free
    grid = RadialGrid(1e-3, 4.0, 4001)
    _, vecs = fd_schrodinger_modes(p, part, 0, grid, 2)
    v = vecs[:, 1]
    keep = np.abs(v) > 1e-6 * np.abs(v).max()
    signs = np.sign(v[keep])
    assert int(np.sum(signs[1:] * signs[:-1] < 0)) == 1


def test_wavefunction_solves_radial_equation(ch_unit):
    # second differences of the returned eigenfunction must satisfy
    # u'' + W u = 0; the eliminated hypergeometric-parameter variant fails this
    p, part = ch_unit
    n, l = 2, 1
    E = energy_nonrel(p, part, n, l)
    spec = make_wavefunction(p, part, n, l)
    W = schrodinger_ode_coefficient(p, part, l)
    w = SWaveform(spec.omega, spec.phi_exp, n, p.alpha)
    r_lo, r_hi = support_window(w, drop=60.0)
    rs = np.linspace(r_lo, r_hi, 2000)
    h = rs[1] - rs[0]
    u = np.array([radial_wavefunction(spec, float(r)) for r in rs])
    upp = (u[2:] - 2 * u[1:-1] + u[:-2]) / h**2
    resid = upp + W(rs[1:-1], E) * u[1:-1]
    scale = np.abs(W(rs[1:-1], E) * u[1:-1]).max()
    assert np.abs(resid).max() <= 1e-2 * scale


def test_normalization_quadrature_is_unit(ch_free):
    p, part = ch_free
    # check_normalization integrates the term-sum oracle, not the recurrence behind spec.log_norm
    specs = [make_wavefunction(p, part, n, l) for n, l in ((0, 0), (1, 1), (3, 2))]
    assert check_normalization(specs).worst <= 1e-6


def test_normalization_nan_norm_fails_after_a_unit_one(ch_free):
    spec = make_wavefunction(*ch_free, 0, 0)
    # log_norm is validated finite on a spec, so the NaN comes in through a stand-in
    record = check_normalization([spec, SimpleNamespace(waveform=spec.waveform, log_norm=math.nan)])
    assert math.isnan(record.worst)
    assert record.verdict()[1] is False


def test_normalization_fails_on_quadpack_error_flag(ch_free, monkeypatch):
    quadpack = scipy_extension("integrate", "_quadpack")
    qagse = quadpack._qagse
    # ier = 2: QUADPACK detected roundoff and could not reach the tolerance
    monkeypatch.setattr(quadpack, "_qagse", lambda *args: (*qagse(*args)[:2], 2))
    record = check_normalization([make_wavefunction(*ch_free, 0, 0)])
    assert math.isnan(record.worst)
    assert record.verdict()[1] is False


def test_normalization_closed_form_exact_at_ground(ch_free):
    p, part = ch_free
    spec = make_wavefunction(p, part, 0, 0)
    closed = log_norm_closed_form(spec.omega, spec.phi_exp, 0, p.alpha)
    assert math.exp(closed - spec.log_norm) == pytest.approx(1.0, rel=1e-7)


def test_normalization_closed_form_ratio_logged_for_excited(ch_free):
    p, part = ch_free
    ratios = []
    for n in range(4):
        spec = make_wavefunction(p, part, n, 0)
        ratios.append(math.exp(log_norm_closed_form(spec.omega, spec.phi_exp, n, p.alpha) - spec.log_norm))
    assert all(math.isfinite(r) and r > 0 for r in ratios)
    # the flawed identity enters at n >= 1: the ratio drifts off unity
    assert abs(ratios[0] - 1.0) < 1e-6
    assert abs(ratios[1] - 1.0) > 1e-4


def test_normalization_degenerate_edge_raises():
    with pytest.raises(NoBoundState):
        WavefunctionSpec(omega=5.0, phi_exp=0.5, n=0, alpha=0.025, log_norm=0.0)
    with pytest.raises(NoBoundState):
        WavefunctionSpec(omega=-1.0, phi_exp=2.0, n=0, alpha=0.025, log_norm=0.0)


def test_level_indices_layouts():
    assert level_indices(0, 0) == [(0, 0)]
    assert [(n, l) for n, l in level_indices(3, 3) if n == 3] == [(3, 0), (3, 1), (3, 2), (3, 3)]
    assert level_indices(2, 2, rectangular=True) == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)
    ]

