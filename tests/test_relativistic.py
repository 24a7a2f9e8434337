import dataclasses
import logging
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hgmorse import relativistic
from hgmorse.checks import MASS_MATRIX, check_normalization, pseudospin_params, scaled_params
from hgmorse.errors import InvalidParameter, NoBoundState
from hgmorse.molecules import builtin_molecules, to_potential_params
from hgmorse.nonrel import energy_nonrel
from hgmorse.oracle import mismatch_sign_change
from hgmorse.potential import PotentialParams
from hgmorse.relativistic import (
    QuantumNumbers,
    RelWavefunctionSpec,
    _kg_fields,
    _pseudospin_fields,
    _spin_fields,
    default_search_interval,
    kg_norm,
    kg_printed_eq_residual,
    kg_residual,
    kg_residual_nonrel_limit,
    kg_ode_coefficient,
    kg_wavefunction_spec,
    lambda_D,
    lower_spinor_norm,
    lower_spinor_spec,
    pseudospin_ode_coefficient,
    pseudospin_residual,
    rel_radial_value,
    solve_dirac_pseudospin,
    solve_dirac_spin,
    solve_kg_energy,
    spin_ode_coefficient,
    spin_printed_eq_residual,
    spin_residual,
    spin_residual_nonrel_limit,
    upper_spinor_norm,
    upper_spinor_spec,
)
from hgmorse.units import HBAR_C_EV_ANGSTROM
from hgmorse.wavefun import SWaveform, count_nodes, support_window

mp.mp.dps = 40

# --- quantum numbers and the angular coefficient ----------------------------


def test_quantum_numbers_validation():
    QuantumNumbers(n=0, l=0)
    with pytest.raises(InvalidParameter):
        QuantumNumbers(n=-1)
    with pytest.raises(InvalidParameter):
        QuantumNumbers(n=0, D=0)


def test_lambda_D_values():
    assert lambda_D(3, 0) == 0.0
    assert lambda_D(3, 1) == 2.0
    assert lambda_D(2, 0) == -0.25
    for l in range(5):
        assert lambda_D(3, l) == l * (l + 1)


# --- field builders -----------------------------------------------------------
# The sector builders return E -> _NUFields (eps, beta, eta, chi, phi, gamma);
# every field but the angular gamma is NaN where the scale factor S is not
# positive.


def is_hole(f):
    return all(math.isnan(x) for x in (f.eps, f.beta, f.eta, f.chi, f.phi))


def test_kg_ansatz_vanishes_at_negative_mass_shell(ch_unit):
    p, _ = ch_unit
    qn = QuantumNumbers(n=0, l=1)
    at = _kg_fields(p, 10.0, qn, HBAR_C_EV_ANGSTROM)
    # S = (E+M)/(hbar c)^2 is zero on the shell, a domain hole
    assert is_hole(at(-10.0)) and is_hole(at(-11.0))
    assert kg_residual(p, 10.0, -10.0, qn) is None
    f = at(-10.0 + 1e-9)
    assert all(0.0 < x < 1e-12 for x in (f.beta, f.eta, f.chi, f.phi))
    assert f.gamma == 2.0


def test_kg_ansatz_reference_values(ch_unit):
    p, _ = ch_unit
    M, E = 10.0, 5.0
    f = _kg_fields(p, M, QuantumNumbers(n=0, l=0), HBAR_C_EV_ANGSTROM)(E)
    hc2 = mp.mpf("1973.29") ** 2
    S = (mp.mpf(repr(E)) + mp.mpf(repr(M))) / hc2
    a2 = mp.mpf("0.025") ** 2
    q = mp.expm1(mp.mpf("0.025") * mp.mpf("1.1198"))
    De = mp.mpf(repr(p.D_e))
    assert f.eps == pytest.approx(float(S * (M - E + De) / a2), rel=1e-14)
    assert f.beta == pytest.approx(float(S / mp.mpf("0.025")), rel=1e-14)
    assert f.chi == pytest.approx(float(2 * S * De * q / a2), rel=1e-14)
    assert f.phi == pytest.approx(float(S * De * q * q / a2), rel=1e-14)
    assert f.gamma == 0.0
    # delta_kg = sqrt(1/4 + phi + Lambda), the quantization radicand
    assert math.sqrt(0.25 + f.phi + f.gamma) == pytest.approx(
        float(mp.sqrt(mp.mpf("0.25") + S * De * q * q / a2)), rel=1e-14)


def test_spin_ansatz_edges(ch_unit):
    p, _ = ch_unit
    f = _spin_fields(p, 10.0, -1, 0.0, 0, HBAR_C_EV_ANGSTROM)(10.0)
    assert f.eps == 20.0 / HBAR_C_EV_ANGSTROM**2 * p.D_e / p.alpha**2
    # M + E - Cs = 0: the scale factor vanishes, a domain hole
    assert is_hole(_spin_fields(p, 10.0, 1, 12.0, 0, HBAR_C_EV_ANGSTROM)(2.0))
    assert spin_residual(p, 10.0, 2.0, 1, 12.0) is None
    assert _spin_fields(p, 10.0, 2, 0.0, 0, HBAR_C_EV_ANGSTROM)(2.0).gamma == 6.0
    with pytest.raises(InvalidParameter):
        solve_dirac_spin(p, 10.0, 0)
    with pytest.raises(InvalidParameter):
        spin_residual(p, 10.0, 2.0, 0)
    with pytest.raises(InvalidParameter):
        pseudospin_residual(p, 10.0, 2.0, 0)


def test_pseudospin_ansatz_fields(ch_unit):
    p, _ = ch_unit
    M, E, Cps = 100.0, -40.0, 0.0
    f = _pseudospin_fields(p, M, 2, Cps, 0, HBAR_C_EV_ANGSTROM)(E)
    assert f.gamma == 2.0
    S = (M - E + Cps) / HBAR_C_EV_ANGSTROM**2
    assert f.eps == pytest.approx(S * (M + E - p.D_e) / p.alpha**2, rel=1e-14)
    assert -f.chi == pytest.approx(2 * S * p.D_e * p.q / p.alpha**2, rel=1e-14)


# --- residuals ----------------------------------------------------------------


def test_kg_residual_solver_contract(ch_unit):
    p, part = ch_unit
    for M in (50.0, 500.0, 5000.0):
        ps = scaled_params(p, part, M)
        qn = QuantumNumbers(n=0, l=0)
        for E in solve_kg_energy(ps, M, qn):
            assert abs(kg_residual(ps, M, E, qn)) <= 1e-9
            lo, hi = default_search_interval(ps, M)
            assert lo < E < hi


def test_kg_no_bound_state_for_free_particle():
    p = PotentialParams(a=0.0, b=0.0, D_e=0.0, r_e=1.0, alpha=0.05)
    with pytest.raises(NoBoundState):
        solve_kg_energy(p, 100.0, QuantumNumbers(n=0, l=0))


def test_kg_residual_undefined_below_mass_shell(ch_unit):
    p, _ = ch_unit
    assert kg_residual(p, 10.0, -11.0, QuantumNumbers(n=0, l=0)) is None


def test_nonrel_limit_identity_all_molecules():
    worst = 0.0
    for mol in builtin_molecules():
        p, part = to_potential_params(mol, 1.0, 1.0, 0.025)
        for n in range(4):
            for l in range(3):
                E = energy_nonrel(p, part, n, l)
                worst = max(worst, abs(kg_residual_nonrel_limit(p, part, E, n, l)))
                worst = max(worst, abs(spin_residual_nonrel_limit(p, part, E, n, l)))
    assert worst <= 1e-10


def test_spin_residual_matches_kg_pointwise(ch_unit):
    p, part = ch_unit
    M = 500.0
    ps = scaled_params(p, part, M)
    qn = QuantumNumbers(n=1, l=1)
    for E in np.linspace(-0.5 * M, 20 * M, 50):
        r_kg = kg_residual(ps, M, float(E), qn)
        r_sp = spin_residual(ps, M, float(E), kappa=1, Cs=0.0, n=1)
        assert (r_kg is None) == (r_sp is None)
        if r_kg is not None:
            assert r_kg == r_sp


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(M=st.floats(50.0, 5000.0), a=st.floats(-2.0, 3.0), b=st.floats(-2.0, 3.0), depth=st.floats(0.0, 2.0),
       t=st.floats(-2.0, 60.0), n=st.integers(0, 3), l=st.integers(0, 4), upper=st.booleans())
@example(M=500.0, a=1.0, b=1.0, depth=1.0, t=-1.5, n=0, l=0, upper=False)  # below the mass shell
def test_kg_equals_spin_residual_exactly(ch_unit, M, a, b, depth, t, n, l, upper):
    # Cs = 0, D = 3 and kappa in {l, -l-1} give kappa(kappa+1) = l(l+1): the two
    # residuals are the same float operations, holes included
    p, part = ch_unit
    s = part.mu_energy / M
    ps = PotentialParams(a=a * s, b=b * s, D_e=depth * p.D_e * s, r_e=p.r_e, alpha=p.alpha)
    kappa = l if upper and l > 0 else -l - 1
    E = t * M
    assert kg_residual(ps, M, E, QuantumNumbers(n=n, l=l)) == spin_residual(ps, M, E, kappa, 0.0, n)


def test_spin_doublet_degeneracy(ch_unit):
    p, part = ch_unit
    M = 500.0
    ps = scaled_params(p, part, M)
    for l, pair in ((1, (1, -2)), (2, (2, -3))):
        e_a = solve_dirac_spin(ps, M, kappa=pair[0], Cs=0.0, n=1)
        e_b = solve_dirac_spin(ps, M, kappa=pair[1], Cs=0.0, n=1)
        assert e_a[0] == pytest.approx(e_b[0], abs=1e-10)


def test_kg_matches_dirac_spin_across_masses(ch_unit):
    p, part = ch_unit
    for M in (50.0, 500.0, 5000.0):
        ps = scaled_params(p, part, M)
        for l, kappas in ((0, (-1,)), (1, (1, -2))):
            e_kg = solve_kg_energy(ps, M, QuantumNumbers(n=1, l=l))[0]
            for kappa in kappas:
                e_sp = solve_dirac_spin(ps, M, kappa=kappa, Cs=0.0, n=1)[0]
                assert abs(e_kg - e_sp) <= 1e-10


def test_spin_branch_filter(ch_unit):
    p, part = ch_unit
    M = 500.0
    ps = scaled_params(p, part, M)
    positive_only = solve_dirac_spin(ps, M, kappa=-1, Cs=0.0, n=0)
    assert all(E > 0 for E in positive_only)
    everything = solve_dirac_spin(ps, M, kappa=-1, Cs=0.0, n=0, all_roots=True)
    assert set(positive_only) <= set(everything)


def test_pseudospin_negative_branch_and_residual(ch_unit):
    p, _ = ch_unit
    for M in (500.0, 5000.0):
        pp = pseudospin_params(p, M, HBAR_C_EV_ANGSTROM)
        roots = solve_dirac_pseudospin(pp, M, kappa=1, Cps=0.0, n=0)
        assert roots and all(E < 0 for E in roots)
        for E in roots:
            assert abs(pseudospin_residual(pp, M, E, kappa=1, Cps=0.0, n=0)) <= 1e-9


def test_pseudospin_supercritical_core_has_no_levels(ch_unit):
    # molecular-strength Morse coupling drives the pseudospin radicand
    # negative on the whole negative branch
    p, part = ch_unit
    ps = scaled_params(p, part, 500.0)
    with pytest.raises(NoBoundState):
        solve_dirac_pseudospin(ps, 500.0, kappa=1, Cps=0.0, n=0)


def test_pseudospin_kappa_pair_degeneracy(ch_unit):
    # kappa and 1 - kappa share kappa(kappa-1)
    p, _ = ch_unit
    M = 5000.0
    pp = pseudospin_params(p, M, HBAR_C_EV_ANGSTROM)
    e2 = solve_dirac_pseudospin(pp, M, kappa=2, Cps=0.0, n=0)[0]
    em1 = solve_dirac_pseudospin(pp, M, kappa=-1, Cps=0.0, n=0)[0]
    assert e2 == pytest.approx(em1, abs=1e-10)


def test_printed_equation_defects_are_logged_nonzero(ch_unit):
    # the expanded printed forms carry transcription defects; their residuals
    # at genuine roots quantify the discrepancy and must not be silently zero
    p, part = ch_unit
    M = 500.0
    ps = scaled_params(p, part, M)
    qn = QuantumNumbers(n=0, l=0)
    E = solve_kg_energy(ps, M, qn)[0]
    assert abs(kg_printed_eq_residual(ps, M, E, qn)) > 1e-6


def test_shooting_verifies_each_sector(ch_unit):
    p, part = ch_unit
    M = 500.0
    ps = scaled_params(p, part, M)
    qn = QuantumNumbers(n=1, l=1)
    e_kg = solve_kg_energy(ps, M, qn)[0]
    assert mismatch_sign_change(kg_ode_coefficient(ps, M, qn), e_kg, 1e-8 * M)
    e_sp = solve_dirac_spin(ps, M, kappa=-2, Cs=0.0, n=1)[0]
    assert mismatch_sign_change(spin_ode_coefficient(ps, M, -2, 0.0), e_sp, 1e-8 * M)
    pp = pseudospin_params(p, M, HBAR_C_EV_ANGSTROM)
    e_ps = solve_dirac_pseudospin(pp, M, kappa=1, Cps=0.0, n=0)[0]
    assert mismatch_sign_change(pseudospin_ode_coefficient(pp, M, 1, 0.0), e_ps, 1e-8 * M)


# --- spinor components --------------------------------------------------------


def test_kg_interdimensional_degeneracy(ch_unit):
    # the angular coefficient depends on D + 2l only, so (D=4, l=0) and
    # (D=2, l=1) share a spectrum; D=2 lowers the barrier below D=3
    p, part = ch_unit
    M = 500.0
    ps = scaled_params(p, part, M)
    assert lambda_D(2, 1) == lambda_D(4, 0) == 0.75
    e_d2 = solve_kg_energy(ps, M, QuantumNumbers(n=0, l=1, D=2))[0]
    e_d4 = solve_kg_energy(ps, M, QuantumNumbers(n=0, l=0, D=4))[0]
    assert e_d2 == e_d4
    e_d3 = solve_kg_energy(ps, M, QuantumNumbers(n=0, l=0, D=3))[0]
    e_d2_s = solve_kg_energy(ps, M, QuantumNumbers(n=0, l=0, D=2))[0]
    assert e_d2_s < e_d3


def test_kg_roots_ascending_and_deterministic(ch_unit):
    p, part = ch_unit
    M = 5000.0
    ps = scaled_params(p, part, M)
    qn = QuantumNumbers(n=0, l=0)
    roots_a = solve_kg_energy(ps, M, qn)
    roots_b = solve_kg_energy(ps, M, qn)
    assert roots_a == roots_b
    assert roots_a == sorted(roots_a)


def test_kg_norm_ratio_logged_for_low_levels(ch_unit):
    # the closed-form constant contains an undefined symbol (read as the
    # doubled leading exponent); its ratio to quadrature is informative only
    p, part = ch_unit
    M = 500.0
    ps = scaled_params(p, part, M)
    for n in range(4):
        qn = QuantumNumbers(n=n, l=0)
        E = solve_kg_energy(ps, M, qn)[0]
        result = kg_norm(ps, M, E, qn)
        assert math.isfinite(result.log_quadrature)
        if result.log_closed_form is not None:
            # the log-difference is the honest record: the printed constant is
            # off by hundreds of orders of magnitude, so the plain ratio may
            # underflow to 0.0
            assert math.isfinite(result.log_closed_form - result.log_quadrature)
            ratio = result.closed_over_quadrature
            assert math.isfinite(ratio) and ratio >= 0.0


def test_spin_ansatz_generic_reference_values(ch_unit):
    p, _ = ch_unit
    M, E, Cs, kappa = 700.0, 123.0, 2.5, -3
    f = _spin_fields(p, M, kappa, Cs, 0, HBAR_C_EV_ANGSTROM)(E)
    hc2 = mp.mpf("1973.29") ** 2
    b0 = mp.mpf(repr(M)) + mp.mpf(repr(E)) - mp.mpf(repr(Cs))
    S = b0 / hc2
    a2 = mp.mpf("0.025") ** 2
    q = mp.expm1(mp.mpf("0.025") * mp.mpf("1.1198"))
    De = mp.mpf(repr(p.D_e))
    assert f.gamma == 6.0
    assert f.chi == pytest.approx(float(2 * S * De * q / a2), rel=1e-14)
    assert f.eta == pytest.approx(float(S / mp.mpf("0.025")), rel=1e-14)
    assert f.eps == pytest.approx(float(S * (M - E + De) / a2), rel=1e-14)


def test_solve_evaluates_printed_defect_only_for_debug_log(ch_unit, monkeypatch, caplog):
    p, part = ch_unit
    M = 500.0
    ps = scaled_params(p, part, M)
    calls = []

    def counting(*args):
        calls.append(args)
        return spin_printed_eq_residual(*args)

    monkeypatch.setattr(relativistic, "_SPIN", dataclasses.replace(relativistic._SPIN, printed=counting))
    caplog.set_level(logging.INFO, logger=relativistic.__name__)
    roots = solve_dirac_spin(ps, M, -1)
    assert roots and calls == []
    caplog.set_level(logging.DEBUG, logger=relativistic.__name__)
    assert solve_dirac_spin(ps, M, -1) == roots
    assert len(calls) == len(roots)
    assert any("printed-form defect" in record.getMessage() for record in caplog.records)


def test_kg_wavefunction_boundaries_and_norm(ch_unit):
    p, part = ch_unit
    M = 500.0
    ps = scaled_params(p, part, M)
    qn = QuantumNumbers(n=1, l=0)
    E = solve_kg_energy(ps, M, qn)[0]
    spec = kg_wavefunction_spec(ps, M, E, qn)
    w = SWaveform(spec.leading_exp, spec.edge_exp, 1, ps.alpha)
    r_lo, r_hi = support_window(w)
    peak = max(abs(rel_radial_value(spec, r)) for r in np.linspace(r_lo, r_hi, 300))
    assert abs(rel_radial_value(spec, 6.0 * r_hi)) < 1e-10 * peak
    assert check_normalization([spec]).worst <= 1e-6
    result = kg_norm(ps, M, E, qn)
    assert result.log_quadrature == pytest.approx(spec.log_norm, abs=1e-9)
    assert result.log_closed_form is None or math.isfinite(result.log_closed_form)


def test_upper_spinor_norm_closed_form_exact_at_ground(ch_unit):
    p, part = ch_unit
    M = 500.0
    ps = scaled_params(p, part, M)
    E = solve_dirac_spin(ps, M, kappa=-1, Cs=0.0, n=0)[0]
    result = upper_spinor_norm(ps, M, E, kappa=-1, Cs=0.0, n=0)
    assert result.closed_over_quadrature == pytest.approx(1.0, rel=1e-7)
    spec = upper_spinor_spec(ps, M, E, kappa=-1, Cs=0.0, n=0)
    assert check_normalization([spec]).worst <= 1e-6


def test_lower_spinor_unit_norm_and_single_node(ch_unit):
    p, _ = ch_unit
    M = 500.0
    pp = pseudospin_params(p, M, HBAR_C_EV_ANGSTROM)
    e1 = solve_dirac_pseudospin(pp, M, kappa=1, Cps=0.0, n=1)[0]
    spec = lower_spinor_spec(pp, M, e1, kappa=1, Cps=0.0, n=1)
    assert check_normalization([spec]).worst <= 1e-6
    w = SWaveform(spec.leading_exp, spec.edge_exp, 1, pp.alpha)
    assert count_nodes(w, spec.log_norm) == 1
    assert lower_spinor_norm(pp, M, e1, kappa=1, Cps=0.0, n=1).log_closed_form is None


def test_pseudospin_n2_states_normalize():
    # the n = 2 support windows reach alpha*r ~ 840, where s = e^(-alpha r)
    # underflows to 0 while the envelope's log stays finite
    found = 0
    for mol in builtin_molecules():
        p, _ = to_potential_params(mol, 1.0, 1.0, 0.025)
        for M in MASS_MATRIX:
            pp = pseudospin_params(p, M, HBAR_C_EV_ANGSTROM)
            try:
                E = solve_dirac_pseudospin(pp, M, kappa=1, Cps=0.0, n=2)[0]
            except NoBoundState:
                continue
            spec = lower_spinor_spec(pp, M, E, kappa=1, Cps=0.0, n=2)
            assert check_normalization([spec]).worst <= 1e-6
            found += 1
    assert found == 9


def _ode_defect(spec: RelWavefunctionSpec, W, E: float) -> float:
    w = SWaveform(spec.leading_exp, spec.edge_exp, spec.n, spec.alpha)
    r_lo, r_hi = support_window(w, drop=60.0)
    rs = np.linspace(r_lo, r_hi, 2000)
    h = rs[1] - rs[0]
    u = np.array([rel_radial_value(spec, float(r)) for r in rs])
    upp = (u[2:] - 2 * u[1:-1] + u[:-2]) / h**2
    resid = upp + W(rs[1:-1], E) * u[1:-1]
    return float(np.abs(resid).max() / np.abs(W(rs[1:-1], E) * u[1:-1]).max())


def test_relativistic_wavefunctions_solve_their_equations(ch_unit):
    # second differences of each radial component must satisfy u'' + W u = 0
    p, part = ch_unit
    M = 500.0
    ps = scaled_params(p, part, M)
    qn = QuantumNumbers(n=1, l=1)
    e_kg = solve_kg_energy(ps, M, qn)[0]
    assert _ode_defect(kg_wavefunction_spec(ps, M, e_kg, qn), kg_ode_coefficient(ps, M, qn), e_kg) <= 1e-2
    e_sp = solve_dirac_spin(ps, M, kappa=1, Cs=0.0, n=1)[0]
    assert _ode_defect(upper_spinor_spec(ps, M, e_sp, 1, 0.0, 1),
                       spin_ode_coefficient(ps, M, 1, 0.0), e_sp) <= 1e-2
    pp = pseudospin_params(p, M, HBAR_C_EV_ANGSTROM)
    e_ps = solve_dirac_pseudospin(pp, M, kappa=2, Cps=0.0, n=0)[0]
    assert _ode_defect(lower_spinor_spec(pp, M, e_ps, 2, 0.0, 0),
                       pseudospin_ode_coefficient(pp, M, 2, 0.0), e_ps) <= 1e-2


def test_spinor_rejects_unbound_energy(ch_unit):
    # above the continuum threshold M + D_e - a*alpha the leading exponent
    # radicand turns negative
    p, part = ch_unit
    M = 500.0
    ps = scaled_params(p, part, M)
    E_open = M + ps.D_e
    with pytest.raises(NoBoundState):
        kg_wavefunction_spec(ps, M, E_open, QuantumNumbers(n=0, l=0))
