import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hgmorse import relativistic, rootfind, wavefun
from hgmorse.checks import MASS_MATRIX, check_normalization, pseudospin_params, scaled_params
from hgmorse.errors import InvalidParameter, NoBoundState, NonConvergence
from hgmorse.molecules import builtin_molecules, find_molecule, to_potential_params
from hgmorse.nonrel import energy_nonrel
from hgmorse.oracle import mismatch_sign_change
from hgmorse.potential import PotentialParams
from hgmorse.relativistic import (
    _KG,
    _PSEUDOSPIN,
    _SPIN,
    QuantumNumbers,
    RelWavefunctionSpec,
    default_search_interval,
    kg_printed_eq_residual,
    kg_residual,
    kg_residual_nonrel_limit,
    kg_wavefunction_spec,
    lambda_D,
    lower_spinor_spec,
    pseudospin_residual,
    rel_radial_value,
    solve_dirac_pseudospin,
    solve_dirac_spin,
    solve_kg_energy,
    spin_residual,
    upper_spinor_spec,
)
from hgmorse.units import HBAR_C_EV_ANGSTROM, float_linspace
from hgmorse.wavefun import SWaveform, support_window
from ode_helpers import ode_coefficient
from wavefun_helpers import count_nodes, kg_log_norm_closed, log_norm_closed_form

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
# The field builder returns E -> (eps, beta, eta, chi, phi, gamma), a plain tuple, for
# a sector and state; every field but the angular gamma is NaN where the scale
# factor S is not positive.


def fields(sector, p, M, *state):
    return relativistic._fields(sector, p, M, state, HBAR_C_EV_ANGSTROM)[0]


def is_hole(f):
    eps, beta, eta, chi, phi, _ = f
    return all(math.isnan(x) for x in (eps, beta, eta, chi, phi))


def test_kg_ansatz_vanishes_at_negative_mass_shell(ch_unit):
    p, _ = ch_unit
    qn = QuantumNumbers(n=0, l=1)
    at = fields(_KG, p, 10.0, qn)
    # S = (E+M)/(hbar c)^2 is zero on the shell, a domain hole
    assert is_hole(at(-10.0)) and is_hole(at(-11.0))
    assert kg_residual(p, 10.0, -10.0, qn) is None
    _, beta, eta, chi, phi, gamma = at(-10.0 + 1e-9)
    assert all(0.0 < x < 1e-12 for x in (beta, eta, chi, phi))
    assert gamma == 2.0


def test_kg_ansatz_reference_values(ch_unit):
    p, _ = ch_unit
    M, E = 10.0, 5.0
    eps, beta, _, chi, phi, gamma = fields(_KG, p, M, QuantumNumbers(n=0, l=0))(E)
    hc2 = mp.mpf("1973.29") ** 2
    S = (mp.mpf(repr(E)) + mp.mpf(repr(M))) / hc2
    a2 = mp.mpf("0.025") ** 2
    q = mp.expm1(mp.mpf("0.025") * mp.mpf("1.1198"))
    De = mp.mpf(repr(p.D_e))
    assert eps == pytest.approx(float(S * (M - E + De) / a2), rel=1e-14)
    assert beta == pytest.approx(float(S / mp.mpf("0.025")), rel=1e-14)
    assert chi == pytest.approx(float(2 * S * De * q / a2), rel=1e-14)
    assert phi == pytest.approx(float(S * De * q * q / a2), rel=1e-14)
    assert gamma == 0.0
    # delta_kg = sqrt(1/4 + phi + Lambda), the quantization radicand
    assert math.sqrt(0.25 + phi + gamma) == pytest.approx(
        float(mp.sqrt(mp.mpf("0.25") + S * De * q * q / a2)), rel=1e-14)


def test_spin_ansatz_edges(ch_unit):
    p, _ = ch_unit
    eps, *_ = fields(_SPIN, p, 10.0, -1, 0.0, 0)(10.0)
    assert eps == 20.0 / HBAR_C_EV_ANGSTROM**2 * p.D_e / p.alpha**2
    # M + E - Cs = 0: the scale factor vanishes, a domain hole
    assert is_hole(fields(_SPIN, p, 10.0, 1, 12.0, 0)(2.0))
    assert spin_residual(p, 10.0, 2.0, 1, 12.0) is None
    *_, gamma = fields(_SPIN, p, 10.0, 2, 0.0, 0)(2.0)
    assert gamma == 6.0
    with pytest.raises(InvalidParameter):
        solve_dirac_spin(p, 10.0, 0)
    with pytest.raises(InvalidParameter):
        spin_residual(p, 10.0, 2.0, 0)
    with pytest.raises(InvalidParameter):
        pseudospin_residual(p, 10.0, 2.0, 0)


def test_pseudospin_ansatz_fields(ch_unit):
    p, _ = ch_unit
    M, E, Cps = 100.0, -40.0, 0.0
    eps, _, _, chi, _, gamma = fields(_PSEUDOSPIN, p, M, 2, Cps, 0)(E)
    assert gamma == 2.0
    S = (M - E + Cps) / HBAR_C_EV_ANGSTROM**2
    assert eps == pytest.approx(S * (M + E - p.D_e) / p.alpha**2, rel=1e-14)
    assert -chi == pytest.approx(2 * S * p.D_e * p.q / p.alpha**2, rel=1e-14)


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


def test_a_bisection_out_of_budget_raises_nonconvergence(ch_unit, monkeypatch):
    # the failure surfaces as a solver failure, not as a missing level
    p, part = ch_unit
    monkeypatch.setattr(rootfind, "_MAX_ITER", 5)
    with pytest.raises(NonConvergence, match="exceeded 5 iterations"):
        solve_kg_energy(scaled_params(p, part, 500.0), 500.0, QuantumNumbers(n=0, l=0))


#: (sector, state) with the Dirac constant C as a fraction of M
_SECTOR_STATES = st.one_of(
    st.builds(lambda n, l, D: (_KG, (QuantumNumbers(n=n, l=l, D=D),)),
              st.integers(0, 4), st.integers(0, 3), st.sampled_from((2, 3, 4))),
    st.builds(lambda sector, kappa, c, n: (sector, (kappa, c, n)), st.sampled_from((_SPIN, _PSEUDOSPIN)),
              st.sampled_from((-3, -2, -1, 1, 2, 3)), st.sampled_from((0.0, 0.5, -0.5)), st.integers(0, 4)),
)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(sector_state=_SECTOR_STATES, mol=st.sampled_from(builtin_molecules()), alpha=st.floats(0.01, 0.3),
       a=st.floats(-5.0, 5.0), b=st.floats(-5.0, 5.0), M=st.sampled_from((50.0, 500.0, 5000.0, 5e4, None)),
       params=st.sampled_from(("scaled", "unscaled", "pseudospin")))
def test_residual_is_defined_on_one_interval_and_every_bracket_bisects(sector_state, mol, alpha, a, b, M, params):
    # S and the radicand 1/4 + phi + gamma are linear in E, so the residual is
    # finite on one interval; the solver bisects each scan bracket once and
    # relies on this to meet no hole inside a bracket
    p, part = to_potential_params(mol, a, b, alpha)
    M = part.mu_energy if M is None else M
    p = {"scaled": scaled_params(p, part, M), "unscaled": p,
         "pseudospin": pseudospin_params(p, M, HBAR_C_EV_ANGSTROM)}[params]
    sector, state = sector_state
    if sector is not _KG:
        state = (state[0], state[1] * M, state[2])
    at, n = relativistic._fields(sector, p, M, state, HBAR_C_EV_ANGSTROM)

    def f(E):
        return relativistic._nu_eval(at(E), n)[0]

    lo, hi = default_search_interval(p, M)
    finite = np.array([math.isfinite(f(E)) for E in float_linspace(lo, hi, 20001)], dtype=int)
    assert np.count_nonzero(np.diff(finite) == 1) + finite[0] <= 1  # at most one run of finite values
    for bracket in rootfind.scan_brackets(f, lo, hi, 2000):
        E, res = rootfind.bisect(f, bracket, 1e-12)
        assert bracket.lo <= E <= bracket.hi and math.isfinite(res)


def test_kg_no_bound_state_for_free_particle():
    p = PotentialParams(a=0.0, b=0.0, D_e=0.0, r_e=1.0, alpha=0.05)
    with pytest.raises(NoBoundState):
        solve_kg_energy(p, 100.0, QuantumNumbers(n=0, l=0))


@pytest.mark.parametrize("M", [0.0, -1.0, math.nan, math.inf])
def test_solvers_reject_a_mass_that_is_not_finite_and_positive(ch_unit, M):
    p, _ = ch_unit
    with pytest.raises(InvalidParameter, match="finite and > 0"):
        default_search_interval(p, M)
    with pytest.raises(InvalidParameter, match="finite and > 0"):
        solve_kg_energy(p, M, QuantumNumbers(n=0, l=0))
    with pytest.raises(InvalidParameter, match="finite and > 0"):
        solve_dirac_pseudospin(p, M, 1, 0.0, 0)


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
    # the expanded printed forms carry transcription defects; their residuals at
    # genuine roots (the cross_check_residual column) quantify it and must not be zero
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
    assert mismatch_sign_change(ode_coefficient("kg", ps, M, qn), e_kg, 1e-8 * M)
    e_sp = solve_dirac_spin(ps, M, kappa=-2, Cs=0.0, n=1)[0]
    assert mismatch_sign_change(ode_coefficient("dirac-spin", ps, M, -2, 0.0, 0), e_sp, 1e-8 * M)
    pp = pseudospin_params(p, M, HBAR_C_EV_ANGSTROM)
    e_ps = solve_dirac_pseudospin(pp, M, kappa=1, Cps=0.0, n=0)[0]
    assert mismatch_sign_change(ode_coefficient("dirac-pseudospin", pp, M, 1, 0.0, 0), e_ps, 1e-8 * M)
    # D = 2, l = 0 has the attractive angular coefficient lambda_D = -1/4
    qn2 = QuantumNumbers(n=1, l=0, D=2)
    e_d2 = solve_kg_energy(ps, M, qn2)[0]
    assert mismatch_sign_change(ode_coefficient("kg", ps, M, qn2), e_d2, 1e-8 * M)


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
        spec = kg_wavefunction_spec(ps, M, E, qn)
        assert math.isfinite(spec.log_norm)
        closed = kg_log_norm_closed(spec.leading_exp, spec.edge_exp, n, ps.alpha)
        if closed is not None:
            # the log-difference is the honest record: the printed constant is
            # off by hundreds of orders of magnitude, so the plain ratio may
            # underflow to 0.0
            assert math.isfinite(closed - spec.log_norm)
            ratio = math.exp(closed - spec.log_norm)
            assert math.isfinite(ratio) and ratio >= 0.0


def test_spin_ansatz_generic_reference_values(ch_unit):
    p, _ = ch_unit
    M, E, Cs, kappa = 700.0, 123.0, 2.5, -3
    eps, _, eta, chi, _, gamma = fields(_SPIN, p, M, kappa, Cs, 0)(E)
    hc2 = mp.mpf("1973.29") ** 2
    b0 = mp.mpf(repr(M)) + mp.mpf(repr(E)) - mp.mpf(repr(Cs))
    S = b0 / hc2
    a2 = mp.mpf("0.025") ** 2
    q = mp.expm1(mp.mpf("0.025") * mp.mpf("1.1198"))
    De = mp.mpf(repr(p.D_e))
    assert gamma == 6.0
    assert chi == pytest.approx(float(2 * S * De * q / a2), rel=1e-14)
    assert eta == pytest.approx(float(S / mp.mpf("0.025")), rel=1e-14)
    assert eps == pytest.approx(float(S * (M - E + De) / a2), rel=1e-14)


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
    closed = kg_log_norm_closed(spec.leading_exp, spec.edge_exp, 1, ps.alpha)
    assert closed is None or math.isfinite(closed)


def test_upper_spinor_norm_closed_form_exact_at_ground(ch_unit):
    p, part = ch_unit
    M = 500.0
    ps = scaled_params(p, part, M)
    E = solve_dirac_spin(ps, M, kappa=-1, Cs=0.0, n=0)[0]
    spec = upper_spinor_spec(ps, M, E, kappa=-1, Cs=0.0, n=0)
    closed = log_norm_closed_form(spec.leading_exp, spec.edge_exp, 0, ps.alpha)
    assert math.exp(closed - spec.log_norm) == pytest.approx(1.0, rel=1e-7)
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
    assert _ode_defect(kg_wavefunction_spec(ps, M, e_kg, qn), ode_coefficient("kg", ps, M, qn), e_kg) <= 1e-2
    e_sp = solve_dirac_spin(ps, M, kappa=1, Cs=0.0, n=1)[0]
    assert _ode_defect(upper_spinor_spec(ps, M, e_sp, 1, 0.0, 1),
                       ode_coefficient("dirac-spin", ps, M, 1, 0.0, 0), e_sp) <= 1e-2
    pp = pseudospin_params(p, M, HBAR_C_EV_ANGSTROM)
    e_ps = solve_dirac_pseudospin(pp, M, kappa=2, Cps=0.0, n=0)[0]
    assert _ode_defect(lower_spinor_spec(pp, M, e_ps, 2, 0.0, 0),
                       ode_coefficient("dirac-pseudospin", pp, M, 2, 0.0, 0), e_ps) <= 1e-2


def test_spinor_rejects_unbound_energy(ch_unit):
    # above the continuum threshold M + D_e - a*alpha the leading exponent
    # radicand turns negative
    p, part = ch_unit
    M = 500.0
    ps = scaled_params(p, part, M)
    E_open = M + ps.D_e
    # S = (M + E)/(hbar c)^2 is 0 at E = -M and negative below it, where every field is NaN
    for E in (E_open, -M, -M - 1.0):
        with pytest.raises(NoBoundState):
            kg_wavefunction_spec(ps, M, E, QuantumNumbers(n=0, l=0))


# --- open defects, held by strict xfails ----------------------------------------
# Each test asserts the right answer.  Under strict=True an XPASS fails the
# suite, so the change that mends a defect must drop its marker.


@pytest.mark.xfail(strict=True, raises=NoBoundState,
                   reason="two sign changes of the KG residual inside one 2000-point scan cell cancel")
def test_kg_solver_finds_a_root_between_two_scan_samples():
    # CH at alpha = 0.2 scaled to M = 50 eV: the window reaches 6.5e7 eV, so one scan cell is 32 keV
    p, part = to_potential_params(find_molecule("CH"), 1.0, 1.0, 0.2)
    M, qn = 50.0, QuantumNumbers(n=0, l=0)
    ps = scaled_params(p, part, M)
    at, n = relativistic._fields(_KG, ps, M, (qn,), part.hbar_c)

    def f(E):
        return float(relativistic._nu_eval(at(E), n)[0])

    E, _ = rootfind.bisect(f, rootfind.RootBracket(-30.0, -20.0, f(-30.0), f(-20.0)), 1e-12)
    # a genuine level: bracket numerator N < 0, and the shooting mismatch flips across it
    assert relativistic._nu_eval(at(E), n)[1] < 0.0
    assert mismatch_sign_change(ode_coefficient("kg", ps, M, qn), E, 1e-8 * M)
    assert any(abs(root - E) <= 1e-8 * M for root in solve_kg_energy(ps, M, qn, hbar_c=part.hbar_c))


@pytest.mark.parametrize("name,M,n", [
    pytest.param("CH", 500.0, 1, id="CH-500eV-n1"),
    pytest.param("N2", 50.0, 4, id="N2-50eV-n4", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="support_window is too narrow for a near-Gaussian envelope, so log_norm integrates a truncated state")),
])
def test_kg_state_has_unit_norm_over_a_wide_span(name, M, n):
    # trapezoid on a span far wider than support_window, which the quadrature log_norm integrates over
    p, part = to_potential_params(find_molecule(name), 1.0, 1.0, 0.025)
    ps = scaled_params(p, part, M)
    qn = QuantumNumbers(n=n, l=0)
    spec = kg_wavefunction_spec(ps, M, solve_kg_energy(ps, M, qn, hbar_c=part.hbar_c)[0], qn, hbar_c=part.hbar_c)
    r_lo, r_hi = support_window(spec.waveform)
    r = np.linspace(0.02 * r_lo, 8.0 * r_hi + 50.0, 800001)
    u = wavefun.value(spec.waveform, spec.log_norm, r)
    assert abs(float(np.trapezoid(u * u, r)) - 1.0) <= 1e-6
