import math
from types import SimpleNamespace

import numpy as np
import pytest

from hgmorse.checks import check_normalization
from hgmorse.errors import InvalidParameter, NoBoundState
from hgmorse.molecules import builtin_molecules, find_molecule, to_potential_params
from hgmorse.nonrel import (
    ParticleSpec,
    WavefunctionSpec,
    energy_nonrel,
    level_indices,
    make_wavefunction,
    radial_wavefunction,
    wavefunction_exponents,
)
from hgmorse.oracle import _fd_matrix, oracle_energies, RadialGrid, scipy_extension
from hgmorse.potential import PotentialParams
from hgmorse.record import replace
from hgmorse.wavefun import SWaveform, support_window
from ode_helpers import fd_mode_nodes, schrodinger_ode_coefficient
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
        energy_nonrel(replace(p, a=a, b=b), part, 0, 0)


def _sturm_count(diag: np.ndarray, off: np.ndarray, x: float) -> int:
    """Eigenvalues below x of the symmetric tridiagonal (diag, off): the negative
    pivots of its LDL^T factorization shifted by x (Sylvester's law of inertia)."""
    count, q = 0, 1.0
    for d, e2 in zip((diag - x).tolist(), [0.0] + (off * off).tolist()):
        q = d - e2 / (q if q != 0.0 else 1e-300)
        count += q < 0.0
    return count


@pytest.mark.parametrize("name,a,b,alpha,expected", [
    ("CH", 1.0, 1.0, 0.2, 105),
    ("HCl", 1.0, 1.0, 0.2, 122),
    # near b = 9 eV*A the Yukawa term cancels the attractive e^(-alpha r) tail of
    # the well: 11 levels at b = 8.9, none from b = 9 on
    ("CH", 0.0, 8.9, 0.025, 11),
    ("CH", 0.0, 9.0, 0.025, 0),
])
def test_bound_levels_end_where_the_fd_spectrum_meets_the_continuum(name, a, b, alpha, expected):
    # past the last bound level the squared closed form goes on returning
    # energies, falling with n; the FD count below V_inf = D_e - a alpha on a
    # 40/alpha box, wider than the last state's decay length, is the number of bound levels
    p, part = to_potential_params(find_molecule(name), a, b, alpha)
    v_inf = p.D_e - p.a * p.alpha
    diag, off = _fd_matrix(p, part, 0, RadialGrid(1e-3, 40.0 / alpha, 200001), 1)
    fd_count = _sturm_count(diag, off, v_inf)
    accepted = 0
    while True:
        try:
            energy_nonrel(p, part, accepted, 0)
        except NoBoundState:
            break
        accepted += 1
    assert accepted == fd_count == expected
    with pytest.raises(NoBoundState):
        energy_nonrel(p, part, accepted, 0)
    if accepted:
        assert energy_nonrel(p, part, accepted - 1, 0) < v_inf


def test_energy_past_the_last_bound_level_raises():
    p, part = to_potential_params(find_molecule("CH"), 1.0, 1.0, 0.2)
    assert energy_nonrel(p, part, 104, 0) < p.D_e - p.a * p.alpha
    for n in (105, 106, 107):
        with pytest.raises(NoBoundState, match="past the last bound level"):
            energy_nonrel(p, part, n, 0)
    with pytest.raises(NoBoundState):
        make_wavefunction(p, part, 105, 0)


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


def _energy_nonrel_printed(p, part, n, l):
    """The rejected printed variant of energy_nonrel: + sign on the D_e q^2/alpha^2 coupling term."""
    T = part.two_mu_over_hbar2
    a2 = p.alpha**2
    L = l * (l + 1)
    P = n + 0.5 + math.sqrt(0.25 + L + T * p.D_e * p.q**2 / a2)
    N = P * P + T * (p.b / p.alpha - p.a / p.alpha - 2.0 * p.D_e * p.q / a2 + p.D_e * p.q**2 / a2) + L
    kap2 = part.kinetic_scale * a2
    return p.D_e - p.a * p.alpha + kap2 * L - 0.25 * kap2 * (N / P) ** 2


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
    with pytest.raises(NoBoundState):  # a NaN radicand fails the bound-state rule too
        wavefunction_exponents(p, part, math.nan, 0)


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
    assert fd_mode_nodes(p, part, 0, RadialGrid(1e-3, 4.0, 4001), 2, 1e-6)[1] == 1


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

