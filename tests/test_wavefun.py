"""The wavefunction engine against independent oracles, and its one-radius path.

`wavefun` evaluates the polynomial factor by the Jacobi degree recurrence on
whole arrays or at one float radius.  The oracles here are the term-by-term
2F1 sum with its exact-rational fallback (`checks.term_sum_log_abs_and_sign`),
and `mpmath.hyp2f1` for large exponents.  A float radius must give bit for
bit the element that the array path gives.
"""

import functools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from hgmorse.checks import pseudospin_params, scaled_params, term_sum_log_abs_and_sign, term_sum_value
from hgmorse.errors import InvalidParameter, NoBoundState
from hgmorse.molecules import builtin_molecules, find_molecule, to_potential_params
from hgmorse.nonrel import (
    WavefunctionSpec,
    energy_nonrel,
    make_wavefunction,
    radial_wavefunction,
    wavefunction_exponents,
)
from hgmorse.relativistic import (
    QuantumNumbers,
    RelWavefunctionSpec,
    kg_wavefunction_spec,
    lower_spinor_spec,
    rel_radial_value,
    solve_dirac_pseudospin,
    solve_dirac_spin,
    solve_kg_energy,
    upper_spinor_spec,
)
from hgmorse.units import HBAR_C_EV_ANGSTROM
from hgmorse.wavefun import (
    SWaveform,
    bound_exponents,
    hypergeometric_factor,
    log_abs_and_sign,
    log_norm_quadrature,
    quadrature_nodes,
    support_window,
    value,
)
from wavefun_helpers import count_nodes

ALPHA = 0.025
NAMES = [mol.name for mol in builtin_molecules()]
#: every 37th quadrature node: a prime stride cycles through the positions
#: inside the 24-point panels while keeping the term-sum oracle affordable
NODE_STRIDE = 37


def _waveforms(name, kind):
    """The n = 0..8 waveforms of one molecule at a = b = 1: nonrel l = 0,
    Klein-Gordon l = 0 and Dirac-spin kappa = -2 at M = 500 eV."""
    p, part = to_potential_params(find_molecule(name), 1.0, 1.0, ALPHA)
    M = 500.0
    ps = scaled_params(p, part, M)
    for n in range(9):
        if kind == "nonrel":
            leading, edge = wavefunction_exponents(p, part, energy_nonrel(p, part, n, 0), 0)
        elif kind == "kg":
            qn = QuantumNumbers(n=n, l=0)
            spec = kg_wavefunction_spec(ps, M, solve_kg_energy(ps, M, qn)[0], qn)
            leading, edge = spec.leading_exp, spec.edge_exp
        else:
            spec = upper_spinor_spec(ps, M, solve_dirac_spin(ps, M, -2, 0.0, n)[0], -2, 0.0, n)
            leading, edge = spec.leading_exp, spec.edge_exp
        yield SWaveform(leading, edge, n, p.alpha)


@pytest.mark.parametrize("kind", ["nonrel", "kg", "spin"])
@pytest.mark.parametrize("name", NAMES)
def test_array_path_matches_term_sum_at_quadrature_nodes(name, kind):
    for w in _waveforms(name, kind):
        r = quadrature_nodes(w)[0][::NODE_STRIDE]
        la, sign = log_abs_and_sign(w, r)
        oracle = np.array([term_sum_log_abs_and_sign(w, float(x)) for x in r])
        la_ref, sign_ref = oracle[:, 0], oracle[:, 1]
        assert np.array_equal(sign, sign_ref), (name, kind, w.n)
        # log|hyp| up to a per-state constant: la less the envelope
        log_hyp = la_ref - (-w.leading * w.alpha * r + w.edge * np.log1p(-np.exp(-w.alpha * r)))
        away = log_hyp > log_hyp.max() - math.log(1e6)
        assert np.all(np.abs(la - la_ref)[away] <= 1e-9), (name, kind, w.n)


@pytest.mark.parametrize("edge", [1.3, 7.9, 40.0])
def test_hypergeometric_factor_matches_mpmath_at_large_leading(edge):
    with mp.workdps(50):
        for n in range(11):
            w = SWaveform(1.0e4 + 0.37, edge, n, ALPHA)
            s = np.array([math.exp(-w.alpha * r) for r in np.linspace(*support_window(w), 81)])
            B = mp.mpf(repr(n + 2.0 * w.leading + 2.0 * w.edge))
            C = mp.mpf(repr(2.0 * w.leading + 1.0))
            ref = np.array([float(mp.hyp2f1(-n, B, C, mp.mpf(repr(float(x))))) for x in s])
            got = hypergeometric_factor(w, s)
            # near a root the relative error of any float evaluation grows
            # without bound, so compare where |2F1| is within 20x of its peak
            away = np.abs(ref) > 0.05 * np.abs(ref).max()
            assert away.sum() >= 10
            assert np.all(np.abs(got - ref)[away] <= 1e-12 * np.abs(ref)[away]), (edge, n)


@pytest.mark.parametrize("name", NAMES)
def test_count_nodes_equals_degree(name):
    p, part = to_potential_params(find_molecule(name), 1.0, 1.0, ALPHA)
    for n in range(9):
        spec = make_wavefunction(p, part, n, 0)
        assert count_nodes(SWaveform(spec.omega, spec.phi_exp, n, p.alpha), spec.log_norm) == n


def _ch_state():
    p, part = to_potential_params(find_molecule("CH"), 1.0, 1.0, ALPHA)
    spec = make_wavefunction(p, part, 3, 1)
    return SWaveform(spec.omega, spec.phi_exp, 3, p.alpha), spec.log_norm


@pytest.mark.parametrize("shape", [(), (0,), (1,), (7,)])
def test_array_inputs_match_scalar_calls(shape):
    w, log_norm = _ch_state()
    r_lo, r_hi = support_window(w)
    r = np.linspace(r_lo, r_hi, 7)[: (shape or (1,))[0]].reshape(shape)
    la, sign = log_abs_and_sign(w, r)
    u = value(w, log_norm, r)
    assert la.shape == sign.shape == u.shape == shape
    for i, x in enumerate(r.ravel().tolist()):
        la_i, sign_i = log_abs_and_sign(w, x)
        assert (la.ravel()[i], sign.ravel()[i]) == (float(la_i), float(sign_i))
        assert u.ravel()[i] == float(value(w, log_norm, x))
        la_ref, sign_ref = term_sum_log_abs_and_sign(w, x)
        assert sign_i == sign_ref
        assert la_i == pytest.approx(la_ref, abs=1e-9)
        assert u.ravel()[i] == pytest.approx(term_sum_value(w, log_norm, x), rel=1e-9)


@pytest.mark.parametrize("r", [0.0, -1.0, math.nan, [1.0, 0.0, 2.0], np.array([[2.0], [-3.0]])])
def test_nonpositive_radius_rejected(r):
    w, log_norm = _ch_state()
    with pytest.raises(InvalidParameter):
        log_abs_and_sign(w, r)
    with pytest.raises(InvalidParameter):
        value(w, log_norm, r)


def test_bound_exponents_are_the_square_roots_of_the_radicands():
    assert bound_exponents(4.0, 0.25) == (2.0, 1.0)
    assert bound_exponents(1e-300, 2.25) == (math.sqrt(1e-300), 2.0)


@pytest.mark.parametrize("C,R", [(0.0, 1.0), (-1.0, 1.0), (1.0, -1e-300), (math.nan, 1.0), (1.0, math.nan),
                                 (1.0, 0.0)])
def test_bound_exponents_reject_an_unbound_or_nan_radicand(C, R):
    with pytest.raises(NoBoundState):
        bound_exponents(C, R)


def test_zero_of_polynomial_factor():
    # a = b = 3 puts the root of P_1^(a, b) at x = 1 - 2s = 0, and
    # exp(-log 2) rounds to 0.5 exactly, so the node at r = log 2 hits it
    w = SWaveform(1.5, 2.0, 1, 1.0)
    r = np.array([0.5, math.log(2.0), 1.5])
    assert hypergeometric_factor(w, np.array([math.exp(-x) for x in r]))[1] == 0.0
    la, sign = log_abs_and_sign(w, r)
    assert la[1] == -math.inf and sign[1] == 1.0
    assert np.all(np.isfinite(la[[0, 2]]))
    u = value(w, log_norm_quadrature(w), r)
    assert u[1] == 0.0 and u[0] != 0.0 and u[2] != 0.0
    assert term_sum_log_abs_and_sign(w, math.log(2.0)) == (-math.inf, 1.0)
    # the float path hits the same zero
    assert hypergeometric_factor(w, 0.5) == 0.0
    assert log_abs_and_sign(w, math.log(2.0)) == (-math.inf, 1.0)
    log_norm = log_norm_quadrature(w)
    for spec, f in ((WavefunctionSpec(1.5, 2.0, 1, 1.0, log_norm), radial_wavefunction),
                    (RelWavefunctionSpec(1.5, 2.0, 1, 1.0, log_norm), rel_radial_value)):
        assert [f(spec, x) for x in r.tolist()] == u.tolist()


@functools.cache
def _one_radius_specs():
    """(evaluator, spec) from all four spec builders: nonrel N2 l = 1 at
    n = 0..8, and n = 0..2 of Klein-Gordon l = 0, Dirac-spin kappa = -2 (CH,
    M = 500 eV) and pseudospin kappa = 1 (CH, M = 5000 eV, where n = 2 binds)."""
    p, part = to_potential_params(find_molecule("N2"), 1.0, 1.0, ALPHA)
    out = [(radial_wavefunction, make_wavefunction(p, part, n, 1)) for n in range(9)]
    p, part = to_potential_params(find_molecule("CH"), 1.0, 1.0, ALPHA)
    ps = scaled_params(p, part, 500.0)
    pp = pseudospin_params(p, 5000.0, HBAR_C_EV_ANGSTROM)
    for n in range(3):
        qn = QuantumNumbers(n=n, l=0)
        out.append((rel_radial_value, kg_wavefunction_spec(ps, 500.0, solve_kg_energy(ps, 500.0, qn)[0], qn)))
        E = solve_dirac_spin(ps, 500.0, -2, 0.0, n)[0]
        out.append((rel_radial_value, upper_spinor_spec(ps, 500.0, E, -2, 0.0, n)))
        E = solve_dirac_pseudospin(pp, 5000.0, 1, 0.0, n)[0]
        out.append((rel_radial_value, lower_spinor_spec(pp, 5000.0, E, 1, 0.0, n)))
    return out


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(i=st.integers(0, 17),
       fractions=st.lists(st.floats(-0.3, 1.5), min_size=1, max_size=12),
       far=st.lists(st.floats(750.0, 1e5), max_size=3))
def test_float_radius_is_bit_identical_to_array_element(i, fractions, far):
    f, spec = _one_radius_specs()[i]
    w = spec.waveform
    r_lo, r_hi = support_window(w)
    # inside and around the support window, and far past it, where alpha r
    # > 745 makes s = e^(-alpha r) underflow to 0 (the log s = -alpha r branch)
    rs = [max(r_lo + x * (r_hi - r_lo), 1e-6) for x in fractions] + [t / w.alpha for t in far]
    u = value(w, spec.log_norm, np.array(rs))
    la, sign = log_abs_and_sign(w, np.array(rs))
    for k, r in enumerate(rs):
        got = f(spec, r)
        assert type(got) is float and got == u[k], (i, r)
        assert log_abs_and_sign(w, r) == (la[k], sign[k]), (i, r)


@pytest.mark.parametrize("which", ["nonrel", "rel"])
def test_float_radius_returns_float_and_0d_array_keeps_shape(which):
    f, spec = _one_radius_specs()[3] if which == "nonrel" else _one_radius_specs()[10]
    w = spec.waveform
    r = 0.5 * sum(support_window(w))
    assert type(f(spec, r)) is float
    assert type(value(w, spec.log_norm, r)) is float
    assert all(type(x) is float for x in log_abs_and_sign(w, r))
    la, sign = log_abs_and_sign(w, np.array(r))
    u = value(w, spec.log_norm, np.array(r))
    assert la.shape == sign.shape == u.shape == ()
    assert u == f(spec, r)


@pytest.mark.parametrize("r", [0.0, -1.0, math.nan, -math.inf])
@pytest.mark.parametrize("which", ["nonrel", "rel"])
def test_float_radius_input_check(which, r):
    f, spec = _one_radius_specs()[3] if which == "nonrel" else _one_radius_specs()[10]
    with pytest.raises(InvalidParameter):
        f(spec, r)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(NAMES), a=st.floats(0.0, 5.0), b=st.floats(0.0, 5.0),
       n=st.integers(0, 6), l=st.integers(0, 2))
def test_log_norm_normalizes_term_sum_eigenfunction(name, a, b, n, l):
    p, part = to_potential_params(find_molecule(name), a, b, ALPHA)
    spec = make_wavefunction(p, part, n, l)
    w = SWaveform(spec.omega, spec.phi_exp, n, p.alpha)
    integral, _ = quad(lambda r: term_sum_value(w, spec.log_norm, r) ** 2, *support_window(w), limit=400)
    assert integral == pytest.approx(1.0, abs=1e-6)
