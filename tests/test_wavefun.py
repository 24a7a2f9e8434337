"""The array wavefunction engine against independent oracles.

`wavefun` evaluates the polynomial factor by the Jacobi degree recurrence on
whole arrays.  The oracles here are the term-by-term 2F1 sum with its
exact-rational fallback (`checks.term_sum_log_abs_and_sign`), and
`mpmath.hyp2f1` for large exponents.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from hgmorse.checks import term_sum_log_abs_and_sign, term_sum_value
from hgmorse.errors import InvalidParameter
from hgmorse.molecules import builtin_molecules, find_molecule, to_potential_params
from hgmorse.nonrel import energy_nonrel, make_wavefunction, wavefunction_exponents
from hgmorse.relativistic import (
    QuantumNumbers,
    kg_wavefunction_spec,
    solve_dirac_spin,
    solve_kg_energy,
    upper_spinor_spec,
)
from hgmorse.wavefun import (
    SWaveform,
    count_nodes,
    hypergeometric_factor,
    log_abs_and_sign,
    log_norm_quadrature,
    quadrature_nodes,
    support_window,
    value,
)
from tests.conftest import scaled

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
    ps = scaled(p, part, M)
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


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(NAMES), a=st.floats(0.0, 5.0), b=st.floats(0.0, 5.0),
       n=st.integers(0, 6), l=st.integers(0, 2))
def test_log_norm_normalizes_term_sum_eigenfunction(name, a, b, n, l):
    p, part = to_potential_params(find_molecule(name), a, b, ALPHA)
    spec = make_wavefunction(p, part, n, l)
    w = SWaveform(spec.omega, spec.phi_exp, n, p.alpha)
    integral, _ = quad(lambda r: term_sum_value(w, spec.log_norm, r) ** 2, *support_window(w), limit=400)
    assert integral == pytest.approx(1.0, abs=1e-6)
