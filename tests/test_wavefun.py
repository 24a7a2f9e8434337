"""The wavefunction engine against independent oracles, and its one-radius path.

`wavefun` evaluates the polynomial factor by the Jacobi degree recurrence on
whole arrays or at one float radius.  The oracles here are the term-by-term
2F1 sum with its exact-rational fallback (`checks.term_sum_log_abs_and_sign`),
`mpmath.jacobi` for large exponents, and 40-digit mpmath for the envelope.
A float radius runs on `math` alone and must agree with the element that the
array path gives to rounding, within PATH_TOL.
"""

import functools
import math
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from hgmorse import specfun, wavefun
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
from hgmorse.specfun import jacobi_log_abs_and_sign, jacobi_recurrence
from hgmorse.units import HBAR_C_EV_ANGSTROM
from hgmorse.wavefun import (
    SWaveform,
    bound_exponents,
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
#: a float radius against the array path: absolute in log|u| and relative in u.
#: Measured: at most 4.5e-13 on the states of _one_radius_specs, and 3.6e-12
#: over the 110 states of the benchmark's wavefunctions workload (seed 0,
#: passes 0-5) on its 401-point grids.  Far past the window, where |log|u||
#: reaches 1e9, log|u| agrees within PATH_REL_TOL of itself (measured 3.6e-16)
PATH_TOL = 4e-12
PATH_REL_TOL = 1e-15


def _agrees(float_path, array_path):
    """Whether a float radius's log|u| agrees with the array path's element."""
    return float_path == pytest.approx(array_path, rel=PATH_REL_TOL, abs=PATH_TOL)


def _value_agrees(float_path, array_path):
    """Whether a float radius's u agrees with the array path's element, relatively
    (subnormal values absolutely)."""
    return float_path == pytest.approx(array_path, rel=PATH_TOL, abs=1e-300)


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


def _assert_matches_term_sum(w, r):
    """Equal signs, and |d log|u|| <= 1e-9 wherever log|2F1| lies within
    log(1e6) of its peak."""
    la, sign = log_abs_and_sign(w, r)
    oracle = np.array([term_sum_log_abs_and_sign(w, float(x)) for x in r])
    la_ref, sign_ref = oracle[:, 0], oracle[:, 1]
    assert np.array_equal(sign, sign_ref), w.n
    # log|2F1| up to a per-state constant: la less the envelope
    log_hyp = la_ref - (-w.leading * w.alpha * r + w.edge * np.log1p(-np.exp(-w.alpha * r)))
    away = log_hyp > log_hyp.max() - math.log(1e6)
    assert np.all(np.abs(la - la_ref)[away] <= 1e-9), w.n


@pytest.mark.parametrize("kind", ["nonrel", "kg", "spin"])
@pytest.mark.parametrize("name", NAMES)
def test_array_path_matches_term_sum_at_quadrature_nodes(name, kind):
    for w in _waveforms(name, kind):
        _assert_matches_term_sum(w, quadrature_nodes(w)[0][::NODE_STRIDE])


#: every 97th quadrature node of an n = 80 state, of 2656 panels of 24 nodes
HIGH_N_STRIDE = 97


@pytest.mark.parametrize("kind", ["nonrel", "kg"])
def test_array_path_matches_term_sum_at_n_80(kind):
    # (2*leading + 1)_n, a product of n factors near 1.2e4, passes the float
    # range from n = 76 at N2, though P_n itself stays finite
    p, part = to_potential_params(find_molecule("N2"), 1.0, 1.0, ALPHA)
    if kind == "nonrel":
        w = make_wavefunction(p, part, 80, 0).waveform
    else:
        ps, qn = scaled_params(p, part, 5000.0), QuantumNumbers(n=80, l=0)
        w = kg_wavefunction_spec(ps, 5000.0, solve_kg_energy(ps, 5000.0, qn)[0], qn).waveform
    _assert_matches_term_sum(w, quadrature_nodes(w)[0][::HIGH_N_STRIDE])


def test_log_norm_at_n_80_is_finite_and_warning_free():
    # its value is not pinned: the support window cuts off part of the norm at high n
    p, part = to_potential_params(find_molecule("N2"), 1.0, 1.0, ALPHA)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = make_wavefunction(p, part, 80, 0)
    assert math.isfinite(spec.log_norm)


@pytest.mark.parametrize("edge", [1.3, 7.9, 40.0])
def test_jacobi_factor_matches_mpmath_at_large_leading(edge):
    with mp.workdps(50):
        for n in range(11):
            w = SWaveform(1.0e4 + 0.37, edge, n, ALPHA)
            x = 1.0 - 2.0 * np.array([math.exp(-w.alpha * r) for r in np.linspace(*support_window(w), 81)])
            a, b = mp.mpf(repr(w.jacobi.theta)), mp.mpf(repr(w.jacobi.vartheta))
            ref = np.array([float(mp.jacobi(n, a, b, mp.mpf(repr(float(y))))) for y in x])
            got = jacobi_recurrence(w.jacobi, x)
            # near a root the relative error of any float evaluation grows
            # without bound, so compare where |P_n| is within 20x of its peak
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
        assert sign.ravel()[i] == sign_i and _agrees(la_i, la.ravel()[i])
        assert _value_agrees(value(w, log_norm, x), u.ravel()[i])
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
    assert jacobi_recurrence(w.jacobi, 1.0 - 2.0 * np.array([math.exp(-x) for x in r]))[1] == 0.0
    la, sign = log_abs_and_sign(w, r)
    assert la[1] == -math.inf and sign[1] == 1.0
    assert np.all(np.isfinite(la[[0, 2]]))
    u = value(w, log_norm_quadrature(w), r)
    assert u[1] == 0.0 and u[0] != 0.0 and u[2] != 0.0
    assert term_sum_log_abs_and_sign(w, math.log(2.0)) == (-math.inf, 1.0)
    # the float path hits the same zero
    assert jacobi_recurrence(w.jacobi, 1.0 - 2.0 * 0.5) == 0.0
    assert log_abs_and_sign(w, math.log(2.0)) == (-math.inf, 1.0)
    log_norm = log_norm_quadrature(w)
    for spec, f in ((WavefunctionSpec(1.5, 2.0, 1, 1.0, log_norm), radial_wavefunction),
                    (RelWavefunctionSpec(1.5, 2.0, 1, 1.0, log_norm), rel_radial_value)):
        got = [f(spec, x) for x in r.tolist()]
        assert got[1] == 0.0 and all(_value_agrees(g, v) for g, v in zip(got, u.tolist()))


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


def test_log_norm_is_a_python_float():
    # the nonrelativistic and all three relativistic spec builders; a numpy
    # float64 would carry numpy scalar arithmetic into every value computed from it
    assert type(log_norm_quadrature(SWaveform(1.5, 2.0, 1, 1.0))) is float
    for _, spec in _one_radius_specs():
        assert type(spec.log_norm) is float


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(i=st.integers(0, 17),
       fractions=st.lists(st.floats(-0.3, 1.5), min_size=1, max_size=12),
       far=st.lists(st.floats(750.0, 1e5), max_size=3))
def test_float_radius_agrees_with_array_element(i, fractions, far):
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
        assert type(got) is float and _value_agrees(got, u[k]), (i, r)
        la_k, sign_k = log_abs_and_sign(w, r)
        assert sign_k == sign[k] and _agrees(la_k, la[k]), (i, r)


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
    assert _value_agrees(f(spec, r), float(u))


@pytest.mark.parametrize("r", [0.0, -1.0, math.nan, -math.inf])
@pytest.mark.parametrize("which", ["nonrel", "rel"])
def test_float_radius_input_check(which, r):
    f, spec = _one_radius_specs()[3] if which == "nonrel" else _one_radius_specs()[10]
    with pytest.raises(InvalidParameter):
        f(spec, r)


def test_envelope_columns_agree_with_the_one_float_envelope():
    rng = np.random.default_rng(7)
    t = np.concatenate([
        rng.uniform(-800.0, 0.0, 4000),  # below about -745.13, s underflows to 0
        -np.exp(rng.uniform(-700.0, 0.0, 1000)),  # just below 0, down to -1e-304
        -745.13 + rng.uniform(-0.05, 0.05, 200),  # around the underflow
        [-5e-324, -1e-300, -1e-17, -745.2, -1000.0, -0.0],  # -0.0: alpha r underflowed, 1 - s = 0
    ])
    s, log_one_m_s = wavefun._envelope_columns(t)
    s_ref, log_one_m_s_ref = np.array([wavefun._envelope(x) for x in t.tolist()]).T
    assert np.any(s == 0.0) and np.any(s > 0.0) and log_one_m_s[-1] == -math.inf
    assert s.shape == log_one_m_s.shape == t.shape
    # s is libm's exp on both paths, bit for bit; log(1 - s) is numpy's on an
    # array and libm's on a float, measured at most 1 ulp apart
    assert np.array_equal(s.view(np.uint64), s_ref.view(np.uint64))
    finite = np.isfinite(log_one_m_s_ref)
    assert np.array_equal(np.isfinite(log_one_m_s), finite)
    got, want = log_one_m_s[finite], log_one_m_s_ref[finite]
    assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))


@functools.cache
def _envelope_reference():
    """t from -800 to -1e-17, through the subnormal and zero s of t < -708.4,
    with log s and log(1 - s) at 40 digits."""
    rng = np.random.default_rng(11)
    t = -np.concatenate([np.geomspace(1e-17, 800.0, 1500), rng.uniform(708.0, 746.0, 300)])
    with mp.workdps(40):
        log_s = [mp.mpf(x) for x in t.tolist()]
        return t, log_s, [mp.log(-mp.expm1(x)) for x in log_s]


@pytest.mark.parametrize("leading,edge", [(3.4e4, 991.0), (5e3, 3.0), (200.0, 40.0)])
def test_envelope_matches_mpmath(leading, edge):
    t, log_s, log_one_m_s = _envelope_reference()
    with mp.workdps(40):
        want = np.array([float(leading * a + edge * b) for a, b in zip(log_s, log_one_m_s)])
    got = leading * t + edge * wavefun._envelope_columns(t)[1]
    libm = np.array([leading * (x if math.exp(x) == 0.0 else math.log(math.exp(x)))
                     + edge * math.log(-math.expm1(x)) for x in t.tolist()])

    def ulps(y):
        return np.abs(y - want) / np.spacing(np.abs(want))

    # measured: at most 2 ulp of the correctly rounded value (1.2e-10 at
    # leading = 3.4e4, where the log envelope reaches -2.7e7)
    assert ulps(got).max() <= 2.0
    # libm's log(exp(t)) loses the digits that a subnormal s drops, and is
    # no better than log s = t where s is normal
    normal = t >= math.log(sys.float_info.min)
    assert ulps(got)[normal].max() <= ulps(libm)[normal].max()
    assert ulps(got).max() <= ulps(libm).max()


@pytest.mark.parametrize("alpha_r", [700.0, 709.0, 740.0, 745.0])
def test_term_sum_takes_log_s_as_minus_alpha_r_where_s_is_subnormal(alpha_r):
    # log(exp(-745)) of the subnormal s is -732.3, which the leading 3.4e4 made
    # -25310962.4 against the exact -25330000
    w = SWaveform(3.4e4, 991.0, 0, ALPHA)
    r = alpha_r / w.alpha
    t = -w.alpha * r
    with mp.workdps(40):
        want = float(w.leading * mp.mpf(t) + w.edge * mp.log(-mp.expm1(mp.mpf(t))))
    la, sign = term_sum_log_abs_and_sign(w, r)
    assert sign == 1.0 and la == pytest.approx(want, rel=1e-15)
    assert la == pytest.approx(log_abs_and_sign(w, r)[0], rel=1e-15)


def test_radius_whose_alpha_r_underflows_has_a_zero_value():
    # 0.025 * 5e-324 rounds to 0: s = 1, so (1 - s)^edge and u are 0
    r = 5e-324
    for f, spec in _one_radius_specs():
        w = spec.waveform
        assert -w.alpha * r == 0.0
        assert log_abs_and_sign(w, r) == (-math.inf, 1.0)
        u = f(spec, r)
        assert u == 0.0 and math.copysign(1.0, u) == 1.0 and value(w, spec.log_norm, r) == u
        rs = np.array([r, 0.5 * sum(support_window(w))])
        la, sign = log_abs_and_sign(w, rs)
        assert (la[0], sign[0]) == (-math.inf, 1.0) and np.isfinite(la[1])
        # the zero bit for bit, the sign of zero included
        got, want = [f(spec, x) for x in rs.tolist()], value(w, spec.log_norm, rs)
        assert np.array(got[0]).tobytes() == want[:1].tobytes() and _value_agrees(got[1], want[1])


def test_point_value_far_past_the_window_is_zero_at_high_n():
    # P_n(1) passes the float range from n = 135 for N2, so the plain
    # recurrence gives inf or NaN where s -> 0; the rescaled one keeps log|P_n|
    p, part = to_potential_params(find_molecule("N2"), 1.0, 1.0, ALPHA)
    spec = make_wavefunction(p, part, 150, 0)
    w = spec.waveform
    r_hi = support_window(w)[1]
    assert [radial_wavefunction(spec, k * r_hi) for k in (30.0, 100.0)] == [0.0, 0.0]
    with mp.workdps(80):
        a, b = mp.mpf(w.jacobi.theta), mp.mpf(w.jacobi.vartheta)
        for k in (0.5, 1.0, 6.0, 30.0, 100.0):
            x = 1.0 - 2.0 * math.exp(-w.alpha * k * r_hi)
            ref = mp.jacobi(w.n, a, b, mp.mpf(x))
            log_abs, sign = jacobi_log_abs_and_sign(w.jacobi, x)
            # measured: within 1.3e-15 relative
            assert sign == mp.sign(ref) and log_abs == pytest.approx(float(mp.log(abs(ref))), rel=4e-15), k
            assert math.isfinite(log_abs_and_sign(w, k * r_hi)[0])


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"a point value called numpy.{name}")


def test_point_value_needs_no_numpy(monkeypatch):
    p, part = to_potential_params(find_molecule("CO"), 1.0, 1.0, ALPHA)
    nonrel_spec = make_wavefunction(p, part, 3, 1)
    ps, qn = scaled_params(p, part, 500.0), QuantumNumbers(n=1, l=1)
    kg_spec = kg_wavefunction_spec(ps, 500.0, solve_kg_energy(ps, 500.0, qn)[0], qn)
    cases = []
    for f, spec in ((radial_wavefunction, nonrel_spec), (rel_radial_value, kg_spec)):
        r_lo, r_hi = support_window(spec.waveform)
        # inside the window, past it, where s underflows to 0, and where alpha r underflows to 0
        cases += [(f, spec, r) for r in (r_lo, 0.5 * (r_lo + r_hi), r_hi, 2.0 * r_hi, 800.0 / ALPHA, 5e-324)]

    def point_values():
        return [(f(spec, r), value(spec.waveform, spec.log_norm, r), log_abs_and_sign(spec.waveform, r))
                for f, spec, r in cases]

    before = point_values()
    monkeypatch.setattr(wavefun, "np", _NoNumpy())
    monkeypatch.setattr(specfun, "np", _NoNumpy())
    assert point_values() == before


def test_gauss_legendre_rule_is_built_once_and_read_only():
    w, _ = _ch_state()
    (r1, wt1), (r2, wt2) = quadrature_nodes(w), quadrature_nodes(w)
    assert np.array_equal(r1, r2) and np.array_equal(wt1, wt2)
    x, wt = wavefun._gauss_legendre_24()
    assert wavefun._gauss_legendre_24()[0] is x
    assert not x.flags.writeable and not wt.flags.writeable
    with pytest.raises(ValueError):
        x[0] = 0.0
    ref_x, ref_wt = np.polynomial.legendre.leggauss(24)
    assert np.array_equal(x, ref_x) and np.array_equal(wt, ref_wt)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(NAMES), a=st.floats(0.0, 5.0), b=st.floats(0.0, 5.0),
       n=st.integers(0, 6), l=st.integers(0, 2))
def test_log_norm_normalizes_term_sum_eigenfunction(name, a, b, n, l):
    p, part = to_potential_params(find_molecule(name), a, b, ALPHA)
    spec = make_wavefunction(p, part, n, l)
    w = SWaveform(spec.omega, spec.phi_exp, n, p.alpha)
    integral, _ = quad(lambda r: term_sum_value(w, spec.log_norm, r) ** 2, *support_window(w), limit=400)
    assert integral == pytest.approx(1.0, abs=1e-6)
