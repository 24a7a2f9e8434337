import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from hgmorse import specfun
from hgmorse.errors import InvalidParameter
from hgmorse.specfun import (
    JacobiParams,
    hyp2f1_terminating,
    jacobi_norm_integral,
    jacobi_poly,
    jacobi_recurrence,
    ln_gamma,
    pochhammer,
)

mp.mp.dps = 40


# --- ln_gamma ---------------------------------------------------------------


def test_ln_gamma_exact_points():
    assert ln_gamma(1.0) == 0.0
    assert ln_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-15)


def test_ln_gamma_reference_point():
    expected = float(mp.loggamma(mp.mpf("7.25")))
    assert ln_gamma(7.25) == pytest.approx(expected, abs=1e-14)


def test_ln_gamma_absolute_error_small_range():
    rng = np.random.default_rng(7)
    for x in rng.uniform(0.5, 30.0, 300):
        assert abs(ln_gamma(float(x)) - float(mp.loggamma(mp.mpf(repr(float(x)))))) <= 1e-13


def test_ln_gamma_relative_error_wide_range():
    # absolute 1e-13 is below float64 representability once ln Gamma ~ 1e3;
    # relative accuracy is what the large normalization arguments rely on
    rng = np.random.default_rng(8)
    for x in rng.uniform(30.0, 2e4, 300):
        ref = mp.loggamma(mp.mpf(repr(float(x))))
        assert abs(ln_gamma(float(x)) - float(ref)) <= 5e-15 * abs(float(ref))


def test_ln_gamma_rejects_nonpositive():
    with pytest.raises(InvalidParameter):
        ln_gamma(0.0)
    with pytest.raises(InvalidParameter):
        ln_gamma(-2.5)


# --- pochhammer -------------------------------------------------------------


def test_pochhammer_values():
    assert pochhammer(3.7, 0) == 1.0
    assert pochhammer(1.0, 5) == 120.0
    assert pochhammer(2.5, 3) == 39.375


def test_pochhammer_rejects_negative_n():
    with pytest.raises(InvalidParameter):
        pochhammer(1.0, -1)


# --- terminating 2F1 --------------------------------------------------------


def test_hyp2f1_degree_zero_and_one():
    assert hyp2f1_terminating(0, 3.3, 1.7, 0.9) == 1.0
    B, C, s = 2.2, 4.4, 0.31
    assert hyp2f1_terminating(1, B, C, s) == pytest.approx(1.0 - B / C * s, rel=1e-15)


def hyp2f1_fraction(n: int, B: float, C: float, s: float) -> float:
    """2F1(-n, B; C; s) summed exactly in Fraction arithmetic and rounded once: the
    reference for the integer sum of specfun._hyp2f1_exact."""
    Bf, Cf, sf = Fraction(B), Fraction(C), Fraction(s)
    total, term = Fraction(1), Fraction(1)
    for k in range(n):
        term *= Fraction(-n + k) * (Bf + k) / ((Cf + k) * (k + 1)) * sf
        total += term
    return float(total)


def test_hyp2f1_four_term_exact_sum():
    n, B, C, s = 3, 2.5, 1.5, 0.3
    assert hyp2f1_terminating(n, B, C, s) == pytest.approx(hyp2f1_fraction(n, B, C, s), rel=1e-15)


@st.composite
def _exact_zero_sums(draw):
    # 1 - (B/C) s with s = 2^-j and B = C 2^j: both exact, so the sum is exactly 0
    j = draw(st.integers(1, 40))
    C = draw(st.floats(0.01, 2e4))
    return 1, C * 2.0**j, C, 2.0**-j


#: (n, B, C, s) over the degrees and the (B, C) ranges that jacobi_poly (exponents in
#: (-1, 100)) and the term-sum oracle (B = n + 2 leading + 2 edge, C = 2 leading + 1,
#: leading up to ~1e4) pass, with s in (0, 1); C stays off the nonpositive integers
_HYP2F1_ARGS = st.one_of(
    st.tuples(st.integers(0, 12), st.floats(-1.0, 4e4), st.floats(0.01, 2.1e4),
              st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
    _exact_zero_sums(),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(args=_HYP2F1_ARGS)
@example(args=(1, 2.0, 1.0, 0.5))  # sums to exactly 0
@example(args=(1, 4.0, 1.0, 0.5))  # sums to -1
@example(args=(1, -2.0, -1.0, 0.5))  # exactly 0 over a negative denominator: +0.0, as Fraction gives
@example(args=(10, 105.0, 2.0, 0.93))  # the cancelling case of the mpmath test
@example(args=(12, 3e4, 2.0, 1e-300))  # dyadic denominators near the bottom of the float range
def test_hyp2f1_integer_sum_equals_the_fraction_sum_bit_for_bit(args):
    ours, ref = specfun._hyp2f1_exact(*args), hyp2f1_fraction(*args)
    assert ours.hex() == ref.hex()


def test_hyp2f1_at_zero_argument():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(0, 12))
        B = float(rng.uniform(-5, 40))
        C = float(rng.uniform(0.1, 40))
        assert hyp2f1_terminating(n, B, C, 0.0) == 1.0


def test_hyp2f1_cancellation_guard_matches_mpmath():
    # a strongly cancelling case that the float path alone cannot deliver
    n, B, C, s = 10, 105.0, 2.0, 0.93
    expected = float(mp.hyp2f1(-n, mp.mpf(repr(B)), mp.mpf(repr(C)), mp.mpf(repr(s))))
    assert hyp2f1_terminating(n, B, C, s) == pytest.approx(expected, rel=1e-12)


def test_hyp2f1_rejects_bad_C():
    with pytest.raises(InvalidParameter):
        hyp2f1_terminating(3, 1.0, -1.0, 0.5)
    with pytest.raises(InvalidParameter):
        hyp2f1_terminating(2, 1.0, 0.0, 0.5)
    # -n itself is outside the first n denominators
    hyp2f1_terminating(2, 1.0, -2.0, 0.5)


# --- Jacobi polynomials -----------------------------------------------------


def test_jacobi_degree_zero_is_one():
    assert jacobi_poly(JacobiParams(4.2, -0.3, 0), 0.77) == 1.0


def test_jacobi_value_at_one():
    for n in range(6):
        p = JacobiParams(1.37, 0.42, n)
        assert jacobi_poly(p, 1.0) == pytest.approx(pochhammer(2.37, n) / math.factorial(n), rel=1e-13)


def test_jacobi_matches_recurrence_reference_case():
    p = JacobiParams(1.37, 0.42, 4)
    direct = jacobi_poly(p, -0.3)
    assert direct == pytest.approx(jacobi_recurrence(p, -0.3), rel=1e-12)


@pytest.mark.parametrize("x", [0.0, -0.98, 0.5])
def test_jacobi_prefactor_does_not_overflow_at_large_theta_and_degree(x):
    # (theta + 1)_n alone overflows a double here, while P_n itself lies between 1e84 and 1e196
    p = JacobiParams(11600.24, 443.6, 80)
    assert pochhammer(p.theta + 1.0, p.n) == math.inf
    direct = jacobi_poly(p, x)
    assert direct == pytest.approx(jacobi_recurrence(p, x), rel=1e-12)
    assert direct == pytest.approx(float(mp.jacobi(p.n, mp.mpf(p.theta), mp.mpf(p.vartheta), mp.mpf(x))), rel=1e-12)


def test_jacobi_matches_recurrence_randomized():
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(0, 11))
        a = float(rng.uniform(-0.9, 50.0))
        b = float(rng.uniform(-0.9, 50.0))
        x = float(rng.uniform(-1.0, 1.0))
        direct = jacobi_poly(JacobiParams(a, b, n), x)
        rec = float(jacobi_recurrence(JacobiParams(a, b, n), x))
        worst = max(worst, abs(direct - rec) / max(abs(direct), abs(rec), 1.0))
    assert worst <= 1e-12


def test_jacobi_reflection_symmetry():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(0, 9))
        a = float(rng.uniform(-0.9, 8.0))
        b = float(rng.uniform(-0.9, 8.0))
        x = float(rng.uniform(-1.0, 1.0))
        left = jacobi_poly(JacobiParams(a, b, n), -x)
        right = (-1.0) ** n * jacobi_poly(JacobiParams(b, a, n), x)
        assert left == pytest.approx(right, rel=1e-10, abs=1e-10)


def test_jacobi_rejects_negative_degree():
    with pytest.raises(InvalidParameter):
        JacobiParams(1.0, 1.0, -1)


# --- weighted norm integrals ------------------------------------------------


def quad_norm(x_exp, y_exp, n):
    # QUADPACK's algebraic-weight mode handles the (1 -+ t)^exponent
    # endpoint singularities that defeat plain adaptive quadrature
    def poly_sq(t):
        return jacobi_poly(JacobiParams(x_exp, y_exp, n), t) ** 2 / 2.0 ** (x_exp + y_exp)

    value, _ = quad(poly_sq, -1.0, 1.0, weight="alg", wvar=(y_exp, x_exp),
                    limit=500, epsabs=1e-14, epsrel=1e-12)
    return value


def test_norm_integral_closed_cases():
    assert jacobi_norm_integral(1.0, 1.0, 0) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert jacobi_norm_integral(0.0, 0.0, 0) == pytest.approx(2.0, rel=1e-15)


def test_norm_integral_against_quadrature_reference_case():
    assert jacobi_norm_integral(1.8, 0.6, 2) == pytest.approx(quad_norm(1.8, 0.6, 2), rel=1e-8)


def test_norm_integral_against_quadrature_randomized():
    rng = np.random.default_rng(99)
    for _ in range(150):
        n = int(rng.integers(0, 7))
        x = float(rng.uniform(-0.9, 30.0))
        y = float(rng.uniform(-0.9, 30.0))
        assert jacobi_norm_integral(x, y, n) == pytest.approx(quad_norm(x, y, n), rel=1e-8)


def test_norm_integral_rejects_nonintegrable_exponents():
    with pytest.raises(InvalidParameter):
        jacobi_norm_integral(-1.0, 0.0, 1)
    with pytest.raises(InvalidParameter):
        jacobi_norm_integral(0.0, -1.2, 1)


def test_jacobi_recurrence_elementwise_on_arrays():
    x = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
    for n in (0, 1, 5):
        p = JacobiParams(2.3, 0.7, n)
        got = jacobi_recurrence(p, x)
        assert got.shape == x.shape
        # a float x stays a float and gives the array's element bit for bit
        assert got.tolist() == [[jacobi_recurrence(p, v) for v in row] for row in x.tolist()]
        assert type(jacobi_recurrence(p, 0.4)) is float
        assert np.shape(jacobi_recurrence(p, np.array(0.4))) == ()
    with pytest.raises(InvalidParameter):
        jacobi_recurrence(JacobiParams(1.0, 1.0, -1), x)
