import math

import mpmath as mp
import numpy as np
import pytest

from hgmorse.errors import InvalidParameter
from hgmorse.potential import (
    PotentialParams,
    centrifugal_approx,
    potential_approx,
    potential_curve,
    potential_exact,
    q_of,
)

mp.mp.dps = 40


def mp_potential_exact(a, b, De, re, alpha, r):
    a, b, De, re, alpha, r = map(lambda v: mp.mpf(repr(v)), (a, b, De, re, alpha, r))
    q = mp.expm1(alpha * re)
    return float(-a / r + b * mp.exp(-alpha * r) / r + De * (1 - q / mp.expm1(alpha * r)) ** 2)


def test_q_of_small_argument_expansion():
    assert q_of(1e-9, 1.0) == pytest.approx(1e-9, rel=1e-8)


@pytest.mark.parametrize(
    "alpha,r_e",
    [(0.025, 1.1198), (0.025, 1.2746)],
)
def test_q_of_reference(alpha, r_e):
    expected = float(mp.expm1(mp.mpf(repr(alpha)) * mp.mpf(repr(r_e))))
    assert q_of(alpha, r_e) == pytest.approx(expected, rel=1e-15)


def test_q_of_frozen_values():
    # frozen from the 40-digit oracle above
    assert q_of(0.025, 1.1198) == pytest.approx(0.028390542455857863, rel=1e-15)
    assert q_of(0.025, 1.2746) == pytest.approx(0.032378124850294614, rel=1e-15)


def test_q_of_rejects_nonpositive():
    with pytest.raises(InvalidParameter):
        q_of(0.0, 1.0)
    with pytest.raises(InvalidParameter):
        q_of(0.025, -1.0)


def test_q_of_rejects_overflow():
    with pytest.raises(InvalidParameter, match="overflows"):
        q_of(1000.0, 1.1198)


@pytest.mark.parametrize("alpha", [1e-300, 1e-160])
def test_params_reject_alpha_whose_square_underflows(alpha):
    with pytest.raises(InvalidParameter, match="underflows"):
        PotentialParams(a=1.0, b=1.0, D_e=4.0, r_e=1.1, alpha=alpha)


def test_params_derive_q():
    p = PotentialParams(a=0.0, b=0.0, D_e=1.0, r_e=1.1198, alpha=0.025)
    assert p.q == q_of(0.025, 1.1198)


def test_exact_morse_zero_at_equilibrium(ch_free):
    p, _ = ch_free
    assert potential_exact(p, p.r_e) == pytest.approx(0.0, abs=1e-14)


def test_exact_tends_to_well_depth(ch_free):
    p, _ = ch_free
    assert potential_exact(p, 1e3 / p.alpha) == pytest.approx(p.D_e, rel=1e-12)


def test_exact_tail_with_hellmann_terms(ch_unit):
    # the Coulomb tail dominates the approach to D_e; at r the deviation is a/r
    p, _ = ch_unit
    r = 1e3 / p.alpha
    assert potential_exact(p, r) == pytest.approx(p.D_e - p.a / r, abs=1e-9)
    assert potential_exact(p, 1e9) == pytest.approx(p.D_e, abs=1e-6 * p.D_e)


def test_exact_reference_point(ch_unit):
    p, _ = ch_unit
    expected = mp_potential_exact(1.0, 1.0, p.D_e, p.r_e, p.alpha, 2.0)
    assert potential_exact(p, 2.0) == pytest.approx(expected, rel=1e-14)


def test_exact_nonnegative_for_pure_morse(ch_free):
    p, _ = ch_free
    r = np.linspace(0.05, 200.0, 4000)
    assert np.all(potential_exact(p, r) >= 0.0)


def test_exact_rejects_nonpositive_r(ch_free):
    p, _ = ch_free
    with pytest.raises(InvalidParameter):
        potential_exact(p, 0.0)
    with pytest.raises(InvalidParameter):
        potential_exact(p, np.array([1.0, -2.0]))


def test_approx_equals_exact_for_pure_morse(ch_free):
    p, _ = ch_free
    r = np.linspace(0.1, 100.0, 500)
    assert potential_approx(p, r) == pytest.approx(potential_exact(p, r), rel=1e-14)


def test_approx_tends_to_exact_at_small_alpha_r(ch_unit):
    p, _ = ch_unit
    for r in (1e-4, 1e-3, 1e-2):
        exact = potential_exact(p, r)
        approx = potential_approx(p, r)
        assert abs(approx - exact) <= 2.0 * p.alpha * r * abs(exact) + 1e-12


def test_approx_error_bounded_by_coulomb_scale(ch_unit):
    p0, _ = ch_unit
    p = PotentialParams(a=1.0, b=0.0, D_e=p0.D_e, r_e=p0.r_e, alpha=p0.alpha)
    r = 10.0
    coulomb = abs(-p.a / r)
    assert abs(potential_approx(p, r) - potential_exact(p, r)) <= p.alpha * r * coulomb


def test_greene_aldrich_replacement_bound():
    # |alpha r/(1 - e^(-alpha r)) - 1| <= alpha r on 0 < alpha r <= 1/2
    alpha = 0.025
    for x in np.linspace(1e-6, 0.5, 200):
        r = x / alpha
        g = alpha / (-math.expm1(-alpha * r))
        assert abs(g * r - 1.0) <= x


def test_centrifugal_trivial_and_limit():
    assert centrifugal_approx(0.025, 3.7, 0.0) == 0.0
    r = 1e-5
    assert centrifugal_approx(0.025, r, 6.0) == pytest.approx(6.0 / r**2, rel=1e-4)


def test_centrifugal_reference_point():
    alpha, r, L = 0.025, 1.0, 2.0
    expected = float(L * mp.mpf(repr(alpha)) ** 2 / (1 - mp.exp(-mp.mpf(repr(alpha)))) ** 2)
    assert centrifugal_approx(alpha, r, L) == pytest.approx(expected, rel=1e-14)


def test_centrifugal_rejects_bad_input():
    with pytest.raises(InvalidParameter):
        centrifugal_approx(0.025, -1.0, 2.0)
    with pytest.raises(InvalidParameter):
        centrifugal_approx(0.025, 1.0, -2.0)


def test_curve_endpoints_and_delegation(ch_unit):
    p, _ = ch_unit
    rows = potential_curve(p, 1.0, 3.0, 2)
    assert rows.shape == (2, 3)
    assert rows[0, 0] == 1.0 and rows[-1, 0] == 3.0
    for r, ve, va in rows:
        assert ve == pytest.approx(potential_exact(p, r), rel=1e-15)
        assert va == pytest.approx(potential_approx(p, r), rel=1e-15)


def test_curve_single_minimum_near_equilibrium(ch_free):
    p, _ = ch_free
    rows = potential_curve(p, 0.5, 10.0, 2001)
    v = rows[:, 1]
    dv = np.diff(v)
    sign_changes = np.sum(np.sign(dv[1:]) != np.sign(dv[:-1]))
    assert sign_changes == 1
    r_min = rows[np.argmin(v), 0]
    assert r_min == pytest.approx(p.r_e, abs=0.01)


def test_curve_rejects_bad_range(ch_free):
    p, _ = ch_free
    with pytest.raises(InvalidParameter):
        potential_curve(p, 3.0, 1.0, 10)
    with pytest.raises(InvalidParameter):
        potential_curve(p, 1.0, 3.0, 1)
    with pytest.raises(InvalidParameter):
        potential_curve(p, 1.0, math.inf, 3)


@pytest.mark.parametrize("name", ["a", "b", "D_e", "r_e", "alpha"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite_values(name, value):
    fields = {"a": 1.0, "b": 1.0, "D_e": 4.0, "r_e": 1.1, "alpha": 0.025, name: value}
    with pytest.raises(InvalidParameter, match=f"{name} must be finite"):
        PotentialParams(**fields)
