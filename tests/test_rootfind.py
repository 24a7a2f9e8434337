import math

import numpy as np
import pytest

from hgmorse.checks import scaled_params
from hgmorse.errors import InvalidParameter, NonConvergence
from hgmorse.relativistic import QuantumNumbers, kg_residual
from hgmorse.rootfind import RootBracket, bisect, scan_brackets


def test_bracket_validation():
    RootBracket(0.0, 1.0, -1.0, 2.0)
    with pytest.raises(InvalidParameter):
        RootBracket(1.0, 0.0, -1.0, 2.0)
    with pytest.raises(InvalidParameter):
        RootBracket(0.0, 1.0, 1.0, 2.0)


def test_scan_finds_single_quadratic_root():
    brackets = scan_brackets(lambda e: e * e - 4.0, 0.0, 3.0, 31)
    assert len(brackets) == 1
    assert brackets[0].lo < 2.0 < brackets[0].hi


def test_scan_constant_function_empty():
    assert scan_brackets(lambda e: np.full_like(e, 1.0), -5.0, 5.0, 100) == []


def test_scan_skips_undefined_region():
    def f(e):
        return np.where(e < 1.0, np.nan, e - 2.0)

    brackets = scan_brackets(f, 0.0, 3.0, 61)
    assert len(brackets) == 1
    assert brackets[0].lo < 2.0 < brackets[0].hi


def test_scan_handles_exact_zero_on_grid():
    # f(x) = x on a grid containing 0.0 exactly; the tight bracket costs one
    # more call of f, on the pair of points beside the zero
    calls = []

    def f(e):
        calls.append(np.array(e, copy=True))
        return e

    brackets = scan_brackets(f, -1.0, 1.0, 21)
    assert len(brackets) == 1
    assert brackets[0].lo < 0.0 < brackets[0].hi
    assert len(calls) == 2 and calls[0].shape == (21,) and calls[0][10] == 0.0
    eps = 1e-9 * (2.0 / 20)
    assert calls[1].tolist() == [-eps, eps]
    assert brackets[0] == RootBracket(-eps, eps, -eps, eps)
    root, _ = bisect(lambda e: e, brackets[0], 1e-12)
    assert abs(root) <= 1e-9
    # a double root on the grid has no sign change around it: no bracket
    assert scan_brackets(lambda e: e * e, -1.0, 1.0, 21) == []


def test_scan_validates_inputs():
    with pytest.raises(InvalidParameter):
        scan_brackets(lambda e: e, 1.0, 0.0, 10)
    with pytest.raises(InvalidParameter):
        scan_brackets(lambda e: e, 0.0, 1.0, 1)
    with pytest.raises(InvalidParameter, match="one value per grid point"):
        scan_brackets(lambda e: 1.0, -5.0, 5.0, 100)


def test_bisect_quadratic():
    f = lambda e: e * e - 4.0
    b = scan_brackets(f, 0.0, 3.0, 31)[0]
    root, f_root = bisect(f, b, 1e-12)
    assert root == pytest.approx(2.0, abs=1e-12)
    assert abs(f_root) < 1e-11


def test_bisect_linear_through_zero():
    f = lambda e: e
    root, _ = bisect(f, RootBracket(-1.0, 2.0, -1.0, 2.0), 1e-12)
    assert root == pytest.approx(0.0, abs=1e-12)


def test_bisect_requires_positive_tol():
    with pytest.raises(InvalidParameter):
        bisect(lambda e: e, RootBracket(-1.0, 1.0, -1.0, 1.0), 0.0)


def test_bisect_rejects_a_hole_inside_the_bracket():
    # midpoints 0.5, 0.25, 0.375, 0.3125, then 0.28125 falls in the NaN hole
    f = lambda e: math.nan if 0.28 < e < 0.29 else e - 0.3
    with pytest.raises(NonConvergence, match="undefined at 0.28125 inside bracket"):
        bisect(f, RootBracket(0.0, 1.0, -0.3, 0.7), 1e-12)


def test_bisect_rejects_a_root_where_f_is_undefined():
    # f is NaN only at the final midpoint, which no bisection step evaluates
    root, _ = bisect(lambda e: e - 0.3, RootBracket(0.0, 1.0, -0.3, 0.7), 1e-9)
    evaluated = []

    def f(e):
        evaluated.append(e)
        return math.nan if e == root else e - 0.3

    with pytest.raises(NonConvergence, match="undefined at converged root"):
        bisect(f, RootBracket(0.0, 1.0, -0.3, 0.7), 1e-9)
    assert evaluated[-1] == root and root not in evaluated[:-1]


def test_bisect_on_transcendental_residual(ch_unit):
    # monotone stretch of the relativistic quantization defect
    p, part = ch_unit
    M = 500.0
    ps = scaled_params(p, part, M)
    qn = QuantumNumbers(n=0, l=0)
    f = lambda E: kg_residual(ps, M, E, qn)
    brackets = scan_brackets(lambda Es: np.array([f(float(E)) for E in Es], dtype=float), 1000.0, 20000.0, 400)
    assert brackets
    root, f_root = bisect(f, brackets[0], 1e-12)
    assert abs(f_root) <= 1e-9
    assert f(root - 2e-12) * f(root + 2e-12) <= 0.0


def test_bisect_result_invariant_under_scan_refinement():
    f = lambda e: np.sin(e) - 0.3
    tol = 1e-12
    roots = []
    for points in (200, 400):
        b = scan_brackets(f, 0.0, 1.0, points)[0]
        roots.append(bisect(f, b, tol)[0])
    assert abs(roots[0] - roots[1]) <= 2 * tol
