import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgmorse.checks import scaled_params
from hgmorse.errors import InvalidParameter, NonConvergence
from hgmorse.relativistic import QuantumNumbers, kg_residual
from hgmorse.rootfind import RootBracket, bisect, polynomial_root_disks, scan_brackets


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
    assert scan_brackets(lambda e: 1.0, -5.0, 5.0, 100) == []


def test_scan_skips_undefined_region():
    def f(e):
        return math.nan if e < 1.0 else e - 2.0

    brackets = scan_brackets(f, 0.0, 3.0, 61)
    assert len(brackets) == 1
    assert brackets[0].lo < 2.0 < brackets[0].hi


def test_scan_handles_exact_zero_on_grid():
    # f(x) = x on a grid containing 0.0 exactly; the tight bracket costs two
    # more calls of f, at the points beside the zero
    calls = []

    def f(e):
        calls.append(e)
        return e

    brackets = scan_brackets(f, -1.0, 1.0, 21)
    assert len(brackets) == 1
    assert brackets[0].lo < 0.0 < brackets[0].hi
    # the zero at point 10 is certified once point 11 is read, before point 12
    assert len(calls) == 23 and calls[:12] + calls[14:] == np.linspace(-1.0, 1.0, 21).tolist() and calls[10] == 0.0
    eps = 1e-9 * (2.0 / 20)
    assert calls[12:14] == [-eps, eps]
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
    with pytest.raises(InvalidParameter, match="one float per grid point"):
        scan_brackets(lambda e: [e, e], -5.0, 5.0, 100)
    for samples in ([3, 3], [5, 2], [-1, 0], [98, 100]):
        with pytest.raises(InvalidParameter, match="ascending grid indices"):
            scan_brackets(lambda e: e, -5.0, 5.0, 100, samples)


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
    brackets = scan_brackets(lambda E: math.nan if f(E) is None else f(E), 1000.0, 20000.0, 400)
    assert brackets
    root, f_root = bisect(f, brackets[0], 1e-12)
    assert abs(f_root) <= 1e-9
    assert f(root - 2e-12) * f(root + 2e-12) <= 0.0


def test_bisect_result_invariant_under_scan_refinement():
    f = lambda e: math.sin(e) - 0.3
    tol = 1e-12
    roots = []
    for points in (200, 400):
        b = scan_brackets(f, 0.0, 1.0, points)[0]
        roots.append(bisect(f, b, tol)[0])
    assert abs(roots[0] - roots[1]) <= 2 * tol


def test_scan_reads_only_the_named_samples_and_brackets_adjacent_pairs():
    f = lambda e: math.sin(3.0 * e + 0.1)
    full = scan_brackets(f, 0.0, 10.0, 200)
    assert len(full) == 9
    cells = [round(b.lo / (10.0 / 199)) for b in full[::2]]
    samples = sorted({i for cell in cells for i in range(max(cell - 1, 0), cell + 3)})
    read = []
    sparse = scan_brackets(lambda e: read.append(e) or f(e), 0.0, 10.0, 200, samples)
    assert sparse == full[::2]
    assert read == [np.linspace(0.0, 10.0, 200)[i] for i in samples]
    assert scan_brackets(f, 0.0, 10.0, 200, []) == []


def _expanded(roots):
    """Real coefficients, constant first, of prod (z - r) over roots closed under conjugation."""
    c = [1.0 + 0j]
    for r in roots:
        c = [-r * c[0]] + [c[k - 1] - r * c[k] for k in range(1, len(c))] + [c[-1]]
    return [x.real for x in c]


def _roots_of(c):
    """The roots of the float polynomial c to 40 digits."""
    with mp.workdps(40):
        return [complex(r) for r in mp.polyroots(c[::-1], maxsteps=200, extraprec=200)]


_COORD = st.one_of(st.floats(-50.0, -0.01), st.floats(0.01, 50.0))
#: up to six simple nonzero roots, closed under conjugation
_ROOTS = st.lists(st.one_of(
    st.builds(lambda x: [complex(x)], _COORD),
    st.builds(lambda x, y: [complex(x, y), complex(x, -y)], _COORD, st.floats(0.01, 50.0)),
), min_size=1, max_size=3).map(lambda groups: [r for g in groups for r in g]).filter(
    lambda roots: len(roots) >= 2 and all(abs(r - s) >= 0.05 for i, r in enumerate(roots) for s in roots[:i]))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(roots=_ROOTS, scale=st.floats(0.1, 1e6))
def test_root_disks_hold_every_root(roots, scale):
    c = [scale * x for x in _expanded(roots)]
    for refine in (lambda z, r: r > 1e-9 * abs(z), lambda z, r: False):
        disks = polynomial_root_disks(c, refine)
        assert len(disks) == len(c) - 1
        for root in _roots_of(c):
            assert any(abs(root - z) <= r * (1.0 + 1e-9) for z, r in disks), (root, disks)
    # refined disks are narrow
    assert all(r <= 1e-6 * max(abs(z), 1.0) for z, r in polynomial_root_disks(c, lambda z, r: r > 1e-9 * abs(z)))


def test_root_disks_reject_what_has_no_disks():
    with pytest.raises(InvalidParameter):
        polynomial_root_disks([1.0, math.nan, 1.0], lambda z, r: True)
    with pytest.raises(InvalidParameter):
        polynomial_root_disks([1.0, 2.0, 0.0], lambda z, r: True)
    with pytest.raises(NonConvergence, match="places 1 of 2 roots"):
        polynomial_root_disks([0.0, 1.0, 1.0], lambda z, r: True)
