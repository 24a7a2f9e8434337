import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.integrate._quadpack_py as quadpack_py
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq
from scipy.special import jv

from hgmorse import checks, oracle
from hgmorse.checks import MASS_MATRIX, NORMALIZED_STATES, check_normalization, pseudospin_params, scaled_params
from hgmorse.errors import GridTooCoarse, InvalidParameter, NoBoundState, NonConvergence
from hgmorse.molecules import builtin_molecules, find_molecule, to_potential_params
from hgmorse.nonrel import energy_nonrel, make_wavefunction
from hgmorse.oracle import (
    RadialGrid,
    adapted_range,
    dvr_energies,
    fd_schrodinger_eigen,
    mismatch_sign_change,
    oracle_energies,
    richardson_extrapolate,
    shoot_mismatch,
    shooting_grid,
)
from hgmorse.potential import PotentialParams, centrifugal_approx, potential_approx
from hgmorse.relativistic import QuantumNumbers, model_functions
from hgmorse.rootfind import bisect, scan_brackets
from hgmorse.units import DEFAULT_UNITS
from ode_helpers import eigh_tridiagonal_reference, fd_mode_nodes, schrodinger_ode_coefficient

ALPHA = 0.025
MOLECULES = builtin_molecules()


def rk4_reference_mismatch(ode, E, g, r_match):
    """Step-by-step scalar RK4 version of oracle.shoot_mismatch.

    The reference the chunked propagator products are checked against: the
    same x = ln r nodes, seeds, half-step sampling and mismatch, advanced one
    step at a time with (v, v') rescaled whenever it passes 1e100.
    """
    if not (g.r_min < r_match < g.r_max):
        raise InvalidParameter(f"r_match must lie inside the grid, got {r_match!r}")
    n = g.points
    x_min, x_max = math.log(g.r_min), math.log(g.r_max)
    h = (x_max - x_min) / (n - 1)
    i_match = int(round((math.log(r_match) - x_min) / h))
    i_match = min(max(i_match, 1), n - 2)
    r_half = np.exp(np.linspace(x_min, x_max, 2 * n - 1))
    Q = r_half**2 * np.asarray(ode(r_half, E), dtype=float) - 0.25
    if not np.all(np.isfinite(Q)):
        raise NonConvergence("ODE coefficient is not finite on the grid")

    def integrate(i0, i1, step):
        q = Q[2 * i0]
        u, v = (1.0, step * math.sqrt(-q)) if q < 0.0 else (0.0, float(step))
        i = i0
        hs = step * h
        while i != i1:
            w0 = Q[2 * i]
            wh = Q[2 * i + step]
            w1 = Q[2 * i + 2 * step]
            k1u, k1v = v, -w0 * u
            u2 = u + 0.5 * hs * k1u
            k2u, k2v = v + 0.5 * hs * k1v, -wh * u2
            u3 = u + 0.5 * hs * k2u
            k3u, k3v = v + 0.5 * hs * k2v, -wh * u3
            u4 = u + hs * k3u
            k4u, k4v = v + hs * k3v, -w1 * u4
            u += hs * (k1u + 2.0 * k2u + 2.0 * k3u + k4u) / 6.0
            v += hs * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0
            m = max(abs(u), abs(v))
            if m > 1e100:
                u /= m
                v /= m
            if not (math.isfinite(u) and math.isfinite(v)):
                raise NonConvergence("shooting state became non-finite despite rescaling")
            i += step
        return u, v

    u_l, v_l = integrate(0, i_match, +1)
    u_r, v_r = integrate(n - 1, i_match, -1)
    if u_l == 0.0 or u_r == 0.0:
        return math.inf
    return (v_l / u_l - v_r / u_r) / r_half[2 * i_match]


def assert_matches_reference(ode, E, g, r_match):
    new = shoot_mismatch(ode, E, g, r_match)
    ref = rk4_reference_mismatch(ode, E, g, r_match)
    assert math.copysign(1.0, new) == math.copysign(1.0, ref)
    assert abs(new - ref) <= 1e-4 * abs(ref)
    return new


def test_radial_grid_validation():
    g = RadialGrid(1e-3, 10.0, 101)
    assert g.refined().points == 201
    with pytest.raises(InvalidParameter):
        RadialGrid(0.0, 1.0, 101)
    with pytest.raises(InvalidParameter):
        RadialGrid(1e-3, 10.0, 50)


def default_grid(alpha):
    """The stock oracle grid: 20001 points, r_max = 40/alpha (40 screening lengths)."""
    return RadialGrid(oracle._R_MIN, 40.0 / alpha, 20001)


def test_default_grid_range():
    g = default_grid(0.025)
    assert g.r_max == pytest.approx(1600.0)
    assert g.points == 20001


def test_box_eigenvalues_and_extrapolation(ch_free):
    _, part = ch_free
    exact = checks.box_levels(part, 3)
    coarse = fd_schrodinger_eigen(checks.BOX_PARAMS, part, 0, checks.BOX_GRID, 3)
    fine = fd_schrodinger_eigen(checks.BOX_PARAMS, part, 0, checks.BOX_GRID.refined(), 3)
    for m in range(3):
        extrap, err = richardson_extrapolate(float(coarse[m]), float(fine[m]))
        assert extrap == pytest.approx(exact[m], rel=1e-6)
        assert abs(extrap - exact[m]) < abs(float(fine[m]) - exact[m])


def test_box_node_counts(ch_free):
    _, part = ch_free
    assert fd_mode_nodes(checks.BOX_PARAMS, part, 0, checks.BOX_GRID, 4, 1e-8) == [0, 1, 2, 3]


def test_fd_matches_closed_form_ground_state(ch_free):
    p, part = ch_free
    fd, err = oracle_energies(p, part, 0, 1)
    assert abs(float(fd[0]) - energy_nonrel(p, part, 0, 0)) <= 5e-4
    assert err[0] < 1e-6


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(mol=st.sampled_from(MOLECULES), a=st.floats(0.0, 5.0), b=st.floats(0.0, 5.0),
       alpha=st.floats(0.02, 0.04), l=st.integers(0, 2))
def test_closed_form_levels_keep_the_fd_level_order(mol, a, b, alpha, l):
    # E(n, l) for n <= 3 rises strictly with n, lies nearest FD level n of five,
    # and within the AC-1 tolerance of it
    p, part = to_potential_params(mol, a, b, alpha)
    closed = np.array([energy_nonrel(p, part, n, l) for n in range(4)])
    fd, _ = oracle_energies(p, part, l, 5)
    assert np.all(np.diff(closed) > 0.0)
    for n, E in enumerate(closed):
        assert int(np.argmin(np.abs(fd - E))) == n
        assert abs(E - fd[n]) <= 5e-4


def test_default_grid_resolves_ch_ground(ch_free):
    # the stock 40/alpha range at 20001 points resolves the CH ground level:
    # the extrapolated value is stable under a further doubling and lands on
    # the closed form well inside 5e-4 eV (the raw doubling difference alone
    # is ~1e-3, so extrapolation is part of the contract)
    p, part = ch_free
    g = default_grid(p.alpha)
    e1 = float(fd_schrodinger_eigen(p, part, 0, g, 1)[0])
    e2 = float(fd_schrodinger_eigen(p, part, 0, g.refined(), 1)[0])
    e3 = float(fd_schrodinger_eigen(p, part, 0, g.refined().refined(), 1)[0])
    x12, _ = richardson_extrapolate(e1, e2)
    x23, _ = richardson_extrapolate(e2, e3)
    assert abs(x12 - x23) < 5e-4
    assert abs(x12 - energy_nonrel(p, part, 0, 0)) < 5e-4


def test_fd_grid_convergence_is_one_signed(ch_free):
    p, part = ch_free
    r_max = adapted_range(p, part, 0, 1)
    values = []
    for points in (2001, 4001, 8001, 16001):
        values.append(float(fd_schrodinger_eigen(p, part, 0, RadialGrid(1e-3, r_max, points), 1)[0]))
    diffs = np.diff(values)
    assert np.all(diffs > 0) or np.all(diffs < 0)
    extrap, err = richardson_extrapolate(values[-2], values[-1])
    assert min(values[-2], values[-1]) - err <= extrap <= max(values[-2], values[-1]) + err


def test_fd_r_min_insensitivity(ch_free):
    p, part = ch_free
    r_max = adapted_range(p, part, 0, 1)
    e3 = fd_schrodinger_eigen(p, part, 0, RadialGrid(1e-3, r_max, 20001), 1)[0]
    e4 = fd_schrodinger_eigen(p, part, 0, RadialGrid(1e-4, r_max, 20001), 1)[0]
    assert abs(float(e3) - float(e4)) < 5e-4


def test_fd_rejects_too_many_levels(ch_free):
    p, part = ch_free
    with pytest.raises(GridTooCoarse):
        fd_schrodinger_eigen(p, part, 0, RadialGrid(1e-3, 10.0, 101), 20)


@pytest.mark.parametrize("diag,off,k", [(np.ones(5), np.ones(5), 1), (np.ones(5), np.ones(4), 6),
                                         (np.ones(5), np.ones(4), 0), (np.ones((2, 3)), np.ones(5), 1)])
def test_stebz_checks_sizes_before_the_call(diag, off, k):
    with pytest.raises(InvalidParameter, match="dstebz needs"):
        oracle._stebz(diag, off, k)


def test_richardson_trivial_and_synthetic():
    assert richardson_extrapolate(2.0, 2.0) == (2.0, 0.0)
    exact, c = 1.37, 0.4
    coarse = exact + c * 0.1**2
    fine = exact + c * 0.05**2
    extrap, err = richardson_extrapolate(coarse, fine)
    assert extrap == pytest.approx(exact, abs=1e-14)
    assert err == pytest.approx(abs(fine - coarse))
    # on arrays, elementwise and bit for bit the scalar calls (oracle_energies extrapolates whole columns)
    coarse_col, fine_col = [coarse, 2.0, -3.5], [fine, 2.0, -3.25]
    extraps, errs = richardson_extrapolate(np.array(coarse_col), np.array(fine_col))
    assert list(zip(extraps.tolist(), errs.tolist())) == \
        [richardson_extrapolate(x, y) for x, y in zip(coarse_col, fine_col)]


def test_shooting_flips_at_fd_eigenvalue(ch_free):
    # mutual consistency of the two oracle routes on the same equation
    p, part = ch_free
    W = schrodinger_ode_coefficient(p, part, 0)
    E0_fd = float(oracle_energies(p, part, 0, 1)[0][0])
    grid, r_match = shooting_grid(W, E0_fd)
    lo = shoot_mismatch(W, E0_fd - 1e-6, grid, r_match)
    hi = shoot_mismatch(W, E0_fd + 1e-6, grid, r_match)
    assert lo * hi < 0.0


def test_shooting_locates_same_energy_as_fd(ch_free):
    p, part = ch_free
    W = schrodinger_ode_coefficient(p, part, 0)
    E0_fd = float(oracle_energies(p, part, 0, 1)[0][0])
    grid, r_match = shooting_grid(W, E0_fd)
    f = lambda E: shoot_mismatch(W, E, grid, r_match)
    bracket = scan_brackets(f, E0_fd - 1e-3, E0_fd + 1e-3, 41)
    assert len(bracket) == 1
    root, _ = bisect(f, bracket[0], 1e-10)
    assert abs(root - E0_fd) < 2e-6


def test_no_false_roots_between_eigenvalues(ch_free):
    # every mismatch sign flip strictly between consecutive levels must be a
    # pole (|mismatch| growing), never a root
    p, part = ch_free
    W = schrodinger_ode_coefficient(p, part, 0)
    levels, _ = oracle_energies(p, part, 0, 2)
    E0, E1 = float(levels[0]), float(levels[1])
    grid, r_match = shooting_grid(W, E0)
    margin = 1e-4 * (E1 - E0)
    f = lambda E: shoot_mismatch(W, E, grid, r_match)
    for bracket in scan_brackets(f, E0 + margin, E1 - margin, 100):
        root, f_root = bisect(f, bracket, 1e-10)
        assert abs(f_root) >= min(abs(bracket.f_lo), abs(bracket.f_hi))


def test_shoot_mismatch_validates_match_point(ch_free):
    p, part = ch_free
    W = schrodinger_ode_coefficient(p, part, 0)
    g = RadialGrid(0.1, 5.0, 501)
    with pytest.raises(InvalidParameter):
        shoot_mismatch(W, 0.1, g, 7.0)


def test_shooting_grid_requires_allowed_region(ch_free):
    p, part = ch_free
    W = schrodinger_ode_coefficient(p, part, 0)
    with pytest.raises(NonConvergence):
        shooting_grid(W, -10.0)  # far below the well: nowhere classically allowed


def test_shooting_grid_keeps_the_match_point_inside_above_the_continuum(ch_unit):
    # above the continuum Q > 0 up to the scan's 1600 A cap, so the maximum of Q
    # sits at the span's outer end; the match point is clamped two x-steps inside
    p, part = ch_unit
    M = 500.0
    params = scaled_params(p, part, M)
    ode = model_functions("kg")[3](params, M, QuantumNumbers(n=0), hbar_c=DEFAULT_UNITS.hbar_c)
    E = M + params.D_e
    assert ode(np.array([oracle._SHOOT_R_CAP]), E)[0] > 0.0
    g, r_match = shooting_grid(ode, E)
    assert g.r_max == oracle._SHOOT_R_CAP
    step = math.log(g.r_max / g.r_min) / (g.points - 1)
    assert min(math.log(r_match / g.r_min), math.log(g.r_max / r_match)) >= 2.0 * step * (1.0 - 1e-9)
    assert math.isfinite(shoot_mismatch(ode, E, g, r_match))


@pytest.mark.parametrize("M", MASS_MATRIX)
def test_propagator_matches_scalar_reference(M):
    # the product of step propagators rounds in another order than the
    # scalar loop; signs must agree, values to 1e-4 relative
    roots = oracle_check_roots(find_molecule("CH"), ALPHA, (M,))
    assert len(roots) >= 6
    for _, _, ode, E in roots:
        grid, r_match = shooting_grid(ode, E)
        for dE in (-1e-3 * M, -1e-8 * M, 1e-8 * M, 1e-3 * M):
            assert_matches_reference(ode, E + dE, grid, r_match)


def test_propagator_seeds_the_regular_branch_at_a_limit_circle_origin():
    # W = c/r^2 + E with 0 < c < 1/4: both solutions r^(1/2 +- nu), nu = sqrt(1/4 - c),
    # vanish at r = 0, so a wall there does not pick the regular one.  In x = ln r the
    # regular one is the seed that decays toward the origin; with u(L) = 0 the levels
    # are E = (j/L)^2 at the zeros j of J_nu
    c, L = 0.2, 20.0
    ode = lambda r, E: c / r**2 + E
    g = RadialGrid(1e-9, L, 20001)
    for E in (0.5, 1.0, 2.0):
        assert_matches_reference(ode, E, g, 10.0)
    E0 = (brentq(lambda z: jv(math.sqrt(0.25 - c), z), 1.0, 4.0) / L) ** 2
    assert shoot_mismatch(ode, E0 * (1.0 - 1e-8), g, 10.0) > 0.0 > shoot_mismatch(ode, E0 * (1.0 + 1e-8), g, 10.0)


def test_propagator_rescales_through_deep_forbidden_region():
    # u'' = kappa^2 u grows by e^1800 and e^2000 on the two sides of the match
    # point, and by e^1840 (past overflow) within one chunk of propagator
    # products; kappa*r*dx stays below 0.3 on the x = ln r steps
    kappa = 200.0
    ode = lambda r, E: np.full_like(r, -E)
    g = RadialGrid(1.0, 20.0, 40001)
    mismatch = assert_matches_reference(ode, kappa**2, g, 10.0)
    assert mismatch == pytest.approx(2.0 * kappa, rel=1e-6)


def oracle_check_roots(mol, alpha, masses=MASS_MATRIX, models=None):
    """(M, n, ode, E) of every root that check_relativistic_residuals tests for mol at a = b = 1."""
    hc = DEFAULT_UNITS.hbar_c
    p, part = to_potential_params(mol, 1.0, 1.0, alpha)
    out = []
    for M in masses:
        for model, states, _ in checks.RELATIVISTIC_STATES:
            if models is not None and model not in models:
                continue
            params = pseudospin_params(p, M, hc) if model == "dirac-pseudospin" else scaled_params(p, part, M)
            solve, _, _, ode = model_functions(model)
            for state in states:
                try:
                    roots = solve(params, M, *state, hbar_c=hc)
                except NoBoundState:
                    continue
                n = state[0].n if model == "kg" else state[2]
                out += [(M, n, ode(params, M, *state, hbar_c=hc), E) for E in roots]
    return out


def langer_fd_eigenvalue(ode, E, g, points, n):
    """Eigenvalue n (from 0, ascending) of -v'' - Q(x; E) v with Q = r^2 W - 1/4, by
    second-order differences on `points` nodes uniform in x = ln r over g's span, v = 0
    at both ends, Richardson-extrapolated from the halved spacing.

    An explicit bisection tolerance: the default, ulp times the matrix norm (~1e-8 here),
    is as large as the shift that the 1e-8*M window gives the eigenvalue.
    """
    out = []
    for pts in (points, 2 * points - 1):
        x = np.linspace(math.log(g.r_min), math.log(g.r_max), pts)
        h = x[1] - x[0]
        r = np.exp(x[1:-1])
        Q = r * r * ode(r, E) - 0.25
        out.append(eigh_tridiagonal(2.0 / h**2 - Q, np.full(r.size - 1, -1.0 / h**2), eigvals_only=True,
                                    select="i", select_range=(n, n), tol=1e-15)[0])
    return richardson_extrapolate(out[0], out[1])[0]


@pytest.mark.parametrize("alpha", (0.025, 0.2))
def test_langer_fd_confirms_the_level_index_of_every_root(alpha):
    # the second relativistic oracle: at fixed E the Langer FD operator on the
    # shooting span has eigenvalue lambda_n(E) = 0 at a level with n nodes, so
    # its (n+1)-th eigenvalue must change sign across the 1e-8*M window and
    # exactly n lie below it (Sturm oscillation)
    roots = oracle_check_roots(find_molecule("CH"), alpha)
    assert len(roots) >= 8
    for M, n, ode, E in roots:
        g, _ = shooting_grid(ode, E)
        lo, hi = (langer_fd_eigenvalue(ode, E + dE, g, 4001, n) for dE in (-1e-8 * M, 1e-8 * M))
        assert lo * hi < 0.0, (M, n, E, lo, hi)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(mol=st.sampled_from(MOLECULES), alpha=st.floats(0.02, 0.2), M=st.sampled_from(MASS_MATRIX),
       model=st.sampled_from([model for model, _, _ in checks.RELATIVISTIC_STATES]))
def test_residual_roots_are_exactly_the_shooting_flips(mol, alpha, M, model):
    # every root a solver returns flips the shooting mismatch within 1e-8*M,
    # and the windows 3e-6*M away from it do not
    for _, _, ode, E in oracle_check_roots(mol, alpha, (M,), (model,)):
        assert mismatch_sign_change(ode, E, 1e-8 * M)
        assert not any(mismatch_sign_change(ode, E + dE, 1e-8 * M) for dE in (-3e-6 * M, 3e-6 * M))


def test_shoot_mismatch_rejects_non_finite_coefficient():
    g = RadialGrid(0.1, 5.0, 501)
    with pytest.raises(NonConvergence):
        shoot_mismatch(lambda r, E: np.where(r > 2.0, np.inf, E), 1.0, g, 1.0)
    with pytest.raises(NonConvergence):
        shoot_mismatch(lambda r, E: np.full_like(r, E), -1e300, g, 1.0)


# The FD solver and the normalization check call LAPACK and QUADPACK
# directly; scipy's eigh_tridiagonal(select="i") and quad(limit=400) are the
# oracles they must reproduce bit for bit.


def oracle_energy_grids(p, part, l, k):
    """The grids oracle_energies solves on: adapted_range's coarse full-range
    grid, the FD_POINTS-point adapted grid and its refinement."""
    g = RadialGrid(oracle._R_MIN, adapted_range(p, part, l, k), oracle.FD_POINTS)
    return RadialGrid(oracle._R_MIN, 40.0 / p.alpha, 4001), g, g.refined()


@pytest.mark.parametrize("l", (0, 2))
@pytest.mark.parametrize("mol", MOLECULES, ids=lambda mol: mol.name)
def test_fd_eigenvalues_equal_eigh_tridiagonal(mol, l):
    p, part = to_potential_params(mol, 1.0, 1.0, ALPHA)
    for g in oracle_energy_grids(p, part, l, 4):
        diag, off = oracle._fd_matrix(p, part, l, g, 4)
        assert np.array_equal(fd_schrodinger_eigen(p, part, l, g, 4),
                              eigh_tridiagonal_reference(diag, off, 4, eigvals_only=True))


def fd_matrix_one_shot(p, part, l, g):
    """The FD diagonal and off-diagonal evaluated over the whole grid at once,
    the reference the blockwise oracle._fd_matrix must reproduce bit for bit."""
    c = part.kinetic_scale
    r = np.linspace(g.r_min, g.r_max, g.points)[1:-1]
    h = (g.r_max - g.r_min) / (g.points - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        diag = 2.0 * c / h**2 + potential_approx(p, r) + c * centrifugal_approx(p.alpha, r, float(l * (l + 1)))
    return diag, np.full(r.size - 1, -c / h**2)


@pytest.mark.parametrize("mol", MOLECULES, ids=lambda mol: mol.name)
def test_fd_matrix_blocks_equal_whole_grid_expression(mol):
    # interior node counts one below, at and one above the block size, and a 40001-point grid
    sizes = (oracle._FD_BLOCK + 1, oracle._FD_BLOCK + 2, oracle._FD_BLOCK + 3, 40001)
    for alpha in (0.025, 0.2):
        for strength in (0.0, 1.0):
            p, part = to_potential_params(mol, strength, strength, alpha)
            for l in (0, 3, 17):
                for points in sizes:
                    g = RadialGrid(oracle._R_MIN, 40.0 / alpha, points)
                    diag, off = oracle._fd_matrix(p, part, l, g, 4)
                    diag_ref, off_ref = fd_matrix_one_shot(p, part, l, g)
                    assert diag.tobytes() == diag_ref.tobytes() and off.tobytes() == off_ref.tobytes()
        # on a 1 A box, a * alpha / (1 - e^(-alpha r)) overflows near the first node
        p, part = to_potential_params(mol, 1e306, 1e306, alpha)
        for points in sizes:
            g = RadialGrid(oracle._R_MIN, 1.0, points)
            assert not np.all(np.isfinite(fd_matrix_one_shot(p, part, 0, g)[0]))
            with pytest.raises(NonConvergence, match="not finite"):
                oracle._fd_matrix(p, part, 0, g, 4)


def test_fd_matrix_working_set_stays_near_its_outputs(ch_unit):
    # r, diag and off are grid-sized; the potential's temporaries are block-sized
    p, part = ch_unit
    g = RadialGrid(oracle._R_MIN, 40.0 / ALPHA, 40001)
    oracle._fd_matrix(p, part, 0, g, 4)  # first-call allocations (caches, imports) are not the build's
    tracemalloc.start()
    try:
        oracle._fd_matrix(p, part, 0, g, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 8 * g.points


@pytest.mark.parametrize("points", (2001, 4001))
def test_box_self_test_eigenvalues_equal_eigh_tridiagonal(ch_unit, points):
    # the grids and particle of checks.check_box_self_test for the default molecule
    _, part = ch_unit
    p, g = checks.BOX_PARAMS, checks.BOX_GRID if points == checks.BOX_GRID.points else checks.BOX_GRID.refined()
    assert g.points == points
    diag, off = oracle._fd_matrix(p, part, 0, g, 4)
    assert np.array_equal(fd_schrodinger_eigen(p, part, 0, g, 4), eigh_tridiagonal_reference(diag, off, 4, eigvals_only=True))


@pytest.mark.parametrize("mol", MOLECULES, ids=lambda mol: mol.name)
def test_normalization_qagse_call_equals_quad(mol, monkeypatch):
    qagse = oracle.scipy_extension("integrate", "_quadpack")._qagse
    ours, quads = [], []

    def recorder(log):
        def call(func, *args):
            out = qagse(func, *args)
            log.append((args, out))
            return out
        return call

    def production(func, *args):
        out = recorder(ours)(func, *args)
        quad(func, args[0], args[1], limit=400)  # now, while the integrand's state is current
        return out

    # quad's own call is recorded where quad looks the kernel up; the check gets a stand-in
    # because the loaded kernel may be that same module
    monkeypatch.setattr(quadpack_py, "_quadpack", SimpleNamespace(_qagse=recorder(quads)))
    monkeypatch.setattr(checks, "scipy_extension", lambda *path: SimpleNamespace(_qagse=production))
    p, part = to_potential_params(mol, 1.0, 1.0, ALPHA)
    assert check_normalization([make_wavefunction(p, part, n, l) for n, l in NORMALIZED_STATES]).verdict()[1]
    assert len(ours) == len(NORMALIZED_STATES)
    # the same arguments after the integrand, and the same integral, abserr and ier
    assert ours == quads
    assert all(ier == 0 for _, (_, _, ier) in ours)


# in a fresh interpreter: the thread count before and after the first FD solve, and whether
# os.environ came back unchanged; argv[1] is the environment variable to set first, or "-"
_BLAS_THREADS_PROBE = """
import os, sys
if sys.argv[1] != "-":
    os.environ[sys.argv[1]] = "2"
from hgmorse.molecules import find_molecule, to_potential_params
from hgmorse.oracle import RadialGrid, fd_schrodinger_eigen
p, part = to_potential_params(find_molecule("CH"), 1.0, 1.0, 0.025)
environ = dict(os.environ)
before = len(os.listdir("/proc/self/task"))
fd_schrodinger_eigen(p, part, 0, RadialGrid(1e-3, 40.0, 2001), 4)
print(before, len(os.listdir("/proc/self/task")), dict(os.environ) == environ)
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task")
@pytest.mark.parametrize("preset", ("-", "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"))
def test_first_fd_solve_starts_no_openblas_thread_and_leaves_the_environment(preset):
    env = {k: v for k, v in os.environ.items() if k not in oracle._BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH", "")])
    run = subprocess.run([sys.executable, "-c", _BLAS_THREADS_PROBE, preset], capture_output=True, text=True,
                         env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    before, after, unchanged = run.stdout.split()
    # a caller's own thread count is theirs to keep, and so is the pool it asks for
    assert unchanged == "True"
    if preset == "-":
        assert int(after) <= int(before)


@pytest.mark.parametrize("routine", ("dstebz",))
def test_fd_modes_raise_on_lapack_error(ch_unit, monkeypatch, routine):
    # the ctypes routine _stebz calls: run it, then report info = 1 through its last argument
    kernel = oracle._dstebz()

    def failing(*args):
        kernel(*args)
        args[-1]._obj.value = 1

    monkeypatch.setattr(oracle, "_dstebz", lambda: failing)
    with pytest.raises(NonConvergence, match=routine):
        fd_schrodinger_eigen(*ch_unit, 0, RadialGrid(1e-3, 40.0, 2001), 4)


@pytest.mark.parametrize("strength", (0.0, 1.0))
def test_thread_map_oracle_energies_equal_serial(monkeypatch, strength):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    jobs = []
    for mol in MOLECULES:
        p, part = to_potential_params(mol, strength, strength, ALPHA)
        jobs += [(p, part, l, 4) for l in range(3)]
    serial = [oracle_energies(*job) for job in jobs]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the interpreter lock over as often as it allows
    try:
        parallel = oracle.thread_map(oracle_energies, jobs)
    finally:
        sys.setswitchinterval(switch)
    assert len(parallel) == len(serial)
    for (e_s, err_s), (e_p, err_p) in zip(serial, parallel):
        assert np.array_equal(e_s, e_p) and np.array_equal(err_s, err_p)


def test_thread_map_keeps_job_order_and_raises_the_first_error(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert oracle.thread_map(lambda a, b: a - b, [(i, 1) for i in range(7)]) == list(range(-1, 6))
    assert oracle.thread_map(abs, []) == []

    def job(i):
        if i in (2, 4):
            raise NonConvergence(f"job {i}")
        return i

    with pytest.raises(NonConvergence, match="job 2"):
        oracle.thread_map(job, [(i,) for i in range(6)])


def test_thread_map_raises_the_first_error_after_every_later_job_has_ended(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    ended, threads = [], set()

    def job(i):
        threads.add(threading.get_ident())
        if i == 0:
            time.sleep(0.05)  # job 1 fails first in time; job 0 is first in job order
            raise NonConvergence("job 0")
        if i == 1:
            raise NonConvergence("job 1")
        time.sleep(0.01)
        ended.append(i)
        return i

    with pytest.raises(NonConvergence, match="job 0"):
        oracle.thread_map(job, [(i,) for i in range(6)])
    assert sorted(ended) == [2, 3, 4, 5]
    # at most one thread per usable CPU, none of them the caller's
    assert len(threads) <= 2 and threading.get_ident() not in threads


def test_thread_map_runs_each_job_once_under_fast_thread_switching(monkeypatch):
    # more threads than this machine's CPUs, switching every microsecond: a job taken twice
    # or never shows in the run log, a lost result in the returned list
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    ran = []

    def job(i):
        ran.append(i)
        return i * i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start = time.perf_counter()
        squares = oracle.thread_map(job, [(i,) for i in range(400)])
        assert time.perf_counter() - start < 60.0
    finally:
        sys.setswitchinterval(interval)
    assert squares == [i * i for i in range(400)]
    assert sorted(ran) == list(range(400))


def test_fd_rejects_non_finite_matrix(ch_unit):
    _, part = ch_unit
    p = PotentialParams(a=0.0, b=0.0, D_e=1e308, r_e=1.0, alpha=1.0)
    with pytest.raises(NonConvergence):
        fd_schrodinger_eigen(p, part, 0, RadialGrid(1e-3, 40.0, 2001), 4)


# The sinc DVR of levels --oracle: the fast path, matched against the FD
# oracle it replaces there and against the closed form it checks.


def closed_column(p, part, l, n_max):
    """The closed-form levels n <= n_max of one l column, up to the first that is not bound."""
    levels = []
    for n in range(n_max + 1):
        try:
            levels.append(energy_nonrel(p, part, n, l))
        except NoBoundState:
            break
    return np.array(levels)


@pytest.mark.parametrize("mol", MOLECULES, ids=lambda mol: mol.name)
def test_dvr_matches_fd_oracle_over_the_ac1_ac2_matrices(mol):
    # AC-1 (a = b = 0) and AC-2 (a = b = 1): n <= 3, l <= 2; the FD's own Richardson
    # estimate plus 1e-9 eV bounds the distance
    for a, b in ((0.0, 0.0), (1.0, 1.0)):
        p, part = to_potential_params(mol, a, b, ALPHA)
        for l in range(3):
            dvr, _ = dvr_energies(p, part, l, 4)
            fd, fd_err = oracle_energies(p, part, l, 4)
            assert np.all(np.abs(dvr - fd) <= fd_err + 1e-9), (mol.name, a, b, l)


@pytest.mark.parametrize("alpha", (0.025, 0.2))
@pytest.mark.parametrize("mol", MOLECULES, ids=lambda mol: mol.name)
def test_dvr_matches_closed_form(mol, alpha):
    checked = 0
    for a, b in ((0.0, 0.0), (1.0, 1.0), (3.0, 0.5)):
        p, part = to_potential_params(mol, a, b, alpha)
        for l in range(6):
            closed = closed_column(p, part, l, 5)
            if closed.size:
                dvr, _ = dvr_energies(p, part, l, closed.size)
                assert np.max(np.abs(dvr - closed)) <= 1e-12, (a, b, l)
                checked += closed.size
    assert checked >= 3 * 6  # every column binds at least its ground state


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(mol=st.sampled_from(MOLECULES), a=st.floats(0.0, 5.0), b=st.floats(0.0, 5.0),
       alpha=st.floats(0.01, 0.3), l=st.integers(0, 6))
def test_dvr_matches_closed_form_at_random_strengths(mol, a, b, alpha, l):
    p, part = to_potential_params(mol, a, b, alpha)
    closed = closed_column(p, part, l, 3)
    if closed.size:
        dvr, _ = dvr_energies(p, part, l, closed.size)
        assert np.max(np.abs(dvr - closed)) <= 1e-12


@pytest.mark.parametrize("per_wavelength, coarse", [(oracle._DVR_PER_WAVELENGTH, False), (3.0, True)],
                         ids=["production", "coarse"])
def test_dvr_error_estimate_bounds_a_finer_wider_solve(monkeypatch, per_wavelength, coarse):
    # the reference box is 20% wider than the second box and has twice its nodes per unit x;
    # 1e-13 eV is the rounding floor of eigvalsh on these matrices, which the estimate cannot see
    monkeypatch.setattr(oracle, "_DVR_PER_WAVELENGTH", per_wavelength)
    solves = []
    solve = oracle._dvr_eigenvalues
    monkeypatch.setattr(oracle, "_dvr_eigenvalues", lambda *args: solves.append(args) or solve(*args))
    worst = 0.0
    for mol in MOLECULES:
        for a, b in ((0.0, 0.0), (3.0, 0.5)):
            p, part = to_potential_params(mol, a, b, 0.2)
            for l in (0, 3):
                solves.clear()
                energies, estimate = dvr_energies(p, part, l, 4)
                *_, x_lo, x_hi, points, k = solves[-1]
                widen = 0.1 * (x_hi - x_lo)
                reference = solve(p, part, l, x_lo - widen, x_hi + widen, 2 * round(1.2 * (points - 1)) + 1, k)
                dev = np.abs(energies - reference)
                assert np.all(dev <= estimate + 1e-13), (mol.name, a, b, l)
                worst = max(worst, float(np.max(dev)))
    # positive control: three nodes per wavelength leave an error the floor does not hide
    assert (worst > 1e-11) == coarse


def test_dvr_hamiltonian_equals_the_direct_construction(ch_unit, monkeypatch):
    p, part = ch_unit
    matrices = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda H: matrices.append(H.copy()) or eigvalsh(H))
    x_lo, x_hi, points = math.log(0.3), math.log(4.0), 40
    oracle._dvr_eigenvalues(p, part, 2, x_lo, x_hi, points, 3)
    [H] = matrices
    c, h = part.kinetic_scale, (x_hi - x_lo) / (points - 1)
    r = np.exp(np.linspace(x_lo, x_hi, points))
    m = np.subtract.outer(np.arange(points), np.arange(points))
    with np.errstate(divide="ignore"):
        T = np.where(m == 0, math.pi**2 / 3.0, 2.0 * (-1.0) ** m / (m * m)) / h**2
    U = potential_approx(p, r) + c * centrifugal_approx(p.alpha, r, 6.0)
    direct = (c * (T + 0.25 * np.eye(points)) + np.diag(r * r * U)) / np.outer(r, r)
    assert np.allclose(H, direct, rtol=1e-13, atol=0.0)


def test_dvr_reaches_high_levels(ch_free):
    # the 81 levels of CH's l = 0 column up to n = 80, from one box sized without the closed form
    p, part = ch_free
    closed = closed_column(p, part, 0, 80)
    assert closed.size == 81
    dvr, estimate = dvr_energies(p, part, 0, 81)
    assert np.max(np.abs(dvr - closed)) <= 1e-12
    assert np.max(estimate) <= 1e-12


def test_dvr_point_budget_raises_grid_too_coarse(ch_free, monkeypatch):
    p, part = ch_free
    monkeypatch.setattr(oracle, "_DVR_MAX_POINTS", 60)
    with pytest.raises(GridTooCoarse, match=r"^12 levels at l = 0 need a \d+-point DVR grid, over the budget of 60$"):
        dvr_energies(p, part, 0, 12)


def test_dvr_rejects_non_finite_hamiltonian(ch_unit):
    _, part = ch_unit
    p = PotentialParams(a=1e306, b=1e306, D_e=1.0, r_e=1.0, alpha=0.025)
    with pytest.raises(NonConvergence, match="^DVR Hamiltonian is not finite on the grid$"):
        dvr_energies(p, part, 0, 2)
    # the solve's own grid: D_e q^2/(alpha r)^2 overflows near its first node
    p = PotentialParams(a=0.0, b=0.0, D_e=1e308, r_e=1.0, alpha=1.0)
    with pytest.raises(NonConvergence, match="^DVR Hamiltonian is not finite on the grid$"):
        oracle._dvr_eigenvalues(p, part, 0, math.log(1e-3), math.log(40.0), 100, 4)


def test_dvr_rejects_a_level_above_its_box_energy(ch_unit, monkeypatch):
    # a box sized below the k-th level it returns could have cut that level's tail
    p, part = ch_unit
    solve = oracle._dvr_eigenvalues
    monkeypatch.setattr(oracle, "_dvr_eigenvalues", lambda *args: solve(*args) + 0.5)
    with pytest.raises(NonConvergence, match="^level 3 at l = 1 lies above the energy its DVR box was sized for$"):
        dvr_energies(p, part, 1, 4)


def test_dvr_validates_level_count_and_l(ch_unit):
    p, part = ch_unit
    with pytest.raises(InvalidParameter):
        dvr_energies(p, part, 0, 0)
    with pytest.raises(InvalidParameter):
        dvr_energies(p, part, -1, 1)
