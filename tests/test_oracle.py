import math
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.integrate._quadpack_py as quadpack_py
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal

from hgmorse import checks, oracle
from hgmorse.checks import MASS_MATRIX, NORMALIZED_STATES, check_normalization, pseudospin_params, scaled_params
from hgmorse.errors import GridTooCoarse, InvalidParameter, NoBoundState, NonConvergence
from hgmorse.molecules import builtin_molecules, to_potential_params
from hgmorse.nonrel import energy_nonrel, make_wavefunction
from hgmorse.oracle import (
    RadialGrid,
    adapted_range,
    fd_schrodinger_eigen,
    fd_schrodinger_modes,
    oracle_energies,
    richardson_extrapolate,
    shoot_mismatch,
    shooting_grid,
)
from hgmorse.potential import PotentialParams
from hgmorse.relativistic import (
    QuantumNumbers,
    solve_dirac_pseudospin,
    solve_dirac_spin,
    solve_kg_energy,
)
from hgmorse.rootfind import bisect, scan_brackets
from hgmorse.units import DEFAULT_UNITS
from ode_helpers import ode_coefficient, schrodinger_ode_coefficient


def rk4_reference_mismatch(ode, E, g, r_match):
    """Step-by-step scalar RK4 version of oracle.shoot_mismatch.

    The reference the chunked propagator products are checked against: the
    same launch, half-step sampling and mismatch, advanced one step at a time
    with (u, u') rescaled whenever it passes 1e100.
    """
    if not (g.r_min < r_match < g.r_max):
        raise InvalidParameter(f"r_match must lie inside the grid, got {r_match!r}")
    n = g.points
    h = g.spacing
    i_match = int(round((r_match - g.r_min) / h))
    i_match = min(max(i_match, 1), n - 2)
    r_half = np.linspace(g.r_min, g.r_max, 2 * n - 1)
    W = np.asarray(ode(r_half, E), dtype=float)
    if not np.all(np.isfinite(W)):
        raise NonConvergence("ODE coefficient is not finite on the grid")

    def launch(step):
        if step < 0:
            return 0.0, -1.0
        r0, r1 = float(r_half[0]), float(r_half[1])
        W0, W1 = float(W[0]), float(W[1])
        c = (W0 * r0 * r0 * r1 - W1 * r1 * r1 * r0) / (r1 - r0)
        if W0 > 0.0 and 0.0 < c < 0.25:
            w1 = (W1 * r1 * r1 - W0 * r0 * r0) / (r1 - r0)
            p_reg = 0.5 + math.sqrt(0.25 - c)
            return 1.0, p_reg / r0 - w1 / (2.0 * p_reg)
        return 0.0, 1.0

    def integrate(i0, i1, step):
        u, v = launch(step)
        i = i0
        hs = step * h
        while i != i1:
            w0 = W[2 * i]
            wh = W[2 * i + step]
            w1 = W[2 * i + 2 * step]
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
    return v_l / u_l - v_r / u_r


def assert_matches_reference(ode, E, g, r_match):
    new = shoot_mismatch(ode, E, g, r_match)
    ref = rk4_reference_mismatch(ode, E, g, r_match)
    assert math.copysign(1.0, new) == math.copysign(1.0, ref)
    assert abs(new - ref) <= 1e-4 * abs(ref)
    return new


def box_setup():
    """V = 0 box: a = b = D_e = 0 with a huge screening range."""
    p = PotentialParams(a=0.0, b=0.0, D_e=0.0, r_e=1.0, alpha=1e-6)
    return p


def test_radial_grid_validation():
    g = RadialGrid(1e-3, 10.0, 101)
    assert g.spacing == pytest.approx((10.0 - 1e-3) / 100)
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
    p = box_setup()
    L = 10.0
    exact = [part.kinetic_scale * math.pi**2 * m**2 / L**2 for m in (1, 2, 3)]
    coarse = fd_schrodinger_eigen(p, part, 0, RadialGrid(1e-9, L + 1e-9, 2001), 3)
    fine = fd_schrodinger_eigen(p, part, 0, RadialGrid(1e-9, L + 1e-9, 4001), 3)
    for m in range(3):
        extrap, err = richardson_extrapolate(float(coarse[m]), float(fine[m]), 2.0, 2)
        assert extrap == pytest.approx(exact[m], rel=1e-6)
        assert abs(extrap - exact[m]) < abs(float(fine[m]) - exact[m])


def test_box_node_counts(ch_free):
    _, part = ch_free
    p = box_setup()
    _, vecs = fd_schrodinger_modes(p, part, 0, RadialGrid(1e-9, 10.0, 2001), 4)
    for m in range(4):
        v = vecs[:, m]
        keep = np.abs(v) > 1e-8 * np.abs(v).max()
        signs = np.sign(v[keep])
        assert int(np.sum(signs[1:] * signs[:-1] < 0)) == m


def test_fd_matches_closed_form_ground_state(ch_free):
    p, part = ch_free
    fd, err = oracle_energies(p, part, 0, 1)
    assert abs(float(fd[0]) - energy_nonrel(p, part, 0, 0)) <= 5e-4
    assert err[0] < 1e-6


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
    x12, _ = richardson_extrapolate(e1, e2, 2.0, 2)
    x23, _ = richardson_extrapolate(e2, e3, 2.0, 2)
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
    extrap, err = richardson_extrapolate(values[-2], values[-1], 2.0, 2)
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
        oracle._stebz(diag, off, k, "E")


def test_richardson_trivial_and_synthetic():
    assert richardson_extrapolate(2.0, 2.0, 2.0, 2) == (2.0, 0.0)
    exact, c = 1.37, 0.4
    coarse = exact + c * 0.1**2
    fine = exact + c * 0.05**2
    extrap, err = richardson_extrapolate(coarse, fine, 2.0, 2)
    assert extrap == pytest.approx(exact, abs=1e-14)
    assert err == pytest.approx(abs(fine - coarse))
    with pytest.raises(InvalidParameter):
        richardson_extrapolate(1.0, 1.0, 0.5, 2)


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
    bracket = scan_brackets(lambda Es: np.array([f(float(E)) for E in Es]), E0_fd - 1e-3, E0_fd + 1e-3, 41)
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
    for bracket in scan_brackets(lambda Es: np.array([f(float(E)) for E in Es]), E0 + margin, E1 - margin, 100):
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


def ac3_shooting_cases(p, part, M):
    """(ode, closed-form E) for every level of the AC-3 shooting matrix at mass M."""
    hc = DEFAULT_UNITS.hbar_c
    ps = scaled_params(p, part, M)
    cases = []
    for n, l in ((0, 0), (1, 0), (1, 1)):
        qn = QuantumNumbers(n=n, l=l)
        cases.append((ode_coefficient("kg", ps, M, qn), solve_kg_energy(ps, M, qn)[0]))
    for kappa in (1, -2):
        cases.append((ode_coefficient("dirac-spin", ps, M, kappa, 0.0, 0), solve_dirac_spin(ps, M, kappa, 0.0, 1)[0]))
    pps = pseudospin_params(p, M, hc)
    for kappa, n in ((1, 0), (1, 1), (2, 0)):
        try:
            E = solve_dirac_pseudospin(pps, M, kappa, 0.0, n)[0]
        except NoBoundState:
            continue
        cases.append((ode_coefficient("dirac-pseudospin", pps, M, kappa, 0.0, 0), E))
    return cases


@pytest.mark.parametrize("M", MASS_MATRIX)
def test_propagator_matches_scalar_reference(ch_unit, M):
    # the product of step propagators rounds in another order than the
    # scalar loop; signs must agree, values to 1e-4 relative
    p, part = ch_unit
    cases = ac3_shooting_cases(p, part, M)
    assert len(cases) >= 6
    for ode, E in cases:
        grid, r_match = shooting_grid(ode, E)
        for dE in (-1e-3 * M, -1e-8 * M, 1e-8 * M, 1e-3 * M):
            assert_matches_reference(ode, E + dE, grid, r_match)


def test_propagator_matches_reference_on_frobenius_launch():
    # W ~ c/r^2 with 0 < c < 1/4 at the left end: the regular Frobenius
    # branch seeds the rightward integration
    ode = lambda r, E: 0.2 / r**2 + E
    g = RadialGrid(1e-2, 20.0, 20001)
    for E in (0.5, 1.0, 2.0):
        assert_matches_reference(ode, E, g, 10.0)


def test_propagator_rescales_through_deep_forbidden_region():
    # u'' = kappa^2 u grows by e^2000 on each side of the match point, and by
    # e^819 (past overflow) within one chunk of propagator products
    kappa = 200.0
    ode = lambda r, E: np.full_like(r, -E)
    g = RadialGrid(1e-3, 20.0, 40001)
    mismatch = assert_matches_reference(ode, kappa**2, g, 10.0)
    assert mismatch == pytest.approx(2.0 * kappa, rel=1e-6)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_shoot_mismatch_rejects_non_finite_coefficient():
    g = RadialGrid(0.1, 5.0, 501)
    with pytest.raises(NonConvergence):
        shoot_mismatch(lambda r, E: np.where(r > 2.0, np.inf, E), 1.0, g, 1.0)
    with pytest.raises(NonConvergence):
        shoot_mismatch(lambda r, E: np.full_like(r, E), -1e300, g, 1.0)


# The FD solvers and the normalization check call LAPACK and QUADPACK
# directly; scipy's eigh_tridiagonal(select="i") and quad(limit=400) are the
# oracles they must reproduce bit for bit.

ALPHA = 0.025
MOLECULES = builtin_molecules()


def eigh_tridiagonal_reference(diag, off, k, eigvals_only):
    return eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1), eigvals_only=eigvals_only)


def oracle_energy_grids(p, part, l, k):
    """The grids oracle_energies solves on: adapted_range's coarse full-range
    grid, the 20001-point adapted grid and its refinement."""
    g = RadialGrid(oracle._R_MIN, adapted_range(p, part, l, k), 20001)
    return RadialGrid(oracle._R_MIN, 40.0 / p.alpha, 4001), g, g.refined()


@pytest.mark.parametrize("l", (0, 2))
@pytest.mark.parametrize("mol", MOLECULES, ids=lambda mol: mol.name)
def test_fd_eigenvalues_equal_eigh_tridiagonal(mol, l):
    p, part = to_potential_params(mol, 1.0, 1.0, ALPHA)
    for g in oracle_energy_grids(p, part, l, 4):
        diag, off = oracle._fd_matrix(p, part, l, g, 4)
        assert np.array_equal(fd_schrodinger_eigen(p, part, l, g, 4),
                              eigh_tridiagonal_reference(diag, off, 4, eigvals_only=True))


@pytest.mark.parametrize("points", (2001, 4001))
def test_box_self_test_modes_equal_eigh_tridiagonal(ch_unit, points):
    # the grids and particle of checks.check_box_self_test for the default molecule
    _, part = ch_unit
    p, g = box_setup(), RadialGrid(1e-9, 10.0 + 1e-9, points)
    diag, off = oracle._fd_matrix(p, part, 0, g, 4)
    w_ref, v_ref = eigh_tridiagonal_reference(diag, off, 4, eigvals_only=False)
    w, v = fd_schrodinger_modes(p, part, 0, g, 4)
    assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)
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


def _fail_dstebz(monkeypatch):
    # the ctypes routine _stebz calls: run it, then report info = 1 through its last argument
    kernel = oracle._dstebz()

    def failing(*args):
        kernel(*args)
        args[-1]._obj.value = 1

    monkeypatch.setattr(oracle, "_dstebz", lambda: failing)


def _fail_dstein(monkeypatch):
    lapack = oracle.scipy_extension("linalg", "_flapack")
    kernel = lapack.dstein
    monkeypatch.setattr(lapack, "dstein", lambda *args: (*kernel(*args)[:-1], 1))


@pytest.mark.parametrize("routine", ("dstebz", "dstein"))
def test_fd_modes_raise_on_lapack_error(ch_unit, monkeypatch, routine):
    {"dstebz": _fail_dstebz, "dstein": _fail_dstein}[routine](monkeypatch)
    with pytest.raises(NonConvergence, match=routine):
        fd_schrodinger_modes(*ch_unit, 0, RadialGrid(1e-3, 40.0, 2001), 4)


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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_fd_rejects_non_finite_matrix(ch_unit):
    _, part = ch_unit
    p = PotentialParams(a=0.0, b=0.0, D_e=1e308, r_e=1.0, alpha=1.0)
    with pytest.raises(NonConvergence):
        fd_schrodinger_eigen(p, part, 0, RadialGrid(1e-3, 40.0, 2001), 4)
