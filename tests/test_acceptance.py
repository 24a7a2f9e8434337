"""Acceptance criteria, one test per criterion, printing one line each.

Tolerances are pinned here and nowhere else; the suite is the exit gate for
the package.  Criterion names:

  AC-1  nonrelativistic closed form vs FD oracle, bare Morse well
  AC-2  same with unit Hellmann strengths
  AC-3  relativistic residuals and shooting confirmation across mass scales
  AC-4  cross-equation identities (KG = Dirac-spin, doublets, nonrel limit)
  AC-5  special-function kernel vs independent oracles
  AC-6  unit L2 norms by independent quadrature, closed forms logged
  AC-7  reference-table calibration and qualitative gates
  AC-8  oracle self-test (particle in a box)
"""

import math
import time

import numpy as np
from scipy.integrate import quad

from hgmorse.errors import NoBoundState
from hgmorse.molecules import builtin_molecules, find_molecule, to_potential_params
from hgmorse.nonrel import energy_nonrel, make_wavefunction, radial_wavefunction
from hgmorse.oracle import (
    RadialGrid,
    fd_schrodinger_modes,
    mismatch_sign_change,
    oracle_energies,
    richardson_extrapolate,
)
from hgmorse.potential import PotentialParams
from hgmorse.relativistic import (
    QuantumNumbers,
    kg_ode_coefficient,
    kg_residual,
    kg_residual_nonrel_limit,
    kg_wavefunction_spec,
    lower_spinor_spec,
    pseudospin_ode_coefficient,
    pseudospin_residual,
    rel_radial_value,
    solve_dirac_pseudospin,
    solve_dirac_spin,
    solve_kg_energy,
    spin_ode_coefficient,
    spin_residual,
    spin_residual_nonrel_limit,
    upper_spinor_norm,
    upper_spinor_spec,
)
from hgmorse.specfun import JacobiParams, jacobi_norm_integral, jacobi_poly, jacobi_recurrence
from hgmorse.units import HBAR_C_EV_ANGSTROM
from hgmorse.validate import (
    REPRODUCTION_TOL,
    calibrate,
    check_reference_shape,
    load_reference,
    per_molecule_diagnostics,
    qualitative_gates,
    score,
)
from hgmorse.wavefun import SWaveform, support_window
from tests.conftest import scaled

ALPHA = 0.025
MASSES = (50.0, 500.0, 5000.0)


def _oracle_equivalence(a, b, tol=5e-4, budget_s=60.0):
    worst = 0.0
    for mol in builtin_molecules():
        t0 = time.time()
        params, part = to_potential_params(mol, a, b, ALPHA)
        for l in range(3):
            fd, _ = oracle_energies(params, part, l, 4, points=20001)
            for n in range(4):
                worst = max(worst, abs(energy_nonrel(params, part, n, l) - float(fd[n])))
        elapsed = time.time() - t0
        assert elapsed <= budget_s, f"{mol.name}: {elapsed:.1f} s exceeds the {budget_s} s budget"
    return worst


def test_ac1_oracle_equivalence_bare_well():
    worst = _oracle_equivalence(0.0, 0.0)
    print(f"AC-1 PASS max|closed - FD| = {worst:.3g} eV (tol 5e-4) over 5 molecules, n<=3, l<=2, a=b=0")
    assert worst <= 5e-4


def test_ac2_oracle_equivalence_unit_strengths():
    worst = _oracle_equivalence(1.0, 1.0)
    print(f"AC-2 PASS max|closed - FD| = {worst:.3g} eV (tol 5e-4) over 5 molecules, n<=3, l<=2, a=b=1")
    assert worst <= 5e-4


def test_ac3_relativistic_residuals_and_shooting():
    p, part = to_potential_params(find_molecule("CH"), 1.0, 1.0, ALPHA)
    worst_res = 0.0
    checked = 0
    for M in MASSES:
        ps = scaled(p, part, M)
        for n, l in ((0, 0), (1, 0), (1, 1)):
            qn = QuantumNumbers(n=n, l=l)
            for E in solve_kg_energy(ps, M, qn):
                worst_res = max(worst_res, abs(kg_residual(ps, M, E, qn)))
                assert mismatch_sign_change(kg_ode_coefficient(ps, M, qn), E, 1e-8 * M)
                checked += 1
        for kappa, n in ((1, 1), (-2, 1), (-1, 0)):
            for E in solve_dirac_spin(ps, M, kappa, 0.0, n):
                worst_res = max(worst_res, abs(spin_residual(ps, M, E, kappa, 0.0, n)))
                assert mismatch_sign_change(spin_ode_coefficient(ps, M, kappa, 0.0), E, 1e-8 * M)
                checked += 1
        pp = PotentialParams(a=0.0, b=10.0 * HBAR_C_EV_ANGSTROM**2 * ALPHA / (2.0 * M),
                             D_e=p.D_e, r_e=p.r_e, alpha=ALPHA)
        bound_here = 0
        for kappa, n in ((1, 0), (1, 1), (2, 0)):
            try:
                roots = solve_dirac_pseudospin(pp, M, kappa, 0.0, n)
            except NoBoundState:
                continue
            for E in roots:
                worst_res = max(worst_res, abs(pseudospin_residual(pp, M, E, kappa, 0.0, n)))
                assert mismatch_sign_change(pseudospin_ode_coefficient(pp, M, kappa, 0.0), E, 1e-8 * M)
                bound_here += 1
        assert bound_here >= 1, f"pseudospin test configuration empty at M={M}"
        checked += bound_here
    print(f"AC-3 PASS {checked} levels, max|residual| = {worst_res:.2g} (tol 1e-9), "
          f"all shooting flips within +-1e-8*M")
    assert worst_res <= 1e-9


def test_ac4_cross_equation_identities():
    p, part = to_potential_params(find_molecule("CH"), 1.0, 1.0, ALPHA)
    worst_pair = 0.0
    worst_doublet = 0.0
    for M in MASSES:
        ps = scaled(p, part, M)
        for l, kappas in ((0, (-1,)), (1, (1, -2))):
            e_kg = solve_kg_energy(ps, M, QuantumNumbers(n=1, l=l))[0]
            spins = [solve_dirac_spin(ps, M, kappa, 0.0, 1)[0] for kappa in kappas]
            worst_pair = max(worst_pair, *(abs(e_kg - e) for e in spins))
            if len(spins) == 2:
                worst_doublet = max(worst_doublet, abs(spins[0] - spins[1]))
    worst_limit = 0.0
    for mol in builtin_molecules():
        params, particle = to_potential_params(mol, 1.0, 1.0, ALPHA)
        for n in range(4):
            for l in range(3):
                E = energy_nonrel(params, particle, n, l)
                worst_limit = max(worst_limit, abs(kg_residual_nonrel_limit(params, particle, E, n, l)),
                                  abs(spin_residual_nonrel_limit(params, particle, E, n, l)))
    print(f"AC-4 PASS KG/spin max|dE| = {worst_pair:.2g} eV, doublet max|dE| = {worst_doublet:.2g} eV, "
          f"nonrel-limit max|residual| = {worst_limit:.2g} (all tol 1e-10)")
    assert worst_pair <= 1e-10
    assert worst_doublet <= 1e-10
    assert worst_limit <= 1e-10


def test_ac5_special_functions():
    rng = np.random.default_rng(20240817)
    worst_rec = 0.0
    for _ in range(1000):
        n = int(rng.integers(0, 11))
        a = float(rng.uniform(-0.9, 50.0))
        b = float(rng.uniform(-0.9, 50.0))
        x = float(rng.uniform(-1.0, 1.0))
        direct = jacobi_poly(JacobiParams(a, b, n), x)
        rec = float(jacobi_recurrence(n, a, b, x))
        worst_rec = max(worst_rec, abs(direct - rec) / max(abs(direct), abs(rec), 1.0))
    worst_quad = 0.0
    for _ in range(200):
        n = int(rng.integers(0, 7))
        x = float(rng.uniform(-0.9, 30.0))
        y = float(rng.uniform(-0.9, 30.0))
        def poly_sq(t, n=n, x=x, y=y):
            return jacobi_poly(JacobiParams(x, y, n), t) ** 2 / 2.0 ** (x + y)
        reference, _ = quad(poly_sq, -1.0, 1.0, weight="alg", wvar=(y, x),
                            limit=500, epsabs=1e-14, epsrel=1e-12)
        worst_quad = max(worst_quad, abs(jacobi_norm_integral(x, y, n) / reference - 1.0))
    third = abs(jacobi_norm_integral(1.0, 1.0, 0) - 1.0 / 3.0)
    print(f"AC-5 PASS jacobi-vs-recurrence {worst_rec:.2g} (tol 1e-12), "
          f"norm-vs-quadrature {worst_quad:.2g} (tol 1e-8), |I(0;1,1) - 1/3| = {third:.2g} "
          f"(the printed norm identity gives 1 there and is rejected)")
    assert worst_rec <= 1e-12
    assert worst_quad <= 1e-8
    assert third <= 1e-12


def _norm_of(spec_kind, spec):
    if spec_kind == "rel":
        w = SWaveform(spec.leading_exp, spec.edge_exp, spec.n, spec.alpha)
        f = lambda r: rel_radial_value(spec, r) ** 2
    else:
        w = SWaveform(spec.omega, spec.phi_exp, spec.n, spec.alpha)
        f = lambda r: radial_wavefunction(spec, r) ** 2
    r_lo, r_hi = support_window(w)
    integral, _ = quad(f, r_lo, r_hi, limit=400)
    return integral


def test_ac6_unit_norms_everywhere():
    worst = 0.0
    ratios = []
    for mol in builtin_molecules():
        p, part = to_potential_params(mol, 1.0, 1.0, ALPHA)
        for n, l in ((0, 0), (1, 0), (2, 1)):
            spec = make_wavefunction(p, part, n, l)
            worst = max(worst, abs(_norm_of("nonrel", spec) - 1.0))
    p, part = to_potential_params(find_molecule("CH"), 1.0, 1.0, ALPHA)
    M = 500.0
    ps = scaled(p, part, M)
    qn = QuantumNumbers(n=1, l=0)
    e_kg = solve_kg_energy(ps, M, qn)[0]
    worst = max(worst, abs(_norm_of("rel", kg_wavefunction_spec(ps, M, e_kg, qn)) - 1.0))
    e_sp = solve_dirac_spin(ps, M, -1, 0.0, 0)[0]
    worst = max(worst, abs(_norm_of("rel", upper_spinor_spec(ps, M, e_sp, -1, 0.0, 0)) - 1.0))
    ratios.append(upper_spinor_norm(ps, M, e_sp, -1, 0.0, 0).closed_over_quadrature)
    pp = PotentialParams(a=0.0, b=10.0 * HBAR_C_EV_ANGSTROM**2 * ALPHA / (2.0 * M),
                         D_e=p.D_e, r_e=p.r_e, alpha=ALPHA)
    e_ps = solve_dirac_pseudospin(pp, M, 1, 0.0, 0)[0]
    worst = max(worst, abs(_norm_of("rel", lower_spinor_spec(pp, M, e_ps, 1, 0.0, 0)) - 1.0))
    print(f"AC-6 PASS max |norm - 1| = {worst:.2g} (tol 1e-6); "
          f"closed-form/quadrature ratio at the spin ground state = {ratios[0]:.9f} (logged, not gated)")
    assert worst <= 1e-6


def test_ac7_reference_table_calibration_and_gates():
    rows = load_reference()
    check_reference_shape(rows)
    a, b, dev00 = calibrate(rows, ALPHA, grid=51)
    result = score(rows, a, b, ALPHA)
    reproduced = result["max"] <= REPRODUCTION_TOL
    gates = qualitative_gates(a, b, ALPHA)
    if reproduced:
        print(f"AC-7 PASS reproduced within {REPRODUCTION_TOL} eV at (a, b) = ({a}, {b})")
    else:
        diag = per_molecule_diagnostics(rows, ALPHA)
        worst_diag = max(worst for _, worst in diag.values())
        print(f"AC-7 PASS (documented outcome ii) best grid (a, b) = ({a}, {b}), "
              f"criterion dev {dev00:.2g} eV, all-105 max dev {result['max']:.3g} eV; "
              f"per-molecule attractive-Yukawa fits reproduce every column to {worst_diag:.2g} eV; "
              f"gates monotone-n and HCl-ordering PASS")
        # the signed-report branch: the per-molecule diagnostics must actually
        # localize the reference convention, not merely fail loudly
        assert worst_diag <= 1e-3
    assert gates["monotone_in_n"]
    assert gates["hcl_n1_l_ordering"]


def test_ac8_oracle_box_self_test(ch_free):
    _, part = ch_free
    p = PotentialParams(a=0.0, b=0.0, D_e=0.0, r_e=1.0, alpha=1e-6)
    L = 10.0
    grids = {pts: RadialGrid(1e-9, L + 1e-9, pts) for pts in (2001, 4001)}
    vals = {}
    vecs = {}
    for pts, g in grids.items():
        vals[pts], vecs[pts] = fd_schrodinger_modes(p, part, 0, g, 4)
    worst = 0.0
    for m in range(1, 5):
        exact = part.kinetic_scale * math.pi**2 * m**2 / L**2
        extrap, _ = richardson_extrapolate(float(vals[2001][m - 1]), float(vals[4001][m - 1]), 2.0, 2)
        worst = max(worst, abs(extrap / exact - 1.0))
    for m in range(4):
        v = vecs[4001][:, m]
        keep = np.abs(v) > 1e-8 * np.abs(v).max()
        signs = np.sign(v[keep])
        assert int(np.sum(signs[1:] * signs[:-1] < 0)) == m
    print(f"AC-8 PASS box eigenvalues to {worst:.2g} relative after extrapolation (tol 1e-6), "
          f"node counts exact for the lowest 4 levels")
    assert worst <= 1e-6
