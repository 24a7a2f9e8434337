"""Acceptance criteria, one test per criterion, printing one line each.

The suite is the exit gate for the package.  AC-1..AC-4, AC-6 and AC-8 call
the check battery of `hgmorse.checks` (the one behind `oracle-check`) with
their own, wider matrices and assert the records it returns.  The AC
tolerances and matrix sizes are pinned here and nowhere else; `checks.py`
pins only the tolerances of the oracle-check verdict lines.  Criterion names:

  AC-1  nonrelativistic closed form vs FD oracle, bare Morse well
  AC-2  same with unit Hellmann strengths
  AC-3  relativistic residuals and shooting confirmation across mass scales
  AC-4  cross-equation identities (KG = Dirac-spin, doublets, nonrel limit)
  AC-5  special-function kernel vs independent oracles
  AC-6  unit L2 norms by independent quadrature, closed forms logged
  AC-7  reference-table calibration and qualitative gates
  AC-8  oracle self-test (particle in a box)

The FD oracle returns eigenvalues only: AC-8 counts the nodes of the box
eigenvectors that scipy's eigh_tridiagonal gives on the oracle's own matrix.
"""

import numpy as np
import pytest
from scipy.integrate import quad

from hgmorse import checks
from hgmorse.molecules import builtin_molecules, to_potential_params
from hgmorse.nonrel import make_wavefunction
from hgmorse.relativistic import (
    QuantumNumbers,
    kg_wavefunction_spec,
    lower_spinor_spec,
    solve_dirac_pseudospin,
    solve_dirac_spin,
    solve_kg_energy,
    upper_spinor_spec,
)
from hgmorse.specfun import JacobiParams, jacobi_norm_integral, jacobi_poly, jacobi_recurrence
from hgmorse.units import DEFAULT_UNITS, HBAR_C_EV_ANGSTROM
from hgmorse.validate import (
    REPRODUCTION_TOL,
    calibrate,
    check_reference_shape,
    load_reference,
    per_molecule_diagnostics,
    qualitative_gates,
    score,
)
from ode_helpers import fd_mode_nodes
from wavefun_helpers import log_norm_closed_form

ALPHA = 0.025
MASSES = (50.0, 500.0, 5000.0)

#: AC-3 states: the oracle-check states plus the spin ground state (kappa, n) = (-1, 0);
#: every kg and spin state must bind, and one pseudospin state at each mass
AC3_STATES = (
    ("kg", [(QuantumNumbers(n=n, l=l),) for n, l in ((0, 0), (1, 0), (1, 1))], 3),
    ("dirac-spin", [(1, 0.0, 1), (-2, 0.0, 1), (-1, 0.0, 0)], 3),
    ("dirac-pseudospin", [(1, 0.0, 0), (1, 0.0, 1), (2, 0.0, 0)], 1),
)


@pytest.fixture(scope="module")
def oracle_records():
    """One oracle-equivalence record per built-in molecule, at both strength pairs."""
    return [checks.check_oracle_equivalence(mol, ALPHA, DEFAULT_UNITS) for mol in builtin_molecules()]


def _oracle_equivalence(records, strengths, criterion, ab):
    for r in records:
        assert r.seconds <= 60.0, f"{r.molecule}: {r.seconds:.1f} s exceeds the 60.0 s budget"
    devs = [dev for r in records for dev in getattr(r, strengths)]
    worst = checks.worst_of(devs)
    print(f"{criterion} PASS max|closed - FD| = {worst:.3g} eV (tol 5e-4) over 5 molecules, n<=3, l<=2, {ab}")
    assert len(devs) == 60
    assert worst <= 5e-4


def test_ac1_oracle_equivalence_bare_well(oracle_records):
    _oracle_equivalence(oracle_records, "bare", "AC-1", "a=b=0")


def test_ac2_oracle_equivalence_unit_strengths(oracle_records):
    _oracle_equivalence(oracle_records, "unit", "AC-2", "a=b=1")


def test_ac3_relativistic_residuals_and_shooting(ch_unit):
    r = checks.check_relativistic_residuals(*ch_unit, MASSES, AC3_STATES)
    print(f"AC-3 PASS {r.levels} levels, max|residual| = {r.worst:.2g} (tol 1e-9), all shooting flips within +-1e-8*M")
    assert r.levels == 25
    assert r.bound, "a test configuration bound too few states"
    assert r.flips
    assert r.worst <= 1e-9


def test_ac4_cross_equation_identities():
    records = [checks.check_cross_identities(*to_potential_params(mol, 1.0, 1.0, ALPHA), MASSES)
               for mol in builtin_molecules()]
    worst_pair = checks.worst_of([r.pair for r in records])
    worst_doublet = checks.worst_of([r.doublet for r in records])
    worst_limit = checks.worst_of([r.limit for r in records])
    print(f"AC-4 PASS KG/spin max|dE| = {worst_pair:.2g} eV, doublet max|dE| = {worst_doublet:.2g} eV, "
          f"nonrel-limit max|residual| = {worst_limit:.2g} (all tol 1e-10)")
    assert worst_pair <= 1e-10
    assert worst_doublet <= 1e-10
    assert worst_limit <= 1e-10


def test_ac5_special_functions():
    rng = np.random.default_rng(20240817)
    rec_devs = []
    for _ in range(1000):
        n = int(rng.integers(0, 11))
        a = float(rng.uniform(-0.9, 50.0))
        b = float(rng.uniform(-0.9, 50.0))
        x = float(rng.uniform(-1.0, 1.0))
        direct = jacobi_poly(JacobiParams(a, b, n), x)
        rec = float(jacobi_recurrence(JacobiParams(a, b, n), x))
        rec_devs.append(abs(direct - rec) / max(abs(direct), abs(rec), 1.0))
    quad_devs = []
    for _ in range(200):
        n = int(rng.integers(0, 7))
        x = float(rng.uniform(-0.9, 30.0))
        y = float(rng.uniform(-0.9, 30.0))
        def poly_sq(t, n=n, x=x, y=y):
            return jacobi_poly(JacobiParams(x, y, n), t) ** 2 / 2.0 ** (x + y)
        reference, _ = quad(poly_sq, -1.0, 1.0, weight="alg", wvar=(y, x),
                            limit=500, epsabs=1e-14, epsrel=1e-12)
        quad_devs.append(abs(jacobi_norm_integral(x, y, n) / reference - 1.0))
    worst_rec, worst_quad = checks.worst_of(rec_devs), checks.worst_of(quad_devs)
    third = abs(jacobi_norm_integral(1.0, 1.0, 0) - 1.0 / 3.0)
    print(f"AC-5 PASS jacobi-vs-recurrence {worst_rec:.2g} (tol 1e-12), "
          f"norm-vs-quadrature {worst_quad:.2g} (tol 1e-8), |I(0;1,1) - 1/3| = {third:.2g} "
          f"(the printed norm identity gives 1 there and is rejected)")
    assert worst_rec <= 1e-12
    assert worst_quad <= 1e-8
    assert third <= 1e-12


def test_ac6_unit_norms_everywhere(ch_unit):
    specs = [make_wavefunction(*to_potential_params(mol, 1.0, 1.0, ALPHA), n, l)
             for mol in builtin_molecules() for n, l in ((0, 0), (1, 0), (2, 1))]
    p, part = ch_unit
    M = 500.0
    ps = checks.scaled_params(p, part, M)
    qn = QuantumNumbers(n=1, l=0)
    specs.append(kg_wavefunction_spec(ps, M, solve_kg_energy(ps, M, qn)[0], qn))
    spin_ground = upper_spinor_spec(ps, M, solve_dirac_spin(ps, M, -1, 0.0, 0)[0], -1, 0.0, 0)
    specs.append(spin_ground)
    pp = checks.pseudospin_params(p, M, HBAR_C_EV_ANGSTROM)
    specs.append(lower_spinor_spec(pp, M, solve_dirac_pseudospin(pp, M, 1, 0.0, 0)[0], 1, 0.0, 0))
    assert len(specs) == 18
    r = checks.check_normalization(specs)
    closed = log_norm_closed_form(spin_ground.leading_exp, spin_ground.edge_exp, 0, ps.alpha)
    ratio = np.exp(closed - spin_ground.log_norm)
    print(f"AC-6 PASS max |norm - 1| = {r.worst:.2g} (tol 1e-6); "
          f"closed-form/quadrature ratio at the spin ground state = {ratio:.9f} (logged, not gated)")
    assert r.worst <= 1e-6


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
    part = ch_free[1]
    r = checks.check_box_self_test(part)
    # the box and finer grid of check_box_self_test
    nodes = fd_mode_nodes(checks.BOX_PARAMS, part, 0, checks.BOX_GRID.refined(), 4, 1e-8)
    print(f"AC-8 PASS box eigenvalues to {r.worst:.2g} relative after extrapolation (tol 1e-6), "
          f"node counts exact for the lowest 4 levels")
    assert nodes == [0, 1, 2, 3]
    assert r.worst <= 1e-6
