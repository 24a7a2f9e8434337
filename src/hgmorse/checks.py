"""Closed-form-vs-oracle check battery behind the oracle-check subcommand.

Each check returns (criterion, passed, detail) so the CLI can emit one
pass/fail line per criterion; the oracle-equivalence check also returns its
comparison rows, which the CLI prints with --details.  The pytest acceptance
suite runs the same comparisons at full matrix size with hard asserts.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .errors import InvalidParameter, NoBoundState
from .molecules import Molecule, to_potential_params
from .nonrel import ParticleSpec, energy_nonrel, make_wavefunction
from .oracle import RadialGrid, fd_schrodinger_eigen, mismatch_sign_change, oracle_energies, richardson_extrapolate
from .potential import PotentialParams
from .relativistic import (
    QuantumNumbers,
    kg_residual_nonrel_limit,
    model_functions,
    solve_dirac_spin,
    solve_kg_energy,
    spin_residual_nonrel_limit,
)
from .specfun import JacobiParams, hyp2f1_terminating, jacobi_norm_integral, jacobi_poly, jacobi_recurrence
from .units import UnitConstants
from .wavefun import SWaveform, support_window

Check = tuple[str, bool, str]

MASS_MATRIX = (50.0, 500.0, 5000.0)
PSEUDOSPIN_B_FOLD = 10.0


def scaled_params(p: PotentialParams, part: ParticleSpec, M: float) -> PotentialParams:
    """Potential strengths rescaled by mu c^2/M, preserving the dimensionless
    well depth of the molecular problem at test mass M."""
    s = part.mu_energy / M
    return PotentialParams(a=p.a * s, b=p.b * s, D_e=p.D_e * s, r_e=p.r_e, alpha=p.alpha)


def pseudospin_params(p: PotentialParams, M: float, hbar_c: float) -> PotentialParams:
    """Pseudospin test configuration: the difference-potential sector binds
    through the Yukawa term, so b is set to a fixed multiple of the binding
    threshold (hbar c)^2 alpha/(2M) while D_e stays molecular (a stronger
    Morse term drives the radicand supercritical and kills every level)."""
    b = PSEUDOSPIN_B_FOLD * hbar_c**2 * p.alpha / (2.0 * M)
    return PotentialParams(a=0.0, b=b, D_e=p.D_e, r_e=p.r_e, alpha=p.alpha)


ORACLE_CSV_HEADER = "model,n,l,E_closed,E_oracle,abs_dev,grid_points,extrapolated"


def oracle_comparison_rows(mol: Molecule, alpha: float, u: UnitConstants, points: int):
    """Per-level closed-vs-FD comparison rows in the documented CSV layout, at a = b = 0 and a = b = 1."""
    rows: list[str] = []
    worst = 0.0
    for a, b in ((0.0, 0.0), (1.0, 1.0)):
        params, part = to_potential_params(mol, a, b, alpha, u)
        for l in range(3):
            fd, _ = oracle_energies(params, part, l, 4, points=points)
            for n in range(4):
                closed = energy_nonrel(params, part, n, l)
                dev = abs(closed - float(fd[n]))
                worst = max(worst, dev)
                rows.append(f"nonrel,{n},{l},{closed:.17g},{float(fd[n]):.17g},{dev:.17g},{points},True")
    return rows, worst


def check_oracle_equivalence(mol: Molecule, alpha: float, u: UnitConstants,
                             points: int) -> tuple[Check, list[str]]:
    """The closed-vs-FD verdict (5e-4 eV) of one molecule, and the comparison rows behind it."""
    t0 = time.time()
    rows, worst = oracle_comparison_rows(mol, alpha, u, points)
    return ("oracle-equivalence", worst <= 5e-4,
            f"molecule={mol.name} max|closed - FD| = {worst:.3g} eV in {time.time() - t0:.1f} s"), rows


def check_relativistic_residuals(p: PotentialParams, part: ParticleSpec, u: UnitConstants,
                                 models: list[str]) -> Check:
    """Residuals and shooting sign flips of the requested relativistic models at every test mass."""
    hc = u.hbar_c
    worst = 0.0
    flips_ok = True
    found = 0
    for M in MASS_MATRIX:
        ps = scaled_params(p, part, M)
        # (model, parameters, states, how many must bind): pseudospin states
        # may be unbound, but one must bind at each mass
        cases = (
            ("kg", ps, [(QuantumNumbers(n=n, l=l),) for n, l in ((0, 0), (1, 0), (1, 1))], 3),
            ("dirac-spin", ps, [(1, 0.0, 1), (-2, 0.0, 1)], 2),
            ("dirac-pseudospin", pseudospin_params(p, M, hc), [(1, 0.0, 0), (1, 0.0, 1), (2, 0.0, 0)], 1),
        )
        for model, params, states, need in cases:
            if model not in models:
                continue
            solve, residual, _, ode = model_functions(model)
            bound = 0
            for state in states:
                try:
                    E = solve(params, M, *state, hbar_c=hc)[0]
                except NoBoundState:
                    continue
                worst = max(worst, abs(residual(params, M, E, *state, hbar_c=hc)))
                flips_ok &= mismatch_sign_change(ode(params, M, *state, hbar_c=hc), E, 1e-8 * M)
                bound += 1
            found += bound
            flips_ok &= bound >= need
    ok = worst <= 1e-9 and flips_ok
    return ("relativistic-residuals", ok,
            f"{found} levels, max|residual| = {worst:.2g}, shooting flips within 1e-8*M: {flips_ok}")


def check_cross_identities(p: PotentialParams, part: ParticleSpec, u: UnitConstants) -> Check:
    worst_pair = 0.0
    ps = scaled_params(p, part, 500.0)
    for l, kappas in ((0, (-1,)), (1, (1, -2))):
        qn = QuantumNumbers(n=1, l=l)
        e_kg = solve_kg_energy(ps, 500.0, qn, hbar_c=u.hbar_c)[0]
        for kappa in kappas:
            e_sp = solve_dirac_spin(ps, 500.0, kappa, 0.0, 1, hbar_c=u.hbar_c)[0]
            worst_pair = max(worst_pair, abs(e_kg - e_sp))
    worst_limit = 0.0
    for n in range(4):
        for l in range(3):
            E = energy_nonrel(p, part, n, l)
            worst_limit = max(worst_limit, abs(kg_residual_nonrel_limit(p, part, E, n, l)),
                              abs(spin_residual_nonrel_limit(p, part, E, n, l)))
    ok = worst_pair <= 1e-10 and worst_limit <= 1e-10
    return ("cross-identities", ok,
            f"KG/spin max|dE| = {worst_pair:.2g} eV, nonrel-limit max|residual| = {worst_limit:.2g}")


def check_special_functions() -> Check:
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(0, 11))
        theta = float(rng.uniform(-0.9, 50.0))
        varth = float(rng.uniform(-0.9, 50.0))
        x = float(rng.uniform(-1.0, 1.0))
        direct = jacobi_poly(JacobiParams(theta, varth, n), x)
        rec = float(jacobi_recurrence(n, theta, varth, x))
        scale = max(1.0, abs(rec))
        worst = max(worst, abs(direct - rec) / scale)
    third = abs(jacobi_norm_integral(1.0, 1.0, 0) - 1.0 / 3.0)
    ok = worst <= 1e-12 and third <= 1e-12
    return ("special-functions", ok, f"jacobi-vs-recurrence max rel dev = {worst:.2g}, |I(0;1,1) - 1/3| = {third:.2g}")


def term_sum_log_abs_and_sign(w: SWaveform, r: float) -> tuple[float, float]:
    """(log|u_raw(r)|, sign) at one r > 0, with the polynomial factor summed
    term by term (`hyp2f1_terminating`, exact fallback included).

    The oracle for the recurrence path of `wavefun.log_abs_and_sign`.
    """
    if not r > 0.0:
        raise InvalidParameter(f"r must be > 0, got {r!r}")
    s = math.exp(-w.alpha * r)
    one_m_s = -math.expm1(-w.alpha * r)
    hyp = hyp2f1_terminating(w.n, w.n + 2.0 * w.leading + 2.0 * w.edge, 2.0 * w.leading + 1.0, s)
    log_pref = sum(math.log(2.0 * w.leading + 1.0 + k) for k in range(w.n)) - math.lgamma(w.n + 1.0)
    if hyp == 0.0:
        return -math.inf, 1.0
    log_s = -w.alpha * r if s == 0.0 else math.log(s)
    log_env = w.leading * log_s + w.edge * math.log(one_m_s)
    return log_env + log_pref + math.log(abs(hyp)), math.copysign(1.0, hyp)


def term_sum_value(w: SWaveform, log_norm: float, r: float) -> float:
    """Normalized eigenfunction value at one r through the term-sum oracle."""
    la, sign = term_sum_log_abs_and_sign(w, r)
    if la == -math.inf:
        return 0.0
    return sign * math.exp(la + log_norm)


def check_normalization(p: PotentialParams, part: ParticleSpec) -> Check:
    """Adaptive quadrature of the squared term-sum eigenfunction, scaled by the
    production log_norm, for three nonrel states."""
    from scipy.integrate import quad

    worst = 0.0
    for n, l in ((0, 0), (1, 0), (2, 1)):
        spec = make_wavefunction(p, part, n, l)
        w = SWaveform(spec.omega, spec.phi_exp, n, p.alpha)
        r_lo, r_hi = support_window(w)
        integral, _ = quad(lambda r: term_sum_value(w, spec.log_norm, r) ** 2, r_lo, r_hi, limit=400)
        worst = max(worst, abs(integral - 1.0))
    return ("normalization", worst <= 1e-6, f"max |quad norm - 1| = {worst:.2g}")


def check_box_self_test(part: ParticleSpec) -> Check:
    """The FD oracle on the zero potential (a = b = D_e = 0, l = 0) against the box levels."""
    p = PotentialParams(a=0.0, b=0.0, D_e=0.0, r_e=1.0, alpha=1e-6)
    L = 10.0
    levels = {pts: fd_schrodinger_eigen(p, part, 0, RadialGrid(1e-9, L + 1e-9, pts), 4) for pts in (2001, 4001)}
    worst = 0.0
    for m in range(1, 5):
        exact = part.kinetic_scale * math.pi**2 * m**2 / L**2
        extrap, _ = richardson_extrapolate(float(levels[2001][m - 1]), float(levels[4001][m - 1]), 2.0, 2)
        worst = max(worst, abs(extrap / exact - 1.0))
    return ("box-self-test", worst <= 1e-6, f"max rel dev after extrapolation = {worst:.2g}")


MODEL_CHECKS = ("nonrel", "kg", "dirac-spin", "dirac-pseudospin")


def run_checks(molecules: list[Molecule], models: list[str], alpha: float, u: UnitConstants,
               points: int) -> tuple[list[Check], dict[str, list[str]]]:
    """Run the battery for the requested model families.

    Returns the checks and, when nonrel is requested, the oracle comparison
    rows of each molecule by name.
    """
    out: list[Check] = []
    comparisons: dict[str, list[str]] = {}
    base_params, base_part = to_potential_params(molecules[0], 1.0, 1.0, alpha, u)
    if "nonrel" in models:
        for mol in molecules:
            check, comparisons[mol.name] = check_oracle_equivalence(mol, alpha, u, points)
            out.append(check)
        out.append(check_box_self_test(base_part))
        out.append(check_special_functions())
        out.append(check_normalization(base_params, base_part))
    relativistic = [name for name in models if name != "nonrel"]
    if relativistic:
        out.append(check_relativistic_residuals(base_params, base_part, u, relativistic))
    if "kg" in models or "dirac-spin" in models:
        out.append(check_cross_identities(base_params, base_part, u))
    return out, comparisons
