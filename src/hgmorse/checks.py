"""Closed-form-vs-oracle check battery behind oracle-check and the acceptance suite.

Each check_* takes the matrix it iterates (a molecule, masses and states,
the specs to normalize, or a particle) and returns a record of what it
measured.  A record's verdict() applies the oracle-check tolerances pinned
here and gives the (criterion, passed, detail) line that the CLI prints and
takes its exit code from.  run_checks passes the oracle-check matrices named
below; the acceptance suite passes its own, wider ones and asserts the
records against the AC tolerances pinned in tests/test_acceptance.py.
"""

from __future__ import annotations

import math
import sys
import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, NoBoundState
from .molecules import Molecule, to_potential_params
from .nonrel import ParticleSpec, WavefunctionSpec, energy_nonrel, make_wavefunction
from .oracle import (FD_POINTS, RadialGrid, fd_extrapolated, mismatch_sign_change, oracle_energies, scipy_extension,
                     thread_map)
from .potential import PotentialParams
from .relativistic import (
    QuantumNumbers,
    RelWavefunctionSpec,
    kg_residual_nonrel_limit,
    model_functions,
    solve_dirac_spin,
    solve_kg_energy,
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

#: (model, states, how many must bind at each mass) of the oracle-check relativistic
#: residuals: pseudospin states may be unbound, but one must bind at each mass
RELATIVISTIC_STATES = (
    ("kg", [(QuantumNumbers(n=n, l=l),) for n, l in ((0, 0), (1, 0), (1, 1))], 3),
    ("dirac-spin", [(1, 0.0, 1), (-2, 0.0, 1)], 2),
    ("dirac-pseudospin", [(1, 0.0, 0), (1, 0.0, 1), (2, 0.0, 0)], 1),
)
#: oracle-check masses of the cross-identities check, and (n, l) of the normalization check
CROSS_MASSES = (500.0,)
NORMALIZED_STATES = ((0, 0), (1, 0), (2, 1))


def worst_of(devs) -> float:
    """Largest deviation, 0 for none, NaN if any is NaN (the builtin max can drop a NaN)."""
    return float(np.max(devs, initial=0.0))


@dataclass(frozen=True)
class OracleEquivalence:
    """|closed - FD| (eV) per level at a = b = 0 (bare) and a = b = 1 (unit), wall time, CSV rows."""

    molecule: str
    bare: list[float]
    unit: list[float]
    seconds: float
    rows: list[str]

    def verdict(self) -> Check:
        worst = worst_of(self.bare + self.unit)
        return ("oracle-equivalence", worst <= 5e-4,
                f"molecule={self.molecule} max|closed - FD| = {worst:.3g} eV in {self.seconds:.1f} s")


@dataclass(frozen=True)
class RelativisticResiduals:
    """Roots, worst |residual|, all shooting flips within 1e-8*M, every case bound enough states."""

    levels: int
    worst: float
    flips: bool
    bound: bool

    def verdict(self) -> Check:
        detail = f"{self.levels} levels, max|residual| = {self.worst:.2g}, shooting flips within 1e-8*M: {self.flips}"
        if not self.bound:
            detail += ", a case bound too few states"
        return ("relativistic-residuals", self.worst <= 1e-9 and self.flips and self.bound, detail)


@dataclass(frozen=True)
class CrossIdentities:
    """Worst |E_KG - E_spin| and spin-doublet gap (eV), worst nonrel-limit residual, and
    the (M, l) cases where a KG or spin state did not bind."""

    pair: float
    doublet: float
    limit: float
    unbound: list[str]

    def verdict(self) -> Check:
        detail = f"KG/spin max|dE| = {self.pair:.2g} eV, nonrel-limit max|residual| = {self.limit:.2g}"
        if not self.doublet <= 1e-10:
            detail += f", spin-doublet max|dE| = {self.doublet:.2g} eV"
        if self.unbound:
            detail += f", no bound state at {'; '.join(self.unbound)}"
        passed = self.pair <= 1e-10 and self.doublet <= 1e-10 and self.limit <= 1e-10 and not self.unbound
        return ("cross-identities", passed, detail)


@dataclass(frozen=True)
class SpecialFunctions:
    """Worst Jacobi-vs-recurrence relative deviation and |I(0;1,1) - 1/3|."""

    worst: float
    third: float

    def verdict(self) -> Check:
        return ("special-functions", self.worst <= 1e-12 and self.third <= 1e-12,
                f"jacobi-vs-recurrence max rel dev = {self.worst:.2g}, |I(0;1,1) - 1/3| = {self.third:.2g}")


@dataclass(frozen=True)
class Normalization:
    """Worst |quadrature norm - 1| over the states integrated."""

    worst: float

    def verdict(self) -> Check:
        return ("normalization", self.worst <= 1e-6, f"max |quad norm - 1| = {self.worst:.2g}")


@dataclass(frozen=True)
class BoxSelfTest:
    """Worst relative deviation of the four lowest box levels, extrapolated from the
    production FD solver on a grid and its refinement (fd_extrapolated, as oracle_energies)."""

    worst: float

    def verdict(self) -> Check:
        return ("box-self-test", self.worst <= 1e-6, f"max rel dev after extrapolation = {self.worst:.2g}")


def check_oracle_equivalence(mol: Molecule, alpha: float, u: UnitConstants) -> OracleEquivalence:
    """Closed form against the FD oracle for n <= 3, l <= 2 of one molecule, with
    the comparison rows in the documented CSV layout."""
    t0 = time.perf_counter()
    strengths = [to_potential_params(mol, a, b, alpha, u) for a, b in ((0.0, 0.0), (1.0, 1.0))]
    # the six (strength pair, l) FD solves are independent, so they run in parallel
    solved = iter(thread_map(oracle_energies, [(params, part, l, 4) for params, part in strengths for l in range(3)]))
    rows: list[str] = []
    devs: list[list[float]] = []
    for params, part in strengths:
        devs.append([])
        for l in range(3):
            fd, _ = next(solved)
            for n in range(4):
                closed = energy_nonrel(params, part, n, l)
                dev = abs(closed - float(fd[n]))
                devs[-1].append(dev)
                rows.append(f"nonrel,{n},{l},{closed:.17g},{float(fd[n]):.17g},{dev:.17g},{FD_POINTS},True")
    return OracleEquivalence(mol.name, devs[0], devs[1], time.perf_counter() - t0, rows)


def check_relativistic_residuals(p: PotentialParams, part: ParticleSpec, masses: Sequence[float],
                                 states: Sequence[tuple[str, list, int]]) -> RelativisticResiduals:
    """Residual and shooting sign flip at every root of each (model, states, how many must bind) case
    at each mass: kg and dirac-spin on scaled_params, dirac-pseudospin on pseudospin_params."""
    hbar_c = part.hbar_c
    residuals: list[float] = []
    flips = bound_ok = True
    levels = 0
    for M in masses:
        for model, model_states, need in states:
            params = pseudospin_params(p, M, hbar_c) if model == "dirac-pseudospin" else scaled_params(p, part, M)
            solve, residual, _, ode = model_functions(model)
            bound = 0
            for state in model_states:
                try:
                    roots = solve(params, M, *state, hbar_c=hbar_c)
                except NoBoundState:
                    continue
                for E in roots:
                    residuals.append(abs(residual(params, M, E, *state, hbar_c=hbar_c)))
                    flips &= mismatch_sign_change(ode(params, M, *state, hbar_c=hbar_c), E, 1e-8 * M)
                levels += len(roots)
                bound += bool(roots)
            bound_ok &= bound >= need
    return RelativisticResiduals(levels, worst_of(residuals), flips, bound_ok)


def check_cross_identities(p: PotentialParams, part: ParticleSpec, masses: Sequence[float]) -> CrossIdentities:
    """KG = Dirac-spin and the spin doublet on the scaled potential at each
    mass, and both nonrelativistic limits at the closed-form levels of p."""
    pair: list[float] = []
    doublet: list[float] = []
    unbound: list[str] = []
    for M in masses:
        ps = scaled_params(p, part, M)
        for l, kappas in ((0, (-1,)), (1, (1, -2))):
            try:
                e_kg = solve_kg_energy(ps, M, QuantumNumbers(n=1, l=l), hbar_c=part.hbar_c)[0]
                spins = [solve_dirac_spin(ps, M, kappa, 0.0, 1, hbar_c=part.hbar_c)[0] for kappa in kappas]
            except NoBoundState:
                unbound.append(f"M={M:g} l={l}")
                continue
            pair += [abs(e_kg - e) for e in spins]
            doublet.append(float(np.ptp(spins)))
    # spin_residual at Cs = 0 and kappa(kappa+1) = l(l+1) is kg_residual, so one limit covers both
    limit = [abs(kg_residual_nonrel_limit(p, part, energy_nonrel(p, part, n, l), n, l))
             for n in range(4) for l in range(3)]
    return CrossIdentities(worst_of(pair), worst_of(doublet), worst_of(limit), unbound)


def check_special_functions() -> SpecialFunctions:
    rng = np.random.default_rng(20240817)
    devs: list[float] = []
    for _ in range(200):
        n = int(rng.integers(0, 11))
        theta = float(rng.uniform(-0.9, 50.0))
        varth = float(rng.uniform(-0.9, 50.0))
        x = float(rng.uniform(-1.0, 1.0))
        direct = jacobi_poly(JacobiParams(theta, varth, n), x)
        rec = jacobi_recurrence(JacobiParams(theta, varth, n), x)
        devs.append(abs(direct - rec) / max(1.0, abs(rec)))
    return SpecialFunctions(worst_of(devs), abs(jacobi_norm_integral(1.0, 1.0, 0) - 1.0 / 3.0))


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
    log_s = -w.alpha * r if s < sys.float_info.min else math.log(s)  # a subnormal s has lost digits
    log_env = w.leading * log_s + w.edge * math.log(one_m_s)
    return log_env + log_pref + math.log(abs(hyp)), math.copysign(1.0, hyp)


def term_sum_value(w: SWaveform, log_norm: float, r: float) -> float:
    """Normalized eigenfunction value at one r through the term-sum oracle."""
    la, sign = term_sum_log_abs_and_sign(w, r)
    if la == -math.inf:
        return 0.0
    return sign * math.exp(la + log_norm)


def check_normalization(specs: Sequence[WavefunctionSpec | RelWavefunctionSpec]) -> Normalization:
    """Adaptive quadrature of each squared eigenfunction, evaluated through the
    term-sum oracle and scaled by the production log_norm of its spec.

    QUADPACK dqagse with the arguments of scipy.integrate.quad(limit=400); a
    nonzero error flag makes that state's deviation NaN, which fails the check.
    """
    qagse = scipy_extension("integrate", "_quadpack")._qagse
    devs: list[float] = []
    for spec in specs:
        w = spec.waveform
        r_lo, r_hi = support_window(w)
        integral, _, ier = qagse(lambda r: term_sum_value(w, spec.log_norm, r) ** 2, r_lo, r_hi,
                                 (), 0, 1.49e-8, 1.49e-8, 400)
        devs.append(math.nan if ier else abs(integral - 1.0))
    return Normalization(worst_of(devs))


#: the box self-test's problem: the zero potential (a = b = D_e = 0, with a screening
#: range far beyond the box) in a box of length BOX_LENGTH (A), solved on BOX_GRID and
#: its refinement
BOX_PARAMS = PotentialParams(a=0.0, b=0.0, D_e=0.0, r_e=1.0, alpha=1e-6)
BOX_LENGTH = 10.0
BOX_GRID = RadialGrid(1e-9, BOX_LENGTH + 1e-9, 2001)


def box_levels(part: ParticleSpec, k: int) -> np.ndarray:
    """The lowest k levels c pi^2 m^2/L^2 (m = 1..k) of the box self-test's problem, l = 0."""
    return part.kinetic_scale * math.pi**2 * np.arange(1, k + 1) ** 2 / BOX_LENGTH**2


def check_box_self_test(part: ParticleSpec) -> BoxSelfTest:
    """The FD oracle on the box problem (BOX_PARAMS, l = 0) against its four lowest levels."""
    extrap, _ = fd_extrapolated(BOX_PARAMS, part, 0, BOX_GRID, 4)
    return BoxSelfTest(worst_of(np.abs(extrap / box_levels(part, 4) - 1.0)))


MODEL_CHECKS = ("nonrel", "kg", "dirac-spin", "dirac-pseudospin")


def run_checks(molecules: list[Molecule], models: list[str], alpha: float, u: UnitConstants) -> list:
    """The records of the battery over the oracle-check matrices, for the
    requested model families, in printing order."""
    out: list = []
    base_params, base_part = to_potential_params(molecules[0], 1.0, 1.0, alpha, u)
    if "nonrel" in models:
        out += [check_oracle_equivalence(mol, alpha, u) for mol in molecules]
        out.append(check_box_self_test(base_part))
        out.append(check_special_functions())
        out.append(check_normalization([make_wavefunction(base_params, base_part, n, l)
                                        for n, l in NORMALIZED_STATES]))
    states = [case for case in RELATIVISTIC_STATES if case[0] in models]
    if states:
        out.append(check_relativistic_residuals(base_params, base_part, MASS_MATRIX, states))
    if "kg" in models or "dirac-spin" in models:
        out.append(check_cross_identities(base_params, base_part, CROSS_MASSES))
    return out
