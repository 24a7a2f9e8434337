"""Bound-state spectra for the Hellmann plus generalized-Morse potential.

Closed-form Schrodinger, Klein-Gordon and Dirac (spin/pseudospin symmetry)
energy levels and normalized radial eigenfunctions for screened diatomic
interactions, cross-validated against an independent finite-difference and
shooting oracle.

The exports below load their submodule on first access (PEP 562), so
`import hgmorse.cli` does not compile and run the oracle, the relativistic
solvers or the root finder for a command that never calls them.
"""

import importlib

_EXPORTS = {
    "errors": ("GridTooCoarse", "InvalidParameter", "NoBoundState", "NonConvergence", "ParseError",
               "SolverError"),
    "molecules": ("Molecule", "builtin_molecules", "load_molecules", "to_potential_params"),
    "nonrel": ("ParticleSpec", "WavefunctionSpec", "energy_nonrel", "make_wavefunction", "radial_wavefunction",
               "wavefunction_exponents"),
    "oracle": ("RadialGrid", "fd_schrodinger_eigen", "oracle_energies", "richardson_extrapolate",
               "shoot_mismatch"),
    "potential": ("PotentialParams", "centrifugal_approx", "potential_approx", "potential_curve",
                  "potential_exact", "q_of"),
    "relativistic": ("QuantumNumbers", "RelWavefunctionSpec", "kg_residual", "lambda_D", "pseudospin_residual",
                     "solve_dirac_pseudospin", "solve_dirac_spin", "solve_kg_energy", "spin_residual"),
    "rootfind": ("RootBracket", "bisect", "scan_brackets"),
    "specfun": ("JacobiParams", "hyp2f1_terminating", "jacobi_norm_integral", "jacobi_poly", "ln_gamma",
                "pochhammer"),
    "units": ("UnitConstants", "amu_to_mass_energy", "cm_inverse_to_ev"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    """An export, or one of the submodules that hold them, loaded on first access."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
