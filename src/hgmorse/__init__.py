"""Bound-state spectra for the Hellmann plus generalized-Morse potential.

Closed-form Schrodinger, Klein-Gordon and Dirac (spin/pseudospin symmetry)
energy levels and normalized radial eigenfunctions for screened diatomic
interactions, cross-validated against an independent finite-difference and
shooting oracle.
"""

from .errors import (
    GridTooCoarse,
    InvalidParameter,
    NoBoundState,
    NonConvergence,
    ParseError,
    SolverError,
)
from .molecules import (
    Molecule,
    builtin_molecules,
    load_molecules,
    to_potential_params,
)
from .nonrel import (
    ParticleSpec,
    WavefunctionSpec,
    energies_nonrel,
    energy_nonrel,
    make_wavefunction,
    radial_wavefunction,
    wavefunction_exponents,
)
from .oracle import (
    RadialGrid,
    fd_schrodinger_eigen,
    oracle_energies,
    richardson_extrapolate,
    shoot_mismatch,
)
from .potential import (
    PotentialParams,
    centrifugal_approx,
    potential_approx,
    potential_curve,
    potential_exact,
    q_of,
)
from .relativistic import (
    QuantumNumbers,
    RelWavefunctionSpec,
    kg_residual,
    lambda_D,
    pseudospin_residual,
    solve_dirac_pseudospin,
    solve_dirac_spin,
    solve_kg_energy,
    spin_residual,
)
from .rootfind import RootBracket, bisect, scan_brackets
from .specfun import JacobiParams, hyp2f1_terminating, jacobi_norm_integral, jacobi_poly, ln_gamma, pochhammer
from .units import UnitConstants, amu_to_mass_energy, cm_inverse_to_ev

__version__ = "0.1.0"
