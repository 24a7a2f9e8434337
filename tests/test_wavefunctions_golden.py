"""Bit-for-bit golden of normalized eigenfunctions.

For a fixed matrix of states (nonrelativistic n = 0, 4, 8; Klein-Gordon
n = 0, 1, 4; Dirac spin n = 1; Dirac pseudospin n = 0, 1) the golden holds
the exact repr of the energy, the residual at it and log_norm, and a sha256
of the 401 normalized values on the grid of the benchmark's wavefunction
worker: the support window, graded quadratically towards its inner end.
The values come from one-float calls, as in that worker.  A change of any
last bit fails the test.  Regenerate it only for a deliberate output change:

    PYTHONPATH=src python tests/test_wavefunctions_golden.py
"""

import hashlib
import pathlib

import numpy as np

from hgmorse import nonrel
from hgmorse import relativistic as rel
from hgmorse import wavefun
from hgmorse.checks import pseudospin_params, scaled_params
from hgmorse.molecules import find_molecule, to_potential_params
from hgmorse.units import HBAR_C_EV_ANGSTROM

GOLDEN = pathlib.Path(__file__).with_name("data") / "wavefunctions.golden"
GRID_POINTS = 401
ALPHA = 0.025

#: (kind, molecule, a, b, M, n, l or kappa); M is None for nonrel.  The relativistic
#: strengths are those of checks.scaled_params, or checks.pseudospin_params,
#: which sets its own a and b
STATES = [
    ("nonrel", "CH", 1.0, 1.0, None, 0, 0),
    ("nonrel", "HCl", 2.5, 0.5, None, 4, 1),
    ("nonrel", "N2", 1.0, 1.0, None, 8, 2),
    ("kg", "N2", 1.0, 1.0, 50.0, 0, 0),
    ("kg", "CO", 1.0, 1.0, 500.0, 1, 1),
    ("kg", "NO", 1.0, 1.0, 5000.0, 4, 0),
    ("spin", "NO", 1.0, 1.0, 500.0, 1, -2),
    ("pseudospin", "CO", 1.0, 1.0, 500.0, 0, 2),
    ("pseudospin", "CH", 1.0, 1.0, 5000.0, 1, 1),
]


def _grid(w: wavefun.SWaveform) -> np.ndarray:
    r_lo, r_hi = wavefun.support_window(w)
    x = np.linspace(0.0, 1.0, GRID_POINTS)
    return r_lo + (r_hi - r_lo) * x * x


def record(kind, name, a, b, M, n, label) -> str:
    """One golden line: the state, then the float reprs of E, residual and
    log_norm (None where there is none) and the grid sha256."""
    p, part = to_potential_params(find_molecule(name), a, b, ALPHA)
    if kind == "nonrel":
        E, residual = nonrel.energy_nonrel(p, part, n, label), None
        spec = nonrel.make_wavefunction(p, part, n, label)
        w, log_norm, at = spec.waveform, spec.log_norm, lambda r: nonrel.radial_wavefunction(spec, r)
    else:
        if kind == "kg":
            ps = scaled_params(p, part, M)
            state = (rel.QuantumNumbers(n=n, l=label),)
            solve, residual_of, spec_of = rel.solve_kg_energy, rel.kg_residual, rel.kg_wavefunction_spec
        elif kind == "spin":
            ps = scaled_params(p, part, M)
            state = (label, 0.0, n)
            solve, residual_of, spec_of = rel.solve_dirac_spin, rel.spin_residual, rel.upper_spinor_spec
        else:
            ps = pseudospin_params(p, M, HBAR_C_EV_ANGSTROM)
            state = (label, 0.0, n)
            solve, residual_of, spec_of = (rel.solve_dirac_pseudospin, rel.pseudospin_residual,
                                           rel.lower_spinor_spec)
        E = solve(ps, M, *state)[0]
        residual = residual_of(ps, M, E, *state)
        spec = spec_of(ps, M, E, *state)
        w, log_norm, at = spec.waveform, spec.log_norm, lambda r: rel.rel_radial_value(spec, r)
    values = np.array([at(float(r)) for r in _grid(w)], dtype=np.float64)
    digest = hashlib.sha256(values.tobytes()).hexdigest()
    bits = " ".join(f"{key}={x if x is None else float(x)!r}"
                    for key, x in (("E", E), ("residual", residual), ("log_norm", log_norm)))
    return f"{kind} {name} a={a!r} b={b!r} M={M!r} n={n} l|kappa={label} {bits} grid_sha256={digest}\n"


def render() -> str:
    return "".join(record(*state) for state in STATES)


def test_wavefunctions_match_golden():
    assert render().splitlines() == GOLDEN.read_text().splitlines()


if __name__ == "__main__":
    GOLDEN.write_text(render())
