"""Built-in spectroscopic parameters and molecule-file ingestion.

The five built-in diatomics carry well depths in cm^-1, equilibrium bond
lengths in Angstrom and reduced masses in amu; conversion into the internal
eV/Angstrom system happens in to_potential_params.  User files use the same
CSV layout: header ``name,De_cm,re_angstrom,mu_amu``, '#' comments, '.'
decimals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import InvalidParameter, ParseError
from .nonrel import ParticleSpec
from .potential import PotentialParams
from .units import DEFAULT_UNITS, UnitConstants, amu_to_mass_energy, cm_inverse_to_ev

CSV_HEADER = "name,De_cm,re_angstrom,mu_amu"


@dataclass(frozen=True)
class Molecule:
    """One spectroscopic record in input units."""

    name: str
    De_cm: float
    re_angstrom: float
    mu_amu: float

    def __post_init__(self) -> None:
        if not self.name:
            raise InvalidParameter("molecule name must be nonempty")
        for field_name in ("De_cm", "re_angstrom", "mu_amu"):
            value = getattr(self, field_name)
            if not (math.isfinite(value) and value > 0.0):
                raise InvalidParameter(f"{self.name}: {field_name} must be finite and > 0, got {value!r}")


_BUILTIN = (
    Molecule("CH", 31838.08, 1.1198, 0.929931),
    Molecule("NO", 64877.06, 1.1508, 7.468441),
    Molecule("CO", 87471.43, 1.1282, 6.860586),
    Molecule("N2", 96288.04, 1.0940, 7.003350),
    Molecule("HCl", 37255.00, 1.2746, 0.980105),
)


def builtin_molecules() -> tuple[Molecule, ...]:
    """The five built-in diatomic records."""
    return _BUILTIN


def find_molecule(name: str, pool: Iterable[Molecule] | None = None) -> Molecule:
    for m in pool if pool is not None else _BUILTIN:
        if m.name == name:
            return m
    raise InvalidParameter(f"unknown molecule {name!r}")


def load_molecules(path) -> list[Molecule]:
    """Parse a molecule CSV; duplicates and bad fields raise with line numbers."""
    out: list[Molecule] = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line == CSV_HEADER:
                continue
            parts = [part.strip() for part in line.split(",")]
            if len(parts) != 4:
                raise ParseError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
            name = parts[0]
            try:
                numbers = [float(text) for text in parts[1:]]
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            if name in seen:
                raise InvalidParameter(f"{path}:{lineno}: duplicate molecule {name!r}")
            try:
                molecule = Molecule(name, *numbers)
            except InvalidParameter as exc:
                raise InvalidParameter(f"{path}:{lineno}: {exc}") from exc
            seen.add(name)
            out.append(molecule)
    return out


def to_potential_params(
    m: Molecule,
    a: float,
    b: float,
    alpha: float,
    u: UnitConstants = DEFAULT_UNITS,
    b_sign: float = 1.0,
) -> tuple[PotentialParams, ParticleSpec]:
    """Convert a molecule record into internal (potential, particle) inputs.

    b_sign = -1 selects the attractive-Yukawa convention (the interaction's
    other published sign variant); it simply flips the effective b.
    """
    if b_sign not in (1.0, -1.0):
        raise InvalidParameter(f"b_sign must be +1 or -1, got {b_sign!r}")
    params = PotentialParams(a=a, b=b_sign * b, D_e=cm_inverse_to_ev(m.De_cm, u), r_e=m.re_angstrom, alpha=alpha)
    part = ParticleSpec(mu_energy=amu_to_mass_energy(m.mu_amu, u), hbar_c=u.hbar_c)
    return params, part

