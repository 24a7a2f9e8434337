"""Built-in spectroscopic parameters and molecule-file ingestion.

The five built-in diatomics carry well depths in cm^-1, equilibrium bond
lengths in Angstrom and reduced masses in amu; conversion into the internal
eV/Angstrom system happens in to_potential_params.  User files use the same
CSV layout: an optional header ``name,De_cm,re_angstrom,mu_amu``, '#'
comments, '.' decimals, read by units.read_fields.
"""

from __future__ import annotations

import math
from typing import Iterable

from .errors import InvalidParameter
from .nonrel import ParticleSpec
from .potential import PotentialParams
from .record import Record
from .units import DEFAULT_UNITS, UnitConstants, amu_to_mass_energy, cm_inverse_to_ev, read_fields

CSV_HEADER = "name,De_cm,re_angstrom,mu_amu"


class Molecule(Record):
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
    """The records of a molecule CSV; a repeated name or a bad field raises with its file:line."""
    out: list[Molecule] = []
    for where, fields in read_fields(path, (str, float, float, float), header=CSV_HEADER):
        if any(m.name == fields[0] for m in out):
            raise InvalidParameter(f"{where}: duplicate molecule {fields[0]!r}")
        try:
            out.append(Molecule(*fields))
        except InvalidParameter as exc:
            raise InvalidParameter(f"{where}: {exc}") from exc
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

