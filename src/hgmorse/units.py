"""Unit constants and the ingestion conversions into the eV/Angstrom system.

All internal computation uses eV for energies and Angstrom for lengths;
spectroscopic inputs (cm^-1 for well depths, amu for reduced masses) are
converted once at ingestion.  The conversion factors are CODATA 2018 values
and can be overridden through a configuration file, since small changes in
them shift reproduced reference energies at the meV level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParameter, ParseError

#: hbar*c in eV*Angstrom.
HBAR_C_EV_ANGSTROM = 1973.29

#: CODATA 2018: 1 cm^-1 of photon energy in eV.
CM_INV_TO_EV = 1.239841984e-4

#: CODATA 2018: 1 amu of mass-energy in eV.
AMU_TO_EV = 931.49410242e6


@dataclass(frozen=True)
class UnitConstants:
    """The three constants every ingestion path depends on.

    hbar_c is the kinematic scale (eV*A), cm_inv_to_ev converts well depths,
    amu_to_ev converts reduced masses to mass-energies.
    """

    hbar_c: float = HBAR_C_EV_ANGSTROM
    cm_inv_to_ev: float = CM_INV_TO_EV
    amu_to_ev: float = AMU_TO_EV

    def __post_init__(self) -> None:
        for name in ("hbar_c", "cm_inv_to_ev", "amu_to_ev"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0.0:
                raise InvalidParameter(f"{name} must be finite and > 0, got {value!r}")

    @classmethod
    def from_mapping(cls, mapping: dict) -> "UnitConstants":
        """Build constants from config-file keys, falling back to defaults."""
        kwargs = {}
        for name in ("hbar_c", "cm_inv_to_ev", "amu_to_ev"):
            if name in mapping:
                try:
                    kwargs[name] = float(mapping[name])
                except ValueError as exc:
                    raise InvalidParameter(f"config key {name}: {mapping[name]!r} is not a number") from exc
        return cls(**kwargs)


DEFAULT_UNITS = UnitConstants()


def cm_inverse_to_ev(x: float, u: UnitConstants = DEFAULT_UNITS) -> float:
    """Convert a wavenumber (cm^-1) to an energy (eV).

    Negative inputs are allowed; differences of term values are wavenumbers too.
    """
    return x * u.cm_inv_to_ev


def amu_to_mass_energy(m: float, u: UnitConstants = DEFAULT_UNITS) -> float:
    """Convert a mass in amu to its mass-energy in eV.  Requires m > 0."""
    if not m > 0.0:
        raise InvalidParameter(f"mass must be > 0 amu, got {m!r}")
    return m * u.amu_to_ev


def read_config(path) -> dict:
    """Parse a ``key = value`` configuration file.

    Lines starting with '#' and blank lines are ignored.  Values stay strings;
    consumers coerce.  Raises ParseError with the offending line number.
    """
    out: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if not key:
                raise ParseError(f"{path}:{lineno}: empty key")
            out[key] = value
    return out
