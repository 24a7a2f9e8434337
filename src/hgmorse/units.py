"""Unit constants and the ingestion conversions into the eV/Angstrom system.

All internal computation uses eV for energies and Angstrom for lengths;
spectroscopic inputs (cm^-1 for well depths, amu for reduced masses) are
converted once at ingestion.  The conversion factors are CODATA 2018 values
and can be overridden through a configuration file, since small changes in
them shift reproduced reference energies at the meV level.

Every input file goes through one reader, read_fields; load_config holds
the whole --config contract.  float_linspace builds the sweep and
calibration grids without numpy, and linspace_at one value of such a
grid, for the relativistic root scan.
"""

from __future__ import annotations

import math
import os
import sys
from pathlib import Path
from typing import Callable

from .errors import InvalidParameter, ParseError
from .record import Record

#: hbar*c in eV*Angstrom.
HBAR_C_EV_ANGSTROM = 1973.29

#: CODATA 2018: 1 cm^-1 of photon energy in eV.
CM_INV_TO_EV = 1.239841984e-4

#: CODATA 2018: 1 amu of mass-energy in eV.
AMU_TO_EV = 931.49410242e6


class UnitConstants(Record):
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
        if self.hbar_c * self.hbar_c < sys.float_info.min:  # the relativistic fields divide by hbar_c^2
            raise InvalidParameter(f"hbar_c^2 underflows at hbar_c = {self.hbar_c!r}")


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


def read_fields(source, types: tuple, sep: str = ",", header: str = "") -> list[tuple[str, list]]:
    """(where, values) of each record line of a text input file.

    The one reader of every input file: --config, --molecule-file, --table2
    and the packaged reference table.  source is a path or an
    importlib.resources Traversable.  The text is UTF-8 with an optional
    byte-order mark; blank lines, '#' lines and a line equal to header are
    skipped, and each other line splits at sep into one stripped field per
    entry of types, which converts it (str, int or float).  where is
    'file:line', the prefix of every message about that record.  ParseError,
    naming the file, when it cannot be opened or decoded, or a line has
    another field count or a field that does not convert.
    """
    name = str(source)
    if isinstance(source, (str, os.PathLike)):
        source = Path(source)
    try:
        text = source.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ParseError(f"{name}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{name}: not UTF-8 ({exc.reason} at byte {exc.start})") from exc
    records = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line == header:
            continue
        where, fields = f"{name}:{lineno}", line.split(sep)
        if len(fields) != len(types):
            raise ParseError(f"{where}: expected {len(types)} fields, got {len(fields)} in {line!r}")
        try:
            records.append((where, [kind(field.strip()) for kind, field in zip(types, fields)]))
        except ValueError as exc:
            raise ParseError(f"{where}: {exc} in {line!r}") from exc
    return records


#: the keys a --config file may set
_CONFIG_KEYS = ("hbar_c", "cm_inv_to_ev", "amu_to_ev", "b_sign")


def load_config(path=None) -> tuple[UnitConstants, float]:
    """The unit constants and b_sign of a ``key = value`` --config file.

    No file gives the defaults and b_sign = +1.  ParseError on a value that
    is not a number; InvalidParameter, naming the file, on an unknown or a
    repeated key, a constant that is not finite and > 0, or a b_sign other
    than +1 or -1.
    """
    values: dict[str, float] = {}
    records = read_fields(path, (str, float), sep="=") if path is not None else []
    for where, (key, value) in records:
        if key not in _CONFIG_KEYS:
            raise InvalidParameter(f"{where}: unknown config key {key!r}; known keys: {', '.join(_CONFIG_KEYS)}")
        if key in values:
            raise InvalidParameter(f"{where}: repeated config key {key!r}")
        values[key] = value
    b_sign = values.pop("b_sign", 1.0)
    if b_sign not in (1.0, -1.0):
        raise InvalidParameter(f"{path}: b_sign must be +1 or -1, got {b_sign!r}")
    try:
        return UnitConstants(**values), b_sign
    except InvalidParameter as exc:
        raise InvalidParameter(f"{path}: {exc}") from exc


def linspace_at(start: float, stop: float, num: int) -> Callable[[int], float]:
    """i -> value i of np.linspace(start, stop, num) for num >= 1, bit for bit, in Python float arithmetic.

    As numpy builds it: value i is i*step + start with step =
    (stop - start)/(num - 1), or i/(num - 1)*(stop - start) + start when
    that step underflows to zero (a subnormal range), and the last value is
    stop; num = 1 gives 0*(stop - start) + start.  Infinite or NaN ends and
    an overflowing stop - start give inf and NaN values, without the
    warnings numpy prints.
    """
    div = num - 1
    delta = stop - start
    if div == 0:
        return lambda i: 0.0 * delta + start
    step = delta / div
    if step == 0.0:
        return lambda i: stop if i == div else i / div * delta + start
    return lambda i: stop if i == div else i * step + start


def float_linspace(start: float, stop: float, num: int) -> list[float]:
    """np.linspace(start, stop, num) for num >= 1, bit for bit, in Python float arithmetic (see linspace_at)."""
    at = linspace_at(start, stop, num)
    return [at(i) for i in range(num)]
