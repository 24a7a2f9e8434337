"""Scoring and calibration against the shipped reference energy table.

The reference table's (a, b) strengths were never published, so exact
reproduction is conditional: `calibrate` runs the specified grid search on
the CH ground level, scores every entry at the winning pair, and the report
states plainly whether the table is reproduced within tolerance or not,
alongside per-molecule single-parameter diagnostics that localize what the
reference values must have been computed with.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Optional

from .errors import InvalidParameter, ParseError
from .molecules import builtin_molecules, find_molecule, to_potential_params
from .nonrel import _energy_at, energy_nonrel
from .units import DEFAULT_UNITS, UnitConstants, float_linspace, read_fields

REPRODUCTION_TOL = 5e-3  # eV, per entry
N_MAX = 5  # the table lists n = 0..N_MAX, l = 0..n
ROWS_PER_MOLECULE = (N_MAX + 1) * (N_MAX + 2) // 2


@dataclass(frozen=True)
class ReferenceRow:
    molecule: str
    n: int
    l: int
    E_eV: float


def packaged_reference_path():
    return resources.files("hgmorse.data").joinpath("table2_reference.csv")


def load_reference(path=None) -> list[ReferenceRow]:
    """Parse the reference CSV (packaged when path is None); ParseError on a bad line or no rows.

    InvalidParameter, with its file:line, on an energy that is not finite.
    The 5 molecules x 21 rows shape is checked apart, by check_reference_shape.
    """
    source = packaged_reference_path() if path is None else path
    rows = []
    for where, fields in read_fields(source, (str, int, int, float), header="molecule,n,l,E_eV"):
        row = ReferenceRow(*fields)
        if not math.isfinite(row.E_eV):
            raise InvalidParameter(f"{where}: E_eV must be finite, got {row.E_eV!r}")
        rows.append(row)
    if not rows:
        raise ParseError(f"{source}: no reference rows")
    return rows


def check_reference_shape(rows: Iterable[ReferenceRow]) -> None:
    """InvalidParameter unless five molecules each list the n <= 5, l <= n triangle once."""
    per: dict[str, list[tuple[int, int]]] = {}
    for row in rows:
        per.setdefault(row.molecule, []).append((row.n, row.l))
    counts = {name: len(levels) for name, levels in per.items()}
    if len(counts) != 5 or any(count != ROWS_PER_MOLECULE for count in counts.values()):
        raise InvalidParameter(f"reference table malformed: {counts!r}")
    for name, levels in per.items():
        seen: set[tuple[int, int]] = set()
        for n, l in levels:
            if not 0 <= l <= n <= N_MAX:
                raise InvalidParameter(f"reference table: {name} row (n, l) = ({n}, {l}) "
                                       f"is outside n <= {N_MAX}, l <= n")
            if (n, l) in seen:
                raise InvalidParameter(f"reference table: {name} repeats (n, l) = ({n}, {l})")
            seen.add((n, l))


def _columns(rows: Iterable[ReferenceRow]) -> dict[str, list[ReferenceRow]]:
    """Each molecule's rows in table order, molecules in order of first row."""
    by_molecule: dict[str, list[ReferenceRow]] = {}
    for row in rows:
        by_molecule.setdefault(row.molecule, []).append(row)
    return by_molecule


def score(rows: list[ReferenceRow], a: float, b: float, alpha: float = 0.025,
          u: UnitConstants = DEFAULT_UNITS) -> dict:
    """Per-molecule and overall absolute deviations at a fixed (a, b)."""
    devs: dict[str, list[float]] = {}
    for name, column in _columns(rows).items():
        p, part = to_potential_params(find_molecule(name), a, b, alpha, u)
        devs[name] = [abs(energy_nonrel(p, part, row.n, row.l) - row.E_eV) for row in column]
    flat = [d for column in devs.values() for d in column]
    return {
        "per_molecule": {name: (max(column), sum(column) / len(column)) for name, column in devs.items()},
        "max": max(flat),
        "mean": sum(flat) / len(flat),
        "count": len(flat),
    }


def calibrate(rows: list[ReferenceRow], alpha: float = 0.025, grid: int = 51,
              u: UnitConstants = DEFAULT_UNITS) -> tuple[float, float, float]:
    """Grid search (a, b) in [0, 5]^2 minimizing the CH ground-level mismatch.

    Returns (a, b, |deviation at CH(0,0)|); ties resolve to the first grid
    point in scan order, a outer and b inner.  The grid is np.linspace(0, 5,
    grid), bit for bit.  InvalidParameter when grid < 1 or the table has no
    CH (0, 0) row.
    """
    if grid < 1:
        raise InvalidParameter(f"calibration grid must be >= 1, got {grid!r}")
    target = next((row.E_eV for row in rows if row.molecule == "CH" and row.n == 0 and row.l == 0), None)
    if target is None:
        raise InvalidParameter("reference table has no CH row with n = 0, l = 0 to calibrate on")
    p, part = to_potential_params(find_molecule("CH"), 0.0, 0.0, alpha, u)
    values = float_linspace(0.0, 5.0, grid)
    # min keeps the first of equal minima
    dev, a, b = min(((abs(_energy_at(p, part, 0, 0, a, b) - target), a, b) for a in values for b in values),
                    key=lambda point: point[0])
    return a, b, dev


def per_molecule_diagnostics(rows: list[ReferenceRow], alpha: float = 0.025,
                             u: UnitConstants = DEFAULT_UNITS) -> dict:
    """Best-fit b per molecule with a pinned to 1, over b in [-4, 1].

    Golden-section on the summed squared deviation of the full 21-entry
    column.  Localizes the convention behind the reference values: large
    negative best-fit b with tiny residuals means the table was produced
    with the attractive-Yukawa sign.
    """
    out: dict[str, tuple[float, float]] = {}
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    for name, column in _columns(rows).items():
        p, part = to_potential_params(find_molecule(name), 1.0, 0.0, alpha, u)

        def deviations(b: float) -> list[float]:
            return [_energy_at(p, part, row.n, row.l, 1.0, b) - row.E_eV for row in column]

        def sse(b: float) -> float:
            return sum(dev**2 for dev in deviations(b))  # left to right

        lo, hi = -4.0, 1.0
        c = hi - gr * (hi - lo)
        d = lo + gr * (hi - lo)
        fc, fd = sse(c), sse(d)
        for _ in range(80):
            if fc < fd:
                hi, d, fd = d, c, fc
                c = hi - gr * (hi - lo)
                fc = sse(c)
            else:
                lo, c, fc = c, d, fd
                d = lo + gr * (hi - lo)
                fd = sse(d)
        b_best = 0.5 * (lo + hi)
        out[name] = (b_best, max(abs(dev) for dev in deviations(b_best)))
    return out


def qualitative_gates(a: float, b: float, alpha: float = 0.025, u: UnitConstants = DEFAULT_UNITS) -> dict:
    """The two trend gates: E rises with n at fixed l; HCl n=1 l-ordering."""
    monotone = True
    for mol in builtin_molecules():
        params, part = to_potential_params(mol, a, b, alpha, u)
        for l in (0, 1):
            energies = [energy_nonrel(params, part, n, l) for n in range(6)]
            if any(e2 <= e1 for e1, e2 in zip(energies, energies[1:])):
                monotone = False
    params, part = to_potential_params(find_molecule("HCl"), a, b, alpha, u)
    ordering = energy_nonrel(params, part, 1, 0) < energy_nonrel(params, part, 1, 1)
    return {"monotone_in_n": monotone, "hcl_n1_l_ordering": ordering}


def norm_identity_note() -> str:
    """One-line record of the rejected closed-form norm identity."""
    return (
        "norm identity check: printed weighted-norm formula gives 1 at n=0, exponents (1,1); "
        "exact value is 1/3; standard identity used throughout, closed-form constants logged only"
    )


def build_report(rows: list[ReferenceRow], calibrated: Optional[tuple[float, float, float]],
                 a: float, b: float, alpha: float = 0.025, u: UnitConstants = DEFAULT_UNITS,
                 timestamp: Optional[str] = None, grid: int = 51) -> tuple[str, dict]:
    """Deterministic validation report, sha256-signed over its body, and the
    qualitative_gates result it prints."""
    lines: list[str] = []
    if calibrated is not None:
        ca, cb, cdev = calibrated
        lines.append(f"calibration: grid {grid}x{grid} on [0,5]^2, criterion |E(0,0;CH) - reference|")
        lines.append(f"calibrated (a, b) = ({ca:.6g}, {cb:.6g}) eV*A, criterion deviation {cdev:.6g} eV")
        a, b = ca, cb
    else:
        lines.append(f"scoring with supplied (a, b) = ({a:.6g}, {b:.6g}) eV*A")
    result = score(rows, a, b, alpha, u)
    lines.append(f"entries scored: {result['count']}")
    lines.append(f"overall: max |dev| = {result['max']:.6g} eV, mean |dev| = {result['mean']:.6g} eV")
    for name in sorted(result["per_molecule"]):
        mx, mean = result["per_molecule"][name]
        lines.append(f"  {name}: max {mx:.6g} eV, mean {mean:.6g} eV")
    if result["max"] <= REPRODUCTION_TOL:
        lines.append(f"verdict: reproduced within {REPRODUCTION_TOL:g} eV per entry")
    else:
        lines.append(f"verdict: NOT reproducible within {REPRODUCTION_TOL:g} eV at any single (a, b); best shown above")
        diag = per_molecule_diagnostics(rows, alpha, u)
        lines.append("per-molecule diagnostics (a = 1 pinned, best-fit b over [-4, 1]):")
        for name in sorted(diag):
            b_best, worst = diag[name]
            lines.append(f"  {name}: b = {b_best:.6f} eV*A reproduces all {ROWS_PER_MOLECULE} entries to {worst:.3g} eV")
        lines.append("interpretation: reference values follow the attractive-Yukawa sign convention")
        lines.append("(negative effective b, i.e. b_sign = -1) with molecule-dependent strength")
    gates = qualitative_gates(a, b, alpha, u)
    lines.append(f"gate E(n+1,l) > E(n,l) for n < 5, every molecule: {'PASS' if gates['monotone_in_n'] else 'FAIL'}")
    lines.append(f"gate HCl n=1 ordering E(1,0) < E(1,1): {'PASS' if gates['hcl_n1_l_ordering'] else 'FAIL'}")
    lines.append(norm_identity_note())
    body = "\n".join(lines)
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    header = ""
    if timestamp:
        header = f"# generated: {timestamp}\n"
    return f"{header}{body}\nsignature: sha256 {digest}\n", gates
