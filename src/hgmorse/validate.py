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

import numpy as np

from .errors import InvalidParameter, ParseError
from .molecules import builtin_molecules, find_molecule, to_potential_params
from .nonrel import energy_nonrel
from .units import DEFAULT_UNITS, UnitConstants

REPRODUCTION_TOL = 5e-3  # eV, per entry
ROWS_PER_MOLECULE = 21  # triangular n = 0..5


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

    The 5 molecules x 21 rows shape is checked apart, by check_reference_shape.
    """
    if path is None:
        text = packaged_reference_path().read_text(encoding="utf-8")
        source = "<packaged>"
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        source = str(path)
    rows: list[ReferenceRow] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line == "molecule,n,l,E_eV":
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ParseError(f"{source}:{lineno}: expected 4 fields, got {len(parts)}")
        try:
            rows.append(ReferenceRow(parts[0], int(parts[1]), int(parts[2]), float(parts[3])))
        except ValueError as exc:
            raise ParseError(f"{source}:{lineno}: {exc}") from exc
    if not rows:
        raise ParseError(f"{source}: no reference rows")
    return rows


def check_reference_shape(rows: Iterable[ReferenceRow]) -> None:
    per: dict[str, int] = {}
    for row in rows:
        per[row.molecule] = per.get(row.molecule, 0) + 1
    if len(per) != 5 or any(count != ROWS_PER_MOLECULE for count in per.values()):
        raise InvalidParameter(f"reference table malformed: {per!r}")


def _model_energy(molecule: str, n: int, l: int, a: float, b: float, alpha: float, u: UnitConstants) -> float:
    params, part = to_potential_params(find_molecule(molecule), a, b, alpha, u)
    return energy_nonrel(params, part, n, l)


def score(rows: list[ReferenceRow], a: float, b: float, alpha: float = 0.025,
          u: UnitConstants = DEFAULT_UNITS) -> dict:
    """Per-molecule and overall absolute deviations at a fixed (a, b)."""
    devs: dict[str, list[float]] = {}
    for row in rows:
        dev = abs(_model_energy(row.molecule, row.n, row.l, a, b, alpha, u) - row.E_eV)
        devs.setdefault(row.molecule, []).append(dev)
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
    point in scan order.  InvalidParameter when grid < 1.
    """
    if grid < 1:
        raise InvalidParameter(f"calibration grid must be >= 1, got {grid!r}")
    target = next(row.E_eV for row in rows if row.molecule == "CH" and row.n == 0 and row.l == 0)
    best: Optional[tuple[float, float, float]] = None
    for a in np.linspace(0.0, 5.0, grid):
        for b in np.linspace(0.0, 5.0, grid):
            dev = abs(_model_energy("CH", 0, 0, float(a), float(b), alpha, u) - target)
            if best is None or dev < best[0]:
                best = (dev, float(a), float(b))
    dev, a, b = best
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
    by_molecule: dict[str, list[ReferenceRow]] = {}
    for row in rows:
        by_molecule.setdefault(row.molecule, []).append(row)
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    for name, column in by_molecule.items():
        def sse(b: float) -> float:
            return sum((_model_energy(name, r.n, r.l, 1.0, b, alpha, u) - r.E_eV) ** 2 for r in column)

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
        worst = max(abs(_model_energy(name, r.n, r.l, 1.0, b_best, alpha, u) - r.E_eV) for r in column)
        out[name] = (b_best, worst)
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
