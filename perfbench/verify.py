"""Output checks for every benchmark operation, and the golden comparison.

`check_cli` and `check_state` return an Outcome: the problems found (an
operation with any problem counts as failed), the energy levels or states it
delivered, the largest |closed - FD| it reported, and a golden record.  The
record keeps what must repeat between commits:

* `text`: sha256 over the byte-identical part (nonrelativistic closed-form
  columns, potential curves, validate reports, oracle-check verdict lines
  with their "in X.X s" timing removed);
* `roots` with tolerance `tol` = 1e-8 M for relativistic energies;
* `log_norm`, compared within 1e-9.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field
from typing import Optional

ORACLE_TOL_EV = 5e-4
RESIDUAL_TOL = 1e-9
LOG_NORM_TOL = 1e-9
ROOT_TOL_PER_M = 1e-8
GRID_NORM_TOL = 1e-4

_TIMING = re.compile(r" in \d+(\.\d+)? s")
_VERDICT = re.compile(r"^(\S+) (PASS|FAIL) ")


@dataclass
class Outcome:
    problems: list = field(default_factory=list)
    levels: int = 0
    max_dev: Optional[float] = None
    record: dict = field(default_factory=dict)

    def dev(self, value: float) -> None:
        if not value <= ORACLE_TOL_EV:
            self.problems.append(f"|closed - FD| = {value!r} eV > {ORACLE_TOL_EV}")
        self.max_dev = value if self.max_dev is None else max(self.max_dev, value)


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _flag(argv: list[str], name: str, default: Optional[str] = None) -> Optional[str]:
    for i, arg in enumerate(argv):
        if arg == name:
            return argv[i + 1]
        if arg.startswith(name + "="):
            return arg.split("=", 1)[1]
    return default


def _rows(stdout: str, header: str, out: Outcome) -> list[list[str]]:
    lines = stdout.splitlines()
    if not lines or lines[0] != header:
        out.problems.append(f"expected header {header!r}, got {lines[:1]!r}")
        return []
    return [line.split(",") for line in lines[1:] if not line.startswith("#")]


def _float(text: str, out: Outcome) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        out.problems.append(f"non-finite number {text!r}")
    return value


def check_cli(argv: list[str], rc: int, stdout: str) -> Outcome:
    """Check one CLI operation's exit code and output."""
    out = Outcome()
    if rc != 0:
        out.problems.append(f"exit code {rc}")
        return out
    command = argv[0]
    model = _flag(argv, "--model", "nonrel")
    relativistic = model != "nonrel"
    if relativistic:
        M = float(_flag(argv, "--mass"))
        out.record["tol"] = ROOT_TOL_PER_M * M
    if command == "levels" and not relativistic:
        rows = _rows(stdout, "molecule,model,n,l,E_eV,oracle_E_eV,abs_dev_eV", out)
        oracle = "--oracle" in argv
        for row in rows:
            _float(row[4], out)
            if oracle:
                out.dev(_float(row[6], out))
        out.levels = len(rows)
        out.record["text"] = _digest(",".join(row[:5]) for row in rows)
    elif command == "levels":
        lines = stdout.splitlines()
        rows = _rows(stdout, "molecule,model,n,l,kappa,D,E_eV,residual,cross_check_residual", out)
        roots = []
        for row in rows:
            roots.append(_float(row[6], out))
            residual = _float(row[7], out)
            if not abs(residual) <= RESIDUAL_TOL:
                out.problems.append(f"residual {residual!r} > {RESIDUAL_TOL} at {','.join(row[:6])}")
        out.levels = len(rows)
        out.record["roots"] = roots
        out.record["text"] = _digest(line if line.startswith("#") else ",".join(line.split(",")[:6])
                                     for line in lines)
    elif command == "sweep":
        second = "l" if model in ("nonrel", "kg") else "kappa"
        rows = _rows(stdout, f"{_flag(argv, '--param')},n,{second},E_eV,status", out)
        steps = int(_flag(argv, "--steps"))
        if not rows or len(rows) % steps:
            out.problems.append(f"{len(rows)} sweep rows for {steps} steps")
        ok = [row for row in rows if row[4] == "ok"]
        for row in ok:
            _float(row[3], out)
        out.levels = len(ok)
        if relativistic:
            out.record["roots"] = [float(row[3]) for row in ok]
            out.record["text"] = _digest(line if line.startswith("#") else
                                         ",".join(line.split(",")[:3] + line.split(",")[4:])
                                         for line in stdout.splitlines())
        else:
            out.record["text"] = _digest(stdout.splitlines())
    elif command == "potential":
        rows = _rows(stdout, "r,V_exact,V_approx", out)
        if len(rows) != int(_flag(argv, "--samples")):
            out.problems.append(f"{len(rows)} potential rows for {_flag(argv, '--samples')} samples")
        out.record["text"] = _digest(stdout.splitlines())
    elif command == "validate":
        lines = stdout.splitlines()
        scored = [line for line in lines if line.startswith("entries scored: ")]
        if not scored or not lines[-1].startswith("signature: sha256 "):
            out.problems.append("validate report lacks its scored-entries or signature line")
        else:
            out.levels = int(scored[0].split(": ")[1])
        out.record["text"] = _digest(lines)
    elif command == "oracle-check":
        out.record["text"] = _check_oracle(argv, stdout, out)
    else:
        out.problems.append(f"unknown command {command!r}")
    return out


def _check_oracle(argv: list[str], stdout: str, out: Outcome) -> str:
    header = "model,n,l,E_closed,E_oracle,abs_dev,grid_points,extrapolated"
    lines = stdout.splitlines()
    if not lines or lines[0] != header:
        out.problems.append(f"expected header {header!r}, got {lines[:1]!r}")
        return ""
    kept, verdicts = [], 0
    for line in lines[1:]:
        match = _VERDICT.match(line)
        if line.startswith("#"):
            kept.append(line)
        elif match:
            verdicts += 1
            if match.group(2) != "PASS":
                out.problems.append(f"oracle-check verdict: {line}")
            levels = re.search(r"(\d+) levels,", line)
            if levels:
                out.levels += int(levels.group(1))
            kept.append(_TIMING.sub("", line))
        else:
            row = line.split(",")
            _float(row[3], out)
            out.dev(_float(row[5], out))
            out.levels += 1
            kept.append(",".join(row[:4]))
    molecules = _flag(argv, "--molecules").split(",")
    if verdicts != len(molecules) + 5:
        out.problems.append(f"{verdicts} oracle-check verdicts for {len(molecules)} molecules")
    return _digest(kept)


def check_state(op: dict, reply: dict) -> Outcome:
    """Check one wavefunction operation's reply from the worker."""
    out = Outcome()
    status = reply.get("status")
    out.record["status"] = status
    if status == "no_bound_state" and op["kind"] != "nonrel":
        return out
    if status != "ok":
        out.problems.append(f"status {status}: {reply.get('detail')}")
        return out
    if not reply.get("finite"):
        out.problems.append("non-finite wavefunction value on the r-grid")
    else:
        err = abs(reply["grid_norm"] - 1.0)
        if not err <= GRID_NORM_TOL:
            out.problems.append(f"|grid norm - 1| = {err!r} > {GRID_NORM_TOL}")
    log_norm = reply.get("log_norm")
    if not (isinstance(log_norm, float) and math.isfinite(log_norm)):
        out.problems.append(f"log_norm {log_norm!r} not finite")
    out.record["log_norm"] = log_norm
    if op["kind"] == "nonrel":
        out.record["text"] = repr(reply["E"])
    else:
        residual = reply.get("residual")
        if not (isinstance(residual, float) and abs(residual) <= RESIDUAL_TOL):
            out.problems.append(f"residual {residual!r} > {RESIDUAL_TOL}")
        out.record["roots"] = [reply["E"]]
        out.record["tol"] = ROOT_TOL_PER_M * op["M"]
    out.levels = 1
    return out


def compare_golden(record: dict, golden: dict) -> list[str]:
    """Problems where an operation's record departs from its golden record."""
    problems = []
    for key in ("text", "status"):
        if record.get(key) != golden.get(key):
            problems.append(f"golden mismatch in {key}: {record.get(key)!r} != {golden.get(key)!r}")
    roots, want = record.get("roots"), golden.get("roots")
    if (roots is None) != (want is None) or (roots is not None and len(roots) != len(want)):
        problems.append(f"golden mismatch in root count: {roots!r} != {want!r}")
    elif roots is not None:
        worst = max((abs(r - w) for r, w in zip(roots, want)), default=0.0)
        if not worst <= golden["tol"]:
            problems.append(f"golden mismatch: root moved by {worst!r} > {golden['tol']!r}")
    if "log_norm" in golden:
        got, ref = record.get("log_norm"), golden["log_norm"]
        if not (isinstance(got, float) and isinstance(ref, float) and abs(got - ref) <= LOG_NORM_TOL):
            problems.append(f"golden mismatch in log_norm: {got!r} != {ref!r}")
    return problems
