"""In-process worker for the `wavefunctions` workload.

Prints {"ready": true} once imported, then reads one operation per stdin
line (JSON), runs it through the public library API and answers with one
JSON line: latency, the state's energy and log_norm, and the checks' inputs
(grid norm, residual).  An empty line ends the worker; it then reports its
peak RSS and, when tracing, writes its spans.

    python perfbench/wfworker.py [SPANS_FILE]
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time

import numpy as np

import hgmorse.checks as checks
import hgmorse.nonrel as nonrel
import hgmorse.relativistic as rel
import hgmorse.wavefun as wavefun
from hgmorse.errors import NoBoundState
from hgmorse.molecules import find_molecule, to_potential_params
from hgmorse.units import DEFAULT_UNITS

#: points of the user r-grid spanning the state's support window
GRID_POINTS = 401


def _grid(leading: float, edge: float, n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """r-grid over the support window, quadratically graded towards its
    inner end (where pseudospin states vanish like r^edge with edge ~ 1),
    and dr/dx for the uniform parameter x in [0, 1]."""
    r_lo, r_hi = wavefun.support_window(wavefun.SWaveform(leading, edge, n, alpha))
    x = np.linspace(0.0, 1.0, GRID_POINTS)
    return r_lo + (r_hi - r_lo) * x * x, 2.0 * (r_hi - r_lo) * x


def run_op(op: dict) -> dict:
    """One state: solve (relativistic kinds), normalize, evaluate on a grid."""
    hc = DEFAULT_UNITS.hbar_c
    p, part = to_potential_params(find_molecule(op["mol"]), op["a"], op["b"], op["alpha"], DEFAULT_UNITS)
    kind, n, M = op["kind"], op["n"], op.get("M")
    out: dict = {"E": None, "log_norm": None, "residual": None}
    if kind == "nonrel":
        spec = nonrel.make_wavefunction(p, part, n, op["l"])
        out["E"] = nonrel.energy_nonrel(p, part, n, op["l"])
        rs, jac = _grid(spec.omega, spec.phi_exp, n, spec.alpha)
        values = [nonrel.radial_wavefunction(spec, float(r)) for r in rs]
    else:
        if kind == "kg":
            ps = checks.scaled_params(p, part, M)
            qn = rel.QuantumNumbers(n=n, l=op["l"])
            E = rel.solve_kg_energy(ps, M, qn)[0]
            spec = rel.kg_wavefunction_spec(ps, M, E, qn)
            out["residual"] = rel.kg_residual(ps, M, E, qn)
        elif kind == "spin":
            ps = checks.scaled_params(p, part, M)
            E = rel.solve_dirac_spin(ps, M, op["kappa"], 0.0, n)[0]
            spec = rel.upper_spinor_spec(ps, M, E, op["kappa"], 0.0, n)
            out["residual"] = rel.spin_residual(ps, M, E, op["kappa"], 0.0, n)
        else:
            ps = checks.pseudospin_params(p, M, hc)
            E = rel.solve_dirac_pseudospin(ps, M, op["kappa"], 0.0, n)[0]
            spec = rel.lower_spinor_spec(ps, M, E, op["kappa"], 0.0, n)
            out["residual"] = rel.pseudospin_residual(ps, M, E, op["kappa"], 0.0, n)
        out["E"] = E
        rs, jac = _grid(spec.leading_exp, spec.edge_exp, n, spec.alpha)
        values = [rel.rel_radial_value(spec, float(r)) for r in rs]
    out["log_norm"] = spec.log_norm
    u = np.asarray(values)
    out["finite"] = bool(np.all(np.isfinite(u)))
    if out["finite"]:
        f = u * u * jac
        out["grid_norm"] = float((f.sum() - 0.5 * (f[0] + f[-1])) / (GRID_POINTS - 1))
    return out


def main() -> int:
    log = None
    absent: list[str] = []
    if len(sys.argv) > 1:
        import spans

        log = spans.SpanLog()
        absent = spans.install(log)
        op_span = log.intern("workload.op")
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        if not line.strip():
            break
        op = json.loads(line)
        reply: dict
        t0 = time.perf_counter()
        try:
            if log is not None:
                log.op_id = op["id"]
                i = log.open(op_span)
                try:
                    reply = run_op(op)
                finally:
                    log.close(i)
            else:
                reply = run_op(op)
            reply["status"] = "ok"
        except NoBoundState as exc:
            reply = {"status": "no_bound_state", "detail": str(exc)}
        except Exception as exc:  # reported as a failed operation, the loop goes on
            reply = {"status": "error", "detail": f"{type(exc).__name__}: {exc}"}
        reply["lat"] = time.perf_counter() - t0
        for key in ("E", "log_norm", "grid_norm", "residual"):
            if isinstance(reply.get(key), float) and not math.isfinite(reply[key]):
                reply[key] = repr(reply[key])
        print(json.dumps(reply), flush=True)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"rss_mb": rss_mb}), flush=True)
    if log is not None:
        log.dump(sys.argv[1], absent)
    return 0


if __name__ == "__main__":
    sys.exit(main())
