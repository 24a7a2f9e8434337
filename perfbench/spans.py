"""In-memory span recorder for the traced benchmark run.

The program is traced from outside: after `hgmorse` is imported, each
public function named in TARGETS is replaced by a wrapper in every hgmorse
module that binds it, so callers that imported the name directly (`from
.rootfind import scan_brackets`) reach the wrapper too.  A wrapper records
one span (name, start, end, parent span, operation id) plus two work fields
`a`, `b` and a `flag`, whose meaning depends on the span (see TARGETS).
Spans are kept in flat arrays and written out once, when the process ends.

Run as a script it is the traced CLI entry point:

    python perfbench/spans.py SPANS_FILE OP_ID -- <hgmorse CLI arguments>
"""

from __future__ import annotations

import array
import importlib
import json
import sys
import time

_FIELDS = (("name", "i"), ("parent", "i"), ("op", "i"), ("start", "d"), ("end", "d"),
           ("a", "d"), ("b", "d"), ("flag", "b"))


class SpanLog:
    """Flat arrays of spans; `stack` holds the indices of the open ones."""

    def __init__(self, op_id: int = 0) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.cols = {field: array.array(code) for field, code in _FIELDS}
        self.stack: list[int] = []
        self.op_id = op_id

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        c = self.cols
        i = len(c["name"])
        c["name"].append(name_id)
        c["parent"].append(self.stack[-1] if self.stack else -1)
        c["op"].append(self.op_id)
        c["end"].append(0.0)
        c["a"].append(0.0)
        c["b"].append(0.0)
        c["flag"].append(0)
        self.stack.append(i)
        c["start"].append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.cols["end"][i] = time.perf_counter()
        self.stack.pop()

    def count_innermost(self, k: float) -> None:
        if self.stack:
            self.cols["a"][self.stack[-1]] += k

    def dump(self, path: str, absent: list[str]) -> None:
        with open(path, "wb") as fh:
            header = {"names": self.names, "count": len(self.cols["name"]), "absent": absent}
            fh.write(json.dumps(header).encode() + b"\n")
            for field, _ in _FIELDS:
                fh.write(self.cols[field].tobytes())


def load(path: str) -> tuple[dict, dict]:
    """(header, columns) of a file written by SpanLog.dump."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = {}
        for field, code in _FIELDS:
            col = array.array(code)
            col.fromfile(fh, header["count"])
            cols[field] = col
    return header, cols


# -- what each wrapper records -----------------------------------------------


def _arg(args, kwargs, pos, key):
    return kwargs[key] if key in kwargs else args[pos]


def _count_calls_of_first_arg(log, i, args, kwargs):
    """Wrap the callable first argument so its evaluations add up in span field a."""
    f = args[0]
    a = log.cols["a"]

    def counted(x):
        a[i] += 1
        return f(x)

    return (counted,) + args[1:], kwargs


def _fd_rows(log, i, args, kwargs, result):
    log.cols["a"][i] = _arg(args, kwargs, 3, "g").points - 2


def _shoot_steps(log, i, args, kwargs, result):
    log.cols["a"][i] = _arg(args, kwargs, 2, "g").points - 1


def _grid_points(log, i, args, kwargs, result):
    log.cols["a"][i] = result[0].points


def _true_flag(log, i, args, kwargs, result):
    log.cols["flag"][i] = 1 if result else 0


def _result_len(log, i, args, kwargs, result):
    log.cols["b"][i] = len(result)


#: (span name, module, attribute, argument hook, result hook, flagged exception)
TARGETS = (
    ("cli.main", "hgmorse.cli", "main", None, None, None),
    ("oracle.fd_schrodinger_eigen", "hgmorse.oracle", "fd_schrodinger_eigen", None, _fd_rows, None),
    ("oracle.adapted_range", "hgmorse.oracle", "adapted_range", None, None, None),
    ("oracle.oracle_energies", "hgmorse.oracle", "oracle_energies", None, None, None),
    ("oracle.shoot_mismatch", "hgmorse.oracle", "shoot_mismatch", None, _shoot_steps, None),
    ("oracle.shooting_grid", "hgmorse.oracle", "shooting_grid", None, _grid_points, None),
    ("oracle.mismatch_sign_change", "hgmorse.oracle", "mismatch_sign_change", None, _true_flag, None),
    ("rootfind.scan_brackets", "hgmorse.rootfind", "scan_brackets", _count_calls_of_first_arg, _result_len, None),
    ("rootfind.bisect", "hgmorse.rootfind", "bisect", _count_calls_of_first_arg, None, "NonConvergence"),
    ("relativistic.solve_kg_energy", "hgmorse.relativistic", "solve_kg_energy", None, _result_len, "NoBoundState"),
    ("relativistic.solve_dirac_spin", "hgmorse.relativistic", "solve_dirac_spin", None, _result_len, "NoBoundState"),
    ("relativistic.solve_dirac_pseudospin", "hgmorse.relativistic", "solve_dirac_pseudospin", None, _result_len,
     "NoBoundState"),
    ("relativistic.residual", "hgmorse.relativistic", "kg_residual", None, None, None),
    ("relativistic.residual", "hgmorse.relativistic", "spin_residual", None, None, None),
    ("relativistic.residual", "hgmorse.relativistic", "pseudospin_residual", None, None, None),
    ("relativistic.spec", "hgmorse.relativistic", "kg_wavefunction_spec", None, None, None),
    ("relativistic.spec", "hgmorse.relativistic", "upper_spinor_spec", None, None, None),
    ("relativistic.spec", "hgmorse.relativistic", "lower_spinor_spec", None, None, None),
    ("nonrel.energy_nonrel", "hgmorse.nonrel", "energy_nonrel", None, None, None),
    ("nonrel.make_wavefunction", "hgmorse.nonrel", "make_wavefunction", None, None, None),
    ("validate.calibrate", "hgmorse.validate", "calibrate", None, None, None),
    ("validate.per_molecule_diagnostics", "hgmorse.validate", "per_molecule_diagnostics", None, None, None),
    ("wavefun.log_norm_quadrature", "hgmorse.wavefun", "log_norm_quadrature", None, None, None),
    ("wavefun.value", "hgmorse.wavefun", "value", None, None, None),
    ("specfun.hyp2f1_terminating", "hgmorse.specfun", "hyp2f1_terminating", None, None, None),
    ("checks.oracle_equivalence", "hgmorse.checks", "check_oracle_equivalence", None, None, None),
    ("checks.relativistic_residuals", "hgmorse.checks", "check_relativistic_residuals", None, None, None),
    ("checks.cross_identities", "hgmorse.checks", "check_cross_identities", None, None, None),
    ("checks.special_functions", "hgmorse.checks", "check_special_functions", None, None, None),
    ("checks.normalization", "hgmorse.checks", "check_normalization", None, None, None),
    ("checks.box_self_test", "hgmorse.checks", "check_box_self_test", None, None, None),
)

#: counters without spans: each call adds to field a of the innermost open
#: span.  The exact-rational 2F1 fallback counts per hyp2f1 call; each
#: log_abs_and_sign evaluation counts the nodes of log_norm_quadrature.
COUNTERS = (
    ("hgmorse.specfun", "_hyp2f1_exact", lambda args, kwargs: 1),
    ("hgmorse.wavefun", "log_abs_and_sign", lambda args, kwargs: getattr(_arg(args, kwargs, 1, "r"), "size", 1)),
)


def _span_wrapper(log, name_id, fn, prepare, finish, flagged):
    cols = log.cols

    def wrapper(*args, **kwargs):
        i = log.open(name_id)
        try:
            if prepare is not None:
                args, kwargs = prepare(log, i, args, kwargs)
            result = fn(*args, **kwargs)
        except BaseException as exc:
            if flagged is not None and type(exc).__name__ == flagged:
                cols["flag"][i] = 1
            log.close(i)
            raise
        log.close(i)
        if finish is not None:
            finish(log, i, args, kwargs, result)
        return result

    return wrapper


def _counter_wrapper(log, fn, weight):
    def wrapper(*args, **kwargs):
        log.count_innermost(weight(args, kwargs))
        return fn(*args, **kwargs)

    return wrapper


def _rebind(original, replacement, namespaces) -> None:
    for ns in namespaces:
        for key, value in list(vars(ns).items()):
            if value is original:
                setattr(ns, key, replacement)


def install(log: SpanLog, extra_namespaces=()) -> list[str]:
    """Patch every target at each place it is bound; return the absent ones."""
    absent = []
    wanted = {mod for _, mod, *_ in TARGETS} | {mod for mod, _, _ in COUNTERS}
    for mod in sorted(wanted):
        try:
            importlib.import_module(mod)
        except ImportError:
            absent.append(mod)
    namespaces = [m for key, m in list(sys.modules.items())
                  if m is not None and (key == "hgmorse" or key.startswith("hgmorse."))]
    namespaces += list(extra_namespaces)
    for name, mod, attr, prepare, finish, flagged in TARGETS:
        fn = getattr(sys.modules.get(mod), attr, None)
        if fn is None:
            absent.append(f"{mod}.{attr}")
            continue
        _rebind(fn, _span_wrapper(log, log.intern(name), fn, prepare, finish, flagged), namespaces)
    for mod, attr, weight in COUNTERS:
        fn = getattr(sys.modules.get(mod), attr, None)
        if fn is None:
            absent.append(f"{mod}.{attr}")
            continue
        _rebind(fn, _counter_wrapper(log, fn, weight), namespaces)
    return absent


def main() -> int:
    out_path, op_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: spans.py SPANS_FILE OP_ID -- <hgmorse CLI arguments>")
    log = SpanLog(int(op_id))
    i = log.open(log.intern("setup.import"))
    import hgmorse.cli
    log.close(i)
    absent = install(log)
    try:
        rc = hgmorse.cli.main(argv)
    finally:
        sys.stdout.flush()
        log.dump(out_path, absent)
    return rc


if __name__ == "__main__":
    sys.exit(main())
