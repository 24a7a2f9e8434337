"""Command-line front-end.

Subcommands: levels, potential, sweep, validate, oracle-check.  Data streams
are deterministic (17-significant-digit CSV or sorted JSON, no timestamps);
only the validate report carries a timestamp, in a header comment.  Exit
codes: 0 success, 1 acceptance/check failure, 2 usage or parameter error
(an unreadable or non-UTF-8 input file, an oracle grid over its point budget),
3 no bound states at all, 141 when the reader of stdout closed it early.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import math
import os
import sys
from typing import Callable, Optional

from .errors import InvalidParameter, NoBoundState, ParseError, SolverError
from .molecules import Molecule, find_molecule, load_molecules, to_potential_params
from .nonrel import ParticleSpec, energy_nonrel, level_indices
from .potential import PotentialParams, potential_curve
from .units import UnitConstants, float_linspace, load_config

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NO_BOUND_STATE = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process that SIGPIPE ended


def _fmt(x) -> str:
    """One CSV cell: empty for None, 17 significant digits for a float, str otherwise."""
    if x is None:
        return ""
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def _emit(stream, lines) -> None:
    for line in lines:
        print(line, file=stream)


def _print_json(obj, out, **dump_options) -> None:
    """obj as one JSON line with sorted keys; json loads only for --format json."""
    import json

    print(json.dumps(obj, sort_keys=True, **dump_options), file=out)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--molecule", default=None, help="built-in or --molecule-file name")
    sub.add_argument("--molecule-file", default=None, help="CSV of molecule records")
    sub.add_argument("--a", type=float, default=0.0, help="Coulomb strength a (eV*A)")
    sub.add_argument("--b", type=float, default=0.0, help="Yukawa strength b (eV*A)")
    sub.add_argument("--alpha", type=float, default=0.025, help="screening parameter (1/A)")
    sub.add_argument("--De-cm", dest="De_cm", type=float, default=None, help="well depth (cm^-1), explicit mode")
    sub.add_argument("--re", type=float, default=None, help="equilibrium bond length (A), explicit mode")
    sub.add_argument("--mu-amu", dest="mu_amu", type=float, default=None, help="reduced mass (amu), explicit mode")
    sub.add_argument("--config", default=None, help="key = value file; unit constants and b_sign")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def _load_setup(args) -> tuple[str, PotentialParams, ParticleSpec, UnitConstants]:
    units, b_sign = load_config(args.config)
    if args.molecule is not None:
        pool = load_molecules(args.molecule_file) if args.molecule_file else None
        molecule = find_molecule(args.molecule, pool)
    elif args.De_cm is not None and args.re is not None and args.mu_amu is not None:
        molecule = Molecule("custom", args.De_cm, args.re, args.mu_amu)
    else:
        raise InvalidParameter("provide --molecule or all of --De-cm/--re/--mu-amu")
    params, part = to_potential_params(molecule, args.a, args.b, args.alpha, units, b_sign)
    return molecule.name, params, part, units


def _distinct(values: list, option: str, text: str) -> list:
    """The values parsed from option's comma list text; InvalidParameter if one repeats."""
    if len(set(values)) != len(values):
        raise InvalidParameter(f"repeated value in {option} list {text!r}")
    return values


def _parse_kappas(text: str) -> list[int]:
    try:
        kappas = [int(piece) for piece in text.split(",") if piece.strip()]
    except ValueError as exc:
        raise InvalidParameter(f"bad --kappa list {text!r}") from exc
    if not kappas or any(k == 0 for k in kappas):
        raise InvalidParameter("kappa list must be nonzero integers")
    return _distinct(kappas, "--kappa", text)


def _states(args) -> list[tuple[int, int, tuple]]:
    """(n, second label, state) of each level a levels table or sweep asks for, in output order.

    The second label is l for nonrel and kg and kappa for the Dirac models.
    The state is what follows (p, M) in the model's solver: (n, l) for
    energy_nonrel, (qn,) for kg and (kappa, C, n) for the Dirac models.
    """
    if args.n_max < 0:
        raise InvalidParameter(f"--n-max must be >= 0, got {args.n_max!r}")
    if args.model in ("nonrel", "kg"):
        l_max = args.n_max if args.l_max is None else args.l_max
        pairs = level_indices(args.n_max, l_max, args.rectangular)
    else:
        pairs = [(n, kappa) for n in range(args.n_max + 1) for kappa in _parse_kappas(args.kappa)]
    if args.model == "nonrel":
        return [(n, l, (n, l)) for n, l in pairs]
    if args.mass is None:
        raise InvalidParameter(f"--mass is required for model {args.model!r}")
    if not (math.isfinite(args.mass) and args.mass > 0.0):
        raise InvalidParameter(f"--mass must be finite and > 0, got {args.mass!r}")
    if args.model == "kg":
        from .relativistic import QuantumNumbers

        return [(n, l, (QuantumNumbers(n=n, l=l, D=args.dimension),)) for n, l in pairs]
    option, C = ("--cs", args.cs) if args.model == "dirac-spin" else ("--cps", args.cps)
    if not math.isfinite(C):
        raise InvalidParameter(f"{option} must be finite, got {C!r}")
    return [(n, kappa, (kappa, C, n)) for n, kappa in pairs]


def _level_solver(args, part: ParticleSpec) -> Callable:
    """The solver of args.model at part's hbar c, as level(p, state) for a state of _states(args).

    level returns (energies, defects): energies is None when the state has
    no bound level (its solver, energy_nonrel too, raised NoBoundState),
    and defects(E) gives the (residual, cross_check_residual) pair of a
    root, both None for nonrel.  An InvalidParameter that level raises
    comes from p or the mass, since _states has checked the other options.
    """
    if args.model == "nonrel":
        def nonrel_level(p: PotentialParams, state: tuple):
            try:
                return [energy_nonrel(p, part, *state)], lambda E: (None, None)
            except NoBoundState:
                return None, None

        return nonrel_level
    from .relativistic import model_functions

    solve, residual, printed, _ = model_functions(args.model)
    M, hbar_c = args.mass, part.hbar_c
    opts = {"hbar_c": hbar_c}
    if args.model != "kg":
        opts["all_roots"] = args.all_roots

    def level(p: PotentialParams, state: tuple):
        try:
            energies = solve(p, M, *state, **opts)
        except NoBoundState:
            energies = None

        def defects(E: float) -> tuple[Optional[float], Optional[float]]:
            return residual(p, M, E, *state, hbar_c=hbar_c), printed(p, M, E, *state, hbar_c=hbar_c)

        return energies, defects

    return level


def cmd_levels(args, out) -> int:
    if args.oracle and args.model != "nonrel":
        raise InvalidParameter(f"--oracle supports only --model nonrel, not {args.model}")
    name, params, part, _ = _load_setup(args)
    states = _states(args)
    l_label = args.model in ("nonrel", "kg")
    level = _level_solver(args, part)
    rows: list[dict] = []
    for n, second, state in states:
        energies, defects = level(params, state)
        row = {"molecule": name, "model": args.model, "n": n, "l": second if l_label else None,
               "kappa": None if l_label else second, "D": args.dimension if args.model == "kg" else None,
               "oracle_E_eV": None, "abs_dev_eV": None}
        if energies is None:
            rows.append({**row, "E_eV": None, "residual": None, "cross_check_residual": None,
                         "status": "no_bound_state"})
            continue
        for E in energies:
            res, cross = defects(E)
            rows.append({**row, "E_eV": E, "residual": res, "cross_check_residual": cross, "status": "ok"})
    if all(r["status"] != "ok" for r in rows):
        print("no bound states for any requested level", file=sys.stderr)
        return EXIT_NO_BOUND_STATE
    if args.oracle:
        from .oracle import dvr_energies

        # one DVR solve per l column supplies every bound n of that column
        bound = [r for r in rows if r["status"] == "ok"]
        columns = {l: dvr_energies(params, part, l, max(r["n"] for r in bound if r["l"] == l) + 1)[0]
                   for l in sorted({r["l"] for r in bound})}
        for r in bound:
            oe = float(columns[r["l"]][r["n"]])
            r.update(oracle_E_eV=oe, abs_dev_eV=abs(r["E_eV"] - oe))
    if args.format == "json":
        _print_json({"rows": rows}, out, separators=(",", ":"))
    else:
        header = ("molecule,model,n,l,E_eV,oracle_E_eV,abs_dev_eV" if args.model == "nonrel"
                  else "molecule,model,n,l,kappa,D,E_eV,residual,cross_check_residual")
        columns = header.split(",")
        _emit(out, [header])
        for r in rows:
            if r["status"] != "ok":
                # keep data rows strictly on the documented columns;
                # unsolved states surface as deterministic comments
                _emit(out, [f"# {r['status']}: n={r['n']} l={_fmt(r['l'])} kappa={_fmt(r['kappa'])}"])
            else:
                _emit(out, [",".join(_fmt(r[c]) for c in columns)])
    return EXIT_OK


def cmd_potential(args, out) -> int:
    _, params, _, _ = _load_setup(args)
    curve = potential_curve(params, args.r_min, args.r_max, args.samples)
    if args.format == "json":
        _print_json({"rows": [[f"{v:.17g}" for v in row] for row in curve]}, out)
    else:
        _emit(out, ["r,V_exact,V_approx"])
        for r, ve, va in curve:
            _emit(out, [f"{r:.17g},{ve:.17g},{va:.17g}"])
    return EXIT_OK


def _non_monotonic_shape(column: list[float], values: list[float], param: str) -> str:
    """The shape of a swept level that neither rises nor falls at every step.

    column holds the level at each of values, NaN where it was not solved.
    A valley's least level and a peak's greatest (the first step that holds
    it) lie strictly between the first and last solved steps; the least is
    named when both do, and neither when neither does (the curve turns more
    than once).
    """
    solved = [i for i, E in enumerate(column) if not math.isnan(E)]
    for kind, pick in (("min", min), ("max", max)):
        i = pick(solved, key=column.__getitem__)
        if solved[0] < i < solved[-1]:
            return f"non-monotonic ({kind} near {param} = {values[i]:.6g})"
    return "non-monotonic"


def cmd_sweep(args, out) -> int:
    _, params, part, units = _load_setup(args)
    if args.steps < 2:
        raise InvalidParameter(f"--steps must be >= 2, got {args.steps!r}")
    states = _states(args)
    values = float_linspace(args.start, args.stop, args.steps)
    field = {"De": "D_e", "re": "r_e"}.get(args.param, args.param)
    scale = units.cm_inv_to_ev if args.param == "De" else 1.0
    level = _level_solver(args, part)
    rows = []
    series: dict[tuple[int, int], list[float]] = {(n, second): [] for n, second, _ in states}
    for value in values:
        try:
            p_i = dataclasses.replace(params, **{field: value * scale})
        except InvalidParameter:
            p_i = None
        for n, second, state in states:
            energies, status = None, "invalid_parameter"
            if p_i is not None:
                try:
                    energies, _ = level(p_i, state)
                except InvalidParameter:  # e.g. a closed form that overflows at this step
                    pass
                else:
                    status = "ok" if energies else "no_bound_state"
            E = energies[0] if energies else None
            rows.append((value, n, second, E, status))
            series[(n, second)].append(math.nan if E is None else E)
    second_label = "l" if args.model in ("nonrel", "kg") else "kappa"
    shapes = []
    for (n, second), column in series.items():
        clean = [v for v in column if not math.isnan(v)]
        if len(clean) < 2:
            shape = "undetermined"
        elif all(y > x for x, y in zip(clean, clean[1:])):
            shape = "monotonic increasing"
        elif all(y < x for x, y in zip(clean, clean[1:])):
            shape = "monotonic decreasing"
        else:
            shape = _non_monotonic_shape(column, values, args.param)
        shapes.append(f"n={n} {second_label}={second}: {shape}")
    if args.format == "json":
        _print_json({
            "param": args.param,
            "rows": [[f"{v:.17g}", n, second, None if E is None else f"{E:.17g}", status]
                     for v, n, second, E, status in rows],
            "shape": shapes,
        }, out)
    else:
        _emit(out, [f"{args.param},n,{second_label},E_eV,status"])
        _emit(out, [",".join(map(_fmt, row)) for row in rows])
        for line in shapes:
            _emit(out, [f"# shape {line}"])
    return EXIT_OK


def cmd_validate(args, out) -> int:
    from datetime import datetime, timezone

    from . import validate as validate_mod

    units, _ = load_config(args.config)
    rows = validate_mod.load_reference(args.table2)
    validate_mod.check_reference_shape(rows)
    calibrated = None
    if args.calibrate:
        calibrated = validate_mod.calibrate(rows, args.alpha, grid=args.calibration_grid, u=units)
    stamp = None if args.no_timestamp else datetime.now(timezone.utc).isoformat()
    report, gates = validate_mod.build_report(rows, calibrated, args.a, args.b, args.alpha, units,
                                              timestamp=stamp, grid=args.calibration_grid)
    print(report, end="", file=out)
    return EXIT_OK if all(gates.values()) else EXIT_CHECK_FAILED


def cmd_oracle_check(args, out) -> int:
    from .checks import MODEL_CHECKS, ORACLE_CSV_HEADER, OracleEquivalence, check_oracle_equivalence, run_checks

    units, _ = load_config(args.config)
    names = _distinct([name for name in args.molecules.split(",") if name], "--molecules", args.molecules)
    molecules = [find_molecule(name) for name in names]
    models = _distinct([m for m in args.models.split(",") if m], "--models", args.models)
    if not models or not molecules:
        raise InvalidParameter("model and molecule lists must be nonempty")
    unknown = [m for m in models if m not in MODEL_CHECKS]
    if unknown:
        raise InvalidParameter(f"unknown models {unknown!r}")
    records = run_checks(molecules, models, args.alpha, units)
    if args.details:
        # the oracle-equivalence checks made these rows when nonrel was requested
        comparisons = {r.molecule: r.rows for r in records if isinstance(r, OracleEquivalence)}
        _emit(out, [ORACLE_CSV_HEADER])
        for mol in molecules:
            _emit(out, [f"# molecule = {mol.name}"])
            if mol.name not in comparisons:
                comparisons[mol.name] = check_oracle_equivalence(mol, args.alpha, units).rows
            _emit(out, comparisons[mol.name])
    verdicts = [record.verdict() for record in records]
    for name, ok, detail in verdicts:
        _emit(out, [f"{name} {'PASS' if ok else 'FAIL'} {detail}"])
    return EXIT_OK if all(ok for _, ok, _ in verdicts) else EXIT_CHECK_FAILED


def _add_states(sub: argparse.ArgumentParser, n_max: int) -> None:
    """The model and state options that levels and sweep share; n_max is the --n-max default."""
    sub.add_argument("--model", choices=("nonrel", "kg", "dirac-spin", "dirac-pseudospin"), default="nonrel")
    sub.add_argument("--n-max", dest="n_max", type=int, default=n_max)
    sub.add_argument("--l-max", dest="l_max", type=int, default=None)
    sub.add_argument("--rectangular", action="store_true", help="full (n, l) grid instead of l <= n")
    sub.add_argument("--mass", type=float, default=None, help="M (eV), relativistic models")
    sub.add_argument("--cs", type=float, default=0.0, help="spin-symmetry constant C_s (eV)")
    sub.add_argument("--cps", type=float, default=0.0, help="pseudospin constant C_ps (eV)")
    sub.add_argument("--kappa", default="-1", help="comma list of kappa values")
    sub.add_argument("--dimension", type=int, default=3, help="D for the kg model")
    sub.add_argument("--all-roots", dest="all_roots", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hgmorse",
                                     description="Bound-state spectra for the Hellmann plus generalized-Morse potential")
    sub = parser.add_subparsers(dest="command", required=True)

    p_levels = sub.add_parser("levels", help="energy level table")
    _add_common(p_levels)
    _add_states(p_levels, n_max=5)
    p_levels.add_argument("--oracle", action="store_true",
                          help="add DVR-oracle deviation columns (nonrel only; a usage error for other models)")
    p_levels.set_defaults(func=cmd_levels)

    p_pot = sub.add_parser("potential", help="potential curve samples")
    _add_common(p_pot)
    p_pot.add_argument("--r-min", dest="r_min", type=float, default=0.5)
    p_pot.add_argument("--r-max", dest="r_max", type=float, default=10.0)
    p_pot.add_argument("--samples", type=int, default=200)
    p_pot.set_defaults(func=cmd_potential)

    p_sweep = sub.add_parser("sweep", help="parameter sweep of energy levels")
    _add_common(p_sweep)
    _add_states(p_sweep, n_max=0)
    p_sweep.add_argument("--param", choices=("alpha", "a", "b", "De", "re"), required=True)
    p_sweep.add_argument("--from", dest="start", type=float, required=True)
    p_sweep.add_argument("--to", dest="stop", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="score against the shipped reference table")
    p_val.add_argument("--table2", default=None, help="reference CSV (default: packaged)")
    p_val.add_argument("--calibrate", action="store_true")
    p_val.add_argument("--calibration-grid", type=int, default=51)
    p_val.add_argument("--a", type=float, default=0.0)
    p_val.add_argument("--b", type=float, default=0.0)
    p_val.add_argument("--alpha", type=float, default=0.025)
    p_val.add_argument("--config", default=None)
    p_val.add_argument("--no-timestamp", action="store_true", help="omit the header timestamp comment")
    p_val.set_defaults(func=cmd_validate)

    p_chk = sub.add_parser("oracle-check", help="closed-form vs oracle comparisons")
    p_chk.add_argument("--molecules", default="CH", help="comma list of built-in molecules")
    p_chk.add_argument("--models", default="nonrel,kg",
                       help="comma list from {nonrel,kg,dirac-spin,dirac-pseudospin}")
    p_chk.add_argument("--alpha", type=float, default=0.025)
    p_chk.add_argument("--config", default=None)
    p_chk.add_argument("--details", action="store_true",
                       help="also emit the per-level comparison CSV before the pass/fail lines")
    p_chk.set_defaults(func=cmd_oracle_check)

    return parser


def _glue_negative_values(argv: list[str]) -> list[str]:
    """Rewrite `--option -1e-1` as `--option=-1e-1`.

    argparse reads a dash-led value that is not a plain negative number (an
    exponent form, the comma list `--kappa -1,1,-2`) as an option string.  No
    option starts with a dash and then a digit or a point.
    """
    out: list[str] = []
    for token in argv:
        option = out[-1] if out else ""
        dash_value = token[:1] == "-" and (token[1:2].isdigit() or token[1:2] == ".")
        if dash_value and option[:2] == "--" and len(option) > 2 and "=" not in option:
            out[-1] = f"{option}={token}"
        else:
            out.append(token)
    return out


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_glue_negative_values(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        code = args.func(args, sys.stdout)
        sys.stdout.flush()  # a closed pipe surfaces here, not in the interpreter's exit flush
        return code
    except (InvalidParameter, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader of stdout went away (`| head`); what is still buffered goes to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except NoBoundState as exc:
        print(f"no bound states: {exc}", file=sys.stderr)
        return EXIT_NO_BOUND_STATE
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


def run() -> None:
    """Process entry (`hgmorse`, `python -m hgmorse.cli`): main() on sys.argv, then exit with its code.

    The heap is frozen first, so the collections that interpreter shutdown
    runs skip every object the command made; atexit handlers and stream
    flushes still run.  main() itself never freezes, since one process may
    call it many times.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
