"""Command-line front-end.

Subcommands: levels, potential, sweep, validate, oracle-check.  Data streams
are deterministic (17-significant-digit CSV or sorted JSON, no timestamps);
only the validate report carries a timestamp, in a header comment.  Exit
codes: 0 success, 1 acceptance/check failure, 2 usage or parameter error,
3 no bound states at all.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone
from typing import Optional

import numpy as np

from . import validate as validate_mod
from .errors import GridTooCoarse, InvalidParameter, NoBoundState, ParseError, SolverError
from .molecules import Molecule, find_molecule, load_molecules, to_potential_params
from .nonrel import ParticleSpec, energy_nonrel, level_indices, spectrum_table
from .potential import PotentialParams, potential_curve
from .relativistic import QuantumNumbers, model_functions
from .units import UnitConstants, read_config

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NO_BOUND_STATE = 3

#: the keys a --config file may set
_CONFIG_KEYS = ("hbar_c", "cm_inv_to_ev", "amu_to_ev", "b_sign")


def _fmt(x: Optional[float]) -> str:
    if x is None:
        return ""
    return f"{x:.17g}"


def _emit(stream, lines) -> None:
    for line in lines:
        print(line, file=stream)


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


def _load_config(args) -> tuple[dict, UnitConstants]:
    """The --config keys and the unit constants they set; InvalidParameter on an unknown key."""
    cfg = read_config(args.config) if args.config else {}
    unknown = sorted(set(cfg) - set(_CONFIG_KEYS))
    if unknown:
        raise InvalidParameter(f"unknown config keys {unknown!r} in {args.config}; "
                               f"known keys: {', '.join(_CONFIG_KEYS)}")
    return cfg, UnitConstants.from_mapping(cfg)


def _load_setup(args) -> tuple[str, PotentialParams, ParticleSpec, UnitConstants]:
    cfg, units = _load_config(args)
    try:
        b_sign = float(cfg.get("b_sign", "1"))
    except ValueError as exc:
        raise InvalidParameter(f"config key b_sign: {cfg['b_sign']!r} is not a number") from exc
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


def _dirac_states(args) -> list[tuple[int, int]]:
    """The (n, kappa) pairs of a Dirac levels table or sweep, in output order."""
    if args.n_max < 0:
        raise InvalidParameter(f"--n-max must be >= 0, got {args.n_max!r}")
    kappas = _parse_kappas(args.kappa)
    return [(n, kappa) for n in range(args.n_max + 1) for kappa in kappas]


def _relativistic_levels(args, p: PotentialParams, hbar_c: float):
    """Solve each requested state of a relativistic model, in output order.

    Yields (labels, energies, defects): labels holds the n, l, kappa and D
    columns, energies is None when the state has no bound level, and
    defects(E) gives the (residual, cross_check_residual) pair of a root.
    """
    solve, residual, printed, _ = model_functions(args.model)
    M = args.mass
    opts = {"scan_points": args.scan_points, "tol": args.tol, "hbar_c": hbar_c}
    if args.model == "kg":
        l_max = args.n_max if args.l_max is None else args.l_max
        states = [({"n": n, "l": l, "kappa": None, "D": args.dimension},
                   (QuantumNumbers(n=n, l=l, D=args.dimension),))
                  for n, l in level_indices(args.n_max, l_max, args.rectangular)]
    else:
        C = args.cs if args.model == "dirac-spin" else args.cps
        opts["all_roots"] = args.all_roots
        states = [({"n": n, "l": None, "kappa": kappa, "D": None}, (kappa, C, n)) for n, kappa in _dirac_states(args)]
    for labels, state in states:
        try:
            energies = solve(p, M, *state, **opts)
        except NoBoundState:
            energies = None

        def defects(E: float, state=state) -> tuple[Optional[float], float]:
            return residual(p, M, E, *state, hbar_c=hbar_c), printed(p, M, E, *state, hbar_c=hbar_c)

        yield labels, energies, defects


def cmd_levels(args, out) -> int:
    name, params, part, units = _load_setup(args)
    l_max = args.n_max if args.l_max is None else args.l_max
    rows: list[dict] = []
    any_ok = False
    if args.model == "nonrel":
        for row in spectrum_table(name, params, part, args.n_max, l_max, oracle=args.oracle,
                                  oracle_points=args.grid_points, rectangular=args.rectangular):
            rows.append({
                "molecule": row.molecule, "model": row.model, "n": row.n, "l": row.l,
                "kappa": None, "D": None, "E_eV": row.E_eV,
                "oracle_E_eV": row.oracle_E_eV, "abs_dev_eV": row.abs_dev_eV,
                "residual": None, "cross_check_residual": None, "status": "ok",
            })
        any_ok = bool(rows)
    else:
        if args.mass is None:
            raise InvalidParameter(f"--mass is required for model {args.model!r}")
        for labels, energies, defects in _relativistic_levels(args, params, units.hbar_c):
            row = {"molecule": name, "model": args.model, **labels, "oracle_E_eV": None, "abs_dev_eV": None}
            if energies is None:
                rows.append({**row, "E_eV": None, "residual": None, "cross_check_residual": None,
                             "status": "no_bound_state"})
                continue
            any_ok = True
            for E in energies:
                res, cross = defects(E)
                rows.append({**row, "E_eV": E, "residual": res, "cross_check_residual": cross, "status": "ok"})
    if not any_ok:
        print("no bound states for any requested level", file=sys.stderr)
        return EXIT_NO_BOUND_STATE
    if args.format == "json":
        print(json.dumps({"rows": rows}, sort_keys=True, indent=None, separators=(",", ":"),
                         default=lambda v: None), file=out)
    else:
        if args.model == "nonrel":
            _emit(out, ["molecule,model,n,l,E_eV,oracle_E_eV,abs_dev_eV"])
            for r in rows:
                _emit(out, [f"{r['molecule']},{r['model']},{r['n']},{r['l']},{_fmt(r['E_eV'])},"
                            f"{_fmt(r['oracle_E_eV'])},{_fmt(r['abs_dev_eV'])}"])
        else:
            _emit(out, ["molecule,model,n,l,kappa,D,E_eV,residual,cross_check_residual"])
            for r in rows:
                l_txt = "" if r["l"] is None else str(r["l"])
                k_txt = "" if r["kappa"] is None else str(r["kappa"])
                d_txt = "" if r["D"] is None else str(r["D"])
                if r["status"] != "ok":
                    # keep data rows strictly on the documented columns;
                    # unsolved states surface as deterministic comments
                    _emit(out, [f"# {r['status']}: n={r['n']} l={l_txt} kappa={k_txt}"])
                else:
                    _emit(out, [f"{r['molecule']},{r['model']},{r['n']},{l_txt},{k_txt},{d_txt},"
                                f"{_fmt(r['E_eV'])},{_fmt(r['residual'])},{_fmt(r['cross_check_residual'])}"])
    return EXIT_OK


def cmd_potential(args, out) -> int:
    _, params, _, _ = _load_setup(args)
    curve = potential_curve(params, args.r_min, args.r_max, args.samples)
    if args.format == "json":
        print(json.dumps({"rows": [[f"{v:.17g}" for v in row] for row in curve]}, sort_keys=True), file=out)
    else:
        _emit(out, ["r,V_exact,V_approx"])
        for r, ve, va in curve:
            _emit(out, [f"{r:.17g},{ve:.17g},{va:.17g}"])
    return EXIT_OK


def cmd_sweep(args, out) -> int:
    name, params, part, units = _load_setup(args)
    if args.steps < 2:
        raise InvalidParameter(f"--steps must be >= 2, got {args.steps!r}")
    if args.model != "nonrel" and args.mass is None:
        raise InvalidParameter(f"--mass is required for model {args.model!r}")
    values = np.linspace(args.start, args.stop, args.steps)
    l_max = args.n_max if args.l_max is None else args.l_max
    if args.model in ("nonrel", "kg"):
        keys = level_indices(args.n_max, l_max, args.rectangular)
    else:
        keys = _dirac_states(args)
    rows = []
    series: dict[tuple[int, int], list[float]] = {key: [] for key in keys}
    for value in values:
        a, b, alpha = params.a, params.b, params.alpha
        De, re, mu = params.D_e, params.r_e, part.mu_energy
        if args.param == "a":
            a = float(value)
        elif args.param == "b":
            b = float(value)
        elif args.param == "alpha":
            alpha = float(value)
        elif args.param == "De":
            De = float(value) * units.cm_inv_to_ev
        elif args.param == "re":
            re = float(value)
        try:
            p_i = PotentialParams(a=a, b=b, D_e=De, r_e=re, alpha=alpha)
        except InvalidParameter:
            for key in keys:
                rows.append((float(value), key[0], key[1], None, "invalid_parameter"))
                series[key].append(math.nan)
            continue
        if args.model == "nonrel":
            part_i = ParticleSpec(mu, units.hbar_c)
            states = [(n, l, energy_nonrel(p_i, part_i, n, l), "ok") for n, l in keys]
        else:
            states = [(labels["n"], labels["l"] if labels["kappa"] is None else labels["kappa"],
                       None if energies is None else energies[0], "ok" if energies else "no_bound_state")
                      for labels, energies, _ in _relativistic_levels(args, p_i, units.hbar_c)]
        for n, second, E, status in states:
            rows.append((float(value), n, second, E, status))
            series[(n, second)].append(E if E is not None else math.nan)
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
            peak = values[int(np.nanargmax(np.array(column)))]
            shape = f"non-monotonic (max near {args.param} = {peak:.6g})"
        shapes.append(f"n={n} {second_label}={second}: {shape}")
    if args.format == "json":
        print(json.dumps({
            "param": args.param,
            "rows": [[f"{v:.17g}", n, second, None if E is None else f"{E:.17g}", status]
                     for v, n, second, E, status in rows],
            "shape": shapes,
        }, sort_keys=True), file=out)
    else:
        _emit(out, [f"{args.param},n,{second_label},E_eV,status"])
        for v, n, second, E, status in rows:
            _emit(out, [f"{v:.17g},{n},{second},{_fmt(E)},{status}"])
        for line in shapes:
            _emit(out, [f"# shape {line}"])
    return EXIT_OK


def cmd_validate(args, out) -> int:
    _, units = _load_config(args)
    try:
        rows = validate_mod.load_reference(args.table2)
    except FileNotFoundError:
        print(f"reference file not found: {args.table2}", file=sys.stderr)
        return EXIT_USAGE
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
    from .checks import MODEL_CHECKS, ORACLE_CSV_HEADER, oracle_comparison_rows, run_checks

    _, units = _load_config(args)
    names = _distinct([name for name in args.molecules.split(",") if name], "--molecules", args.molecules)
    molecules = [find_molecule(name) for name in names]
    models = _distinct([m for m in args.models.split(",") if m], "--models", args.models)
    if not models or not molecules:
        raise InvalidParameter("model and molecule lists must be nonempty")
    unknown = [m for m in models if m not in MODEL_CHECKS]
    if unknown:
        raise InvalidParameter(f"unknown models {unknown!r}")
    try:
        checks, comparisons = run_checks(molecules, models, args.alpha, units, args.grid_points)
    except GridTooCoarse as exc:
        print(f"grid too coarse: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    if args.details:
        # the oracle-equivalence checks made these rows when nonrel was requested
        _emit(out, [ORACLE_CSV_HEADER])
        for mol in molecules:
            _emit(out, [f"# molecule = {mol.name}"])
            if mol.name not in comparisons:
                comparisons[mol.name], _ = oracle_comparison_rows(mol, args.alpha, units, args.grid_points)
            _emit(out, comparisons[mol.name])
    ok_all = True
    for name, ok, detail in checks:
        ok_all = ok_all and ok
        _emit(out, [f"{name} {'PASS' if ok else 'FAIL'} {detail}"])
    return EXIT_OK if ok_all else EXIT_CHECK_FAILED


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
    sub.add_argument("--scan-points", dest="scan_points", type=int, default=2000)
    sub.add_argument("--tol", type=float, default=1e-12)
    sub.add_argument("--all-roots", dest="all_roots", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hgmorse",
                                     description="Bound-state spectra for the Hellmann plus generalized-Morse potential")
    sub = parser.add_subparsers(dest="command", required=True)

    p_levels = sub.add_parser("levels", help="energy level table")
    _add_common(p_levels)
    _add_states(p_levels, n_max=5)
    p_levels.add_argument("--oracle", action="store_true", help="add FD-oracle deviation columns (nonrel)")
    p_levels.add_argument("--grid-points", dest="grid_points", type=int, default=20001)
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
    p_chk.add_argument("--grid-points", dest="grid_points", type=int, default=20001)
    p_chk.add_argument("--config", default=None)
    p_chk.add_argument("--details", action="store_true",
                       help="also emit the per-level comparison CSV before the pass/fail lines")
    p_chk.set_defaults(func=cmd_oracle_check)

    return parser


def _glue_kappa_values(argv: list[str]) -> list[str]:
    """Rewrite `--kappa -1,1,-2` as `--kappa=-1,1,-2`.

    argparse reads a dash-led value that is not a plain negative number as
    an option string, so the documented comma list would otherwise parse
    only in the `=` form.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1] == "--kappa" and token[:1] == "-" and token[1:2].isdigit():
            out[-1] = f"--kappa={token}"
        else:
            out.append(token)
    return out


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_glue_kappa_values(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args, sys.stdout)
    except (InvalidParameter, ParseError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NoBoundState as exc:
        print(f"no bound states: {exc}", file=sys.stderr)
        return EXIT_NO_BOUND_STATE
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
