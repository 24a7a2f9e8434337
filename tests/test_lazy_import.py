"""Each CLI command loads only the modules it runs.

scipy loads only on the paths that call it, and never its package init:
importing scipy.linalg or scipy.integrate costs more than the rest of a CLI
call, and the finite-difference oracle of `oracle-check` loads the compiled
routines it calls by file path.  `levels --oracle` solves a numpy DVR and
loads nothing from scipy.  `hgmorse.validate` and hashlib load only for the
`validate` command, `hgmorse.oracle` only under `levels --oracle`, the
relativistic solvers (with the root finder, but not logging) only for a
relativistic model, and json only for `--format json`.  The FD oracle's
threads are plain `threading` threads, so concurrent.futures never loads.
The package exports resolve on first access.  numpy, and the wavefunction
engine `hgmorse.wavefun` with its `hgmorse.specfun`, load only where an
array kernel or a wavefunction runs: the closed-form nonrelativistic
`levels` and `sweep`, `validate`, and the relativistic `levels` and `sweep`
(whose root scan reads the residual one float at a time) run in plain
float arithmetic without them.  No command loads `dataclasses`: the
records derive from `hgmorse.record.Record`, so the commands that load no
numpy load no `inspect` either (numpy imports it itself).  Each test runs
in a fresh interpreter, because this test process has imported all of
these long before.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: CH scaled to a 500 eV mass, where the relativistic levels bind
SCALED_CH = ["--De-cm", "55147417000", "--re", "1.1198", "--mu-amu", "1", "--a", "1732450", "--b", "1732450",
             "--mass", "500"]
KG_LEVELS = ["levels", "--model", "kg", *SCALED_CH, "--n-max", "0"]
NONREL_LEVELS = ["levels", "--molecule", "CH", "--n-max", "1"]
POTENTIAL = ["potential", "--molecule", "CH", "--samples", "5"]
NONREL_ORACLE_CHECK = ["oracle-check", "--models", "nonrel", "--molecules", "CH"]
NONREL_SWEEP = ["sweep", "--molecule", "CH", "--param", "alpha", "--from", "0.01", "--to", "0.05", "--steps", "3"]
DIRAC_SWEEP = ["sweep", "--model", "dirac-spin", *SCALED_CH, "--kappa=-1", "--n-max", "0", "--param", "alpha",
               "--from", "0.02", "--to", "0.03", "--steps", "2"]
ORACLE_CHECK = ["oracle-check", "--models", "nonrel,kg,dirac-spin,dirac-pseudospin", "--molecules", "CH"]
#: the modules that only an array kernel or a wavefunction needs
ARRAY_MODULES = {"numpy", "hgmorse.wavefun", "hgmorse.specfun"}

# run in a fresh interpreter: argv holds steps, each a module to import ("import NAME") or a
# CLI command line; prints the sorted loaded module names after `import hgmorse.cli` and after
# each step, one line each.  It imports nothing that a step might be the first to load, and it
# reports more than one usable CPU so that `oracle-check` starts its FD threads on any machine.
_PROBE = """
import importlib, io, os, sys
os.sched_getaffinity = lambda pid: {0, 1, 2, 3}
import hgmorse.cli
loaded = [" ".join(sorted(sys.modules))]
for step in sys.argv[1:]:
    if step.startswith("import "):
        importlib.import_module(step.removeprefix("import "))
    else:
        stdout, sys.stdout = sys.stdout, io.StringIO()
        code = hgmorse.cli.main(step.split())
        sys.stdout = stdout
        assert code == 0, (step, code)
    loaded.append(" ".join(sorted(sys.modules)))
print("\\n".join(loaded))
"""


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))


def _modules_after(*steps) -> list[set[str]]:
    """The modules loaded after `import hgmorse.cli`, then after each step:
    a CLI argv list to run, or "import NAME"."""
    argv = [step if isinstance(step, str) else " ".join(step) for step in steps]
    run = subprocess.run([sys.executable, "-c", _PROBE, *argv], capture_output=True, text=True, env=_env(),
                         timeout=300)
    assert run.returncode == 0, run.stderr
    return [set(line.split()) for line in run.stdout.splitlines()]


def _scipy_modules_after(*steps):
    """The sorted scipy modules loaded after `import hgmorse.cli`, then after each step."""
    return [sorted(m for m in loaded if m == "scipy" or m.startswith("scipy.")) for loaded in _modules_after(*steps)]


def test_cli_import_does_not_import_the_thread_pool():
    [loaded] = _modules_after()
    assert not {m for m in loaded if m.startswith("concurrent")}


def test_cli_import_does_not_import_validate_or_hashlib():
    # only `validate` reads the reference table and signs its report
    [loaded] = _modules_after()
    assert not loaded & {"hgmorse.validate", "hashlib"}


def test_cli_import_loads_no_solver_it_may_not_run():
    [loaded] = _modules_after()
    assert not loaded & {"hgmorse.oracle", "hgmorse.relativistic", "hgmorse.rootfind", "logging", "json",
                         "concurrent.futures"}
    # positive control: the probe sees what the CLI does import
    assert {"hgmorse.cli", "hgmorse.nonrel", "hgmorse.potential"} <= loaded


def test_closed_form_commands_load_no_numpy():
    loaded_after = _modules_after(NONREL_LEVELS, NONREL_LEVELS + ["--format", "json"], NONREL_SWEEP,
                                  NONREL_SWEEP + ["--format", "json"])
    for loaded in loaded_after:
        assert not loaded & ARRAY_MODULES
    # positive control: the probe saw the json run
    assert "json" in loaded_after[-1]


def test_validate_loads_no_numpy():
    # calibration, scoring and the per-molecule fits all run in plain floats
    before, after = _modules_after(["validate", "--calibrate", "--no-timestamp"])
    assert not (before | after) & ARRAY_MODULES
    # positive control: the probe saw the validate run
    assert {"hgmorse.validate", "hashlib"} <= after


@pytest.mark.parametrize("command", [POTENTIAL, NONREL_LEVELS + ["--oracle"]], ids=["potential", "levels-oracle"])
def test_array_commands_load_numpy(command):
    before, after = _modules_after(command)
    assert "numpy" not in before
    assert "numpy" in after


def test_nonrelativistic_commands_load_neither_relativistic_nor_oracle():
    steps = [NONREL_LEVELS, POTENTIAL, NONREL_SWEEP, ["validate", "--no-timestamp"], NONREL_LEVELS + ["--oracle"]]
    *before_oracle, after_oracle = _modules_after(*steps)
    for loaded in before_oracle:
        assert not loaded & {"hgmorse.relativistic", "hgmorse.oracle", "hgmorse.rootfind", "json"}
    assert "hgmorse.validate" in before_oracle[-1]
    # the DVR of levels --oracle lives in hgmorse.oracle and starts no thread pool
    assert "hgmorse.oracle" in after_oracle
    assert not {m for m in after_oracle if m.startswith("concurrent")}
    assert not after_oracle & {"hgmorse.relativistic", "logging"}


def test_relativistic_models_and_json_load_on_demand():
    before, after_kg, after_dirac, after_json = _modules_after(KG_LEVELS, DIRAC_SWEEP,
                                                               POTENTIAL + ["--format", "json"])
    assert not before & {"hgmorse.relativistic", "hgmorse.rootfind", "json"}
    assert {"hgmorse.relativistic", "hgmorse.rootfind"} <= after_kg
    assert "hgmorse.oracle" not in after_kg and "json" not in after_kg
    # the solvers report through their return values and the CLI columns, not a logger
    assert "logging" not in after_kg | after_dirac
    # the root scans run in plain floats: neither numpy nor the eigenfunction engine
    assert not (after_kg | after_dirac) & ARRAY_MODULES
    # positive control: the probe saw the Dirac sweep load its solver
    assert {"hgmorse.relativistic", "hgmorse.rootfind"} <= after_dirac
    assert "json" in after_json


def test_no_command_loads_dataclasses_and_the_float_commands_load_no_inspect():
    # dataclasses would load inspect, with ast, dis and tokenize, into every command
    *float_runs, after_potential, after_check = _modules_after(
        NONREL_LEVELS, KG_LEVELS, NONREL_SWEEP, DIRAC_SWEEP, ["validate", "--no-timestamp"], POTENTIAL, ORACLE_CHECK)
    for loaded in float_runs:
        assert not loaded & {"dataclasses", "inspect"}
    assert "dataclasses" not in after_potential | after_check
    # positive control: the probe saw the numpy commands run
    assert "numpy" in after_potential and "hgmorse.checks" in after_check


def test_oracle_check_does_not_import_fractions():
    # the exact 2F1 fallback of the term-sum oracle sums in plain integers
    before, after = _modules_after(["oracle-check", "--models", "nonrel,kg,dirac-spin,dirac-pseudospin",
                                    "--molecules", "CH"])
    assert "fractions" not in before | after


_EXPORTS_PROBE = """
import importlib, sys
import hgmorse
assert not [m for m in sys.modules if m.startswith("hgmorse.")], "import hgmorse loaded a submodule"
expected = {module: names.split() for module, names in (line.split(":") for line in sys.argv[1:])}
assert hgmorse.__all__ == sorted(name for names in expected.values() for name in names), hgmorse.__all__
for module, names in expected.items():
    owner = importlib.import_module(f"hgmorse.{module}")
    for name in names:
        assert getattr(hgmorse, name) is getattr(owner, name), name
        assert name in dir(hgmorse), name
assert hgmorse.relativistic is sys.modules["hgmorse.relativistic"]
for probe in ("no_such_name", "__path_hook__"):
    try:
        getattr(hgmorse, probe)
    except AttributeError as exc:
        assert str(exc) == f"module 'hgmorse' has no attribute {probe!r}", exc
    else:
        raise AssertionError(probe)
try:
    from hgmorse import no_such_name
except ImportError:
    pass
else:
    raise AssertionError("from hgmorse import no_such_name")
print("ok")
"""

#: the package exports, by the submodule that defines each
EXPORTS = {
    "errors": "GridTooCoarse InvalidParameter NoBoundState NonConvergence ParseError SolverError",
    "molecules": "Molecule builtin_molecules load_molecules to_potential_params",
    "nonrel": "ParticleSpec WavefunctionSpec energy_nonrel make_wavefunction radial_wavefunction "
              "wavefunction_exponents",
    "oracle": "RadialGrid fd_schrodinger_eigen oracle_energies richardson_extrapolate shoot_mismatch",
    "potential": "PotentialParams centrifugal_approx potential_approx potential_curve potential_exact q_of",
    "relativistic": "QuantumNumbers RelWavefunctionSpec kg_residual lambda_D pseudospin_residual "
                    "solve_dirac_pseudospin solve_dirac_spin solve_kg_energy spin_residual",
    "rootfind": "RootBracket bisect scan_brackets",
    "specfun": "JacobiParams hyp2f1_terminating jacobi_norm_integral jacobi_poly ln_gamma pochhammer",
    "units": "UnitConstants amu_to_mass_energy cm_inverse_to_ev",
}


def test_package_exports_resolve_to_their_submodules_on_first_access():
    argv = [f"{module}:{names}" for module, names in EXPORTS.items()]
    run = subprocess.run([sys.executable, "-c", _EXPORTS_PROBE, *argv], capture_output=True, text=True,
                         env=_env(), timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "ok\n"


def test_cli_paths_without_the_fd_oracle_do_not_import_scipy():
    assert _scipy_modules_after(KG_LEVELS, NONREL_LEVELS, POTENTIAL) == [[], [], [], []]


def test_levels_oracle_loads_no_scipy():
    assert _scipy_modules_after(NONREL_LEVELS + ["--oracle"]) == [[], []]


def test_fd_oracle_paths_skip_scipy_package_init():
    after_import, after_check, control = _scipy_modules_after(NONREL_ORACLE_CHECK, "import scipy.linalg")
    assert after_import == []
    assert after_check  # positive control: the battery loads part of scipy
    assert "scipy.linalg" not in after_check and "scipy.integrate" not in after_check
    # positive control: the probe sees scipy.linalg once something imports it
    assert "scipy.linalg" in control
