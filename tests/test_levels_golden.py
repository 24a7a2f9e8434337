"""Byte-for-byte goldens of the CLI data streams.

Each golden file holds the stdout and exit code of each command of its
list. The relativistic `levels` tables run on CH at a = b = 1 with every
strength scaled by mu c^2/M (kg, dirac-spin) or with the pseudospin
strengths of checks.pseudospin_params (a = 0). The CLI golden covers a
nonrelativistic table with its oracle columns, a sweep, the calibrated
validation report and the oracle-check battery on CH. The oracle-check
golden runs every model family over CH and HCl, so it covers the shooting
oracle's flips and the FD comparison rows of two molecules. Wall times are
dropped. Regenerate them only for a deliberate output change:

    PYTHONPATH=src python tests/test_levels_golden.py
"""

import contextlib
import io
import pathlib
import re

from hgmorse.cli import main

DATA = pathlib.Path(__file__).with_name("data")

_SCALED_500 = ("--De-cm", "55157897115.66182", "--re", "1.1198", "--mu-amu", "1",
               "--a", "1732450.484315066", "--b", "1732450.484315066", "--mass", "500")
_SCALED_5000 = ("--De-cm", "5515789711.566182", "--re", "1.1198", "--mu-amu", "1",
                "--a", "173245.04843150658", "--b", "173245.04843150658", "--mass", "5000")

LEVELS_COMMANDS = [
    ("levels", "--model", "kg", *_SCALED_500, "--n-max", "1"),
    ("levels", "--model", "kg", *_SCALED_5000, "--n-max", "1", "--l-max", "0", "--dimension", "2"),
    ("levels", "--model", "dirac-spin", "--all-roots", *_SCALED_500, "--n-max", "1", "--kappa=-1,1,-2"),
    ("levels", "--model", "dirac-spin", "--all-roots", *_SCALED_5000, "--cs", "1000", "--n-max", "1",
     "--kappa=-1,2"),
    ("levels", "--model", "dirac-pseudospin", "--molecule", "CH", "--a", "0", "--b", "9734.68356025",
     "--mass", "50", "--n-max", "1", "--kappa=1,2,-1"),
    ("levels", "--model", "dirac-pseudospin", "--molecule", "CH", "--a", "0", "--b", "9734.68356025",
     "--mass", "50", "--n-max", "0", "--kappa=1", "--all-roots"),
    ("levels", "--model", "dirac-pseudospin", "--molecule", "CH", "--a", "0", "--b", "973.4683560249999",
     "--mass", "500", "--cps", "20", "--n-max", "1", "--kappa=1,2"),
]

CLI_COMMANDS = [
    ("levels", "--molecule", "HCl", "--a", "1", "--b", "1", "--n-max", "3", "--oracle"),
    ("sweep", "--molecule", "CH", "--param", "alpha", "--from", "0.01", "--to", "0.05", "--steps", "4",
     "--n-max", "1"),
    ("validate", "--calibrate", "--no-timestamp"),
    ("oracle-check", "--details", "--models", "nonrel,kg,dirac-spin,dirac-pseudospin", "--molecules", "CH"),
]

ORACLE_CHECK_COMMANDS = [
    ("oracle-check", "--details", "--models", "nonrel,kg,dirac-spin,dirac-pseudospin", "--molecules", "CH,HCl"),
]

GOLDENS = {"relativistic_levels.golden": LEVELS_COMMANDS, "cli_outputs.golden": CLI_COMMANDS,
           "oracle_check.golden": ORACLE_CHECK_COMMANDS}

_WALL_TIME = re.compile(r" in \d+\.\d s$", re.MULTILINE)


def render(commands) -> str:
    """Each command line, its stdout without wall times and its exit code, in order."""
    parts = []
    for argv in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
        parts.append(f"$ hgmorse {' '.join(argv)}\n{_WALL_TIME.sub('', out.getvalue())}[exit {code}]\n")
    return "".join(parts)


def test_relativistic_levels_match_golden():
    assert render(LEVELS_COMMANDS) == (DATA / "relativistic_levels.golden").read_text()


def test_cli_outputs_match_golden():
    assert render(CLI_COMMANDS) == (DATA / "cli_outputs.golden").read_text()


def test_oracle_check_matches_golden():
    assert render(ORACLE_CHECK_COMMANDS) == (DATA / "oracle_check.golden").read_text()


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for name, commands in GOLDENS.items():
        (DATA / name).write_text(render(commands))
