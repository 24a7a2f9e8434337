"""Byte-for-byte golden of the relativistic `levels` tables.

The golden file holds the stdout and exit code of each command below, run
on CH at a = b = 1 with every strength scaled by mu c^2/M (kg, dirac-spin)
or with the pseudospin strengths of checks.pseudospin_params (a = 0).
Regenerate it only for a deliberate output change:

    PYTHONPATH=src python tests/test_levels_golden.py
"""

import contextlib
import io
import pathlib

from hgmorse.cli import main

GOLDEN = pathlib.Path(__file__).with_name("data") / "relativistic_levels.golden"

_SCALED_500 = ("--De-cm", "55157897115.66182", "--re", "1.1198", "--mu-amu", "1",
               "--a", "1732450.484315066", "--b", "1732450.484315066", "--mass", "500")
_SCALED_5000 = ("--De-cm", "5515789711.566182", "--re", "1.1198", "--mu-amu", "1",
                "--a", "173245.04843150658", "--b", "173245.04843150658", "--mass", "5000")

COMMANDS = [
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


def render() -> str:
    """Each command line, its stdout and its exit code, in order."""
    parts = []
    for argv in COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
        parts.append(f"$ hgmorse {' '.join(argv)}\n{out.getvalue()}[exit {code}]\n")
    return "".join(parts)


def test_relativistic_levels_match_golden():
    assert render() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render())
