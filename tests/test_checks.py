"""run_checks: the FD solves on a background thread give the records of the battery run in order."""

import dataclasses
import re
import threading

import pytest

from hgmorse import checks
from hgmorse.errors import NonConvergence
from hgmorse.molecules import find_molecule, to_potential_params
from hgmorse.nonrel import make_wavefunction
from hgmorse.units import DEFAULT_UNITS

ALPHA = 0.025
POINTS = 20001
ALL_MODELS = ["nonrel", "kg", "dirac-spin", "dirac-pseudospin"]


def checks_in_order(molecules, models, alpha, u, points):
    """The records of each check called one after another, in printing order: the
    reference for the schedule of run_checks."""
    out = []
    base_params, base_part = to_potential_params(molecules[0], 1.0, 1.0, alpha, u)
    if "nonrel" in models:
        out += [checks.check_oracle_equivalence(mol, alpha, u, points) for mol in molecules]
        out.append(checks.check_box_self_test(base_part))
        out.append(checks.check_special_functions())
        out.append(checks.check_normalization([make_wavefunction(base_params, base_part, n, l)
                                               for n, l in checks.NORMALIZED_STATES]))
    states = [case for case in checks.RELATIVISTIC_STATES if case[0] in models]
    if states:
        out.append(checks.check_relativistic_residuals(base_params, base_part, checks.MASS_MATRIX, states,
                                                       u.hbar_c))
    if "kg" in models or "dirac-spin" in models:
        out.append(checks.check_cross_identities(base_params, base_part, checks.CROSS_MASSES, u.hbar_c))
    return out


def _verdict_text(record):
    name, ok, detail = record.verdict()
    return name, ok, re.sub(r" in \d+\.\d s$", "", detail)


def _untimed(records):
    # each oracle-equivalence record times its own molecule; every other field must match
    return [dataclasses.replace(r, seconds=0.0) if isinstance(r, checks.OracleEquivalence) else r
            for r in records]


@pytest.mark.parametrize("models", (["nonrel"], ["nonrel", "kg"], ALL_MODELS), ids=",".join)
@pytest.mark.parametrize("names", (("CH", "HCl"), ("NO", "CO")), ids=",".join)
def test_run_checks_gives_the_records_of_the_checks_in_order(names, models):
    molecules = [find_molecule(name) for name in names]
    scheduled = checks.run_checks(molecules, models, ALPHA, DEFAULT_UNITS, POINTS)
    ordered = checks_in_order(molecules, models, ALPHA, DEFAULT_UNITS, POINTS)
    assert _untimed(scheduled) == _untimed(ordered)
    assert [_verdict_text(r) for r in scheduled] == [_verdict_text(r) for r in ordered]


def test_run_checks_raises_the_fd_error_after_its_thread_has_ended(monkeypatch):
    real = checks.oracle_energies

    def fd(params, part, l, k, points):
        if l == 2 and params.a == 1.0:
            raise NonConvergence("FD job failed")
        return real(params, part, l, k, points)

    def residuals(*args):
        raise RuntimeError("relativistic check failed")

    monkeypatch.setattr(checks, "oracle_energies", fd)
    monkeypatch.setattr(checks, "check_relativistic_residuals", residuals)
    threads = threading.active_count()
    with pytest.raises(NonConvergence, match="FD job failed") as raised:
        checks.run_checks([find_molecule("CH")], ALL_MODELS, ALPHA, DEFAULT_UNITS, POINTS)
    # the main thread's error is kept as the context of the one that wins
    assert isinstance(raised.value.__context__, RuntimeError)
    assert threading.active_count() == threads
