"""Seeded operation lists for the four benchmark workloads.

A workload is an endless sequence of passes; pass k is generated from its
own RNG seeded with (workload, seed, k), so every run with one seed sees the
same operations in the same order, and the traced run can replay pass 0.
The seed picks values (molecules, strengths, masses, kappas, ranges) but not
sizes (levels, steps, samples, grid points), so that a pass costs about the
same under every seed.  The program only ever receives the generated
arguments.

An operation is a dict with `kind` ("cli" or one of the wavefunction kinds)
and either `argv` (CLI arguments) or the state's parameters.
"""

from __future__ import annotations

import random

#: the built-in molecule table (De in cm^-1, re in Angstrom, mu in amu); the
#: relativistic workloads pass rescaled copies of it as explicit arguments
MOLECULES = {
    "CH": (31838.08, 1.1198, 0.929931),
    "NO": (64877.06, 1.1508, 7.468441),
    "CO": (87471.43, 1.1282, 6.860586),
    "N2": (96288.04, 1.0940, 7.003350),
    "HCl": (37255.00, 1.2746, 0.980105),
}
NAMES = tuple(MOLECULES)
AMU_TO_EV = 931.49410242e6
HBAR_C = 1973.29
ALPHA = 0.025
MASSES = (50.0, 500.0, 5000.0)
#: pseudospin strength as a multiple of the binding threshold (hbar c)^2 alpha/(2M)
PSEUDOSPIN_B_FOLD = 10.0
ALL_MODELS = "nonrel,kg,dirac-spin,dirac-pseudospin"

#: seconds one pass takes on the machine the benchmark was tuned on (2 shared
#: cores under load, Python 3.11.7, numpy 2.4.6, scipy 1.17.1); a run
#: measures round(run seconds / this) whole passes, so two commits measured
#: with the same seed run exactly the same operations
NOMINAL_PASS_S = {"cli-tables": 5.5, "rel-sweep": 7.0, "oracle-check": 8.5, "wavefunctions": 7.0}
WORKLOADS = tuple(NOMINAL_PASS_S)


def _num(x: float) -> str:
    return f"{x:.6g}"


def _cli(*argv) -> dict:
    return {"kind": "cli", "argv": [str(a) for a in argv]}


def _strengths(rng: random.Random) -> tuple[float, float]:
    return round(rng.uniform(0.0, 5.0), 3), round(rng.uniform(0.0, 5.0), 3)


def _cli_tables(rng: random.Random) -> list[dict]:
    def mol_args():
        a, b = _strengths(rng)
        return ["--molecule", rng.choice(NAMES), "--a", a, "--b", b]

    ops = [
        _cli("levels", *mol_args(), "--n-max", 5),
        _cli("levels", *mol_args(), "--n-max", 3, "--oracle"),
        _cli("levels", *mol_args(), "--n-max", 3, "--oracle"),
        _cli("levels", *mol_args(), "--n-max", 3, "--oracle"),
        _cli("potential", *mol_args(), "--r-min", _num(rng.uniform(0.3, 0.8)),
             "--r-max", _num(rng.uniform(6.0, 15.0)), "--samples", 1000),
    ]
    param = rng.choice(("a", "b", "alpha"))
    lo, hi = (rng.uniform(0.015, 0.025), rng.uniform(0.03, 0.04)) if param == "alpha" else \
        (rng.uniform(0.0, 1.0), rng.uniform(3.0, 5.0))
    ops.append(_cli("sweep", *mol_args(), "--param", param, "--from", _num(lo), "--to", _num(hi),
                    "--steps", 21, "--n-max", 2))
    ops.append(_cli("validate", "--calibrate", "--no-timestamp"))
    rng.shuffle(ops)
    return ops


def _rel_sweep(rng: random.Random, k: int) -> list[dict]:
    ops = []
    # per model one sweep and two level tables, one at each mass; every
    # operation asks for six states.  The sweep's mass rotates with the pass,
    # not with the seed, because the scan cost depends on the mass.
    for i, model in enumerate(("kg", "dirac-spin", "dirac-pseudospin")):
        masses = [MASSES[(i + k + j) % len(MASSES)] for j in range(len(MASSES))]
        for command, M in zip(("sweep", "levels", "levels"), masses):
            name = rng.choice(NAMES)
            De_cm, re, mu_amu = MOLECULES[name]
            if model == "dirac-pseudospin":
                # checks.pseudospin_params: a = 0, b a multiple of the binding
                # threshold, molecular D_e
                threshold = HBAR_C**2 * ALPHA / (2.0 * M)
                argv = ["--molecule", name, "--a", 0, "--b", _num(PSEUDOSPIN_B_FOLD * threshold)]
                sweep = ["--param", "b", "--from", _num(rng.uniform(6.0, 9.0) * threshold),
                         "--to", _num(rng.uniform(11.0, 14.0) * threshold)]
                states = ["--kappa=1,2,-1", "--n-max", 1]
            else:
                # checks.scaled_params: every strength scaled by mu c^2/M
                s = mu_amu * AMU_TO_EV / M
                # b >= a keeps a positive-energy spin level (the default branch)
                a0 = rng.uniform(0.5, 1.5)
                b0 = a0 * rng.uniform(1.0, 1.5)
                argv = ["--De-cm", _num(De_cm * s), "--re", re, "--mu-amu", mu_amu,
                        "--a", _num(a0 * s), "--b", _num(b0 * s)]
                param = rng.choice(("a", "b"))
                base = a0 if param == "a" else b0
                sweep = ["--param", param, "--from", _num(0.5 * base * s), "--to", _num(1.5 * base * s)]
                kappas = ",".join(str(k) for k in [-1] + rng.sample((1, -2, 2), 2))
                states = ["--n-max", 2] if model == "kg" else ["--kappa=" + kappas, "--n-max", 1]
            common = ["--model", model, "--mass", _num(M), *argv, *states]
            if command == "sweep":
                ops.append(_cli("sweep", *common, *sweep, "--steps", 7))
            else:
                ops.append(_cli("levels", *common))
    rng.shuffle(ops)
    return ops


def _oracle_check(rng: random.Random, k: int) -> list[dict]:
    # the relativistic checks run on the first molecule only; it rotates
    # through the table pass by pass, so runs of any seed cost alike
    first = NAMES[k % len(NAMES)]
    second = rng.choice([m for m in NAMES if m != first])
    return [_cli("oracle-check", "--details", "--models", ALL_MODELS, "--molecules", f"{first},{second}")]


#: (molecule, mass) pairs of the relativistic states, all with a = b = 1.
#: With checks.scaled_params their n = 1 states, which set the median, cost
#: about alike; CH, HCl and N2 at the higher masses are up to 40% cheaper and
#: would split that group in two.  With checks.pseudospin_params no molecule
#: has an n = 0 level at M = 50 eV, and only kappa = 1 has an n = 1 level.
REL_SITES = (("NO", 50.0), ("CO", 50.0), ("N2", 50.0), ("NO", 500.0), ("CO", 500.0), ("NO", 5000.0),
             ("CO", 5000.0))
PSEUDOSPIN_SITES = tuple((name, M) for name in NAMES for M in MASSES if M != 50.0)

#: the states of one wavefunctions pass as (kind, n, count).  A state's cost
#: grows steeply with n (the quadrature has 24 (96 + 32 n) nodes), and on a
#: shared host the latency of one and the same state drifts by up to a factor
#: of two within a run, so neighbouring n blur into one another.  The pass is
#: therefore built from cost groups that stay apart under that drift, sized so
#: that over three passes the median falls in the middle of the 42
#: relativistic n = 1 states, above 21 cheaper states (n = 0 and pseudospin),
#: and the tail percentile (ten operations beyond it) among the 18 n = 4
#: states, below the three n = 8 states.  Pseudospin states stop at n = 1:
#: for some n = 2 states (CH at M = 50 and 5000 eV, kappa = 1)
#: lower_spinor_spec fails with a math domain error in
#: wavefun.log_abs_and_sign, a known defect of the program.
WAVEFUNCTION_PASS = (
    ("nonrel", 0, 2), ("kg", 0, 2), ("spin", 0, 1), ("pseudospin", 0, 1), ("pseudospin", 1, 1),
    ("kg", 1, 7), ("spin", 1, 7),
    ("nonrel", 4, 2), ("kg", 4, 2), ("spin", 4, 2),
    ("nonrel", 8, 1),
)


def _wavefunctions(rng: random.Random, k: int) -> list[dict]:
    # the molecule, mass, l and kappa rotate with the slot and the pass, not
    # with the seed, so a pass costs alike under every seed; the seed picks
    # the strengths of the nonrelativistic states
    ops = []
    for kind, n, count in WAVEFUNCTION_PASS:
        for j in range(count):
            i = len(ops) + 3 * k
            if kind == "nonrel":
                a, b = _strengths(rng)
                ops.append({"kind": kind, "mol": NAMES[i % len(NAMES)], "a": a, "b": b, "alpha": ALPHA,
                            "n": n, "l": (j + k) % 3})
                continue
            sites = PSEUDOSPIN_SITES if kind == "pseudospin" else REL_SITES
            name, M = sites[i % len(sites)]
            extra = {"kg": {"l": (j + k) % 2}, "spin": {"kappa": (-1, 1, -2, 2)[(i + j) % 4]},
                     "pseudospin": {"kappa": (1, 2, -1)[k % 3] if n == 0 else 1}}[kind]
            ops.append({"kind": kind, "mol": name, "a": 1.0, "b": 1.0, "alpha": ALPHA, "n": n, "M": M, **extra})
    rng.shuffle(ops)
    return ops


def passes(workload: str, seed: int):
    """Yield the passes (lists of operations) of one workload, forever."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    k = 0
    while True:
        rng = random.Random(f"{workload}/{seed}/{k}")
        if workload == "cli-tables":
            yield _cli_tables(rng)
        elif workload == "rel-sweep":
            yield _rel_sweep(rng, k)
        elif workload == "oracle-check":
            yield _oracle_check(rng, k)
        else:
            yield _wavefunctions(rng, k)
        k += 1
