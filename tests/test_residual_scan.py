"""The array residual scan against the scalar code it replaced.

The relativistic solvers evaluate the quantization residual on the whole
scan grid in one numpy call.  The scalar field builders and residual below
are frozen copies of the one-energy-at-a-time code that did this before,
with one edit: 0.25 * (N / P) ** 2 became t = N / P; 0.25 * (t * t), which
rounds like numpy's elementwise square (CPython's float pow can differ from
it by 1 ULP).  The array code must reproduce them bit for bit: equal
residuals and bracket numerators N, and NaN exactly where the scalar code
reports a domain hole (None), over the solver's scan grid for all five
molecules, the three test masses and all three sectors.  One float energy,
as bisection passes it, must give Python floats bit-equal to the array
elements, for the residual, N and each of the six fields.
"""

import math

import numpy as np
import pytest

from hgmorse.checks import MASS_MATRIX, pseudospin_params, scaled_params
from hgmorse.molecules import builtin_molecules, to_potential_params
from hgmorse.relativistic import (
    _KG,
    _PSEUDOSPIN,
    _SPIN,
    QuantumNumbers,
    _fields,
    _nu_eval,
    default_search_interval,
    kg_residual,
    lambda_D,
    pseudospin_residual,
    spin_residual,
)
from hgmorse.units import HBAR_C_EV_ANGSTROM

SCAN_POINTS = 2000


# --- frozen scalar oracle -----------------------------------------------------


def scalar_kg_fields(p, M, qn, hbar_c):
    hc2, a2, q2 = hbar_c**2, p.alpha**2, p.q**2
    a, b, De, q, alpha = p.a, p.b, p.D_e, p.q, p.alpha
    lam = lambda_D(qn.D, qn.l)

    def at(E):
        S = (E + M) / hc2
        if S <= 0.0:
            return None
        return (S * (M - E + De) / a2, S * a / alpha, S * b / alpha, 2.0 * S * De * q / a2,
                S * De * q2 / a2, lam)

    return at


def scalar_spin_fields(p, M, kappa, Cs, n, hbar_c):
    hc2, a2, q2 = hbar_c**2, p.alpha**2, p.q**2
    a, b, De, q, alpha = p.a, p.b, p.D_e, p.q, p.alpha
    beta1 = float(kappa * (kappa + 1))

    def at(E):
        S = (M + E - Cs) / hc2
        if S <= 0.0:
            return None
        return (S * (M - E + De) / a2, S * a / alpha, S * b / alpha, 2.0 * S * De * q / a2,
                S * De * q2 / a2, beta1)

    return at


def scalar_pseudospin_fields(p, M, kappa, Cps, n, hbar_c):
    hc2, a2, q2 = hbar_c**2, p.alpha**2, p.q**2
    a, b, De, q, alpha = p.a, p.b, p.D_e, p.q, p.alpha
    lambda1 = float(kappa * (kappa - 1))

    def at(E):
        S = (M - E + Cps) / hc2
        if S <= 0.0:
            return None
        return (S * (M + E - De) / a2, -S * a / alpha, -S * b / alpha, -2.0 * S * De * q / a2,
                -S * De * q2 / a2, lambda1)

    return at


def scalar_nu_eval(f, n):
    """(normalized residual, N) or None on a domain hole."""
    if f is None:
        return None
    eps, beta, eta, chi, phi, gamma = f
    radicand = 0.25 + phi + gamma
    if radicand < 0.0:
        return None
    P = n + 0.5 + math.sqrt(radicand)
    N = P * P - beta + eta - chi + gamma - phi
    lhs = eps
    t = N / P
    rhs = beta - gamma + 0.25 * (t * t)
    return (lhs - rhs) / (1.0 + abs(lhs) + abs(rhs)), N


# --- the matrix -----------------------------------------------------------------

KG_STATES = [(QuantumNumbers(n=n, l=l),) for n in range(3) for l in range(3)]
SPIN_STATES = [(kappa, 0.0, n) for kappa in (-1, 1, -2) for n in (0, 1)]
PSEUDOSPIN_STATES = [(kappa, 0.0, n) for kappa in (1, 2, -1) for n in (0, 1)]

SECTORS = {
    # model: (sector of the array builder, frozen scalar builder, public residual, states, pseudospin parameters?)
    "kg": (_KG, scalar_kg_fields, kg_residual, KG_STATES, False),
    "dirac-spin": (_SPIN, scalar_spin_fields, spin_residual, SPIN_STATES, False),
    "dirac-pseudospin": (_PSEUDOSPIN, scalar_pseudospin_fields, pseudospin_residual, PSEUDOSPIN_STATES, True),
}


def _cases(pseudospin):
    for mol in builtin_molecules():
        p, part = to_potential_params(mol, 1.0, 1.0, 0.025)
        for M in MASS_MATRIX:
            yield mol.name, M, (pseudospin_params(p, M, HBAR_C_EV_ANGSTROM) if pseudospin
                                else scaled_params(p, part, M))


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("model", sorted(SECTORS))
def test_array_residual_matches_scalar_oracle_bit_for_bit(model):
    sector, scalar_fields, public_residual, states, pseudospin = SECTORS[model]
    holes = defined = 0
    for name, M, params in _cases(pseudospin):
        lo, hi = default_search_interval(params, M)
        Es = np.linspace(lo, hi, SCAN_POINTS)
        for state in states:
            n = state[0].n if model == "kg" else state[2]
            fields, fields_n = _fields(sector, params, M, state, HBAR_C_EV_ANGSTROM)
            assert fields_n == n
            array_fields = fields(Es)
            res, N = _nu_eval(array_fields, n)
            at = scalar_fields(params, M, *state, HBAR_C_EV_ANGSTROM)
            ref = [scalar_nu_eval(at(float(E)), n) for E in Es]
            hole = np.array([r is None for r in ref])
            where = f"{model} {name} M={M} state={state}"
            assert np.array_equal(np.isnan(res), hole), where
            assert np.array_equal(np.isnan(N), hole), where
            kept = [r for r in ref if r is not None]
            assert np.array_equal(_bits(res[~hole]), _bits([r[0] for r in kept])), where
            assert np.array_equal(_bits(N[~hole]), _bits([r[1] for r in kept])), where
            # one float, as bisection, the public residual and the spec builder pass it
            for i in range(0, SCAN_POINTS, 97):
                one_fields = fields(float(Es[i]))
                assert len(one_fields) == len(array_fields) == 6, where
                for k, (one, many) in enumerate(zip(one_fields, array_fields)):
                    x = np.broadcast_to(many, Es.shape)[i]  # gamma is one float for every energy
                    assert type(one) is float, (where, k)
                    assert (math.isnan(one) and math.isnan(x)) or _bits(one) == _bits(x), (where, k)
                one_res, one_N = _nu_eval(one_fields, n)
                assert type(one_res) is float and type(one_N) is float, where
                if hole[i]:
                    assert math.isnan(one_res) and math.isnan(one_N), where
                else:
                    assert _bits(one_res) == _bits(res[i]) and _bits(one_N) == _bits(N[i]), where
                one = public_residual(params, M, float(Es[i]), *state, hbar_c=HBAR_C_EV_ANGSTROM)
                if ref[i] is None:
                    assert one is None, where
                else:
                    assert type(one) is float and _bits(one) == _bits(ref[i][0]), where
            holes += int(hole.sum())
            defined += int((~hole).sum())
    assert defined > 0
    if pseudospin:
        # the supercritical radicand makes holes inside the pseudospin window
        assert holes > 0
