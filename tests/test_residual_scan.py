"""The residual scan against the scalar code it replaced.

The relativistic solvers read the quantization residual at the points of
the 2000-point scan grid, one float at a time, and only at the points next
to the real roots of the quantization polynomial.  The scalar field
builders and residual below are frozen copies of the one-energy-at-a-time
code that scanned every point before the scan became one numpy array call,
with one edit: 0.25 * (N / P) ** 2 became t = N / P; 0.25 * (t * t), which
rounds like numpy's elementwise square (CPython's float pow can differ from
it by 1 ULP).  The production residual must reproduce them bit for bit at
every grid point: equal residuals and bracket numerators N, and NaN exactly
where the scalar code reports a domain hole (None), for all five molecules,
the three test masses and all three sectors, each of the six fields a float.
The sparse scan must return the brackets that a full read of the frozen
copies gives, with the same bits.  The solver's input domain is the bound of
`_overflow_free`, inside which no intermediate of the residual overflows: it
must raise InvalidParameter exactly outside that domain, and so on every
input where a frozen copy of the numpy array scan that once read every grid
point raised FloatingPointError.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hgmorse import relativistic
from hgmorse.checks import MASS_MATRIX, pseudospin_params, scaled_params
from hgmorse.errors import InvalidParameter, NoBoundState, NonConvergence
from hgmorse.molecules import builtin_molecules, find_molecule, to_potential_params
from hgmorse.potential import PotentialParams
from hgmorse.relativistic import (
    _KG,
    _PSEUDOSPIN,
    _SPIN,
    QuantumNumbers,
    _fields,
    _nu_eval,
    _overflow_free,
    default_search_interval,
    kg_residual,
    lambda_D,
    pseudospin_residual,
    spin_residual,
)
from hgmorse.units import HBAR_C_EV_ANGSTROM, cm_inverse_to_ev, float_linspace

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
def test_float_residual_matches_scalar_oracle_bit_for_bit(model):
    sector, scalar_fields, public_residual, states, pseudospin = SECTORS[model]
    holes = defined = 0
    for name, M, params in _cases(pseudospin):
        lo, hi = default_search_interval(params, M)
        Es = float_linspace(lo, hi, SCAN_POINTS)
        for state in states:
            n = state[0].n if model == "kg" else state[2]
            fields, fields_n = _fields(sector, params, M, state, HBAR_C_EV_ANGSTROM)
            assert fields_n == n
            at = scalar_fields(params, M, *state, HBAR_C_EV_ANGSTROM)
            where = f"{model} {name} M={M} state={state}"
            for i, E in enumerate(Es):
                one_fields = fields(E)
                res, N = _nu_eval(one_fields, n)
                ref = scalar_nu_eval(at(E), n)
                if ref is None:
                    assert math.isnan(res) and math.isnan(N), (where, i)
                    holes += 1
                else:
                    assert _bits(res) == _bits(ref[0]) and _bits(N) == _bits(ref[1]), (where, i)
                    defined += 1
                if i % 97 == 0:
                    # each field a float, and the public residual as bisection and the spec builder pass E
                    assert len(one_fields) == 6 and all(type(x) is float for x in one_fields), where
                    assert type(res) is float and type(N) is float, where
                    one = public_residual(params, M, E, *state, hbar_c=HBAR_C_EV_ANGSTROM)
                    if ref is None:
                        assert one is None, where
                    else:
                        assert type(one) is float and _bits(one) == _bits(ref[0]), where
    assert defined > 0
    if pseudospin:
        # the supercritical radicand makes holes inside the pseudospin window
        assert holes > 0


# --- the sparse scan against a full read of the frozen copies ---------------------

SCALAR_FIELDS = {_KG: scalar_kg_fields, _SPIN: scalar_spin_fields, _PSEUDOSPIN: scalar_pseudospin_fields}


def _full_read_brackets(sector, params, M, state):
    """(lo, hi, f_lo, f_hi) of each bracket that reading every grid point of the frozen scalar residual gives."""
    at = SCALAR_FIELDS[sector](params, M, *state, HBAR_C_EV_ANGSTROM)
    n = state[0].n if sector is _KG else state[2]

    def f(E):
        r = scalar_nu_eval(at(E), n)
        return math.nan if r is None else r[0]

    lo, hi = default_search_interval(params, M)
    xs = [float(x) for x in np.linspace(lo, hi, SCAN_POINTS)]
    values = [f(x) for x in xs]
    out = []
    for x, y, fx, fy in zip(xs, xs[1:], values, values[1:]):
        if not (math.isfinite(fx) and math.isfinite(fy)):
            continue
        if fx == 0.0:  # a grid point that is a root: a tight bracket around it, if one certifies
            eps = 1e-9 * (hi - lo) / (SCAN_POINTS - 1)
            fl, fr = f(x - eps), f(x + eps)
            if math.isfinite(fl) and math.isfinite(fr) and fl * fr < 0.0:
                out.append((x - eps, x + eps, fl, fr))
        elif fx * fy < 0.0:
            out.append((x, y, fx, fy))
    return out


def _solver_scan(sector, params, M, state):
    """(brackets, samples) of the scan that the solver makes for one state."""
    seen = []
    scan = relativistic.scan_brackets

    def recording_scan(*args):
        seen.append((scan(*args), args[4] if len(args) > 4 else None))
        return seen[-1][0]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(relativistic, "scan_brackets", recording_scan)
        try:
            relativistic._solve(sector, params, M, state, True, HBAR_C_EV_ANGSTROM)
        except (NoBoundState, NonConvergence):
            pass
    [(brackets, samples)] = seen
    return [(b.lo, b.hi, b.f_lo, b.f_hi) for b in brackets], samples


@st.composite
def _scan_cases(draw):
    """(sector, params, M, state): a random molecule, alpha, strengths and mass from 10 eV to the molecule's own."""
    mol = draw(st.sampled_from(builtin_molecules()))
    p, part = to_potential_params(mol, draw(st.floats(0.0, 5.0)), draw(st.floats(0.0, 5.0)), draw(st.floats(0.01, 0.3)))
    M = 10.0 ** draw(st.floats(1.0, math.log10(part.mu_energy)))
    params = draw(st.sampled_from(("scaled", "unscaled", "pseudospin")))
    p = {"scaled": scaled_params(p, part, M), "unscaled": p,
         "pseudospin": pseudospin_params(p, M, HBAR_C_EV_ANGSTROM)}[params]
    sector = draw(st.sampled_from((_KG, _SPIN, _PSEUDOSPIN)))
    if sector is _KG:
        qn = QuantumNumbers(n=draw(st.integers(0, 4)), l=draw(st.integers(0, 3)), D=draw(st.sampled_from((2, 3, 4))))
        state = (qn,)
    else:
        C = draw(st.sampled_from((0.0, 0.0, 0.5, -0.5))) * M
        state = (draw(st.sampled_from((-3, -2, -1, 1, 2, 3))), C, draw(st.integers(0, 3)))
    return sector, p, M, state


def _ch(a, b, alpha, M):
    p, part = to_potential_params(find_molecule("CH"), a, b, alpha)
    return scaled_params(p, part, M)


#: the rel-sweep KG sweep of HCl-like strengths scaled to M = 500 eV (seed 0, pass 1) whose n = 2 level a
#: scan that reads every 16th point loses at this step: a genuine and a spurious sign change share one cell
_SWEEP_STEP = PotentialParams(a=1.31976e6, b=float_linspace(684632.0, 2.0539e6, 7)[1], D_e=cm_inverse_to_ev(6.80248e10),
                              r_e=1.2746, alpha=0.025)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=_scan_cases())
@example(case=(_KG, _ch(1.0, 1.0, 0.2, 50.0), 50.0, (QuantumNumbers(n=0, l=0),)))  # two sign changes in one cell
@example(case=(_KG, _SWEEP_STEP, 500.0, (QuantumNumbers(n=2, l=0),)))
@example(case=(_PSEUDOSPIN, to_potential_params(find_molecule("CH"), 0.0, 9734.68356025, 0.025)[0], 50.0, (2, 0.0, 0)))
@example(case=(_KG, PotentialParams(a=1.0, b=1.0, D_e=0.0, r_e=1.1, alpha=0.1), 100.0, (QuantumNumbers(n=0, l=0),)))
def test_sparse_scan_finds_the_brackets_of_a_full_read(case):
    sector, params, M, state = case
    brackets, samples = _solver_scan(sector, params, M, state)
    expected = _full_read_brackets(sector, params, M, state)
    assert [tuple(map(_bits, b)) for b in brackets] == [tuple(map(_bits, b)) for b in expected]
    if params.D_e == 0.0:  # no polynomial: every point is read
        assert samples is None
    else:
        assert samples is not None and len(samples) <= 40


def test_sparse_scan_examples_are_what_they_claim():
    # the two sign changes that cancel in one cell stay missed; the sweep step has two brackets; the pseudospin window
    # has a hole between defined stretches of the grid
    assert _full_read_brackets(_KG, _ch(1.0, 1.0, 0.2, 50.0), 50.0, (QuantumNumbers(n=0, l=0),)) == []
    assert len(_full_read_brackets(_KG, _SWEEP_STEP, 500.0, (QuantumNumbers(n=2, l=0),))) == 2
    p = to_potential_params(find_molecule("CH"), 0.0, 9734.68356025, 0.025)[0]
    at = scalar_pseudospin_fields(p, 50.0, 2, 0.0, 0, HBAR_C_EV_ANGSTROM)
    lo, hi = default_search_interval(p, 50.0)
    holes = [scalar_nu_eval(at(float(E)), 0) is None for E in np.linspace(lo, hi, SCAN_POINTS)]
    assert any(holes) and not all(holes)


def _fallback_states():
    """(sector, params, M, state): CH Klein-Gordon n = 0, 2 and spin kappa = -2
    at M = 500 eV, and pseudospin kappa = 1 at M = 5000 eV, where n = 1 binds."""
    p, part = to_potential_params(find_molecule("CH"), 1.0, 1.0, 0.025)
    ps, pp = scaled_params(p, part, 500.0), pseudospin_params(p, 5000.0, HBAR_C_EV_ANGSTROM)
    return [(_KG, ps, 500.0, (QuantumNumbers(n=0, l=0),)), (_KG, ps, 500.0, (QuantumNumbers(n=2, l=1),)),
            (_SPIN, ps, 500.0, (-2, 0.0, 1)), (_PSEUDOSPIN, pp, 5000.0, (1, 0.0, 1))]


@pytest.mark.parametrize("error", [NonConvergence, ZeroDivisionError])
def test_scan_reads_every_point_when_the_root_disks_fail(error, monkeypatch):
    expected = [relativistic._solve(*case, True, HBAR_C_EV_ANGSTROM) for case in _fallback_states()]
    assert all(_solver_scan(*case)[1] is not None for case in _fallback_states())

    def failing(*args):
        raise error("root disks failed")

    monkeypatch.setattr(relativistic, "polynomial_root_disks", failing)
    for case, roots in zip(_fallback_states(), expected):
        assert _solver_scan(*case)[1] is None  # no sample list: every grid point is read
        got = relativistic._solve(*case, True, HBAR_C_EV_ANGSTROM)
        assert _bits(got).tolist() == _bits(roots).tolist(), case[0].noun


# --- the solver's input domain, witnessed by the numpy scan that once read every point ---------------------


def _numpy_scan_overflows(sector, p, M, state, hbar_c=HBAR_C_EV_ANGSTROM):
    """Whether the numpy array scan that once read every grid point raises FloatingPointError: a frozen copy."""
    angular, shift, n = sector.labels(*state)
    sign, hc2, a2 = sector.sign, hbar_c**2, p.alpha**2
    lo, hi = default_search_interval(p, M)
    with np.errstate(over="raise", invalid="ignore", divide="ignore"):
        try:
            E = np.linspace(lo, hi, SCAN_POINTS)
            S = (M + sign * E + shift) / hc2
            T = sign * np.where(S > 0.0, S, np.nan)
            eps, beta, eta = T * (sign * M - E + p.D_e) / a2, T * p.a / p.alpha, T * p.b / p.alpha
            chi, phi = 2.0 * T * p.D_e * p.q / a2, T * p.D_e * p.q**2 / a2
            radicand = 0.25 + phi + angular
            P = n + 0.5 + np.sqrt(np.where(radicand >= 0.0, radicand, np.nan))
            N = P * P - beta + eta - chi + angular - phi
            t = N / P
            rhs = beta - angular + 0.25 * (t * t)
            (eps - rhs) / (1.0 + abs(eps) + abs(rhs))
        except FloatingPointError:
            return True
    return False


_MAGNITUDE = st.floats(-3.0, 308.0).map(lambda e: 10.0**e)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(sector=st.sampled_from((_KG, _SPIN, _PSEUDOSPIN)), a=st.one_of(_MAGNITUDE, _MAGNITUDE.map(lambda x: -x)),
       b=st.one_of(_MAGNITUDE, st.just(1.0)), De=st.one_of(_MAGNITUDE, st.just(4.0)), M=_MAGNITUDE,
       alpha=st.floats(0.01, 0.3), C=st.one_of(st.just(0.0), _MAGNITUDE))
@example(sector=_KG, a=0.0, b=1.0, De=1.0, M=1.7e308, alpha=0.1, C=0.0)  # the window's width overflows
@example(sector=_KG, a=0.0, b=1.0, De=1e308, M=1e308, alpha=0.1, C=0.0)  # an infinite window end
@example(sector=_SPIN, a=1e200, b=1.0, De=4.0, M=500.0, alpha=0.1, C=0.0)
# outside the domain, yet the numpy scan did not overflow and returned 4.198339226503995e102 eV
@example(sector=_KG, a=-4.444037808269929e102, b=1.0, De=8.464231594165386e108, M=5.1503299503786396e75,
         alpha=0.07033699007010909, C=0.0)
def test_solver_raises_exactly_outside_its_overflow_free_domain(sector, a, b, De, M, alpha, C):
    # where the window's upper end M + D_e - a*alpha overflows, there is no
    # window to scan: the solver raises, as it does outside a finite window's domain
    p = PotentialParams(a=a, b=b, D_e=De, r_e=1.1, alpha=alpha)
    state = (QuantumNumbers(n=1, l=1),) if sector is _KG else (2, C, 1)
    try:
        relativistic._solve(sector, p, M, state, True, HBAR_C_EV_ANGSTROM)
        raised = False
    except InvalidParameter as exc:
        assert "overflow" in str(exc)
        raised = True
    except (NoBoundState, NonConvergence):
        raised = False
    infinite_window = math.isinf(M + max(De - a * alpha, 0.0) - 1e-6 * M)
    outside = infinite_window or not _overflow_free(p, M, default_search_interval(p, M), sector.labels(*state),
                                                    HBAR_C_EV_ANGSTROM)
    assert raised == outside
    # the domain holds no input on which the full numpy scan overflowed
    assert raised or not _numpy_scan_overflows(sector, p, M, state)
