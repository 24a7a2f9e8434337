"""Klein-Gordon and Dirac (spin / pseudospin symmetry) bound-state solvers.

All three wave equations reduce, in the s = e^(-alpha r) variable, to the
same quadratic-coefficient eigenvalue structure.  With dimensionless fields
(eps, beta, eta, chi, phi, gamma) built from the energy, the quantization
condition reads

    eps = beta - gamma + (1/4) [(P^2 - beta + eta - chi + gamma - phi)/P]^2,
    P   = n + 1/2 + sqrt(1/4 + phi + gamma),

which is implicit in E because every field carries an energy-dependent
prefactor.  Residual functions return the normalized defect

    f(E) = (lhs - rhs) / (1 + |lhs| + |rhs|),

whose roots and signs match the raw equation while keeping magnitudes O(1)
across mass scales (the raw fields reach ~1e8 for molecular parameters, far
beyond what float64 root contracts could express).  Being a squared
equation, it admits spurious roots; genuine levels additionally satisfy
N <= 0 for the bracket numerator N (equivalently the pre-squared relation
2 P sqrt(eps - beta + gamma) = -N with a nonnegative left side), and the
solvers drop the rest.  Every accepted root can be cross-checked by the
shooting oracle on the corresponding radial equation.

Each equation is described once, as a private sector record: a sign, a
label map and its branch filter.  The sign is
+1 for the sum potential of Klein-Gordon and spin symmetry and -1 for the
pseudospin difference potential, which flips every coupling; the label map
takes a public state to (angular coefficient, energy shift, n).  From these
one field builder and one ODE coefficient serve all three equations: the
scale factor is S = (M + sign*E + shift)/(hbar c)^2, each field is a
multiple of sign*S, NaN where S is not positive, and the residual is NaN on
every domain hole.  The field builder does the state-only work once and
returns E -> fields for one float E.  The root scan, bisection, the public
residuals and the spec builder all evaluate these formulas in plain float
arithmetic, and kg_residual_nonrel_limit builds its substituted fields by
them too.  The scan reads the residual only at the grid energies next to
the real roots of the quantization polynomial, which the same field
formulas build on polynomial arguments (_scan_samples), and so finds the
brackets that reading the whole grid finds; the module loads no numpy.
One solver, one residual and one spec builder serve all three sectors;
the public functions are one-call wrappers over them.

The fully expanded printed variants of the three eigenvalue equations carry
typesetting defects (a dropped coupling term, a sign flip, a missing 1/4);
they are evaluated only as cross-checks, never solved: they fill the
cross_check_residual column of a relativistic levels table.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Optional

from .errors import InvalidParameter, NoBoundState, SolverError
from .nonrel import ParticleSpec, _wavefun, radial_wavefunction
from .potential import PotentialParams, centrifugal_approx, potential_approx
from .record import Record
from .rootfind import bisect, polynomial_root_disks, scan_brackets
from .units import HBAR_C_EV_ANGSTROM

if TYPE_CHECKING:
    from . import wavefun


class QuantumNumbers(Record):
    """State labels: radial n, orbital l, dimension D."""

    n: int
    l: int = 0
    D: int = 3

    def __post_init__(self) -> None:
        if self.n < 0 or self.l < 0:
            raise InvalidParameter(f"n and l must be >= 0, got ({self.n!r}, {self.l!r})")
        if self.D < 1:
            raise InvalidParameter(f"dimension must be >= 1, got {self.D!r}")


def lambda_D(D: int, l: int) -> float:
    """Angular coefficient (D+2l-1)(D+2l-3)/4; equals l(l+1) at D = 3."""
    if D < 1 or l < 0:
        raise InvalidParameter(f"need D >= 1 and l >= 0, got ({D!r}, {l!r})")
    return (D + 2 * l - 1) * (D + 2 * l - 3) / 4.0


# ---------------------------------------------------------------------------
# shared quantization core
# ---------------------------------------------------------------------------


def _defect(lhs: float, rhs: float) -> float:
    """Normalized defect of the equation lhs = rhs."""
    return (lhs - rhs) / (1.0 + abs(lhs) + abs(rhs))


def _numerator(P, f: tuple):
    """The bracket numerator N = P^2 - beta + eta - chi + gamma - phi of P and the fields f."""
    _, beta, eta, chi, phi, gamma = f
    return P * P - beta + eta - chi + gamma - phi


def _nu_eval(f: tuple, n: int) -> tuple[float, float]:
    """(normalized residual, bracket numerator N) of the fields f, NaN on a domain hole.

    A hole is a NaN field (a scale factor <= 0) or a negative radicand
    1/4 + phi + gamma.
    """
    eps, beta, _, _, phi, gamma = f
    radicand = 0.25 + phi + gamma
    P = n + 0.5 + math.sqrt(radicand if radicand >= 0.0 else math.nan)
    N = _numerator(P, f)
    t = N / P
    return _defect(eps, beta - gamma + 0.25 * (t * t)), N


class _Sector(Record):
    """One relativistic wave equation over the shared quantization core.

    A state is the tuple of labels the equation's public functions take
    after (p, M[, E]): (qn,) for Klein-Gordon and (kappa, C, n) for the
    Dirac sectors, C being the spin or pseudospin constant.  labels and
    describe take the state splatted.
    """

    noun: str  # names the level in NoBoundState messages
    describe: Callable[..., str]  # the state in NoBoundState messages
    sign: int  # +1 for the sum potential, -1 for the difference potential
    labels: Callable[..., tuple[float, float, int]]  # state -> (angular coefficient, energy shift, n)
    keep: Callable[[float], bool]  # branch filter, unless all_roots


def _nu_fields(p: PotentialParams, T, minus_binding, angular: float) -> tuple:
    """(eps, beta, eta, chi, phi, gamma) of scale factor T and binding term minus_binding.

    The first five are of T's kind, floats or polynomials; gamma is the
    energy-independent angular term.  _fields passes T = sign*S and
    sign*M - E, kg_residual_nonrel_limit 2 mu/hbar^2 and -E_nl, and
    _scan_samples polynomials in the radicand's square root.
    """
    a2 = p.alpha**2
    return (T * (minus_binding + p.D_e) / a2, T * p.a / p.alpha, T * p.b / p.alpha,
            2.0 * T * p.D_e * p.q / a2, T * p.D_e * p.q**2 / a2, angular)


def _fields(
    sector: _Sector, p: PotentialParams, M: float, state: tuple, hbar_c: float
) -> tuple[Callable[[float], tuple], int]:
    """(E -> fields, n) of one state; the fields are NaN where S is not positive.

    With T = sign*S the Klein-Gordon fields are (-eps_KG, beta, eta, chi,
    phi_KG, Lambda), the spin ones (gamma1, delta1, delta2, delta0, gamma0,
    beta1) of the upper-spinor equation and the pseudospin ones (chi0,
    -chi1, -chi2, -theta2, -theta1, lambda1) of the lower-spinor equation.
    """
    hc2 = hbar_c**2
    sign = sector.sign
    angular, shift, n = sector.labels(*state)

    def at(E: float) -> tuple:
        S = (M + sign * E + shift) / hc2
        return _nu_fields(p, sign * (S if S > 0.0 else math.nan), sign * M - E, angular)

    return at, n


def _ode(sector: _Sector, p: PotentialParams, M: float, state: tuple, hbar_c: float):
    """W(r; E) of u'' + W u = 0 for one state's radial equation (shooting oracle)."""
    sign = sector.sign
    angular, shift, _ = sector.labels(*state)
    hc2 = hbar_c**2

    def W(r, E):
        T = sign * (M + sign * E + shift)
        return -T * ((sign * M - E) + potential_approx(p, r)) / hc2 - centrifugal_approx(p.alpha, r, angular)

    return W


def _dirac_labels(sign: int) -> Callable[[int, float, int], tuple[float, float, int]]:
    """(kappa, C, n) -> (kappa(kappa + sign), -sign*C, n), so that S = (M + sign*(E - C))/(hbar c)^2."""

    def labels(kappa: int, C: float, n: int) -> tuple[float, float, int]:
        if kappa == 0:
            raise InvalidParameter("kappa must be nonzero")
        return float(kappa * (kappa + sign)), -sign * C, n

    return labels


# ---------------------------------------------------------------------------
# Klein-Gordon (equal scalar and vector potentials, D dimensions)
# ---------------------------------------------------------------------------


def kg_residual(
    p: PotentialParams, M: float, E: float, qn: QuantumNumbers, hbar_c: float = HBAR_C_EV_ANGSTROM
) -> Optional[float]:
    """Normalized quantization defect at E; None on a domain hole."""
    return _residual(_KG, p, M, E, (qn,), hbar_c)


def kg_residual_nonrel_limit(p: PotentialParams, part: ParticleSpec, E_nl: float, n: int, l: int) -> float:
    """kg_residual under the substitutions M+E -> 2 mu/hbar^2, M-E -> -E_nl.

    Built by the field formulas of every residual; at a closed-form
    nonrelativistic level it is an algebraic identity (rounding noise ~1e-16).
    """
    res = float(_nu_eval(_nu_fields(p, part.two_mu_over_hbar2, -E_nl, float(l * (l + 1))), n)[0])
    if math.isnan(res):
        raise NoBoundState("substituted residual undefined")
    return res


def kg_printed_eq_residual(
    p: PotentialParams, M: float, E: float, qn: QuantumNumbers, hbar_c: float = HBAR_C_EV_ANGSTROM
) -> float:
    """Normalized defect of the printed expanded KG equation, a cross-check.

    Transcribed with minimal unit restoration (each energy*energy product
    divided by (hbar c)^2); its coupling bracket lacks the D_e q^2/alpha
    term entirely, so the defect is nonzero at genuine roots.
    """
    hc2 = hbar_c**2
    a2 = p.alpha**2
    lam = lambda_D(qn.D, qn.l)
    delta = math.sqrt(0.25 + p.D_e * (E + M) * p.q**2 / (a2 * hc2) + lam)
    P = qn.n + 0.5 + delta
    num = P * P - (E + M) * (p.a - p.b + 2.0 * p.D_e * p.q / p.alpha) / (p.alpha * hc2) + lam
    lhs = E * E - M * M
    rhs = (p.D_e - p.a * p.alpha) * (E + M) + a2 * hc2 * lam - 0.25 * a2 * hc2 * (num / P) ** 2
    return _defect(lhs, rhs)


# ---------------------------------------------------------------------------
# Dirac, spin and pseudospin symmetry
# ---------------------------------------------------------------------------


def spin_residual(
    p: PotentialParams,
    M: float,
    E: float,
    kappa: int,
    Cs: float = 0.0,
    n: int = 0,
    hbar_c: float = HBAR_C_EV_ANGSTROM,
) -> Optional[float]:
    """Normalized spin-symmetry quantization defect at E; None on a hole.

    At Cs = 0 with kappa(kappa+1) = l(l+1) this function is float-identical
    to kg_residual at D = 3.
    """
    return _residual(_SPIN, p, M, E, (kappa, Cs, n), hbar_c)


def spin_printed_eq_residual(
    p: PotentialParams,
    M: float,
    E: float,
    kappa: int,
    Cs: float = 0.0,
    n: int = 0,
    hbar_c: float = HBAR_C_EV_ANGSTROM,
) -> float:
    """Normalized defect of the printed expanded spin-symmetry equation.

    Transcribed with unit restoration and the lone "alpha" first right-hand
    term read as a*alpha (its strength factor was dropped in typesetting).
    Keeps the printed +D_e q^2/alpha^2 coupling sign, which the compact
    chain and the oracle both reject, so nonzero defects at roots are
    expected.
    """
    hc2 = hbar_c**2
    a2 = p.alpha**2
    b0 = M + E - Cs
    b1 = float(kappa * (kappa + 1))
    delta = math.sqrt(0.25 + b1 + b0 * p.D_e * p.q**2 / (a2 * hc2))
    P = n + 0.5 + delta
    num = P * P + b0 * (p.b / p.alpha - 2.0 * p.D_e * p.q / a2 - p.a / p.alpha + p.D_e * p.q**2 / a2) / hc2 + b1
    lhs = b0 * (M - E + p.D_e)
    rhs = b0 * p.a * p.alpha - a2 * hc2 * b1 + 0.25 * a2 * hc2 * (num / P) ** 2
    return _defect(lhs, rhs)


def pseudospin_residual(
    p: PotentialParams,
    M: float,
    E: float,
    kappa: int,
    Cps: float = 0.0,
    n: int = 0,
    hbar_c: float = HBAR_C_EV_ANGSTROM,
) -> Optional[float]:
    """Normalized pseudospin quantization defect; None on a domain hole.

    The hole radicand is 1/4 - theta1 + lambda1 as forced by the coefficient
    chain (and by the printed spinor exponents); molecular-strength wells
    drive it negative on most of the energy axis, which is the supercritical
    1/r^2 collapse region where no bound state exists.
    """
    return _residual(_PSEUDOSPIN, p, M, E, (kappa, Cps, n), hbar_c)


def pseudospin_printed_eq_residual(
    p: PotentialParams,
    M: float,
    E: float,
    kappa: int,
    Cps: float = 0.0,
    n: int = 0,
    hbar_c: float = HBAR_C_EV_ANGSTROM,
) -> float:
    """Normalized defect of the printed expanded pseudospin equation, a cross-check.

    Printed defects kept as-is: no 1/4 on the squared bracket, +theta1 in
    the radicand, and the flipped coupling signs; the angular term printed
    inside the coupling parentheses is read at its dimensionally consistent
    position in the numerator.
    """
    hc2 = hbar_c**2
    a2 = p.alpha**2
    lam0 = M - E + Cps
    lam1 = float(kappa * (kappa - 1))
    radicand = 0.25 + p.D_e * p.q**2 * lam0 / (a2 * hc2) + lam1
    if radicand < 0.0:
        return math.nan
    P = n + 0.5 + math.sqrt(radicand)
    num = P * P + lam0 * (p.a / p.alpha - p.b / p.alpha + 2.0 * p.D_e * p.q / a2 + p.D_e * p.q**2 / a2) / hc2 + lam1
    lhs = (p.D_e - M - E) * lam0
    rhs = lam1 * a2 * hc2 + lam0 * p.a * p.alpha - a2 * hc2 * (num / P) ** 2
    return _defect(lhs, rhs)


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------


def default_search_interval(p: PotentialParams, M: float) -> tuple[float, float]:
    """Bound-state window (-M, M + D_e - a*alpha), shrunk by 1e-6*M margins.

    The approximate potential tends to D_e - a*alpha at infinity, so bound
    energies satisfy (E+M)(E - M - D_e + a*alpha) < 0 rather than lying in
    the bare mass gap.  Raises InvalidParameter unless M is finite and > 0,
    and where the upper end overflows.
    """
    if not (math.isfinite(M) and M > 0.0):
        raise InvalidParameter(f"the mass M must be finite and > 0, got {M!r}")
    margin = 1e-6 * M
    v_inf = max(p.D_e - p.a * p.alpha, 0.0)
    hi = M + v_inf - margin
    if not math.isfinite(hi):
        raise InvalidParameter(f"the bound-state window's upper end M + D_e - a*alpha overflows at M = {M!r}")
    return -M + margin, hi


#: residual samples of the root scan over the default_search_interval window
_SCAN_POINTS = 2000
#: bracket width (eV) at which the bisection of a root stops
_BISECT_TOL = 1e-12
#: grid cells read on each side of the cells that may hold a root of the quantization polynomial
_HALO = 2
#: slack, relative to |delta|, within which a root of the quantization polynomial counts as real
_NEAR_REAL = 1e-3
#: grid cells a real root's disk may span before its root finder stops refining it
_ROOT_CELLS = 0.5
#: no intermediate of the residual overflows while every input is at most this large (see _overflow_free)
_FINITE_INPUTS = 1e25


class _Poly:
    """A real polynomial as its coefficient list, constant first.

    It takes + - * with floats and polynomials and / by a float, so the
    field formulas of _nu_fields and _numerator run on it unchanged.
    """

    __slots__ = ("c",)

    def __init__(self, c: list[float]) -> None:
        self.c = c

    def __add__(self, other):
        if type(other) is not _Poly:
            c = self.c.copy()
            c[0] += other
            return _Poly(c)
        a, b = self.c, other.c
        if len(a) < len(b):
            a, b = b, a
        c = a.copy()
        for i, y in enumerate(b):
            c[i] += y
        return _Poly(c)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not _Poly:
            c = self.c.copy()
            c[0] -= other
            return _Poly(c)
        b = other.c
        c = self.c + [0.0] * (len(b) - len(self.c))
        for i, y in enumerate(b):
            c[i] -= y
        return _Poly(c)

    def __rsub__(self, other):
        c = [-x for x in self.c]
        c[0] += other
        return _Poly(c)

    def __mul__(self, other):
        a = self.c
        if type(other) is not _Poly:
            return _Poly([x * other for x in a])
        c = [0.0] * (len(a) + len(other.c) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(other.c, i):
                c[j] += x * y
        return _Poly(c)

    __rmul__ = __mul__

    def __truediv__(self, other: float):
        return _Poly([x / other for x in self.c])

    def __call__(self, x: float) -> float:
        value = 0.0
        for ck in reversed(self.c):
            value = value * x + ck
        return value


def _overflow_checked(op: Callable[[float, float], float]) -> Callable[[float, float], float]:
    def checked(x: float, y: float):
        r = op(x, y)
        if r is NotImplemented:
            return r
        if math.isinf(r) and math.isfinite(x) and math.isfinite(y):
            raise FloatingPointError(f"{op.__name__} overflows")
        return _Strict(r)

    return checked


class _Strict(float):
    """A float whose + - * / and abs() give _Strict floats, and raise
    FloatingPointError where finite operands give an infinite result: the
    overflow that numpy's errstate(over="raise") traps in an array, and that
    Python's float arithmetic lets pass as inf.  An energy of this kind makes
    every operation of the residual that depends on it a checked one."""

    __slots__ = ()
    __add__ = _overflow_checked(float.__add__)
    __radd__ = _overflow_checked(float.__radd__)
    __sub__ = _overflow_checked(float.__sub__)
    __rsub__ = _overflow_checked(float.__rsub__)
    __mul__ = _overflow_checked(float.__mul__)
    __rmul__ = _overflow_checked(float.__rmul__)
    __truediv__ = _overflow_checked(float.__truediv__)
    __rtruediv__ = _overflow_checked(float.__rtruediv__)

    def __abs__(self) -> _Strict:
        return _Strict(float.__abs__(self))


def _overflow_free(p: PotentialParams, M: float, window: tuple[float, float], labels: tuple, hbar_c: float) -> bool:
    """Whether no intermediate of the residual can overflow at any energy of the window.

    Let X >= 1 bound |E|, M, |shift|, |a|, |b|, D_e, |q|, 1/alpha,
    1/alpha^2, |angular|, n and 1/(hbar c)^2.  Then S <= 3X^2, every field
    is at most 9X^4 but phi (3X^6) and chi (6X^5), P <= 5X^3, N <= 41X^6,
    N/P <= 82X^6 (P >= 1/2), and every later intermediate of _nu_eval, the
    grid and the defect stays below 1710 X^12, which is finite for X <=
    _FINITE_INPUTS = 1e25.  Beyond that bound the scan checks each operation.
    """
    angular, shift, n = labels
    return max(abs(window[0]), abs(window[1]), M, abs(shift), abs(p.a), abs(p.b), p.D_e, abs(p.q),
               1.0 / abs(p.alpha), 1.0 / p.alpha**2, abs(angular), n, 1.0 / hbar_c**2) <= _FINITE_INPUTS


def _field_polynomials(
    p: PotentialParams, M: float, sign: int, angular: float, shift: float, hbar_c: float
) -> Optional[tuple[float, float, _Poly, tuple]]:
    """(k, d0, E, fields) of _scan_samples, E and the fields as polynomials in u; None if k = 0."""
    k = _nu_fields(p, 1.0, 0.0, angular)[4]
    if not k > 0.0:
        return None
    d0 = math.sqrt(0.25 + angular)
    T = _Poly([0.0, 2.0 * d0 / k, 1.0 / k])
    E = hbar_c**2 * T - sign * (M + shift)
    return k, d0, E, _nu_fields(p, T, sign * M - E, angular)


def _scan_samples(
    sector: _Sector, p: PotentialParams, M: float, labels: tuple, hbar_c: float, window: tuple[float, float]
) -> Optional[list[int]]:
    """The scan grid indices within _HALO cells of a real root of the quantization polynomial, ascending.

    S and the radicand R = 1/4 + phi + gamma are linear in E.  With delta =
    sqrt(R) = d0 + u, d0 = sqrt(1/4 + gamma) and k = phi per unit T, the
    scale factor is T = sign*S = u (2 d0 + u)/k and E = (hbar c)^2 T -
    sign*(M + shift), so every field is a polynomial in u, and so is P =
    n + 1/2 + d0 + u.  The residual then has the sign of
    Q = 4 P^2 (eps - beta + gamma) - N^2, of degree 6 in u, which
    _nu_fields and _numerator build on polynomial arguments.  The residual
    is defined for u >= -d0 where T has the sign of the sector: u > 0 for
    the sum potential, -d0 <= u < 0 for the difference potential.  Each sign
    change of the residual between two grid points brackets a real root
    u >= -d0 of Q.  polynomial_root_disks covers every root of Q by a disk;
    each disk that comes within _NEAR_REAL*|delta| of the real axis and of
    the window's stretch of u (with its halo), cut at u = -d0, maps to an
    energy interval, whose grid cells and the _HALO cells on each side are
    read; only those disks are refined, down to _ROOT_CELLS of a cell.  The
    slack and the halo absorb the rounding of Q's coefficients and of the
    residual near its roots.
    Returns None, to read every grid point, where there is no polynomial
    (k = 0) or no finite disk.
    """
    angular, shift, n = labels
    sign = sector.sign
    polynomials = _field_polynomials(p, M, sign, angular, shift, hbar_c)
    if polynomials is None:
        return None
    k, d0, E, f = polynomials
    P = _Poly([n + 0.5 + d0, 1.0])
    eps, beta, _, _, _, gamma = f
    N = _numerator(P, f)
    Q = 4.0 * (P * P) * (eps - beta + gamma) - N * N
    lo, hi = window
    step = (hi - lo) / (_SCAN_POINTS - 1)
    de_du = 2.0 * hbar_c**2 / k  # dE/du over |delta|

    def u_at(E: float) -> float:  # the inverse of E(u) on u >= -d0, without cancellation near u = 0
        kT = k * sign * (M + sign * E + shift) / hbar_c**2
        return kT / (math.sqrt(d0 * d0 + kT) + d0) if d0 * d0 + kT > 0.0 else -d0

    # the energies of the window and of the halo beyond it, where the residual is defined
    u_min, u_max = u_at(lo - (_HALO + 1) * step), u_at(hi + (_HALO + 1) * step)
    u_min, u_max = (max(u_min, 0.0), u_max) if sign > 0 else (u_min, min(u_max, 0.0))

    def relevant(u: complex, radius: float) -> bool:
        near = radius + _NEAR_REAL * abs(d0 + u)
        return abs(u.imag) <= near and u_min - near <= u.real <= u_max + near

    def refine(u: complex, radius: float) -> bool:
        return radius * de_du * abs(d0 + u) > _ROOT_CELLS * step and relevant(u, radius)

    try:
        cells: set[int] = set()
        for u, radius in polynomial_root_disks(Q.c, refine):
            u_lo, u_hi = max(u.real - radius, -d0), u.real + radius
            if u_lo > u_hi or not relevant(u, radius):
                continue
            first = math.floor((E(u_lo) - lo) / step) - _HALO
            last = math.floor((E(u_hi) - lo) / step) + _HALO + 1
            cells.update(range(max(first, 0), min(last, _SCAN_POINTS - 1) + 1))
    except (ArithmeticError, ValueError, SolverError):
        return None
    return sorted(cells)


def _solve(
    sector: _Sector, p: PotentialParams, M: float, state: tuple, all_roots: bool, hbar_c: float
) -> list[float]:
    """All levels of one state in the default_search_interval window, ascending.

    Scans the normalized residual on a _SCAN_POINTS grid and bisects each
    sign change once, down to a _BISECT_TOL-wide bracket, then drops
    squared-equation artifacts (bracket numerator N > 0 at the root) and,
    unless all_roots, roots off the sector's branch.  The scan reads only
    the grid points _scan_samples names, around the real roots of the
    quantization polynomial, and so finds the brackets that reading every
    point finds; without a polynomial it reads every point.  No bracket
    holds a hole or a pole: S and the radicand 1/4 + phi + gamma are linear
    in E, so each is >= 0 on a half-line and the residual is defined on one
    interval, where P >= 1/2 keeps N/P finite and |f| < 1.  A bracket with
    finite ends therefore lies inside that interval.  The scan brackets are
    disjoint and ascending, so the roots come out in order.  Raises
    NoBoundState when no root is left and InvalidParameter when the residual
    overflows at a grid point (a field or the residual would be +-inf; a NaN
    is a hole): where _overflow_free cannot rule that out, the scan reads
    every point with each operation checked.  Lets a bisection
    NonConvergence propagate.
    """
    window = lo, hi = default_search_interval(p, M)
    fields, n = _fields(sector, p, M, state, hbar_c)
    labels = sector.labels(*state)

    def f(E: float) -> float:
        return _nu_eval(fields(E), n)[0]

    if _overflow_free(p, M, window, labels, hbar_c):
        brackets = scan_brackets(f, lo, hi, _SCAN_POINTS, _scan_samples(sector, p, M, labels, hbar_c, window))
    else:
        strict_n = _Strict(n)  # with a checked energy, it checks P*P too
        try:
            brackets = scan_brackets(lambda E: _nu_eval(fields(E), strict_n)[0], _Strict(lo), _Strict(hi),
                                     _SCAN_POINTS)
        except FloatingPointError:
            raise InvalidParameter(f"the {sector.noun} equation for {sector.describe(*state)} overflows in "
                                   f"[{lo!r}, {hi!r}]: it is not finite at these parameters") from None
    roots: list[float] = []
    for bracket in brackets:
        root, _ = bisect(f, bracket, _BISECT_TOL)
        N = _nu_eval(fields(root), n)[1]
        if not N > 0.0 and (all_roots or sector.keep(root)):
            roots.append(root)
    if not roots:
        raise NoBoundState(f"no {sector.noun} level in [{lo!r}, {hi!r}] for {sector.describe(*state)}")
    return roots


def _residual(sector: _Sector, p: PotentialParams, M: float, E: float, state: tuple, hbar_c: float) -> Optional[float]:
    fields, n = _fields(sector, p, M, state, hbar_c)
    res = float(_nu_eval(fields(E), n)[0])
    return None if math.isnan(res) else res


def solve_kg_energy(
    p: PotentialParams,
    M: float,
    qn: QuantumNumbers,
    hbar_c: float = HBAR_C_EV_ANGSTROM,
) -> list[float]:
    """All Klein-Gordon levels for (n, l, D) in the bound-state window, ascending.

    Found by _solve's fixed scan and bisection.  Raises NoBoundState when
    the window contains no genuine root.
    """
    return _solve(_KG, p, M, (qn,), False, hbar_c)


def solve_dirac_spin(
    p: PotentialParams,
    M: float,
    kappa: int,
    Cs: float = 0.0,
    n: int = 0,
    all_roots: bool = False,
    hbar_c: float = HBAR_C_EV_ANGSTROM,
) -> list[float]:
    """Spin-symmetry levels by _solve's fixed scan and bisection; positive-energy branch unless all_roots."""
    return _solve(_SPIN, p, M, (kappa, Cs, n), all_roots, hbar_c)


def solve_dirac_pseudospin(
    p: PotentialParams,
    M: float,
    kappa: int,
    Cps: float = 0.0,
    n: int = 0,
    all_roots: bool = False,
    hbar_c: float = HBAR_C_EV_ANGSTROM,
) -> list[float]:
    """Pseudospin-symmetry levels by _solve's fixed scan and bisection; negative-energy branch unless all_roots."""
    return _solve(_PSEUDOSPIN, p, M, (kappa, Cps, n), all_roots, hbar_c)


# ---------------------------------------------------------------------------
# radial components, quadrature-normalized
# ---------------------------------------------------------------------------


class RelWavefunctionSpec(Record):
    """Exponents, degree and log normalization of one relativistic radial part."""

    leading_exp: float
    edge_exp: float
    n: int
    alpha: float
    log_norm: float

    @cached_property
    def waveform(self) -> wavefun.SWaveform:
        """The engine's view of this state, with its per-state constants."""
        return _wavefun().SWaveform(self.leading_exp, self.edge_exp, self.n, self.alpha)


#: normalized radial component at r: the one body of nonrel.radial_wavefunction
rel_radial_value = radial_wavefunction


def _build_spec(
    sector: _Sector, p: PotentialParams, M: float, E: float, state: tuple, hbar_c: float
) -> RelWavefunctionSpec:
    wavefun = _wavefun()
    at, n = _fields(sector, p, M, state, hbar_c)
    eps, beta, _, _, phi, gamma = at(E)  # NaN where S <= 0, which the bound-state rule rejects
    leading, edge = wavefun.bound_exponents(eps - beta + gamma, 0.25 + phi + gamma)
    w = wavefun.SWaveform(leading, edge, n, p.alpha)
    return RelWavefunctionSpec(leading, edge, n, p.alpha, wavefun.log_norm_quadrature(w))


def kg_wavefunction_spec(
    p: PotentialParams, M: float, E: float, qn: QuantumNumbers, hbar_c: float = HBAR_C_EV_ANGSTROM
) -> RelWavefunctionSpec:
    """Quadrature-normalized Klein-Gordon radial component at a bound E."""
    return _build_spec(_KG, p, M, E, (qn,), hbar_c)


def upper_spinor_spec(
    p: PotentialParams, M: float, E: float, kappa: int, Cs: float = 0.0, n: int = 0,
    hbar_c: float = HBAR_C_EV_ANGSTROM,
) -> RelWavefunctionSpec:
    """Quadrature-normalized upper-spinor radial component F(r)."""
    return _build_spec(_SPIN, p, M, E, (kappa, Cs, n), hbar_c)


def lower_spinor_spec(
    p: PotentialParams, M: float, E: float, kappa: int, Cps: float = 0.0, n: int = 0,
    hbar_c: float = HBAR_C_EV_ANGSTROM,
) -> RelWavefunctionSpec:
    """Quadrature-normalized lower-spinor radial component G(r)."""
    return _build_spec(_PSEUDOSPIN, p, M, E, (kappa, Cps, n), hbar_c)


# ---------------------------------------------------------------------------
# sector records
# ---------------------------------------------------------------------------


_KG = _Sector(
    noun="Klein-Gordon",
    describe=repr,
    sign=1,
    labels=lambda qn: (lambda_D(qn.D, qn.l), 0.0, qn.n),
    keep=lambda E: True,
)
_SPIN = _Sector(
    noun="spin-symmetry",
    describe=lambda kappa, Cs, n: f"kappa={kappa!r}, n={n!r}",
    sign=1,
    labels=_dirac_labels(1),
    keep=lambda E: E > 0.0,
)
_PSEUDOSPIN = _Sector(
    noun="pseudospin",
    describe=lambda kappa, Cps, n: f"kappa={kappa!r}, n={n!r}",
    sign=-1,
    labels=_dirac_labels(-1),
    keep=lambda E: E < 0.0,
)


def model_functions(model: str) -> tuple[Callable, Callable, Callable, Callable]:
    """(solver, residual, printed residual, ODE coefficient) of "kg", "dirac-spin" or "dirac-pseudospin".

    Each takes (p, M[, E], *state, hbar_c=...), the state being (qn,) for kg
    and (kappa, C, n) for the Dirac models.  The solver and both residuals
    are looked up by their public names on each call, so a tracer that
    rebinds those names sees the calls.
    """
    solve, residual, printed, sector = {
        "kg": (solve_kg_energy, kg_residual, kg_printed_eq_residual, _KG),
        "dirac-spin": (solve_dirac_spin, spin_residual, spin_printed_eq_residual, _SPIN),
        "dirac-pseudospin": (solve_dirac_pseudospin, pseudospin_residual, pseudospin_printed_eq_residual,
                             _PSEUDOSPIN),
    }[model]

    def ode(p: PotentialParams, M: float, *state, hbar_c: float):
        return _ode(sector, p, M, state, hbar_c)

    return solve, residual, printed, ode
