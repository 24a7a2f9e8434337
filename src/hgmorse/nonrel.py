"""Closed-form nonrelativistic energies and normalized radial wavefunctions.

The energy formula is the nonrelativistic reduction of the equal
scalar-vector relativistic spectrum.  With T = 2 mu/hbar^2, q the Morse
range parameter, kap2 = hbar^2 alpha^2/(2 mu) and

    delta = sqrt(1/4 + l(l+1) + T D_e q^2/alpha^2),    P = n + 1/2 + delta,
    N = P^2 + T (b/alpha - a/alpha - 2 D_e q/alpha^2 - D_e q^2/alpha^2) + l(l+1),

the level is

    E(n, l) = D_e - a alpha + kap2 l(l+1) - (kap2/4) (N/P)^2.

`energy_nonrel` evaluates it for one (n, l) at p's strengths, and
`_energy_at`, its body, at the strengths (a, b) that the reference-table
fits scan.  Squaring N/P would carry the formula on past the last bound
level, with energies that fall as n grows, so both raise NoBoundState there:
the N < 0 rule of `wavefun.bound_exponents`.

The sign of the D_e q^2/alpha^2 coupling term here differs from one printed
variant of this formula; the finite-difference oracle selects this one
decisively (the other is off by ~0.2 eV for CH); the eliminated variant
lives in the tests, which hold it against the oracle.
Wavefunctions are s^omega (1 - s)^phi_exp P_n^(2 omega, 2 phi_exp - 1)(1 - 2s)
in s = e^(-alpha r) (`wavefun`), normalized by quadrature (the
closed-form constant is exact at n = 0
but inherits a flawed norm identity at n >= 1; it lives in the tests, which
compare it with the quadrature value).

The closed-form levels run in plain float arithmetic, without numpy;
`wavefun` (with `specfun` and numpy) loads only when a wavefunction is
asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import TYPE_CHECKING

from .errors import InvalidParameter, NoBoundState
from .potential import PotentialParams
from .units import HBAR_C_EV_ANGSTROM

if TYPE_CHECKING:
    from . import wavefun
    from .relativistic import RelWavefunctionSpec


@dataclass(frozen=True)
class ParticleSpec:
    """Reduced mass-energy mu*c^2 (eV) plus the hbar*c it is used with."""

    mu_energy: float
    hbar_c: float = HBAR_C_EV_ANGSTROM

    def __post_init__(self) -> None:
        if not self.mu_energy > 0.0:
            raise InvalidParameter(f"mu_energy must be > 0, got {self.mu_energy!r}")

    @property
    def kinetic_scale(self) -> float:
        """hbar^2/(2 mu) in eV*A^2."""
        return self.hbar_c**2 / (2.0 * self.mu_energy)

    @property
    def two_mu_over_hbar2(self) -> float:
        """T = 2 mu/hbar^2 in 1/(eV*A^2)."""
        return 2.0 * self.mu_energy / self.hbar_c**2


def energy_nonrel(p: PotentialParams, part: ParticleSpec, n: int, l: int) -> float:
    """Closed-form level E(n, l) in eV (oracle-verified transcription).

    InvalidParameter for a negative n or l, or when finite inputs overflow
    the closed form; NoBoundState unless the bracket numerator N < 0 (see
    wavefun.bound_exponents).
    """
    return _energy_at(p, part, n, l, p.a, p.b)


def _energy_at(p: PotentialParams, part: ParticleSpec, n: int, l: int, a: float, b: float) -> float:
    """energy_nonrel at strengths (a, b) in place of p's, with its checks."""
    if n < 0 or l < 0:
        raise InvalidParameter(f"quantum numbers must be >= 0, got (n={n!r}, l={l!r})")
    try:
        T = part.two_mu_over_hbar2
        a2 = p.alpha**2
        phi = T * p.D_e * p.q**2 / a2
        l1 = l + 1
        L = l * l1
        P = n + 0.5 + math.sqrt(0.25 + L + phi)
        coupling = T * (b / p.alpha - a / p.alpha - 2.0 * p.D_e * p.q / a2 - p.D_e * p.q**2 / a2)
        N = P * P + coupling + L
        kap2 = part.kinetic_scale * p.alpha**2
        E = p.D_e - a * p.alpha + kap2 * l * l1 - 0.25 * kap2 * (N / P) ** 2
    except OverflowError:  # a square, or an integer too large for a float
        E = math.nan
    if not math.isfinite(E):
        raise InvalidParameter(f"E(n={n}, l={l}) is not finite: the closed form overflows at these parameters")
    if not N < 0.0:
        raise NoBoundState(f"E(n={n}, l={l}) is past the last bound level: N = {N!r} >= 0")
    return E


@cache
def _wavefun():
    """The wavefunction engine `hgmorse.wavefun`, imported (with numpy and
    `specfun`) on the first call; later calls cost one cached call, not an
    import statement."""
    from . import wavefun

    return wavefun


def wavefunction_exponents(p: PotentialParams, part: ParticleSpec, E: float, l: int) -> tuple[float, float]:
    """(omega, phi_exp): the s -> 0 and s -> 1 exponents of the eigenfunction.

    omega = sqrt(T (D_e - E)/alpha^2 + l(l+1) - T a/alpha) and
    phi_exp = 1/2 + sqrt(1/4 + l(l+1) + T D_e q^2/alpha^2), by
    wavefun.bound_exponents: NoBoundState unless the omega radicand is > 0
    (a threshold, unbound or NaN energy fails).
    """
    if l < 0:
        raise InvalidParameter(f"l must be >= 0, got {l!r}")
    T = part.two_mu_over_hbar2
    a2 = p.alpha**2
    return _wavefun().bound_exponents(T * (p.D_e - E) / a2 + l * (l + 1) - T * p.a / p.alpha,
                                      0.25 + l * (l + 1) + T * p.D_e * p.q**2 / a2)


@dataclass(frozen=True)
class WavefunctionSpec:
    """Exponents, degree and normalization of one radial eigenfunction.

    The normalization constant is stored as log_norm because molecular
    exponents overflow a double (log N ~ +1e3).
    """

    omega: float
    phi_exp: float
    n: int
    alpha: float
    log_norm: float

    def __post_init__(self) -> None:
        self.waveform  # invariant check
        if not math.isfinite(self.log_norm):
            raise InvalidParameter(f"log_norm must be finite, got {self.log_norm!r}")

    @cached_property
    def waveform(self) -> wavefun.SWaveform:
        """The engine's view of this state, with its per-state constants."""
        return _wavefun().SWaveform(self.omega, self.phi_exp, self.n, self.alpha)


def make_wavefunction(p: PotentialParams, part: ParticleSpec, n: int, l: int) -> WavefunctionSpec:
    """Energy + exponents + quadrature normalization for the (n, l) level."""
    wavefun = _wavefun()
    E = energy_nonrel(p, part, n, l)
    omega, phi_exp = wavefunction_exponents(p, part, E, l)
    log_norm = wavefun.log_norm_quadrature(wavefun.SWaveform(omega, phi_exp, n, p.alpha))
    return WavefunctionSpec(omega, phi_exp, n, p.alpha, log_norm)


def radial_wavefunction(spec: WavefunctionSpec | RelWavefunctionSpec, r: float) -> float:
    """Normalized u(r), or a relativistic radial component (relativistic.rel_radial_value);
    vanishes at both ends of (0, infinity)."""
    return float(_wavefun().value(spec.waveform, spec.log_norm, r))


def level_indices(n_max: int, l_max: int, rectangular: bool = False) -> list[tuple[int, int]]:
    """Triangular (l <= n) or rectangular (n, l) iteration order."""
    if n_max < 0 or l_max < 0:
        raise InvalidParameter(f"n_max and l_max must be >= 0, got ({n_max!r}, {l_max!r})")
    out = []
    for n in range(n_max + 1):
        top = l_max if rectangular else min(n, l_max)
        for l in range(top + 1):
            out.append((n, l))
    return out

