"""The Hellmann plus generalized-Morse potential and its screened approximation.

The exact interaction combines an attractive Coulomb term, a Yukawa term and a
Deng-Fan-type Morse well,

    V(r) = -a/r + b e^(-alpha r)/r + D_e (1 - q/(e^(alpha r) - 1))^2,

with q = e^(alpha r_e) - 1 so the Morse bracket vanishes at the equilibrium
bond length.  The approximate form replaces every 1/r by
alpha/(1 - e^(-alpha r)) (and 1/r^2 by its square), which is what makes the
radial equations solvable in closed form; the Morse part involves no 1/r and
is carried over unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameter


def q_of(alpha: float, r_e: float) -> float:
    """Dimensionless Morse range parameter q = e^(alpha*r_e) - 1.

    expm1 keeps full precision for small alpha*r_e.
    """
    if not alpha > 0.0:
        raise InvalidParameter(f"alpha must be > 0, got {alpha!r}")
    if not r_e > 0.0:
        raise InvalidParameter(f"r_e must be > 0, got {r_e!r}")
    return math.expm1(alpha * r_e)


@dataclass(frozen=True)
class PotentialParams:
    """The five potential constants; q is derived at construction.

    a, b are the Coulomb/Yukawa strengths in eV*A, D_e the well depth in eV,
    r_e the equilibrium bond length in A, alpha the screening parameter in
    1/A.  b may be negative (attractive-Yukawa convention, see the b_sign
    configuration switch at the ingestion layer).  All five must be finite.
    """

    a: float
    b: float
    D_e: float
    r_e: float
    alpha: float
    q: float = field(init=False)

    def __post_init__(self) -> None:
        for name in ("a", "b", "D_e", "r_e", "alpha"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParameter(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.D_e >= 0.0:
            raise InvalidParameter(f"D_e must be >= 0, got {self.D_e!r}")
        object.__setattr__(self, "q", q_of(self.alpha, self.r_e))


def _check_r(r) -> np.ndarray:
    arr = np.asarray(r, dtype=float)
    if np.any(arr <= 0.0):
        raise InvalidParameter("r must be > 0")
    return arr


def _match(r, values: np.ndarray):
    return float(values) if np.isscalar(r) or np.ndim(r) == 0 else values


def potential_exact(p: PotentialParams, r):
    """Exact potential in eV; scalar or elementwise over an array of r > 0."""
    arr = _check_r(r)
    s = np.exp(-p.alpha * arr)
    inv_em1 = s / (-np.expm1(-p.alpha * arr))  # 1/(e^(alpha r) - 1), stable at both ends
    v = (-p.a + p.b * s) / arr + p.D_e * (1.0 - p.q * inv_em1) ** 2
    return _match(r, v)


def potential_approx(p: PotentialParams, r):
    """Screened-approximation potential: every 1/r replaced by alpha/(1-e^(-alpha r)).

    Identical to potential_exact when a = b = 0 (the Morse part has no 1/r).
    """
    arr = _check_r(r)
    s = np.exp(-p.alpha * arr)
    g = 1.0 / (-np.expm1(-p.alpha * arr))  # 1/(1 - e^(-alpha r))
    v = -p.a * p.alpha * g + p.b * p.alpha * s * g + p.D_e * (1.0 - p.q * s * g) ** 2
    return _match(r, v)


def centrifugal_approx(alpha: float, r, L: float):
    """Approximated centrifugal factor L * alpha^2/(1 - e^(-alpha r))^2.

    L is the angular coefficient (l(l+1), kappa(kappa+1), ...); the caller
    multiplies by its kinetic prefactor.  Tends to L/r^2 as alpha*r -> 0.
    L may be as low as -1/4, the least lambda_D (at D = 2, l = 0).
    """
    if not alpha > 0.0:
        raise InvalidParameter(f"alpha must be > 0, got {alpha!r}")
    if L < -0.25:
        raise InvalidParameter(f"L must be >= -1/4, got {L!r}")
    arr = _check_r(r)
    g = 1.0 / (-np.expm1(-alpha * arr))
    return _match(r, L * alpha**2 * g**2)


def potential_curve(p: PotentialParams, r_min: float, r_max: float, samples: int) -> np.ndarray:
    """Uniform samples of (r, V_exact, V_approx), endpoints included.

    Returns an array of shape (samples, 3).
    """
    if not (0.0 < r_min < r_max):
        raise InvalidParameter(f"need 0 < r_min < r_max, got ({r_min!r}, {r_max!r})")
    if samples < 2:
        raise InvalidParameter(f"samples must be >= 2, got {samples!r}")
    r = np.linspace(r_min, r_max, samples)
    return np.column_stack([r, potential_exact(p, r), potential_approx(p, r)])
