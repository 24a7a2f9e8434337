"""The Hellmann plus generalized-Morse potential and its screened approximation.

The exact interaction combines an attractive Coulomb term, a Yukawa term and a
Deng-Fan-type Morse well,

    V(r) = -a/r + b e^(-alpha r)/r + D_e (1 - q/(e^(alpha r) - 1))^2,

with q = e^(alpha r_e) - 1 so the Morse bracket vanishes at the equilibrium
bond length.  The approximate form replaces every 1/r by
alpha/(1 - e^(-alpha r)) (and 1/r^2 by its square), which is what makes the
radial equations solvable in closed form; the Morse part involves no 1/r and
is carried over unchanged.

`PotentialParams` and `q_of` are plain float arithmetic; the potential
functions evaluate through numpy, which loads when one is first called.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING

from .errors import InvalidParameter
from .record import Record

if TYPE_CHECKING:
    import numpy as np


def q_of(alpha: float, r_e: float) -> float:
    """Dimensionless Morse range parameter q = e^(alpha*r_e) - 1.

    expm1 keeps full precision for small alpha*r_e.
    """
    if not alpha > 0.0:
        raise InvalidParameter(f"alpha must be > 0, got {alpha!r}")
    if not r_e > 0.0:
        raise InvalidParameter(f"r_e must be > 0, got {r_e!r}")
    try:
        return math.expm1(alpha * r_e)
    except OverflowError:
        raise InvalidParameter(f"q = e^(alpha*r_e) - 1 overflows at alpha*r_e = {alpha * r_e!r}") from None


class PotentialParams(Record):
    """The five potential constants; q is derived at construction.

    a, b are the Coulomb/Yukawa strengths in eV*A, D_e the well depth in eV,
    r_e the equilibrium bond length in A, alpha the screening parameter in
    1/A.  b may be negative (attractive-Yukawa convention, see the b_sign
    configuration switch at the ingestion layer).  All five must be finite,
    and alpha such that neither q nor 1/alpha^2 overflows.
    """

    a: float
    b: float
    D_e: float
    r_e: float
    alpha: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "D_e", "r_e", "alpha"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParameter(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.D_e >= 0.0:
            raise InvalidParameter(f"D_e must be >= 0, got {self.D_e!r}")
        object.__setattr__(self, "q", q_of(self.alpha, self.r_e))
        if self.alpha * self.alpha < sys.float_info.min:  # the closed forms divide by alpha^2
            raise InvalidParameter(f"alpha^2 underflows at alpha = {self.alpha!r}")


def _check_r(r) -> np.ndarray:
    import numpy as np

    arr = np.asarray(r, dtype=float)
    if np.any(arr <= 0.0):
        raise InvalidParameter("r must be > 0")
    return arr


def _match(arr: np.ndarray, values: np.ndarray):
    """values as a float when arr, the checked r, holds one number."""
    return float(values) if arr.ndim == 0 else values


def potential_exact(p: PotentialParams, r):
    """Exact potential in eV; scalar or elementwise over an array of r > 0."""
    import numpy as np

    arr = _check_r(r)
    s = np.exp(-p.alpha * arr)
    inv_em1 = s / (-np.expm1(-p.alpha * arr))  # 1/(e^(alpha r) - 1), stable at both ends
    v = (-p.a + p.b * s) / arr + p.D_e * (1.0 - p.q * inv_em1) ** 2
    return _match(arr, v)


def potential_approx(p: PotentialParams, r):
    """Screened-approximation potential: every 1/r replaced by alpha/(1-e^(-alpha r)).

    Identical to potential_exact when a = b = 0 (the Morse part has no 1/r).
    """
    import numpy as np

    arr = _check_r(r)
    s = np.exp(-p.alpha * arr)
    g = 1.0 / (-np.expm1(-p.alpha * arr))  # 1/(1 - e^(-alpha r))
    v = -p.a * p.alpha * g + p.b * p.alpha * s * g + p.D_e * (1.0 - p.q * s * g) ** 2
    return _match(arr, v)


def centrifugal_approx(alpha: float, r, L: float):
    """Approximated centrifugal factor L * alpha^2/(1 - e^(-alpha r))^2.

    L is the angular coefficient (l(l+1), kappa(kappa+1), ...); the caller
    multiplies by its kinetic prefactor.  Tends to L/r^2 as alpha*r -> 0.
    L may be as low as -1/4, the least lambda_D (at D = 2, l = 0).
    """
    import numpy as np

    if not alpha > 0.0:
        raise InvalidParameter(f"alpha must be > 0, got {alpha!r}")
    if L < -0.25:
        raise InvalidParameter(f"L must be >= -1/4, got {L!r}")
    arr = _check_r(r)
    g = 1.0 / (-np.expm1(-alpha * arr))
    return _match(arr, L * alpha**2 * g**2)


def potential_curve(p: PotentialParams, r_min: float, r_max: float, samples: int) -> np.ndarray:
    """Uniform samples of (r, V_exact, V_approx), endpoints included.

    Returns an array of shape (samples, 3).  InvalidParameter, without a
    numpy warning, when a sample overflows.
    """
    import numpy as np

    if not (0.0 < r_min < r_max < math.inf):
        raise InvalidParameter(f"need 0 < r_min < r_max < inf, got ({r_min!r}, {r_max!r})")
    if samples < 2:
        raise InvalidParameter(f"samples must be >= 2, got {samples!r}")
    r = np.linspace(r_min, r_max, samples)
    with np.errstate(over="ignore", invalid="ignore"):
        curve = np.column_stack([r, potential_exact(p, r), potential_approx(p, r)])
    if not np.isfinite(curve).all():
        raise InvalidParameter("the potential curve is not finite: it overflows at these parameters")
    return curve
