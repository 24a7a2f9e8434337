"""Bracketing and bisection for the implicit energy equations.

The residual functions solved here contain square roots whose domains end
mid-interval, so values may be undefined at some abscissae.  The scanner
evaluates its callable once on the whole grid, as a float64 array in and an
array of the same shape out, and treats non-finite values (NaN) as holes: a
bracket is only certified between adjacent grid points where the function
is defined with opposite signs.  Bisection then refines one bracket with
one-float calls, a few dozen per root, which the relativistic residuals
answer in plain float arithmetic; it is preferred over faster methods
because robustness dominates at this problem size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidParameter, NonConvergence

#: most halvings bisect makes before it gives up with NonConvergence
_MAX_ITER = 200


@dataclass(frozen=True)
class RootBracket:
    """A certified sign change: lo < hi with f(lo)*f(hi) < 0."""

    lo: float
    hi: float
    f_lo: float
    f_hi: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise InvalidParameter(f"bracket needs lo < hi, got [{self.lo!r}, {self.hi!r}]")
        if not self.f_lo * self.f_hi < 0.0:
            raise InvalidParameter("bracket endpoints must have opposite signs")


def scan_brackets(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    points: int,
) -> list[RootBracket]:
    """Evaluate f on a uniform grid and return every adjacent sign change.

    f takes the float64 array of grid points and returns one value per
    point.  Points where f is undefined (non-finite) are skipped; an exact
    zero on the grid is returned as a degenerate tight bracket around it,
    certified by one more call of f on the two points beside it.  An empty
    list is a valid result.
    """
    if not lo < hi:
        raise InvalidParameter(f"need lo < hi, got ({lo!r}, {hi!r})")
    if points < 2:
        raise InvalidParameter(f"points must be >= 2, got {points!r}")
    xs = np.linspace(lo, hi, points)
    vals = np.asarray(f(xs), dtype=float)
    if vals.shape != xs.shape:
        raise InvalidParameter(f"f must return one value per grid point, got shape {vals.shape!r}")
    fa, fb = vals[:-1], vals[1:]
    defined = np.isfinite(fa) & np.isfinite(fb)
    zero = defined & (fa == 0.0)
    out: list[RootBracket] = []
    step = (hi - lo) / (points - 1)
    for i in np.flatnonzero(zero | (defined & (fa * fb < 0.0))):
        if zero[i]:
            # grid point is itself a root; certify a tight bracket if possible
            eps = 1e-9 * step
            pair = np.array([xs[i] - eps, xs[i] + eps])
            fl, fr = np.asarray(f(pair), dtype=float)
            if math.isfinite(fl) and math.isfinite(fr) and fl * fr < 0.0:
                out.append(RootBracket(float(pair[0]), float(pair[1]), float(fl), float(fr)))
            continue
        out.append(RootBracket(float(xs[i]), float(xs[i + 1]), float(fa[i]), float(fb[i])))
    return out


def bisect(
    f: Callable[[float], float],
    b: RootBracket,
    tol_abs: float,
) -> tuple[float, float]:
    """Bisect a certified bracket down to |hi - lo| <= tol_abs.

    Returns (root, f(root)).  Stops early if the midpoint is no longer
    strictly inside the interval (float resolution reached).  Raises
    NonConvergence if the budget is exhausted with the interval still wide,
    or if f turns undefined inside the bracket (a domain hole narrower than
    the scan step).
    """
    if not tol_abs > 0.0:
        raise InvalidParameter(f"tol_abs must be > 0, got {tol_abs!r}")
    lo, hi, f_lo, f_hi = b.lo, b.hi, b.f_lo, b.f_hi
    for _ in range(_MAX_ITER):
        if hi - lo <= tol_abs:
            break
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break
        f_mid = f(mid)
        if not math.isfinite(f_mid):
            raise NonConvergence(f"f undefined at {mid!r} inside bracket [{lo!r}, {hi!r}]")
        if f_mid == 0.0:
            return mid, 0.0
        if f_lo * f_mid < 0.0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    else:
        raise NonConvergence(f"bisection exceeded {_MAX_ITER} iterations (width {hi - lo!r})")
    root = 0.5 * (lo + hi)
    f_root = f(root)
    if not math.isfinite(f_root):
        raise NonConvergence(f"f undefined at converged root {root!r}")
    return root, f_root
