"""Bracketing and bisection for the implicit energy equations.

The residual functions solved here contain square roots whose domains end
mid-interval, so values may be undefined (None/NaN) at some abscissae.  The
scanner treats those as holes: a bracket is only certified between adjacent
grid points where the function is defined with opposite signs.  Bisection is
preferred over faster methods because robustness dominates at this problem
size (a few thousand evaluations per solve).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

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


def _defined(value: Optional[float]) -> bool:
    return value is not None and math.isfinite(value)


def scan_brackets(
    f: Callable[[float], Optional[float]],
    lo: float,
    hi: float,
    points: int,
) -> list[RootBracket]:
    """Evaluate f on a uniform grid and return every adjacent sign change.

    Points where f is undefined (None or non-finite) are skipped; an exact
    zero on the grid is returned as a degenerate tight bracket around it.
    An empty list is a valid result.
    """
    if not lo < hi:
        raise InvalidParameter(f"need lo < hi, got ({lo!r}, {hi!r})")
    if points < 2:
        raise InvalidParameter(f"points must be >= 2, got {points!r}")
    xs = np.linspace(lo, hi, points)
    vals = [f(float(x)) for x in xs]
    out: list[RootBracket] = []
    step = (hi - lo) / (points - 1)
    for i in range(points - 1):
        fa, fb = vals[i], vals[i + 1]
        if not (_defined(fa) and _defined(fb)):
            continue
        if fa == 0.0:
            # grid point is itself a root; certify a tight bracket if possible
            eps = 1e-9 * step
            fl, fr = f(float(xs[i] - eps)), f(float(xs[i] + eps))
            if _defined(fl) and _defined(fr) and fl * fr < 0.0:
                out.append(RootBracket(float(xs[i] - eps), float(xs[i] + eps), fl, fr))
            continue
        if fa * fb < 0.0:
            out.append(RootBracket(float(xs[i]), float(xs[i + 1]), fa, fb))
    return out


def bisect(
    f: Callable[[float], Optional[float]],
    b: RootBracket,
    tol_abs: float,
) -> tuple[float, float]:
    """Bisect a certified bracket down to |hi - lo| <= tol_abs.

    Returns (root, f(root)).  Stops early if the midpoint is no longer
    strictly inside the interval (float resolution reached).  Raises
    NonConvergence if the budget is exhausted with the interval still wide,
    or if f turns undefined inside the bracket (a domain hole narrower than
    the scan step; callers may rescan finer).
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
        if not _defined(f_mid):
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
    if not _defined(f_root):
        raise NonConvergence(f"f undefined at converged root {root!r}")
    return root, f_root
