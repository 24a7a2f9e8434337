"""Bracketing, bisection and polynomial roots for the implicit energy equations.

The residual functions solved here contain square roots whose domains end
mid-interval, so values may be undefined at some abscissae.  The scanner
reads its callable at the points of a uniform grid, one float per call, and
treats non-finite values (NaN) as holes: a bracket is only certified between
adjacent grid points where the function is defined with opposite signs.  It
reads every grid point, or only the points its caller names: the
relativistic solvers name those around the real roots of a polynomial whose
sign is the residual's, located by polynomial_root_disks.  Bisection then
refines one bracket, a few dozen calls per root; it is preferred over faster
methods because robustness dominates at this problem size.  Everything here
runs in plain float and complex arithmetic.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, Iterable, Optional

from .errors import InvalidParameter, NonConvergence
from .record import Record
from .units import linspace_at

#: most halvings bisect makes before it gives up with NonConvergence
_MAX_ITER = 200
#: most Aberth sweeps before the disks are returned as they stand
_ROOT_SWEEPS = 50
#: a centre's disk radius, estimated as this multiple of its last Aberth correction until a disk check fails
_SETTLED = 4.0
#: angle (radians) by which every Aberth starting point is turned off its edge polynomial's root
_START_TURN = 0.01
#: relative rounding error of a Horner sum, on the sum of the terms' moduli
_HORNER_ERROR = 1e-14


class RootBracket(Record):
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
    f: Callable[[float], float],
    lo: float,
    hi: float,
    points: int,
    samples: Optional[Iterable[int]] = None,
) -> list[RootBracket]:
    """Read f on a uniform grid and return every sign change between adjacent points read.

    The grid is np.linspace(lo, hi, points), rebuilt in float arithmetic by
    units.linspace_at; f takes one grid point and returns one float.
    samples names the grid indices to read, ascending; None reads all of
    them.  A bracket needs both its points read.  Points where f is
    undefined (non-finite) are skipped; an exact zero on the grid is
    returned as a degenerate tight bracket around it, certified by two more
    calls of f beside it.  An empty list is a valid result.
    """
    if not lo < hi:
        raise InvalidParameter(f"need lo < hi, got ({lo!r}, {hi!r})")
    if points < 2:
        raise InvalidParameter(f"points must be >= 2, got {points!r}")
    at = linspace_at(lo, hi, points)
    step = (hi - lo) / (points - 1)
    out: list[RootBracket] = []
    last, x_last, f_last, ok_last = -1, lo, math.nan, False
    for i in range(points) if samples is None else samples:
        if not last < i < points:
            raise InvalidParameter(f"samples must be ascending grid indices below {points!r}, got {i!r} after {last!r}")
        x = at(i)
        fx = f(x)
        try:
            ok = math.isfinite(fx)
        except TypeError:
            raise InvalidParameter(f"f must return one float per grid point, got {type(fx).__name__}") from None
        if ok and ok_last and i == last + 1:
            if f_last == 0.0:
                # grid point is itself a root; certify a tight bracket if possible
                eps = 1e-9 * step
                fl, fr = f(x_last - eps), f(x_last + eps)
                if math.isfinite(fl) and math.isfinite(fr) and fl * fr < 0.0:
                    out.append(RootBracket(float(x_last - eps), float(x_last + eps), float(fl), float(fr)))
            elif f_last * fx < 0.0:
                out.append(RootBracket(float(x_last), float(x), float(f_last), float(fx)))
        last, x_last, f_last, ok_last = i, x, fx, ok
    return out


def polynomial_root_disks(c: list[float], refine: Callable[[complex, float], bool]) -> list[tuple[complex, float]]:
    """Disks (centre, radius) that together hold every complex root of the polynomial c.

    c lists the coefficients, constant first.  The centres are Aberth's
    simultaneous approximations (Math. Comp. 27, 339, 1973) to the roots of
    the monic p = c/c[-1], started from the roots of the edge polynomials
    of the coefficients' Newton polygon.  The radius about z_i is
    d*|p(z_i)|/|prod_(j != i) (z_i - z_j)| for degree d, with |p(z_i)|
    widened by a bound on its rounding error.  Since p(z)/prod_j (z - z_j)
    = 1 + sum_i W_i/(z - z_i) for the Weierstrass corrections W_i =
    p(z_i)/prod_(j != i) (z_i - z_j), no root lies outside every disk,
    however far the centres are from converging (Braess and Hadeler,
    Numer. Math. 21, 161, 1973).  refine(z, radius) tells whether the root
    in a disk about z needs a narrower one; only roots near the part of the
    plane the caller cares about should.  A sweep moves each centre that
    refine still asks for, judged before the move on an estimate of its
    radius: _SETTLED times its Aberth correction, and once a check of the
    final disks has found one too wide, its Weierstrass radius.  The sweeps
    stop when every final disk satisfies refine, or after _ROOT_SWEEPS.

    Raises InvalidParameter for a coefficient that is not finite or a zero
    leading one, and NonConvergence when a disk is not finite (coinciding
    or overflowing centres).
    """
    d = len(c) - 1
    if d < 1 or not all(map(math.isfinite, c)) or c[-1] == 0.0:
        raise InvalidParameter(f"need finite coefficients of a degree >= 1 polynomial, got {c!r}")
    a = [x / c[-1] for x in c]
    rev = a[-2::-1]  # p's coefficients below the leading 1, highest first
    moduli = [abs(x) for x in rev]
    z = _newton_polygon_start(a)
    active = range(d)
    strict = False
    for _ in range(_ROOT_SWEEPS):
        moving = []
        for i in active:
            zi = z[i]
            p, dp = 1.0, 0.0
            for ak in rev:
                dp = dp * zi + p
                p = p * zi + ak
            s = 0.0
            for zj in z:
                if zj is not zi:
                    s += 1.0 / (zi - zj)
            w = p / (dp - p * s)
            if strict:
                prod = 1.0
                for zj in z:
                    if zj is not zi:
                        prod *= zi - zj
                estimate = d * abs(p / prod)  # the disk about zi, as the others stand
            else:
                estimate = _SETTLED * abs(w)
            z[i] = zi - w
            if refine(zi, estimate):
                moving.append(i)
        active = moving
        if not active:
            disks = _inclusion_disks(z, rev, moduli)
            if not any(refine(zi, radius) for zi, radius in disks):
                return disks
            # a centre stopped too soon: move them all again, and from now on only its disk stops each
            active, strict = range(d), True
    return _inclusion_disks(z, rev, moduli)


def _inclusion_disks(z: list[complex], rev: list[float], moduli: list[float]) -> list[tuple[complex, float]]:
    """The Weierstrass disks about the centres z of the monic polynomial whose lower coefficients,
    highest first, are rev, with their moduli."""
    disks = []
    for zi in z:
        p, r, bound = 1.0, abs(zi), 1.0
        for ak, mk in zip(rev, moduli):
            p = p * zi + ak
            bound = bound * r + mk
        prod = 1.0
        for zj in z:
            if zj is not zi:
                prod *= zi - zj
        radius = len(z) * (abs(p) + _HORNER_ERROR * bound) / abs(prod)
        if not (math.isfinite(radius) and math.isfinite(zi.real) and math.isfinite(zi.imag)):
            raise NonConvergence(f"no finite root disks about {z!r}")
        disks.append((zi, radius))
    return disks


def _newton_polygon_start(a: list[float]) -> list[complex]:
    """Aberth's starting points for the monic p with coefficients a, constant first.

    Each edge of the upper convex hull of the points (k, log|a_k|) spans m
    powers, from k0 to k0 + m, and holds about m roots of the modulus its
    slope gives (Bini, Numer. Algorithms 13, 179, 1996); they are the roots
    of the edge's own polynomial sum_(j <= m) a_(k0+j) z^j when m <= 2, or m
    points on the circle of that modulus.  Every point is turned by
    _START_TURN radians, so that no set of them is closed under
    conjugation and starting points on the real axis can still reach a
    complex pair.  Raises NonConvergence if the hull places fewer than
    deg p points (a zero constant coefficient).
    """
    hull: list[tuple[int, float]] = []
    for k, ak in enumerate(a):
        if ak == 0.0:
            continue
        y = math.log(abs(ak))
        while len(hull) >= 2 and (hull[-1][0] - hull[-2][0]) * (y - hull[-2][1]) >= \
                (hull[-1][1] - hull[-2][1]) * (k - hull[-2][0]):
            hull.pop()
        hull.append((k, y))
    turn = complex(math.cos(_START_TURN), math.sin(_START_TURN))
    z: list[complex] = []
    for (k0, y0), (k1, y1) in zip(hull, hull[1:]):
        m = k1 - k0
        if m == 1:
            z.append(-a[k0] / a[k1] * turn)
        elif m == 2:
            c0, c1, c2 = a[k0], a[k0 + 1], a[k1]
            root = cmath.sqrt(c1 * c1 - 4.0 * c0 * c2)
            q = -0.5 * (c1 + (root if c1 * root.real >= 0.0 else -root))  # no cancellation in c1 + root
            z += [q / c2 * turn, c0 / q * turn]
        else:
            radius = math.exp((y0 - y1) / m)
            z += [radius * complex(math.cos(t), math.sin(t)) * turn for t in (2.0 * math.pi * j / m for j in range(m))]
    if len(z) != len(a) - 1:
        raise NonConvergence(f"the Newton polygon of {a!r} places {len(z)} of {len(a) - 1} roots")
    return z


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
