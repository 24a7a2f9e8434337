"""Special-function kernel: log-gamma, Pochhammer, terminating 2F1, Jacobi.

Jacobi polynomials are evaluated two independent ways, both exact-degree:

* `jacobi_recurrence` runs the three-term degree recurrence (DLMF 18.9.2) on
  a float or elementwise on a float64 array.  It is the production path:
  `wavefun` evaluates every eigenfunction on an array through it, and
  through `jacobi_log_abs_and_sign`, the same steps rescaled into log
  space, at one float r.
* `jacobi_poly` sums the n+1 terms of the terminating hypergeometric series
  (`hyp2f1_terminating`, with an exact rerun when the alternating sum
  cancels).  It is the oracle that the `special-functions` check and the
  tests hold the recurrence against.  The rerun takes each float input as
  the dyadic rational it is and sums the terms over one common denominator
  in plain Python integers; one int/int division, correctly rounded, gives
  the float nearest the exact sum.

Gamma-function ratios are taken as exp of log-gamma differences because the
exponents arising from molecular parameters push arguments to ~2e4.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import InvalidParameter
from .record import Record


def ln_gamma(x: float) -> float:
    """log Gamma(x) for x > 0."""
    if not x > 0.0:
        raise InvalidParameter(f"ln_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


def pochhammer(x: float, n: int) -> float:
    """Rising factorial x(x+1)...(x+n-1); empty product is 1."""
    if n < 0:
        raise InvalidParameter(f"pochhammer requires n >= 0, got {n!r}")
    out = 1.0
    for k in range(n):
        out *= x + k
    return out


def _hyp2f1_exact(n: int, B: float, C: float, s: float) -> float:
    # every float is a dyadic rational p/q, so the terminating sum is a
    # rational that plain integers hold exactly: total = N/D and term = T/D
    # share one denominator, and term k+1 = term k * f/g for integers f, g
    bp, bq = B.as_integer_ratio()
    cp, cq = C.as_integer_ratio()
    sp, sq = s.as_integer_ratio()
    N = D = T = 1
    for k in range(n):
        g = bq * (cp + k * cq) * (k + 1) * sq
        T *= (k - n) * (bp + k * bq) * cq * sp
        N = N * g + T
        D *= g
    # int / int is correctly rounded, as float(Fraction(N, D)) is; a positive
    # denominator keeps an exact zero at +0.0
    return N / D if D > 0 else -N / -D


def hyp2f1_terminating(n: int, B: float, C: float, s: float) -> float:
    """2F1(-n, B; C; s) summed term by term over its n+1 terms.

    C must avoid {0, -1, ..., -(n-1)} so no denominator in range vanishes.
    The alternating sum can cancel catastrophically when B/C is large; such
    cases are detected and redone in exact rational arithmetic.
    """
    if n < 0:
        raise InvalidParameter(f"degree must be >= 0, got {n!r}")
    for k in range(n):
        if C + k == 0.0:
            raise InvalidParameter(f"C = {C!r} hits a nonpositive integer within {n} terms")
    total = 1.0
    term = 1.0
    largest = 1.0
    for k in range(n):
        term *= (-n + k) * (B + k) / ((C + k) * (k + 1.0)) * s
        total += term
        largest = max(largest, abs(term))
    if abs(total) < 0.05 * largest:
        return _hyp2f1_exact(n, B, C, s)
    return total


class JacobiParams(Record):
    """Degree and exponent pair (theta, vartheta) of a Jacobi polynomial."""

    theta: float
    vartheta: float
    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise InvalidParameter(f"degree must be >= 0, got {self.n!r}")

    @cached_property
    def recurrence(self) -> tuple[tuple[float, float, float, float], ...]:
        """(c1, d, e, c3) for k = 2..n, the x-free factors of the coefficients
        c1, c2 = d (e x + a^2 - b^2) and c3 of `jacobi_recurrence`."""
        a, b = self.theta, self.vartheta
        return tuple((2.0 * k * (k + a + b) * (2.0 * k + a + b - 2.0), 2.0 * k + a + b - 1.0,
                      (2.0 * k + a + b) * (2.0 * k + a + b - 2.0),
                      2.0 * (k + a - 1.0) * (k + b - 1.0) * (2.0 * k + a + b)) for k in range(2, self.n + 1))


def jacobi_poly(p: JacobiParams, x: float) -> float:
    """P_n^(theta, vartheta)(x) via the terminating hypergeometric sum.

    P_n = (theta+1)_n / n! * 2F1(-n, theta+vartheta+n+1; theta+1; (1-x)/2);
    valid for all real x, exact degree n.
    """
    pref = math.prod((p.theta + k) / k for k in range(1, p.n + 1))  # (theta+1)_n/n!, without overflow
    return pref * hyp2f1_terminating(p.n, p.theta + p.vartheta + p.n + 1.0, p.theta + 1.0, 0.5 * (1.0 - x))


def jacobi_recurrence(p: JacobiParams, x):
    """P_n^(a, b)(x) by the degree recurrence, with (a, b) = (theta, vartheta):

    2k (k+a+b) (2k+a+b-2) P_k = (2k+a+b-1) ((2k+a+b)(2k+a+b-2) x + a^2 - b^2) P_{k-1}
                                - 2 (k+a-1) (k+b-1) (2k+a+b) P_{k-2},

    started from P_0 = 1 and P_1 = (a+1) + (a+b+2)(x-1)/2.  A Python float x
    gives a float; anything else is taken as a float64 array and gives the
    same values elementwise, in the shape of x.
    """
    if not isinstance(x, float):
        x = np.asarray(x, dtype=float)
    if p.n == 0:
        return 1.0 if isinstance(x, float) else np.ones_like(x)
    a, b = p.theta, p.vartheta
    aa, bb = a * a, b * b
    p_prev, p_k = 1.0, (a + 1.0) + (a + b + 2.0) * (x - 1.0) / 2.0
    for c1, d, e, c3 in p.recurrence:
        p_k, p_prev = (d * (e * x + aa - bb) * p_k - c3 * p_prev) / c1, p_k
    return p_k


#: |P_k| past which jacobi_log_abs_and_sign divides its two carried values by it, exactly
_RESCALE = 2.0**600


def jacobi_log_abs_and_sign(p: JacobiParams, x: float) -> tuple[float, float]:
    """(log|P_n^(a, b)(x)|, sign) by the steps of jacobi_recurrence on a float x; (-inf, +1) where P_n(x) = 0.

    Each division by _RESCALE is counted back into the log, which so stays
    finite where P_n itself passes the float range (at x -> 1 from n = 135
    for N2).  Without a division the values are those of jacobi_recurrence.
    """
    if p.n == 0:
        return 0.0, 1.0
    a, b = p.theta, p.vartheta
    aa, bb = a * a, b * b
    p_prev, p_k = 1.0, (a + 1.0) + (a + b + 2.0) * (x - 1.0) / 2.0
    scale = 0
    for c1, d, e, c3 in p.recurrence:
        p_k, p_prev = (d * (e * x + aa - bb) * p_k - c3 * p_prev) / c1, p_k
        if abs(p_k) > _RESCALE:
            p_k, p_prev, scale = p_k / _RESCALE, p_prev / _RESCALE, scale + 1
    if p_k == 0.0:
        return -math.inf, 1.0
    return math.log(abs(p_k)) + scale * math.log(_RESCALE), math.copysign(1.0, p_k)


def jacobi_norm_integral(x_exp: float, y_exp: float, n: int) -> float:
    """Weighted L2 norm of a Jacobi polynomial over [-1, 1].

    Integral of ((1-p)/2)^x ((1+p)/2)^y [P_n^(x,y)(p)]^2, where the weight
    exponents match the polynomial parameters:

        2/(2n+x+y+1) * Gamma(n+x+1) Gamma(n+y+1) / (Gamma(n+x+y+1) n!)

    This is the standard identity; adaptive quadrature in the test suite
    confirms it (the n = 0, exponents (1,1) value is exactly 1/3).
    """
    if n < 0:
        raise InvalidParameter(f"degree must be >= 0, got {n!r}")
    if not (x_exp > -1.0 and y_exp > -1.0):
        raise InvalidParameter(f"exponents must be > -1, got ({x_exp!r}, {y_exp!r})")
    lg = (
        ln_gamma(n + x_exp + 1.0)
        + ln_gamma(n + y_exp + 1.0)
        - ln_gamma(n + x_exp + y_exp + 1.0)
        - ln_gamma(n + 1.0)
    )
    return 2.0 / (2.0 * n + x_exp + y_exp + 1.0) * math.exp(lg)
