"""Shared engine for radial eigenfunctions in the s = e^(-alpha r) variable.

Every bound eigenfunction produced by this package has the same shape,

    u(r) = s^leading * (1 - s)^edge * P_n^(2*leading, 2*edge - 1)(1 - 2s),

with leading > 0 controlling the r -> infinity decay and edge > 1/2 the
r -> 0 vanishing.  The Jacobi polynomial is (2*leading + 1)_n / n! times
2F1(-n, n + 2*leading + 2*edge; 2*leading + 1; s) (DLMF 18.5.7), and
`specfun.jacobi_recurrence` evaluates it on a whole array of nodes at once
or at one node.

Molecular parameters push `leading` to ~1e4, so the envelope under/overflows
doubles by hundreds of orders of magnitude; everything here is therefore
computed in log space.  log s is t = -alpha r itself, exact where a log of
exp(t) would round (and lose digits where s is subnormal), and log(1 - s) is
numpy's log(-expm1(t)) on both paths: a float t goes through the same numpy
functions as an array, so it gives the same bits.  s itself stays libm's
exp, mapped over the nodes: the Jacobi factor is ill-conditioned in s at
large `leading`, and the term-sum oracle (`checks.term_sum_log_abs_and_sign`)
evaluates it at libm's s.

A function that takes r gives Python floats for a float r, and arrays of the
shape of r for an array.  Both take the same envelope, recurrence and numpy
log/exp, so a float r gives bit for bit the element an array would; the
per-state constants are computed once per `SWaveform`.  Normalization is by
composite Gauss-Legendre quadrature over the support window of the squared
envelope (log-offset to stay finite), with all nodes in one call; the
24-point rule is built once, on first use, and is read-only.
"""

from __future__ import annotations

import math
from functools import cache, cached_property

import numpy as np

from .errors import InvalidParameter, NoBoundState
from .record import Record
from .specfun import JacobiParams, jacobi_recurrence

#: log-drop below the envelope peak at which the support window is truncated
_WINDOW_DROP = 160.0


def bound_exponents(C: float, R: float) -> tuple[float, float]:
    """(leading, edge) = (sqrt(C), 1/2 + sqrt(R)) of a bound state.

    The one bound-state rule of every equation: C > 0 and R > 0, else
    NoBoundState; a NaN radicand fails it too.  R = 0 would give
    edge = 1/2, which SWaveform rejects.  At a closed-form energy,
    C = (N/(2P))^2 with the bracket numerator N of the quantization
    condition, and the state decays as s^(-N/(2P)) only where N < 0: so
    nonrel.energy_nonrel raises NoBoundState unless N < 0, and the
    relativistic solver drops a root with N > 0.
    """
    if not (C > 0.0 and R > 0.0):
        raise NoBoundState(f"exponent radicands (C={C!r}, R={R!r}) do not give a bound state")
    return math.sqrt(C), 0.5 + math.sqrt(R)


class SWaveform(Record):
    """Exponents, degree and screening of one radial eigenfunction."""

    leading: float
    edge: float
    n: int
    alpha: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.leading) and self.leading > 0.0):
            raise NoBoundState(f"leading exponent must be > 0, got {self.leading!r}")
        if not (math.isfinite(self.edge) and self.edge > 0.5):
            raise NoBoundState(f"edge exponent must be > 1/2, got {self.edge!r}")
        if self.n < 0:
            raise InvalidParameter(f"degree must be >= 0, got {self.n!r}")
        if not self.alpha > 0.0:
            raise InvalidParameter(f"alpha must be > 0, got {self.alpha!r}")

    @cached_property
    def jacobi(self) -> JacobiParams:
        """The polynomial factor P_n^(2*leading, 2*edge - 1)."""
        return JacobiParams(2.0 * self.leading, 2.0 * self.edge - 1.0, self.n)


def _envelope(t: float) -> tuple[float, float]:
    """(s, log(1 - s)) at t = -alpha r; log s is t itself.  s is libm's exp, as
    in the term-sum oracle, and log(1 - s) numpy's, as on an array; where
    alpha r underflows to 0, s is 1 and log(1 - s) is -inf."""
    if t == 0.0:
        return 1.0, -math.inf
    return math.exp(t), float(np.log(-np.expm1(t)))


def _envelope_columns(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_envelope` of every element of t, bit for bit, as two arrays of its
    shape: libm's exp mapped over the nodes, numpy's log(-expm1) on them."""
    s = np.fromiter(map(math.exp, t.ravel().tolist()), float, t.size).reshape(t.shape)
    with np.errstate(divide="ignore"):  # log 0 = -inf where alpha r underflows
        return s, np.log(-np.expm1(t))


def log_abs_and_sign(w: SWaveform, r):
    """(log|u_raw(r)|, sign) of the unnormalized eigenfunction; every r > 0.

    Two floats for a float r, else two arrays of the shape of r.  Where u_raw
    is 0 (the polynomial factor vanishes, or alpha r underflows to 0), log|u_raw|
    is -inf and the sign is +1.  log|u_raw| is otherwise finite wherever the
    recurrence is: at every r while P_n(1) = (2*leading + 1)_n / n!, the
    largest value of the polynomial factor, is a finite float.  Past that
    (n >= 135 for N2 at a = b = 1 and alpha = 0.025), it is not finite where
    s -> 0, far outside the support window.
    """
    scalar = isinstance(r, float)
    if scalar:
        if not r > 0.0:
            raise InvalidParameter(f"r must be > 0, got {r!r}")
    else:
        r = np.asarray(r, dtype=float)
        if not np.all(r > 0.0):
            raise InvalidParameter(f"r must be > 0, got {r[~(r > 0.0)].flat[0]!r}")
    t = -w.alpha * r
    s, log_one_m_s = _envelope(t) if scalar else _envelope_columns(t)
    poly = jacobi_recurrence(w.jacobi, 1.0 - 2.0 * s)
    log_env = w.leading * t + w.edge * log_one_m_s
    if scalar:
        # numpy's log, not libm's: the two differ in the last bit at some points
        la = log_env + (float(np.log(abs(poly))) if poly != 0.0 else -math.inf)
        return la, 1.0 if la == -math.inf else math.copysign(1.0, poly)
    with np.errstate(divide="ignore"):
        la = log_env + np.log(np.abs(poly))
    return la, np.where(la == -np.inf, 1.0, np.copysign(1.0, poly))


def support_window(w: SWaveform, drop: float = _WINDOW_DROP) -> tuple[float, float]:
    """Radial window outside which the squared envelope is down by e^-drop."""
    s_star = w.leading / (w.leading + w.edge)
    r_star = -math.log(s_star) / w.alpha
    r_lo = -math.log1p(-(1.0 - s_star) * math.exp(-0.5 * drop / w.edge)) / w.alpha
    r_hi = r_star + 0.5 * drop / (w.leading * w.alpha)
    return r_lo, r_hi


@cache
def _gauss_legendre_24() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 24-point Gauss-Legendre rule on [-1, 1],
    built once and read-only."""
    x, wt = np.polynomial.legendre.leggauss(24)
    x.flags.writeable = wt.flags.writeable = False
    return x, wt


def quadrature_nodes(w: SWaveform) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite 24-point Gauss-Legendre rule over
    the support window.  The polynomial factor oscillates n times inside the
    window, so the panel count, 96 + 32 n, scales with n."""
    panels = 96 + 32 * w.n
    r_lo, r_hi = support_window(w)
    x, wt = _gauss_legendre_24()
    edges = np.linspace(r_lo, r_hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[:-1] + edges[1:])
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * wt).ravel()


def log_norm_quadrature(w: SWaveform) -> float:
    """log of the normalization constant N with integral |N u|^2 dr = 1,
    by `quadrature_nodes`, all nodes evaluated in one call."""
    r, wts = quadrature_nodes(w)
    la, _ = log_abs_and_sign(w, r)
    logs = 2.0 * la
    m = float(logs.max())
    integral = float(np.sum(wts * np.exp(logs - m)))
    if not integral > 0.0:
        raise NoBoundState("normalization integral vanished")
    return -0.5 * (m + math.log(integral))


def value(w: SWaveform, log_norm: float, r):
    """Normalized eigenfunction values at r, a log-space product.

    A float for a float r, else an array of the shape of r; it is 0.0 where
    the polynomial factor vanishes, and finite where `log_abs_and_sign` is.
    """
    la, sign = log_abs_and_sign(w, r)
    u = sign * np.exp(la + log_norm)
    return float(u) if isinstance(r, float) else u
