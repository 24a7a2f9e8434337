"""Shared engine for radial eigenfunctions in the s = e^(-alpha r) variable.

Every bound eigenfunction produced by this package has the same shape,

    u(r) = s^leading * (1 - s)^edge * (2*leading + 1)_n / n!
           * 2F1(-n, n + 2*leading + 2*edge; 2*leading + 1; s),

with leading > 0 controlling the r -> infinity decay and edge > 1/2 the
r -> 0 vanishing.  The polynomial factor is the Jacobi polynomial
P_n^(2*leading, 2*edge - 1)(1 - 2s), which `specfun.jacobi_recurrence`
evaluates on a whole array of nodes at once or at one node.

Molecular parameters push `leading` to ~1e4, so the envelope under/overflows
doubles by hundreds of orders of magnitude; everything here is therefore
computed in log space.  The envelope terms (s, log s, log(1 - s)) go through
libm one node at a time: log s is multiplied by `leading`, so a last-bit
difference between libm and numpy's exp/log would show in the normalization.

A function that takes r gives Python floats for a float r, and arrays of the
shape of r for an array.  Both take the same envelope, recurrence and numpy
log/exp, so a float r gives bit for bit the element an array would; the
per-state constants are computed once per `SWaveform`.  Normalization is by
composite Gauss-Legendre quadrature over the support window of the squared
envelope (log-offset to stay finite), with all nodes in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidParameter, NoBoundState
from .specfun import JacobiParams, jacobi_recurrence, pochhammer

#: log-drop below the envelope peak at which the support window is truncated
_WINDOW_DROP = 160.0


def bound_exponents(C: float, R: float) -> tuple[float, float]:
    """(leading, edge) = (sqrt(C), 1/2 + sqrt(R)) of a bound state.

    The one bound-state rule of every equation: C > 0 and R > 0, else
    NoBoundState; a NaN radicand fails it too.  R = 0 would give
    edge = 1/2, which SWaveform rejects.
    """
    if not (C > 0.0 and R > 0.0):
        raise NoBoundState(f"exponent radicands (C={C!r}, R={R!r}) do not give a bound state")
    return math.sqrt(C), 0.5 + math.sqrt(R)


@dataclass(frozen=True)
class SWaveform:
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

    @cached_property
    def pref(self) -> float:
        """(2*leading + 1)_n / n!, the ratio of the Jacobi polynomial to the 2F1."""
        return pochhammer(2.0 * self.leading + 1.0, self.n) / math.factorial(self.n)

    @cached_property
    def log_pref(self) -> float:
        """log of `pref`, summed term by term."""
        return sum(math.log(2.0 * self.leading + 1.0 + k) for k in range(self.n)) - math.lgamma(self.n + 1.0)


def hypergeometric_factor(w: SWaveform, s):
    """2F1(-n, n + 2*leading + 2*edge; 2*leading + 1; s), for a float or elementwise.

    Uses (2L+1)_n/n! * 2F1(-n, n+2L+2e; 2L+1; s) = P_n^(2L, 2e-1)(1 - 2s).
    """
    return jacobi_recurrence(w.jacobi, 1.0 - 2.0 * s) / w.pref


def _envelope(t: float) -> tuple[float, float, float]:
    """(s, log s, log(1 - s)) at t = -alpha r, through libm; far out in the
    window s underflows to 0 while log s = t stays finite."""
    s = math.exp(t)
    return s, (t if s == 0.0 else math.log(s)), math.log(-math.expm1(t))


def log_abs_and_sign(w: SWaveform, r):
    """(log|u_raw(r)|, sign) of the unnormalized eigenfunction; every r > 0.

    Two floats for a float r, else two arrays of the shape of r.  Where the
    polynomial factor vanishes, log|u_raw| is -inf and the sign is +1.
    """
    scalar = isinstance(r, float)
    if scalar:
        if not r > 0.0:
            raise InvalidParameter(f"r must be > 0, got {r!r}")
        s, log_s, log_one_m_s = _envelope(-w.alpha * r)
    else:
        r = np.asarray(r, dtype=float)
        if not np.all(r > 0.0):
            raise InvalidParameter(f"r must be > 0, got {r[~(r > 0.0)].flat[0]!r}")
        env = np.array([_envelope(t) for t in (-w.alpha * r).ravel().tolist()]).reshape(-1, 3)
        s, log_s, log_one_m_s = (col.reshape(r.shape) for col in env.T)
    hyp = hypergeometric_factor(w, s)
    log_env = w.leading * log_s + w.edge * log_one_m_s + w.log_pref
    if scalar:
        # numpy's log, not libm's: the two differ in the last bit at some points
        log_hyp = float(np.log(abs(hyp))) if hyp != 0.0 else -math.inf
        return log_env + log_hyp, 1.0 if hyp == 0.0 else math.copysign(1.0, hyp)
    with np.errstate(divide="ignore"):
        la = log_env + np.log(np.abs(hyp))
    return la, np.where(hyp == 0.0, 1.0, np.copysign(1.0, hyp))


def support_window(w: SWaveform, drop: float = _WINDOW_DROP) -> tuple[float, float]:
    """Radial window outside which the squared envelope is down by e^-drop."""
    s_star = w.leading / (w.leading + w.edge)
    r_star = -math.log(s_star) / w.alpha
    r_lo = -math.log1p(-(1.0 - s_star) * math.exp(-0.5 * drop / w.edge)) / w.alpha
    r_hi = r_star + 0.5 * drop / (w.leading * w.alpha)
    return r_lo, r_hi


def quadrature_nodes(w: SWaveform) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite 24-point Gauss-Legendre rule over
    the support window.  The polynomial factor oscillates n times inside the
    window, so the panel count, 96 + 32 n, scales with n."""
    panels, order = 96 + 32 * w.n, 24
    r_lo, r_hi = support_window(w)
    x, wt = np.polynomial.legendre.leggauss(order)
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
    m = logs.max()
    integral = float(np.sum(wts * np.exp(logs - m)))
    if not integral > 0.0:
        raise NoBoundState("normalization integral vanished")
    return -0.5 * (m + math.log(integral))


def value(w: SWaveform, log_norm: float, r):
    """Normalized eigenfunction values at r (log-space product, always finite).

    A float for a float r, else an array of the shape of r; it is 0.0 where
    the polynomial factor vanishes.
    """
    la, sign = log_abs_and_sign(w, r)
    u = sign * np.exp(la + log_norm)
    return float(u) if isinstance(r, float) else u
