"""Shared engine for radial eigenfunctions in the s = e^(-alpha r) variable.

Every bound eigenfunction produced by this package has the same shape,

    u(r) = s^leading * (1 - s)^edge * (2*leading + 1)_n / n!
           * 2F1(-n, n + 2*leading + 2*edge; 2*leading + 1; s),

with leading > 0 controlling the r -> infinity decay and edge > 1/2 the
r -> 0 vanishing.  Molecular parameters push `leading` to ~1e4, so the
envelope under/overflows doubles by hundreds of orders of magnitude;
everything here is therefore computed in log space.  Normalization is done
by composite Gauss-Legendre quadrature over the support window of the
squared envelope (log-offset to stay finite); a closed-form constant, where
one exists, is evaluated separately by the callers and only logged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, NoBoundState
from .specfun import hyp2f1_terminating

#: log-drop below the envelope peak at which the support window is truncated
_WINDOW_DROP = 160.0


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


def log_abs_and_sign(w: SWaveform, r: float) -> tuple[float, float]:
    """(log|u_raw(r)|, sign) of the unnormalized eigenfunction; r > 0."""
    if not r > 0.0:
        raise InvalidParameter(f"r must be > 0, got {r!r}")
    s = math.exp(-w.alpha * r)
    one_m_s = -math.expm1(-w.alpha * r)
    hyp = hyp2f1_terminating(w.n, w.n + 2.0 * w.leading + 2.0 * w.edge, 2.0 * w.leading + 1.0, s)
    log_pref = sum(math.log(2.0 * w.leading + 1.0 + k) for k in range(w.n)) - math.lgamma(w.n + 1.0)
    if hyp == 0.0:
        return -math.inf, 1.0
    # far out in the window s underflows to 0 while log s = -alpha r stays finite
    log_s = -w.alpha * r if s == 0.0 else math.log(s)
    log_env = w.leading * log_s + w.edge * math.log(one_m_s)
    return log_env + log_pref + math.log(abs(hyp)), math.copysign(1.0, hyp)


def support_window(w: SWaveform, drop: float = _WINDOW_DROP) -> tuple[float, float]:
    """Radial window outside which the squared envelope is down by e^-drop."""
    s_star = w.leading / (w.leading + w.edge)
    r_star = -math.log(s_star) / w.alpha
    r_lo = -math.log1p(-(1.0 - s_star) * math.exp(-0.5 * drop / w.edge)) / w.alpha
    r_hi = r_star + 0.5 * drop / (w.leading * w.alpha)
    return r_lo, r_hi


def log_norm_quadrature(w: SWaveform, panels: int | None = None, order: int = 24) -> float:
    """log of the normalization constant N with integral |N u|^2 dr = 1.

    Composite Gauss-Legendre over the support window; the polynomial factor
    oscillates n times inside it, so the panel count scales with n.
    """
    if panels is None:
        panels = 96 + 32 * w.n
    r_lo, r_hi = support_window(w)
    x, wt = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(r_lo, r_hi, panels + 1)
    logs = np.empty(panels * order)
    wts = np.empty(panels * order)
    k = 0
    for i in range(panels):
        half = 0.5 * (edges[i + 1] - edges[i])
        mid = 0.5 * (edges[i] + edges[i + 1])
        for xj, wj in zip(x, wt):
            la, _ = log_abs_and_sign(w, mid + half * xj)
            logs[k] = 2.0 * la
            wts[k] = half * wj
            k += 1
    m = logs.max()
    integral = float(np.sum(wts * np.exp(logs - m)))
    if not integral > 0.0:
        raise NoBoundState("normalization integral vanished")
    return -0.5 * (m + math.log(integral))


def value(w: SWaveform, log_norm: float, r: float) -> float:
    """Normalized eigenfunction value at r (log-space product, always finite)."""
    la, sign = log_abs_and_sign(w, r)
    if la == -math.inf:
        return 0.0
    return sign * math.exp(la + log_norm)


def count_nodes(w: SWaveform, log_norm: float, samples: int = 4000) -> int:
    """Strict interior sign changes over the support window."""
    r_lo, r_hi = support_window(w)
    rs = np.linspace(r_lo, r_hi, samples)
    vals = np.array([value(w, log_norm, float(r)) for r in rs])
    scale = np.abs(vals).max()
    keep = np.abs(vals) > 1e-9 * scale
    signs = np.sign(vals[keep])
    return int(np.sum(signs[1:] * signs[:-1] < 0.0))
