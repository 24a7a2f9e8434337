"""Test-side helpers on normalized eigenfunctions.

The printed closed-form normalization constants are cross-checks of the
quadrature `log_norm` that the library computes: the nonrelativistic one is
exact at n = 0 but inherits a flawed weighted-norm identity at n >= 1, and
the printed Klein-Gordon one carries an undefined symbol.  `count_nodes`
checks that a state of degree n has n interior nodes.
"""

import math
from typing import Optional

import numpy as np

from hgmorse.specfun import ln_gamma
from hgmorse.wavefun import SWaveform, support_window, value


def log_norm_closed_form(omega: float, phi_exp: float, n: int, alpha: float) -> float:
    """log of the closed-form constant sqrt(n! 2w a G(2w+2f+n+1)/(G(2w+n+1) G(2f+n+1)))."""
    return 0.5 * (
        ln_gamma(n + 1.0)
        + math.log(2.0 * omega)
        + math.log(alpha)
        + ln_gamma(2.0 * omega + 2.0 * phi_exp + n + 1.0)
        - ln_gamma(2.0 * omega + n + 1.0)
        - ln_gamma(2.0 * phi_exp + n + 1.0)
    )


def kg_log_norm_closed(leading: float, edge: float, n: int, alpha: float) -> Optional[float]:
    """The printed Klein-Gordon closed-form log norm (undefined symbol read as A).

    The printed constant references Gamma(lambda + n) with lambda undefined;
    it is evaluated with lambda -> A = 2*leading_exp.  None when A <= 1 makes
    its (A-1) factor nonpositive.
    """
    A = 2.0 * leading
    if A <= 1.0:
        return None
    d = edge - 0.5
    return 0.5 * (
        ln_gamma(n + 1.0)
        + math.log(alpha)
        + math.log(A - 1.0)
        + ln_gamma(A + d + n + 1.0)
        - ln_gamma(A + n)
        - ln_gamma(d + n + 2.0)
    )


def count_nodes(w: SWaveform, log_norm: float) -> int:
    """Strict interior sign changes over 4000 samples of the support window."""
    r_lo, r_hi = support_window(w)
    vals = value(w, log_norm, np.linspace(r_lo, r_hi, 4000))
    scale = np.abs(vals).max()
    keep = np.abs(vals) > 1e-9 * scale
    signs = np.sign(vals[keep])
    return int(np.sum(signs[1:] * signs[:-1] < 0.0))
