"""Independent numerical verification of the closed-form spectra.

Two verifiers, each matched to how the energy enters its equation:

* a symmetric-tridiagonal finite-difference eigensolver for the
  nonrelativistic radial equation (linear in E), with Richardson
  extrapolation over a doubled grid; and
* a two-sided RK4 shooting integrator returning the log-derivative mismatch
  at a match point, for the relativistic radial equations where E enters the
  coefficient nonlinearly.  The radial equation is linear in (u, u'), so
  each RK4 step is an exact 2x2 matrix; the integrator builds them in numpy
  and multiplies them in fixed-size chunks by a rescaled pairwise ordered
  product (the associative-scan idea of Blelloch, "Prefix sums and their
  applications", 1990) instead of stepping in Python.

The oracle consumes the approximate potential and centrifugal callables
directly and never touches the closed forms it checks.  The FD solvers call
LAPACK dstebz/dstein, and the normalization check in checks.py calls QUADPACK
dqagse, through scipy's compiled extensions, loaded by file path on first use
(scipy_extension).  The package init of scipy.linalg and scipy.integrate
costs more than the rest of a CLI call and these three routines use none of
it; the paths that never run the FD oracle load nothing from scipy at all.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from types import ModuleType
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import GridTooCoarse, InvalidParameter, NonConvergence
from .potential import PotentialParams, centrifugal_approx, potential_approx

if TYPE_CHECKING:  # pragma: no cover
    from .nonrel import ParticleSpec

#: n-fold suppression used when truncating the radial domain
_TAIL_FOLDS = 50.0

#: inner end (A) of every oracle grid; the FD box and the shooting span start here
_R_MIN = 1e-3

#: outer end (A) of the span a shooting grid is cut from
_SHOOT_R_CAP = 1600.0

#: target phase per step k*h of a shooting grid, and its point budget
_KH_TARGET = 0.01
_SHOOT_MAX_POINTS = 400_000

#: RK4 steps multiplied into one propagator before it is applied to the
#: shooting state; bounds the working arrays to a few hundred kB
_CHUNK_STEPS = 8192


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid with Dirichlet ends."""

    r_min: float
    r_max: float
    points: int

    def __post_init__(self) -> None:
        if not (0.0 < self.r_min < self.r_max):
            raise InvalidParameter(f"need 0 < r_min < r_max, got ({self.r_min!r}, {self.r_max!r})")
        if self.points < 100:
            raise InvalidParameter(f"points must be >= 100, got {self.points!r}")

    @property
    def spacing(self) -> float:
        return (self.r_max - self.r_min) / (self.points - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.r_min, self.r_max, self.points)

    def refined(self) -> "RadialGrid":
        """Same interval with the spacing exactly halved."""
        return RadialGrid(self.r_min, self.r_max, 2 * self.points - 1)


@functools.cache
def scipy_extension(subpackage: str, name: str) -> ModuleType:
    """scipy's compiled extension scipy/<subpackage>/<name>, loaded by file path once.

    find_spec("scipy") locates the package without importing it, so
    scipy.<subpackage> is never initialized.  The extension is reused if that
    package has already imported it; otherwise it is loaded and taken out of
    sys.modules again, so that a later import of the package loads it as its
    own submodule.
    """
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or scipy.origin is None:
        raise ModuleNotFoundError("the finite-difference oracle needs scipy")
    finder = importlib.machinery.FileFinder(
        os.path.join(os.path.dirname(scipy.origin), subpackage),
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec(f"scipy.{subpackage}.{name}")
    if spec is None:
        raise ModuleNotFoundError(f"scipy has no compiled scipy.{subpackage}.{name}")
    module = sys.modules.get(spec.name)
    if module is None:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules.pop(spec.name, None)
    return module


def _lapack_info(routine: str, info: int) -> None:
    if info:
        raise NonConvergence(f"LAPACK {routine} failed (info={info})")


def _stebz(diag: np.ndarray, off: np.ndarray, k: int, order: str):
    """Lowest k eigenvalues by bisection, called as eigh_tridiagonal(select="i") calls dstebz."""
    m, w, iblock, isplit, info = scipy_extension("linalg", "_flapack").dstebz(
        diag, off, 2, 0.0, 1.0, 1, k, 0.0, order)
    _lapack_info("dstebz", info)
    return w[:m], iblock, isplit


def _fd_matrix(p: PotentialParams, part: "ParticleSpec", l: int, g: RadialGrid, k: int):
    if k < 1:
        raise InvalidParameter(f"need k >= 1 eigenvalues, got {k!r}")
    if l < 0:
        raise InvalidParameter(f"l must be >= 0, got {l!r}")
    if k > g.points // 10:
        raise GridTooCoarse(f"{k} levels requested from a {g.points}-point grid")
    c = part.kinetic_scale  # hbar^2/(2 mu), eV*A^2
    r = g.nodes()[1:-1]
    h = g.spacing
    diag = 2.0 * c / h**2 + potential_approx(p, r) + c * centrifugal_approx(p.alpha, r, float(l * (l + 1)))
    off = np.full(r.size - 1, -c / h**2)
    if not (np.all(np.isfinite(diag)) and math.isfinite(off[0])):
        raise NonConvergence("FD matrix is not finite on the grid")
    return diag, off


def fd_schrodinger_modes(
    p: PotentialParams,
    part: "ParticleSpec",
    l: int,
    g: RadialGrid,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Lowest k eigenpairs of the discretized radial equation.

    Second-order central differences of
        -(hbar^2/2mu) u'' + [V_approx + (hbar^2/2mu) l(l+1) alpha^2/(1-e^(-alpha r))^2] u = E u
    with u = 0 at both grid ends.  Returns (energies ascending, eigenvectors
    on the interior nodes as columns).  Bisection returns the eigenvalues
    block by block; inverse iteration (dstein) gives the vectors, and both
    are then sorted by energy.
    """
    diag, off = _fd_matrix(p, part, l, g, k)
    w, iblock, isplit = _stebz(diag, off, k, "B")
    v, info = scipy_extension("linalg", "_flapack").dstein(diag, off, w, iblock, isplit)
    _lapack_info("dstein", info)
    order = np.argsort(w)
    return w[order], v[:, order]


def fd_schrodinger_eigen(
    p: PotentialParams,
    part: "ParticleSpec",
    l: int,
    g: RadialGrid,
    k: int,
) -> np.ndarray:
    """Lowest k finite-difference eigenvalues, ascending (see fd_schrodinger_modes)."""
    return _stebz(*_fd_matrix(p, part, l, g, k), k, "E")[0]


def richardson_extrapolate(
    E_coarse: float, E_fine: float, ratio: float, order: int
) -> tuple[float, float]:
    """Cancel the leading h^order error term of a grid pair.

    Returns (extrapolated value, |E_fine - E_coarse| as the error scale).
    """
    if not ratio > 1.0:
        raise InvalidParameter(f"ratio must be > 1, got {ratio!r}")
    if order < 1:
        raise InvalidParameter(f"order must be >= 1, got {order!r}")
    return E_fine + (E_fine - E_coarse) / (ratio**order - 1.0), abs(E_fine - E_coarse)


def adapted_range(p: PotentialParams, part: "ParticleSpec", l: int, k: int) -> float:
    """r_max covering the support of the lowest k levels.

    A coarse full-range solve localizes the k-th level, then the domain is
    truncated 50 decay lengths past its outer turning point.  The default
    40/alpha box spends nearly all points on the exponential tail, which
    under-resolves the well for heavy molecules; this keeps the same point
    counts on the region that matters.  Falls back to 40/alpha when the top
    level sits too close to the dissociation limit.
    """
    cap = 40.0 / p.alpha
    coarse = fd_schrodinger_eigen(p, part, l, RadialGrid(_R_MIN, cap, 4001), k)
    spread = (coarse[-1] - coarse[0]) / max(k - 1, 1)
    e_top = coarse[-1] + 0.5 * spread + 1e-9
    v_inf = p.D_e - p.a * p.alpha  # approximate-potential limit at infinity
    if e_top >= v_inf:
        return cap
    kappa = math.sqrt((v_inf - e_top) / part.kinetic_scale)
    rr = np.linspace(_R_MIN, cap, 20000)
    veff = potential_approx(p, rr) + part.kinetic_scale * centrifugal_approx(p.alpha, rr, float(l * (l + 1)))
    below = rr[veff < e_top]
    r_turn = float(below[-1]) if below.size else p.r_e + 1.0
    return min(r_turn + _TAIL_FOLDS / kappa, cap)


def oracle_energies(
    p: PotentialParams,
    part: "ParticleSpec",
    l: int,
    k: int,
    points: int = 20001,
) -> tuple[np.ndarray, np.ndarray]:
    """Extrapolated FD energies for the lowest k levels on adapted grids.

    Solves on `points` and the halved-spacing refinement, Richardson order 2.
    Returns (energies, error estimates).
    """
    r_max = adapted_range(p, part, l, k)
    g = RadialGrid(_R_MIN, r_max, points)
    e_c = fd_schrodinger_eigen(p, part, l, g, k)
    e_f = fd_schrodinger_eigen(p, part, l, g.refined(), k)
    out = np.empty(k)
    err = np.empty(k)
    for i in range(k):
        out[i], err[i] = richardson_extrapolate(float(e_c[i]), float(e_f[i]), 2.0, 2)
    return out, err


def _rk4_step_matrices(w0: np.ndarray, wh: np.ndarray, w1: np.ndarray, hs: float):
    """Entries (a, b, c, d) of the one-step maps [[a, b], [c, d]] of classical RK4.

    For y' = [[0, 1], [-W, 0]] y with W sampled at the start (w0), midpoint
    (wh) and end (w1) of a step of length hs, one RK4 step is exactly linear
    in y = (u, u'); these are its columns, the step applied to (1, 0) and
    (0, 1).
    """
    q = hs * hs
    a = 1.0 - q / 6.0 * (w0 + wh * (2.0 - 0.25 * q * w0))
    b = hs * (1.0 - q / 6.0 * wh)
    c = -hs / 6.0 * (w0 + wh * (4.0 - 0.5 * q * w0) + w1 * (1.0 - 0.5 * q * wh))
    d = 1.0 - q / 6.0 * (2.0 * wh + w1 * (1.0 - 0.25 * q * wh))
    return a, b, c, d


def _ordered_product(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray):
    """Product M[N-1] ... M[1] M[0] of the matrices M[k] = [[a[k], b[k]], [c[k], d[k]]].

    Reduced pairwise, each later matrix times its earlier neighbour, with
    every partial product divided by its largest entry so that growth over
    a forbidden region cannot overflow.  Returns the entries as floats, up
    to that positive scale.
    """
    while a.size > 1:
        if a.size % 2:  # pad an odd count with the identity
            a, b, c, d = np.append(a, 1.0), np.append(b, 0.0), np.append(c, 0.0), np.append(d, 1.0)
        a0, b0, c0, d0 = a[0::2], b[0::2], c[0::2], d[0::2]
        a1, b1, c1, d1 = a[1::2], b[1::2], c[1::2], d[1::2]
        a, b, c, d = a1 * a0 + b1 * c0, a1 * b0 + b1 * d0, c1 * a0 + d1 * c0, c1 * b0 + d1 * d0
        scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.maximum(np.abs(c), np.abs(d)))
        a, b, c, d = a / scale, b / scale, c / scale, d / scale
    return float(a[0]), float(b[0]), float(c[0]), float(d[0])


def shoot_mismatch(
    ode: Callable[[np.ndarray, float], np.ndarray],
    E: float,
    g: RadialGrid,
    r_match: float,
) -> float:
    """Log-derivative mismatch u'_L/u_L - u'_R/u_R at r_match.

    `ode` maps (r array, E) to the coefficient W of u'' + W(r; E) u = 0.
    Integrates rightward from g.r_min and leftward from g.r_max with
    classical fixed-step RK4 (coefficient sampled on a half-step grid).  The
    equation is linear, so every step is an exact 2x2 map of (u, u'); the
    steps are multiplied together in chunks of _CHUNK_STEPS and each chunk's
    propagator is applied to the state, with rescaling throughout to dodge
    overflow; the log-derivatives are scale invariant.  The mismatch changes
    sign as E crosses an eigenvalue; it is returned as +inf when a
    match-point node makes it undefined.
    """
    if not (g.r_min < r_match < g.r_max):
        raise InvalidParameter(f"r_match must lie inside the grid, got {r_match!r}")
    n = g.points
    h = g.spacing
    i_match = int(round((r_match - g.r_min) / h))
    i_match = min(max(i_match, 1), n - 2)
    r_half = np.linspace(g.r_min, g.r_max, 2 * n - 1)
    W = np.asarray(ode(r_half, E), dtype=float)
    if not np.all(np.isfinite(W)):
        raise NonConvergence("ODE coefficient is not finite on the grid")

    def launch(step: int) -> tuple[float, float]:
        # starting inside an attractive 1/r^2 region (limit-circle origin) a
        # Dirichlet seed mixes in the irregular branch; seed the regular
        # Frobenius solution r^p (1 + c1 r) instead, with the local
        # coefficient expansion W ~ c/r^2 + w1/r fitted on the first two
        # nodes.  In a forbidden region the growing mode dominates whatever
        # is seeded, so (0, +-1) is fine.
        if step < 0:
            return 0.0, -1.0
        r0, r1 = float(r_half[0]), float(r_half[1])
        W0, W1 = float(W[0]), float(W[1])
        c = (W0 * r0 * r0 * r1 - W1 * r1 * r1 * r0) / (r1 - r0)
        if W0 > 0.0 and 0.0 < c < 0.25:
            w1 = (W1 * r1 * r1 - W0 * r0 * r0) / (r1 - r0)
            p_reg = 0.5 + math.sqrt(0.25 - c)
            return 1.0, p_reg / r0 - w1 / (2.0 * p_reg)
        return 0.0, 1.0

    def integrate(Ws: np.ndarray, steps: int, hs: float, u: float, v: float) -> tuple[float, float]:
        # step k samples W at Ws[2k], Ws[2k + 1] and Ws[2k + 2]
        for start in range(0, steps, _CHUNK_STEPS):
            stop = min(start + _CHUNK_STEPS, steps)
            a, b, c, d = _ordered_product(*_rk4_step_matrices(
                Ws[2 * start : 2 * stop : 2], Ws[2 * start + 1 : 2 * stop : 2],
                Ws[2 * start + 2 : 2 * stop + 1 : 2], hs))
            u, v = a * u + b * v, c * u + d * v
            if not (math.isfinite(u) and math.isfinite(v)):
                raise NonConvergence("shooting state became non-finite despite rescaling")
            m = max(abs(u), abs(v))
            u, v = u / m, v / m
        return u, v

    u_l, v_l = integrate(W, i_match, h, *launch(+1))
    # leftward from g.r_max: the same recursion over the reversed samples
    u_r, v_r = integrate(W[::-1], n - 1 - i_match, -h, *launch(-1))
    if u_l == 0.0 or u_r == 0.0:
        return math.inf
    return v_l / u_l - v_r / u_r


def shooting_grid(ode: Callable[[np.ndarray, float], np.ndarray], E: float) -> tuple[RadialGrid, float]:
    """Grid and match point adapted to the local wavelength of one solution.

    The span is truncated 50 decay lengths past the classically allowed
    region and the spacing targets k*h <= _KH_TARGET, where k is the largest
    local wavenumber sqrt(|W|).  The match point is the maximum of W, i.e.
    the minimum of the effective potential.
    """
    rr = np.geomspace(_R_MIN, _SHOOT_R_CAP, 16000)
    W = np.asarray(ode(rr, E), dtype=float)
    inside = np.nonzero(W > 0.0)[0]
    if inside.size == 0:
        raise NonConvergence("no classically allowed region at this energy")
    # accumulate the local decay exponent outside the allowed region; the
    # asymptotic rate alone misplaces the cutoffs because the potential
    # approaches its limit on the slow 1/alpha scale while the inner core
    # can be orders of magnitude stiffer than the well
    kappa = np.sqrt(np.maximum(-W, 0.0))
    dr = np.diff(rr)
    seg = 0.5 * (kappa[:-1] + kappa[1:]) * dr
    i_first, i_last = int(inside[0]), int(inside[-1])
    lo_idx = 0
    if i_first > 0:
        folds_in = np.cumsum(seg[:i_first][::-1])  # integrate leftward from the turning point
        past = np.nonzero(folds_in >= _TAIL_FOLDS)[0]
        if past.size:
            lo_idx = i_first - 1 - int(past[0])
    hi_idx = rr.size - 1
    if i_last < rr.size - 1:
        folds_out = np.cumsum(seg[i_last:])
        past = np.nonzero(folds_out >= _TAIL_FOLDS)[0]
        if past.size:
            hi_idx = i_last + 1 + int(past[0])
    # budget points by accumulated phase/decay, not peak wavenumber x span
    speed = np.sqrt(np.abs(W))

    def build(i_lo: int, i_hi: int) -> RadialGrid:
        r_lo, r_hi = float(rr[i_lo]), float(rr[i_hi])
        total = float(np.sum(0.5 * (speed[i_lo:i_hi] + speed[i_lo + 1 : i_hi + 1]) * dr[i_lo:i_hi]))
        points = int(1.5 * total / _KH_TARGET) + 2
        points = min(max(points, 3001, int((r_hi - r_lo) / 0.02)), _SHOOT_MAX_POINTS)
        return RadialGrid(r_lo, r_hi, points)

    grid = build(lo_idx, hi_idx)
    if W[lo_idx] > 0.0:
        # limit-circle start: advance the left end until the step resolves
        # the local wavenumber (the shaved phase is negligible there)
        resolvable = np.nonzero(speed * grid.spacing <= 0.1)[0]
        resolvable = resolvable[(resolvable >= lo_idx) & (resolvable < i_last)]
        if resolvable.size:
            lo_idx = int(resolvable[0])
            grid = build(lo_idx, hi_idx)
    # match where the solution is large: r^2-weighted maximum of W over the
    # allowed region (the bare maximum can sit inside an attractive core)
    window = slice(lo_idx, hi_idx + 1)
    weight = np.where(W[window] > 0.0, W[window] * rr[window] ** 2, -np.inf)
    r_match = float(rr[lo_idx + int(np.argmax(weight))])
    r_match = min(max(r_match, grid.r_min + 2.0 * grid.spacing), grid.r_max - 2.0 * grid.spacing)
    return grid, r_match


def mismatch_sign_change(ode: Callable[[np.ndarray, float], np.ndarray], E: float, window: float) -> bool:
    """True when the shooting mismatch changes sign across [E-window, E+window]."""
    g, r_match = shooting_grid(ode, E)
    lo = shoot_mismatch(ode, E - window, g, r_match)
    hi = shoot_mismatch(ode, E + window, g, r_match)
    return math.isfinite(lo) and math.isfinite(hi) and lo * hi < 0.0
