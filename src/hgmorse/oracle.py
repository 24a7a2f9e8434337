"""Independent numerical verification of the closed-form spectra.

Three verifiers, each matched to how the energy enters its equation:

* a sinc discrete-variable representation (DVR) of the nonrelativistic
  radial equation on an even grid in x = ln r (Colbert and Miller, J.
  Chem. Phys. 96, 1982, 1992), solved as one small dense symmetric matrix
  per l column by numpy's eigvalsh, with a second, wider and finer box as
  its error estimate.  `levels --oracle` runs it; it loads nothing from
  scipy;
* a symmetric-tridiagonal finite-difference (FD) eigensolver for the same
  equation, with Richardson extrapolation over a doubled grid.
  `oracle-check` runs it, and the tests hold the DVR against it; and
* a two-sided RK4 shooting integrator returning the log-derivative mismatch
  at a match point, for the relativistic radial equations where E enters the
  coefficient nonlinearly.  It integrates in the Langer variable x = ln r,
  u = r^(1/2) v (Langer, Phys. Rev. 51, 669, 1937), where the coefficient
  tends to a constant as r -> 0 and the regular solution is the one that
  decays toward the origin, also where the origin is limit-circle (r^2 W ->
  c with 0 < c < 1/4; Everitt, "A catalogue of Sturm-Liouville differential
  equations", 2005).  The equation is linear in (v, v'), so each RK4 step is
  an exact 2x2 matrix; the integrator builds them in numpy and multiplies
  them in fixed-size chunks by a rescaled pairwise ordered product (the
  associative-scan idea of Blelloch, "Prefix sums and their applications",
  1990) instead of stepping in Python.

The DVR works in the shooting oracle's variables too: with u = r^(1/2) phi
the 1/r^2 term and the origin need no special handling, and a box sized
from the decay of Q = r^2 (E - U)/c - 1/4 holds a whole l column in 50-100
nodes for the built-in molecules at low n.

The oracle consumes the approximate potential and centrifugal callables
directly and never touches the closed forms it checks.  The FD solver calls
LAPACK dstebz, and the normalization check in checks.py calls QUADPACK
dqagse, through scipy's compiled extensions, loaded by file path on first use
(scipy_extension).  The package init of scipy.linalg and scipy.integrate
costs more than the rest of a CLI call and these two routines use none of
it.  dstebz, the bisection that dominates an FD solve, is called through the
f2py object's own C pointer with ctypes, which releases the GIL; thread_map
runs the independent FD solves of `oracle-check` on up to one thread per
usable CPU, so their bisections overlap.  Those are plain `threading`
threads that take the jobs in order: concurrent.futures, with the logging
and queue modules it loads, would add about 5 ms of imports to every call.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from types import ModuleType
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .errors import GridTooCoarse, InvalidParameter, NonConvergence
from .potential import PotentialParams, centrifugal_approx, potential_approx

if TYPE_CHECKING:  # pragma: no cover
    from .nonrel import ParticleSpec

#: n-fold suppression used when truncating the radial domain
_TAIL_FOLDS = 50.0

#: inner end (A) of the FD box
_R_MIN = 1e-3

#: ends (A) of the span a shooting grid is cut from; at 1e-9 A, r^2 W has
#: reached its r -> 0 limit for every model's coefficient
_SHOOT_R_MIN = 1e-9
_SHOOT_R_CAP = 1600.0

#: target phase per x-step sqrt(|Q|)*dx of a shooting grid, and its point budget
_KH_TARGET = 0.01
_SHOOT_MAX_POINTS = 400_000

#: dstebz(range, order, n, vl, vu, il, iu, abstol, d, e, m, nsplit, w, iblock,
#: isplit, work, iwork, info): two CHARACTER*1 flags, then every argument by
#: reference; integers are C ints, as in scipy's f2py signature
_DSTEBZ_ARGS = (ctypes.c_char_p,) * 2 + (ctypes.c_void_p,) * 16

#: the environment variables OpenBLAS reads its thread count from when it loads
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

#: interior nodes whose FD diagonal entries are computed together; the
#: potential's temporaries then stay a few block-sized arrays, not grid-sized
_FD_BLOCK = 4096

#: e-folds of decay a DVR box keeps past each turning point, DVR nodes per shortest
#: local wavelength, and the node budget of one DVR solve
_DVR_FOLDS = 25.0
_DVR_PER_WAVELENGTH = 6.0
_DVR_MAX_POINTS = 1500

#: nodes of the ln r scan that sizes a DVR box, and the halvings that place its energy
_DVR_SCAN = 2000
_DVR_BISECTIONS = 40

#: RK4 steps multiplied into one propagator before it is applied to the
#: shooting state; bounds the working arrays to a few hundred kB
_CHUNK_STEPS = 8192


@dataclass(frozen=True)
class RadialGrid:
    """Radial span [r_min, r_max] and its point count.

    Each oracle lays out its own nodes on the span: the FD oracle uniformly
    in r, with Dirichlet ends (_fd_matrix), the shooting oracle uniformly in
    ln r (shoot_mismatch).
    """

    r_min: float
    r_max: float
    points: int

    def __post_init__(self) -> None:
        if not (0.0 < self.r_min < self.r_max):
            raise InvalidParameter(f"need 0 < r_min < r_max, got ({self.r_min!r}, {self.r_max!r})")
        if self.points < 100:
            raise InvalidParameter(f"points must be >= 100, got {self.points!r}")

    def refined(self) -> "RadialGrid":
        """Same span with the node step exactly halved, in r and in ln r alike."""
        return RadialGrid(self.r_min, self.r_max, 2 * self.points - 1)


@functools.cache
def scipy_extension(subpackage: str, name: str) -> ModuleType:
    """scipy's compiled extension scipy/<subpackage>/<name>, loaded by file path once.

    find_spec("scipy") locates the package without importing it, so
    scipy.<subpackage> is never initialized.  The extension is reused if that
    package has already imported it; otherwise it is loaded and taken out of
    sys.modules again, so that a later import of the package loads it as its
    own submodule.  While it loads, OPENBLAS_NUM_THREADS is 1 unless one of
    _BLAS_THREAD_VARS is already set; the variable is removed again after.
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
        # an extension that links scipy's OpenBLAS starts its thread pool as the library
        # loads, and that pool's idle thread spins while the FD workers run; dstebz uses
        # no BLAS threads, so the pool is kept to one thread unless the caller
        # set a thread count of their own
        scoped = not any(var in os.environ for var in _BLAS_THREAD_VARS)
        if scoped:
            os.environ["OPENBLAS_NUM_THREADS"] = "1"
        try:
            module = importlib.util.module_from_spec(spec)  # the shared library loads here
            spec.loader.exec_module(module)
        finally:
            if scoped:
                del os.environ["OPENBLAS_NUM_THREADS"]
        sys.modules.pop(spec.name, None)
    return module


@functools.cache
def _dstebz() -> Callable:
    """LAPACK dstebz as a ctypes function that releases the GIL while it runs.

    The address is the one scipy's f2py dstebz wrapper calls, read from that
    object's _cpointer capsule, so every scipy build bisects with the same
    routine whatever its symbol is named.
    """
    capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    address = capsule_pointer(scipy_extension("linalg", "_flapack").dstebz._cpointer, None)
    return ctypes.CFUNCTYPE(None, *_DSTEBZ_ARGS)(address)


def _stebz(diag: np.ndarray, off: np.ndarray, k: int) -> np.ndarray:
    """Lowest k eigenvalues by bisection, ascending, called as eigh_tridiagonal(select="i",
    eigvals_only=True) calls dstebz."""
    d, e = np.ascontiguousarray(diag, dtype=float), np.ascontiguousarray(off, dtype=float)
    n = d.size
    if not (d.ndim == e.ndim == 1 and e.size == n - 1 and 1 <= k <= n):
        raise InvalidParameter(f"dstebz needs n diagonal and n - 1 off-diagonal entries, 1 <= k <= n; "
                               f"got shapes {d.shape}, {e.shape} and k = {k!r}")
    w, iblock, isplit = np.zeros(n), np.zeros(n, np.intc), np.zeros(n, np.intc)
    work, iwork = np.empty(4 * n), np.empty(3 * n, np.intc)
    m, nsplit, info = ctypes.c_int(), ctypes.c_int(), ctypes.c_int()
    ref = ctypes.byref
    _dstebz()(b"I", b"E", ref(ctypes.c_int(n)), ref(ctypes.c_double(0.0)), ref(ctypes.c_double(1.0)),
              ref(ctypes.c_int(1)), ref(ctypes.c_int(k)), ref(ctypes.c_double(0.0)), d.ctypes.data, e.ctypes.data,
              ref(m), ref(nsplit), w.ctypes.data, iblock.ctypes.data, isplit.ctypes.data,
              work.ctypes.data, iwork.ctypes.data, ref(info))
    if info.value:
        raise NonConvergence(f"LAPACK dstebz failed (info={info.value})")
    return w[: m.value]


def thread_map(fn: Callable, jobs: Sequence[tuple]) -> list:
    """[fn(*job) for job in jobs], run on up to one thread per CPU this process may use.

    Meant for independent FD solves, whose dstebz bisections run without the
    GIL.  Each plain thread takes the next job in order until none is left;
    the first exception in job order is raised once every job has ended.
    """
    _dstebz()  # functools.cache is not a lock: resolve it before any worker can race for it
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(len(jobs), cpus)
    if workers <= 1:
        return [fn(*job) for job in jobs]
    import threading

    results: list = [None] * len(jobs)
    errors: list[BaseException | None] = [None] * len(jobs)
    order = iter(range(len(jobs)))
    take = threading.Lock()

    def worker() -> None:
        while True:
            with take:
                i = next(order, None)
            if i is None:
                return
            try:
                results[i] = fn(*jobs[i])
            except BaseException as exc:
                errors[i] = exc

    threads = [threading.Thread(target=worker) for _ in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    first_error = next((exc for exc in errors if exc is not None), None)
    if first_error is not None:
        raise first_error
    return results


def _fd_matrix(p: PotentialParams, part: "ParticleSpec", l: int, g: RadialGrid, k: int):
    if k < 1:
        raise InvalidParameter(f"need k >= 1 eigenvalues, got {k!r}")
    if l < 0:
        raise InvalidParameter(f"l must be >= 0, got {l!r}")
    if k > g.points // 10:
        raise GridTooCoarse(f"{k} levels requested from a {g.points}-point grid")
    c = part.kinetic_scale  # hbar^2/(2 mu), eV*A^2
    r = np.linspace(g.r_min, g.r_max, g.points)[1:-1]
    h = (g.r_max - g.r_min) / (g.points - 1)
    diag = np.empty(r.size)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN is reported below
        # elementwise, so each block gives bit for bit the entries of one whole-grid evaluation
        for start in range(0, r.size, _FD_BLOCK):
            rb = r[start : start + _FD_BLOCK]
            diag[start : start + _FD_BLOCK] = (
                2.0 * c / h**2 + potential_approx(p, rb) + c * centrifugal_approx(p.alpha, rb, float(l * (l + 1))))
    off = np.full(r.size - 1, -c / h**2)
    if not (np.all(np.isfinite(diag)) and math.isfinite(off[0])):
        raise NonConvergence("FD matrix is not finite on the grid")
    return diag, off


def fd_schrodinger_eigen(
    p: PotentialParams,
    part: "ParticleSpec",
    l: int,
    g: RadialGrid,
    k: int,
) -> np.ndarray:
    """Lowest k eigenvalues of the discretized radial equation, ascending.

    Second-order central differences of
        -(hbar^2/2mu) u'' + [V_approx + (hbar^2/2mu) l(l+1) alpha^2/(1-e^(-alpha r))^2] u = E u
    with u = 0 at both grid ends, solved by bisection (dstebz).
    """
    return _stebz(*_fd_matrix(p, part, l, g, k), k)


def richardson_extrapolate(E_coarse: float, E_fine: float) -> tuple[float, float]:
    """Cancel the leading h^2 error term of a grid pair whose spacing halves.

    Returns (extrapolated value, |E_fine - E_coarse| as the error scale),
    elementwise when E_coarse and E_fine are arrays of one shape.
    """
    return E_fine + (E_fine - E_coarse) / 3.0, abs(E_fine - E_coarse)  # 3 = 2^2 - 1


def fd_extrapolated(p: PotentialParams, part: "ParticleSpec", l: int, g: RadialGrid,
                    k: int) -> tuple[np.ndarray, np.ndarray]:
    """The lowest k FD eigenvalues on g and on g.refined(), Richardson-extrapolated:
    (energies, error estimates)."""
    return richardson_extrapolate(fd_schrodinger_eigen(p, part, l, g, k),
                                  fd_schrodinger_eigen(p, part, l, g.refined(), k))


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
    with np.errstate(over="ignore", invalid="ignore"):  # the FD solves report an overflowing potential
        veff = potential_approx(p, rr) + part.kinetic_scale * centrifugal_approx(p.alpha, rr, float(l * (l + 1)))
    below = rr[veff < e_top]
    r_turn = float(below[-1]) if below.size else p.r_e + 1.0
    return min(r_turn + _TAIL_FOLDS / kappa, cap)


#: points of oracle_energies' FD grid on the adapted range, before its refinement
FD_POINTS = 20001


def oracle_energies(p: PotentialParams, part: "ParticleSpec", l: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Extrapolated FD energies for the lowest k levels on an adapted grid.

    fd_extrapolated on FD_POINTS points from _R_MIN to adapted_range.
    Returns (energies, error estimates).
    """
    return fd_extrapolated(p, part, l, RadialGrid(_R_MIN, adapted_range(p, part, l, k), FD_POINTS), k)


def _decay_span(Q: np.ndarray, dx: float, folds: float) -> tuple[int, int, np.ndarray]:
    """The nodes `folds` e-folds of sqrt(-Q) past the allowed region (Q > 0) of a scan.

    Q is sampled on nodes dx apart in x = ln r.  Returns (lo, hi, seg):
    the node indices where the decay accumulated leftward from the first
    allowed node and rightward from the last one reaches `folds` (or the
    scan's end), and the phase (Q > 0) or decay (Q < 0) over each scan
    interval.
    """
    inside = np.nonzero(Q > 0.0)[0]
    if inside.size == 0:
        raise NonConvergence("no classically allowed region at this energy")
    speed = np.sqrt(np.abs(Q))
    seg = 0.5 * (speed[:-1] + speed[1:]) * dx
    i_first, i_last = int(inside[0]), int(inside[-1])
    folds_in = np.cumsum(seg[:i_first][::-1])  # leftward from the inner turning point
    lo = max(i_first - 1 - int(np.searchsorted(folds_in, folds)), 0)
    folds_out = np.cumsum(seg[i_last:])
    hi = min(i_last + 1 + int(np.searchsorted(folds_out, folds)), Q.size - 1)
    return lo, hi, seg


def _dvr_potential(p: PotentialParams, part: "ParticleSpec", l: int, r: np.ndarray) -> np.ndarray:
    """U = V_approx + c l(l+1) alpha^2/(1 - e^(-alpha r))^2 at the DVR nodes r; NonConvergence if not finite."""
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN is reported below
        u = potential_approx(p, r) + part.kinetic_scale * centrifugal_approx(p.alpha, r, float(l * (l + 1)))
    if not np.all(np.isfinite(u)):
        raise NonConvergence("DVR Hamiltonian is not finite on the grid")
    return u


def _dvr_eigenvalues(p: PotentialParams, part: "ParticleSpec", l: int, x_lo: float, x_hi: float,
                     points: int, k: int) -> np.ndarray:
    """Lowest k eigenvalues of the sinc DVR on `points` even nodes from x_lo to x_hi in x = ln r.

    H = r^-1 [c (T_x + 1/4) + r^2 U] r^-1, with T_x the Colbert-Miller
    kernel of -d^2/dx^2 on step h: pi^2/(3 h^2) on the diagonal and
    2 (-1)^m/(m h)^2 at distance m.  H is built from one Toeplitz view of
    that kernel, so its only full-size arrays are H and the copy that
    eigvalsh factors.
    """
    c = part.kinetic_scale
    h = (x_hi - x_lo) / (points - 1)
    r = np.exp(np.linspace(x_lo, x_hi, points))
    u = _dvr_potential(p, part, l, r)
    m = np.arange(1.0, points)
    kernel = np.empty(points)
    kernel[0] = c * (math.pi**2 / (3.0 * h * h) + 0.25)
    kernel[1:] = c * 2.0 * np.where(m % 2.0, -1.0, 1.0) / (m * h) ** 2
    toeplitz = np.lib.stride_tricks.sliding_window_view(np.concatenate((kernel[:0:-1], kernel)), points)[::-1]
    r_inv = 1.0 / r
    H = toeplitz * r_inv
    H *= r_inv[:, None]
    H.flat[:: points + 1] += u
    return np.linalg.eigvalsh(H)[:k]


def dvr_energies(p: PotentialParams, part: "ParticleSpec", l: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest k levels of one l column from a sinc DVR in x = ln r, and their error estimates.

    Solves the radial equation of the FD oracle, with u = r^(1/2) phi as in
    the shooting oracle, on an even grid in x (Colbert and Miller, J. Chem.
    Phys. 96, 1982, 1992).  The box is sized at the energy where the WKB
    phase of Q = r^2 (E - U)/c - 1/4 reaches k pi, half a level above the
    k-th level's estimate, or at the scan's last potential value if that
    is lower: it ends _DVR_FOLDS e-folds of decay past the turning points,
    and its step gives _DVR_PER_WAVELENGTH nodes per shortest local
    wavelength.  A second box, 10% wider and with a step 1.25 times finer,
    gives the energies returned; their distance from the first box's is
    the error estimate.  GridTooCoarse when either box needs more than
    _DVR_MAX_POINTS nodes; NonConvergence when the potential is not finite
    on them or the k-th level lies above the energy its box was sized for.
    """
    if k < 1:
        raise InvalidParameter(f"need k >= 1 eigenvalues, got {k!r}")
    if l < 0:
        raise InvalidParameter(f"l must be >= 0, got {l!r}")
    rr = np.geomspace(_SHOOT_R_MIN, 40.0 / p.alpha, _DVR_SCAN)
    dx = math.log(rr[-1] / rr[0]) / (rr.size - 1)
    u = _dvr_potential(p, part, l, rr)
    weight = rr * rr / part.kinetic_scale
    offset = weight * u + 0.25  # Q = weight * E - offset

    def phase(E: float) -> float:
        return float(np.sum(np.sqrt(np.maximum(weight * E - offset, 0.0)))) * dx

    e_lo, e_box = float(u.min()), float(u[-1])
    if phase(e_box) > math.pi * k:
        for _ in range(_DVR_BISECTIONS):
            mid = 0.5 * (e_lo + e_box)
            e_lo, e_box = (mid, e_box) if phase(mid) < math.pi * k else (e_lo, mid)
    Q = weight * e_box - offset
    lo, hi, _ = _decay_span(Q, dx, _DVR_FOLDS)
    x_lo, x_hi = math.log(rr[lo]), math.log(rr[hi])
    h = 2.0 * math.pi / (_DVR_PER_WAVELENGTH * math.sqrt(float(Q.max())))
    points = max(int(math.ceil((x_hi - x_lo) / h)) + 1, k + 1)
    wide = 0.05 * (x_hi - x_lo)
    wide_points = int(math.ceil(1.25 * (points - 1) * 1.1)) + 1
    if wide_points > _DVR_MAX_POINTS:
        raise GridTooCoarse(f"{k} levels at l = {l} need a {wide_points}-point DVR grid, "
                            f"over the budget of {_DVR_MAX_POINTS}")
    coarse = _dvr_eigenvalues(p, part, l, x_lo, x_hi, points, k)
    fine = _dvr_eigenvalues(p, part, l, x_lo - wide, x_hi + wide, wide_points, k)
    if fine[-1] > e_box and e_box < float(u[-1]):
        raise NonConvergence(f"level {k - 1} at l = {l} lies above the energy its DVR box was sized for")
    return fine, np.abs(fine - coarse)


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
    With x = ln r and u = r^(1/2) v this reads v'' + Q v = 0, Q = r^2 W - 1/4,
    integrated on g.points nodes uniform in x, rightward from g.r_min and
    leftward from g.r_max, by classical fixed-step RK4 (Q sampled on a
    half-step grid).  Each end starts from the solution that decays toward
    it, (v, v') = (1, +-sqrt(-Q)), or from (0, +-1) where Q >= 0; as r -> 0
    Q tends to a constant, so that is the regular branch there.  Every step
    is an exact 2x2 map of (v, v'); chunks of _CHUNK_STEPS steps are
    multiplied into one propagator and applied to the state, rescaled
    against overflow.  As u'/u = (v'/v + 1/2)/r, the mismatch is
    (v'_L/v_L - v'_R/v_R)/r at the match node.  It changes sign as E
    crosses an eigenvalue, and is +inf when a match-point node makes it
    undefined.
    """
    if not (g.r_min < r_match < g.r_max):
        raise InvalidParameter(f"r_match must lie inside the grid, got {r_match!r}")
    n = g.points
    x_min = math.log(g.r_min)
    h = (math.log(g.r_max) - x_min) / (n - 1)
    i_match = min(max(int(round((math.log(r_match) - x_min) / h)), 1), n - 2)
    r_half = np.exp(np.linspace(x_min, math.log(g.r_max), 2 * n - 1))
    Q = r_half * r_half * np.asarray(ode(r_half, E), dtype=float) - 0.25
    if not np.all(np.isfinite(Q)):
        raise NonConvergence("ODE coefficient is not finite on the grid")

    def seed(q: float, sign: float) -> tuple[float, float]:
        return (1.0, sign * math.sqrt(-q)) if q < 0.0 else (0.0, sign)

    def integrate(Qs: np.ndarray, steps: int, hs: float, u: float, v: float) -> tuple[float, float]:
        # step k samples Q at Qs[2k], Qs[2k + 1] and Qs[2k + 2]
        for start in range(0, steps, _CHUNK_STEPS):
            stop = min(start + _CHUNK_STEPS, steps)
            with np.errstate(over="ignore", invalid="ignore"):  # a non-finite product is reported below
                a, b, c, d = _ordered_product(*_rk4_step_matrices(
                    Qs[2 * start : 2 * stop : 2], Qs[2 * start + 1 : 2 * stop : 2],
                    Qs[2 * start + 2 : 2 * stop + 1 : 2], hs))
            u, v = a * u + b * v, c * u + d * v
            if not (math.isfinite(u) and math.isfinite(v)):
                raise NonConvergence("shooting state became non-finite despite rescaling")
            m = max(abs(u), abs(v))
            u, v = u / m, v / m
        return u, v

    u_l, v_l = integrate(Q, i_match, h, *seed(float(Q[0]), 1.0))
    # leftward from g.r_max: the same recursion over the reversed samples
    u_r, v_r = integrate(Q[::-1], n - 1 - i_match, -h, *seed(float(Q[-1]), -1.0))
    if u_l == 0.0 or u_r == 0.0:
        return math.inf
    return (v_l / u_l - v_r / u_r) / float(r_half[2 * i_match])


def shooting_grid(ode: Callable[[np.ndarray, float], np.ndarray], E: float) -> tuple[RadialGrid, float]:
    """Span, point count and match point of one solution, in x = ln r (see shoot_mismatch).

    Q = r^2 W - 1/4 is scanned on a geometric span from _SHOOT_R_MIN to
    _SHOOT_R_CAP.  The span is cut 50 e-folds of sqrt(-Q) past the allowed
    region (Q > 0) on each side that gets that far, and the point count
    keeps the accumulated phase and decay per x-step near _KH_TARGET.  The
    match point is the maximum of Q, where the solution is large.
    """
    rr = np.geomspace(_SHOOT_R_MIN, _SHOOT_R_CAP, 16000)
    Q = rr * rr * np.asarray(ode(rr, E), dtype=float) - 0.25
    lo, hi, seg = _decay_span(Q, math.log(_SHOOT_R_CAP / _SHOOT_R_MIN) / (rr.size - 1), _TAIL_FOLDS)
    points = min(max(int(1.5 * float(np.sum(seg[lo:hi])) / _KH_TARGET) + 2, 3001), _SHOOT_MAX_POINTS)
    grid = RadialGrid(float(rr[lo]), float(rr[hi]), points)
    edge = math.exp(2.0 * math.log(grid.r_max / grid.r_min) / (points - 1))  # two x-steps
    r_match = min(max(float(rr[int(np.argmax(Q))]), grid.r_min * edge), grid.r_max / edge)
    return grid, r_match


def mismatch_sign_change(ode: Callable[[np.ndarray, float], np.ndarray], E: float, window: float) -> bool:
    """True when the shooting mismatch changes sign across [E-window, E+window]."""
    g, r_match = shooting_grid(ode, E)
    lo = shoot_mismatch(ode, E - window, g, r_match)
    hi = shoot_mismatch(ode, E + window, g, r_match)
    return math.isfinite(lo) and math.isfinite(hi) and lo * hi < 0.0
