"""Oscillatory quadrature and special-function helpers.

The angular integrals use the substitution u = ln tan(theta_k/2), which maps
theta_k in (0, pi) to the real line, turns the kappa phase into a plain
exponential e^{-2 i kappa u}, and gives sin(theta_k) = sech(u),
cos(theta_k) = -tanh(u), d(theta_k) = sech(u) du.  The window is truncated
at |u| <= WINDOW with a raised-cosine taper over its outer TAPER_FRACTION;
endpoint oscillations the taper removes are unobservable downstream (trap
Gaussians regularize them).

Integration is composite 15-point Kronrod (QUADPACK's K15 rule), and the
error estimate is the difference of two successive Kronrod estimates: the
first grid has PANELS_PER_OSCILLATION times the phase oscillation count
panels, at least MIN_PANELS, and every estimate is checked against the
same rule on twice the panels.  Refinement doubles the panel count
globally, which keeps results deterministic and vectorizes over many
integrands at once.  Only the tolerance is a setting (QuadratureConfig);
panel counts are module constants.  One rule places the panels of every
grid: edges always fall on the taper knees, where the taper's second
derivative jumps, and the axial phase z cos(theta) of a field or a rate
grades the panels toward u = 0, where its oscillations crowd; at z = 0 the
grading vanishes and the panels are equal within each segment.  Every grid
is exactly mirror-symmetric under u -> -u (theta -> pi - theta), so the
engines evaluate their per-node tables on the u >= 0 half (folded_nodes)
and get the other half by symmetry.

Both engines run their BLAS calls inside one_blas_thread(), which pins
numpy's bundled OpenBLAS to one thread, so that no result depends on the
BLAS thread count and no engine thread starts BLAS threads of its own.
Where numpy has no bundled OpenBLAS, the engines run unpinned.
"""

import ctypes
import logging
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from itertools import count
from pathlib import Path
from threading import Lock

import numpy as np

log = logging.getLogger(__name__)

# |u| <= WINDOW, tapered from the knees +-KNEE = +-9.600000000000001 (not 9.6)
WINDOW = 12.0
TAPER_FRACTION = 0.2
KNEE = (1.0 - TAPER_FRACTION) * WINDOW
# first-grid panels per phase oscillation, and the fewest first-grid
# panels; the first accepted grid, twice the first, has at least 24
PANELS_PER_OSCILLATION = 0.5
MIN_PANELS = 12
# the most panels of any grid, and the only bound on refine()'s doublings:
# 245,760 nodes keep the field kernel's tile buffers, about 3.5 KB a node,
# under 1 GB.  The bundled presets and the benchmark reach at most 694
# panels, the test suite 7,000 outside its tests of the cap.
MAX_PANELS = 16_384

# 15-point Kronrod abscissae (positive half) and weights; standard QUADPACK
# dqk15 constants
_XK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
# nodes ordered across [-1, 1]
_X15 = np.concatenate([-_XK[:7], _XK[::-1]])
_WK15 = np.concatenate([_WK[:7], _WK[::-1]])


class QuadratureError(RuntimeError):
    """Raised when refinement stalls; carries the residual estimate."""

    def __init__(self, message, residual):
        super().__init__(f"{message} (residual estimate {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class QuadratureConfig:
    """Relative tolerance of the angular quadratures."""

    rel_tol: float = 1e-9

    def __post_init__(self):
        # below 1e-12 the difference of successive Kronrod estimates, which
        # stalls near 3e-15 of its row's scale, would only fail after every
        # doubling up to MAX_PANELS
        if not 1e-12 <= self.rel_tol <= 1e-2:
            raise ValueError("rel_tol must lie in [1e-12, 1e-2]")


DEFAULT_QUADRATURE = QuadratureConfig()


def _k15_nodes(edges):
    """Composite K15 nodes and weights on panel edges."""
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return (mid + half * _X15).ravel(), (half * _WK15).ravel()


def panel_nodes(n_panels, a, b):
    """Composite K15 nodes and weights on n_panels equal panels of [a, b],
    and the n_panels + 1 panel edges."""
    edges = np.linspace(a, b, n_panels + 1)
    return (*_k15_nodes(edges), edges)


# abscissae of window_nodes' interpolation table of its grading G
_G_TABLE = np.linspace(0.0, WINDOW, 33)


def window_nodes(n_panels, z=0.0, n_oscillations=0.0):
    """Composite K15 nodes and weights over |u| <= WINDOW, with panel
    edges on the taper knees +-KNEE, where the taper's second derivative
    jumps, so no panel straddles a knee; n_panels >= 3.

    The axial-phase amplitude z (a rate's trap center, a field point's
    height) grades the panels: the phase z tanh u oscillates at the local
    rate |z| sech^2 u, so its 2|z|/2pi oscillations crowd near u = 0, while
    the rest of n_oscillations (the kappa and rho phases) spread evenly.
    Segments get panels in proportion to the increase of

        G(u) = (rest + MIN_PANELS) u / (2W) + |z| tanh(u) / 2pi,
        rest = n_oscillations - |z| / pi,

    and inside each segment the edges equidistribute G.  At z = 0, G is
    linear: each segment's panels are equal, and the taper segments share
    round(n_panels (W - KNEE) / (2W)) of them.  The grid is mirror-symmetric
    bit for bit, u[::-1] == -u, with mirrored weights; an odd n_panels
    centers a panel, and its middle node, on u = 0.
    """
    W, knee = WINDOW, KNEE
    rest = max(n_oscillations - abs(z) / np.pi, 0.0)
    alpha = (rest + MIN_PANELS) / (2 * W)
    beta = abs(z) / (2 * np.pi)

    def G(u):
        return alpha * u + beta * np.tanh(u)

    G_knee, G_W = G(knee), G(W)
    n_taper = min(max(1, round(n_panels * (G_W - G_knee) / (2 * G_W))),
                  (n_panels - 1) // 2)
    n_mid = n_panels - 2 * n_taper
    # G is odd, so only the u > 0 interior edges are placed: the middle
    # segment's (an edge at u = 0 when n_mid is even, a panel centered on
    # it when odd) and the outer taper segment's.  Each target is inverted
    # from linear interpolation in a 33-point table of G, then four Newton
    # steps, which reach round-off for any ratio of beta to alpha
    t = np.concatenate((
        G_knee * np.arange(2 - n_mid % 2, n_mid, 2) / n_mid,
        np.linspace(G_knee, G_W, n_taper + 1)[1:-1]))
    u = np.interp(t, G(_G_TABLE), _G_TABLE)
    for _ in range(4):
        u -= (G(u) - t) / (alpha + beta / np.cosh(u) ** 2)
    k = (n_mid - 1) // 2
    half = np.concatenate((u[:k], [knee], u[k:], [W]))
    # mirrored edges give mirrored nodes bit for bit: u[::-1] == -u
    return _k15_nodes(np.concatenate(
        (-half[::-1], [0.0] * (1 - n_mid % 2), half)))


def folded_nodes(u, wk):
    """The u >= 0 half of a window_nodes grid, whose mirror u -> -u is
    exact: (u, wk) of the half, where a node at u = 0 (odd panel counts)
    keeps half its weight, since a sum over the half counts each node for
    itself and its mirror.  Returns copies."""
    h = len(u) // 2
    u, wk = u[h:].copy(), wk[h:].copy()
    if u[0] == 0.0:
        wk[0] *= 0.5
    return u, wk


def taper_window(u):
    """Raised-cosine roll-off over the outer TAPER_FRACTION of |u| <= WINDOW."""
    t = np.ones_like(u)
    mask = np.abs(u) > KNEE
    t[mask] = 0.5 * (1 + np.cos(np.pi * (np.abs(u[mask]) - KNEE)
                                / (WINDOW - KNEE)))
    t[np.abs(u) >= WINDOW] = 0.0
    return t


def oscillation_count(kappa, z, rho):
    """Oscillations of the phase -2 kappa u + z cos(theta) + rho sin(theta)
    over |u| <= WINDOW: the one rule that sizes every first grid."""
    return (2 * abs(z) + 2 * abs(rho) + 4 * abs(kappa) * WINDOW) / (2 * np.pi)


def refine(estimate, n_oscillations, cfg=DEFAULT_QUADRATURE, z=0.0):
    """The refinement driver of every angular quadrature.

    estimate(u, wk) returns the K15 estimate of whatever the integrals
    reduce to (e.g. a quadratic form) on the nodes u and weights wk of
    window_nodes, graded by the largest |z| of the request.  The first grid
    is checked against twice its panels, and panels double until, for each
    index of the estimate's leading axis, two successive estimates agree to
    rel_tol of that row's largest magnitude on the finer grid, plus an
    absolute floor; an estimate with ndim <= 1 is one row.  Returns (the
    finer grid's estimate, largest difference), where the difference bounds
    the coarser grid's error.

    MAX_PANELS is the one bound: a first grid whose check grid is above it
    raises ValueError before any node is built, and a pair that fails to
    converge when the next doubling would pass MAX_PANELS raises
    QuadratureError with that pair's difference.
    """
    n_panels = max(MIN_PANELS,
                   int(np.ceil(n_oscillations * PANELS_PER_OSCILLATION)))
    if 2 * n_panels > MAX_PANELS:
        raise ValueError(
            f"{n_oscillations:.4g} phase oscillations need a first grid of "
            f"{n_panels} panels, checked on {2 * n_panels}, above the cap "
            f"MAX_PANELS = {MAX_PANELS}")
    coarse = estimate(*window_nodes(n_panels, z, n_oscillations))
    for refinements in count():
        n_panels *= 2
        fine = estimate(*window_nodes(n_panels, z, n_oscillations))
        rows = len(fine) if np.ndim(fine) > 1 else 1
        resid = np.abs(fine - coarse).reshape(rows, -1).max(axis=1, initial=0.0)
        scale = np.abs(fine).reshape(rows, -1).max(axis=1, initial=0.0)
        if np.all(resid <= cfg.rel_tol * np.maximum(scale, 1e-30) + 1e-15):
            return fine, float(resid.max())
        if 2 * n_panels > MAX_PANELS:
            raise QuadratureError(
                f"quadrature did not converge after {refinements} "
                f"refinements; {2 * n_panels} panels would pass "
                f"MAX_PANELS = {MAX_PANELS}", float(resid.max()))
        coarse = fine


@lru_cache(maxsize=1)
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS numpy runs on, or None.

    numpy's wheels (2.0 on) bundle scipy-openblas, with 64-bit integers, in
    numpy.libs beside the package; a copy there that exports the thread
    controls is the one numpy loaded.  Looked up on the first engine call,
    never at import; a miss is logged once.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            put = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    log.warning("no scipy-openblas with thread controls in %s; the engines "
                "run with the BLAS thread count unpinned, so their last bits "
                "may depend on it", libs)
    return None


_pin_lock = Lock()
_pin_holders = 0
_pin_saved = None


@contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread.

    The first of any overlapping holders, from any thread, saves the thread
    count and sets it to 1; the last one out restores it.  Holders never
    wait on each other beyond the counter update.  Without a bundled
    OpenBLAS the block runs unpinned.
    """
    global _pin_holders, _pin_saved
    with _pin_lock:
        blas = _openblas_threads()
        if blas and _pin_holders == 0:
            _pin_saved = blas[0]()
            blas[1](1)
        _pin_holders += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_holders -= 1
            if blas and _pin_holders == 0:
                blas[1](_pin_saved)


def sin_cos_theta(u):
    """(sin theta_k, cos theta_k) for u = ln tan(theta_k / 2)."""
    return 1.0 / np.cosh(u), -np.tanh(u)


def theta_from_u(u):
    return 2.0 * np.arctan(np.exp(u))


# special-function wrappers -- scipy provides j0, j1 and jv, and orders 0 to
# +-2 are built from j0/j1 alone; the series forms in paramodes.oracles back
# them in the validation suite

def bessel_table(orders, x):
    """{n: J_n(x)} for a set of nonnegative orders n on an array x.

    Orders 0 and 1 call scipy.special.j0/j1, an order of magnitude faster
    than jv.  Order 2 uses the upward recurrence J_2(x) = 2 J_1(x) / x -
    J_0(x) on the same J_0 and J_1, with J_2(0) = 0 set exactly; its error
    is absolute, within a few ulps of 1 for any x.  Upward recurrence loses
    accuracy for x < n from order 3 on, so those orders keep jv.
    """
    # imported here, so that only field evaluations load scipy
    from scipy import special as _sp
    J = {n: _sp.jv(n, x) for n in orders - {0, 1, 2}}
    if orders & {0, 2}:
        J[0] = _sp.j0(x)
    if orders & {1, 2}:
        J[1] = _sp.j1(x)
    if 2 in orders:
        at_zero = x == 0
        J[2] = np.where(at_zero, 0.0,
                        2.0 * J[1] / np.where(at_zero, 1.0, x) - J[0])
    return {n: J[n] for n in orders}


def bessel_j(n, x):
    """Bessel J_n of scalar integer order n at x (scalar in, scalar out):
    bessel_table's J_|n|, with J_{-n} = (-1)^n J_n."""
    x = np.asarray(x, dtype=float)
    J = bessel_table({abs(n)}, x)[abs(n)]
    return (-J if n < 0 and n % 2 else J)[()]
