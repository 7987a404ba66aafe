"""Oscillatory quadrature and special-function helpers.

The angular integrals use the substitution u = ln tan(theta_k/2), which maps
theta_k in (0, pi) to the real line, turns the kappa phase into a plain
exponential e^{-2 i kappa u}, and gives sin(theta_k) = sech(u),
cos(theta_k) = -tanh(u), d(theta_k) = sech(u) du.  The window is truncated
at |u| <= WINDOW with a raised-cosine taper over its outer TAPER_FRACTION;
endpoint oscillations the taper removes are unobservable downstream (trap
Gaussians regularize them).

Integration is composite 15-point Kronrod with the embedded 7-point Gauss
rule as error estimate.  The initial panel count is PANELS_PER_OSCILLATION
times the phase oscillation count, at least MIN_PANELS; refinement doubles
the panel count globally, which keeps results deterministic and vectorizes
over many integrands at once.  Only the tolerance is a setting
(QuadratureConfig); panel counts are module constants.  One rule places
the panels of every grid: edges always fall on the taper knees, where the
taper's second derivative jumps, and the axial phase z cos(theta) of a
field or a rate grades the panels toward u = 0, where its oscillations
crowd; at z = 0 the grading vanishes and the panels are equal within each
segment.  Every grid is exactly mirror-symmetric under u -> -u (theta ->
pi - theta), so the engines evaluate their per-node tables on the u >= 0
half (folded_nodes) and get the other half by symmetry.

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
# panels
PANELS_PER_OSCILLATION = 2.0
MIN_PANELS = 24
# the most panels of any grid, and the only bound on refine()'s doublings:
# 245,760 nodes keep the field kernel's tile buffers, about 3.5 KB a node,
# under 1 GB.  The bundled presets, the benchmark and the test suite reach
# at most 3,500 panels.
MAX_PANELS = 16_384

# 15-point Kronrod abscissae (positive half) and weights, with the embedded
# 7-point Gauss weights; standard QUADPACK dqk15 constants.
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])


def _full_rule():
    # nodes ordered across [-1, 1]; Gauss weights nonzero on the embedded subset
    x = np.concatenate([-_XGK[:7], _XGK[::-1]])
    wk = np.concatenate([_WGK[:7], _WGK[::-1]])
    wg = np.zeros(15)
    wg[1:7:2] = _WG[:3]
    wg[7] = _WG[3]
    wg[9:15:2] = _WG[2::-1]
    return x, wk, wg


_X15, _WK15, _WG15 = _full_rule()


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
        # below 1e-12 the K15/G7 residual, which stalls near 2e-14, would
        # only fail after every doubling up to MAX_PANELS
        if not 1e-12 <= self.rel_tol <= 1e-2:
            raise ValueError("rel_tol must lie in [1e-12, 1e-2]")


DEFAULT_QUADRATURE = QuadratureConfig()


def _k15_nodes(edges):
    """Composite K15 nodes and (Kronrod, Gauss) weights on panel edges."""
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * np.diff(edges)[:, None]
    return ((mid + half * _X15).ravel(), (half * _WK15).ravel(),
            (half * _WG15).ravel())


def panel_nodes(n_panels, a, b):
    """Composite K15 nodes and (Kronrod, Gauss) weights on [a, b]."""
    return _k15_nodes(np.linspace(a, b, n_panels + 1))


def window_nodes(n_panels, z=0.0, n_oscillations=0.0):
    """Composite K15 nodes and (Kronrod, Gauss) weights over |u| <= WINDOW,
    with panel edges on the taper knees +-KNEE, where the taper's second
    derivative jumps, so no panel straddles a knee; n_panels >= 3.

    The axial-phase amplitude z (a rate's trap center, a field point's
    height) grades the panels: the phase z tanh u oscillates at the local
    rate |z| sech^2 u, so its 2|z|/2pi oscillations crowd near u = 0, while
    the rest of n_oscillations (the kappa and rho phases) spread evenly.
    Segments get panels in proportion to the increase of
    (ppo = PANELS_PER_OSCILLATION)

        G(u) = (ppo rest + MIN_PANELS) u / (2W) + ppo |z| tanh(u) / 2pi,
        rest = n_oscillations - |z| / pi,

    and inside each segment the edges equidistribute G.  At z = 0, G is
    linear: each segment's panels are equal, and the taper segments share
    round(n_panels (W - KNEE) / (2W)) of them.  The grid is mirror-symmetric
    bit for bit, u[::-1] == -u, with mirrored weights; an odd n_panels
    centers a panel, and its middle node, on u = 0.
    """
    W, knee = WINDOW, KNEE
    ppo = PANELS_PER_OSCILLATION
    rest = max(n_oscillations - abs(z) / np.pi, 0.0)
    alpha = (ppo * rest + MIN_PANELS) / (2 * W)
    beta = ppo * abs(z) / (2 * np.pi)

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
    table = np.linspace(0.0, W, 33)
    u = np.interp(t, G(table), table)
    for _ in range(4):
        u -= (G(u) - t) / (alpha + beta / np.cosh(u) ** 2)
    k = (n_mid - 1) // 2
    half = np.concatenate((u[:k], [knee], u[k:], [W]))
    # mirrored edges give mirrored nodes bit for bit: u[::-1] == -u
    return _k15_nodes(np.concatenate(
        (-half[::-1], [0.0] * (1 - n_mid % 2), half)))


def folded_nodes(u, wk, wg):
    """The u >= 0 half of a window_nodes grid, whose mirror u -> -u is
    exact: (u, wk, wg) of the half, where a node at u = 0 (odd panel
    counts) keeps half its weights, since a sum over the half counts each
    node for itself and its mirror.  Returns copies."""
    h = len(u) // 2
    u, wk, wg = (x[h:].copy() for x in (u, wk, wg))
    if u[0] == 0.0:
        wk[0] *= 0.5
        wg[0] *= 0.5
    return u, wk, wg


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

    estimate(u, wk, wg) returns the (Kronrod, Gauss) pair of whatever the
    integrals reduce to (e.g. a quadratic form) on the nodes u of
    window_nodes, graded by the largest |z| of the request.  Panels double
    until, for each index of the estimate's leading axis, the pair agrees
    to rel_tol of that row's largest Kronrod magnitude, plus an absolute
    floor; an estimate with ndim <= 1 is one row.  Returns
    (Kronrod estimate, largest residual).

    MAX_PANELS is the one bound: a first grid above it raises ValueError
    before any node is built, and a grid that fails to converge when its
    doubling would pass MAX_PANELS raises QuadratureError.
    """
    n_panels = max(MIN_PANELS,
                   int(np.ceil(n_oscillations * PANELS_PER_OSCILLATION)))
    if n_panels > MAX_PANELS:
        raise ValueError(
            f"{n_oscillations:.4g} phase oscillations need a first grid of "
            f"{n_panels} panels, above the cap MAX_PANELS = {MAX_PANELS}")
    for refinements in count():
        est_k, est_g = estimate(*window_nodes(n_panels, z, n_oscillations))
        rows = len(est_k) if np.ndim(est_k) > 1 else 1
        resid = np.abs(est_k - est_g).reshape(rows, -1).max(axis=1, initial=0.0)
        scale = np.abs(est_k).reshape(rows, -1).max(axis=1, initial=0.0)
        if np.all(resid <= cfg.rel_tol * np.maximum(scale, 1e-30) + 1e-15):
            return est_k, float(resid.max())
        if 2 * n_panels > MAX_PANELS:
            raise QuadratureError(
                f"quadrature did not converge after {refinements} "
                f"refinements; {2 * n_panels} panels would pass "
                f"MAX_PANELS = {MAX_PANELS}", float(resid.max()))
        n_panels *= 2


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
