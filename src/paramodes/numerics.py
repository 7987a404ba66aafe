"""Oscillatory quadrature and special-function helpers.

The angular integrals use the substitution u = ln tan(theta_k/2), which maps
theta_k in (0, pi) to the real line, turns the kappa phase into a plain
exponential e^{-2 i kappa u}, and gives sin(theta_k) = sech(u),
cos(theta_k) = -tanh(u), d(theta_k) = sech(u) du.  The window is truncated
at |u| <= U with a raised-cosine taper; endpoint oscillations the taper
removes are unobservable downstream (trap Gaussians regularize them).

Integration is composite 15-point Kronrod with the embedded 7-point Gauss
rule as error estimate.  The initial panel density scales with the phase
oscillation count; refinement doubles the panel count globally, which keeps
results deterministic and vectorizes over many integrands at once.
"""

import numpy as np
from scipy import special as _sp

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


class QuadratureConfig:
    """Tolerances and window parameters for the angular quadratures."""

    def __init__(self, rel_tol=1e-9, max_refinements=8, window=12.0,
                 taper_fraction=0.2, panels_per_oscillation=10.0,
                 min_panels=24):
        if not 0 < rel_tol <= 1e-2:
            raise ValueError("rel_tol must lie in (0, 1e-2]")
        if window <= 0:
            raise ValueError("window must be positive")
        if max_refinements < 0:
            raise ValueError("max_refinements must be nonnegative")
        self.rel_tol = float(rel_tol)
        self.max_refinements = int(max_refinements)
        self.window = float(window)
        self.taper_fraction = float(taper_fraction)
        self.panels_per_oscillation = float(panels_per_oscillation)
        self.min_panels = int(min_panels)

    def replace(self, **kw):
        d = dict(rel_tol=self.rel_tol, max_refinements=self.max_refinements,
                 window=self.window, taper_fraction=self.taper_fraction,
                 panels_per_oscillation=self.panels_per_oscillation,
                 min_panels=self.min_panels)
        d.update(kw)
        return QuadratureConfig(**d)


DEFAULT_QUADRATURE = QuadratureConfig()


def panel_nodes(n_panels, a, b):
    """Composite K15 nodes and (Kronrod, Gauss) weights on [a, b]."""
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    u = (mid[:, None] + half * _X15[None, :]).ravel()
    wk = np.tile(half * _WK15, n_panels)
    wg = np.tile(half * _WG15, n_panels)
    return u, wk, wg


def taper_window(u, cfg=DEFAULT_QUADRATURE):
    """Raised-cosine roll-off over the outer taper_fraction of |u| <= window."""
    U = cfg.window
    a = (1.0 - cfg.taper_fraction) * U
    t = np.ones_like(u)
    mask = np.abs(u) > a
    t[mask] = 0.5 * (1 + np.cos(np.pi * (np.abs(u[mask]) - a) / (U - a)))
    t[np.abs(u) >= U] = 0.0
    return t


def oscillation_count(kappa, z, rho, cfg=DEFAULT_QUADRATURE):
    """Oscillations of the phase -2 kappa u + z cos(theta) + rho sin(theta)
    over |u| <= window: the one rule that sizes every first grid."""
    return (2 * abs(z) + 2 * abs(rho) + 4 * abs(kappa) * cfg.window) \
        / (2 * np.pi)


def refine(estimate, n_oscillations, cfg=DEFAULT_QUADRATURE):
    """The refinement driver of every angular quadrature.

    estimate(u, wk, wg) returns the (Kronrod, Gauss) pair of whatever the
    integrals reduce to (e.g. a quadratic form) on the nodes u.  Panels
    double until the pair agrees to rel_tol of the largest Kronrod magnitude,
    plus an absolute floor.  Returns (Kronrod estimate, residual).
    """
    n_panels = max(cfg.min_panels,
                   int(np.ceil(n_oscillations * cfg.panels_per_oscillation)))
    for _ in range(cfg.max_refinements + 1):
        est_k, est_g = estimate(*panel_nodes(n_panels, -cfg.window, cfg.window))
        resid = float(np.max(np.abs(est_k - est_g), initial=0.0))
        scale = max(float(np.max(np.abs(est_k), initial=0.0)), 1e-30)
        if resid <= cfg.rel_tol * scale + 1e-15:
            return est_k, resid
        n_panels *= 2
    raise QuadratureError("quadrature did not converge after "
                          f"{cfg.max_refinements} refinements", resid)


def integrate_adaptive(values_at, n_oscillations, cfg=DEFAULT_QUADRATURE):
    """Integrate values_at(u), whose last axis runs over the nodes u, with
    one refine() shared by every integrand."""
    def estimate(u, wk, wg):
        vals = values_at(u)
        return vals @ wk, vals @ wg

    return refine(estimate, n_oscillations, cfg)


def sin_cos_theta(u):
    """(sin theta_k, cos theta_k) for u = ln tan(theta_k / 2)."""
    return 1.0 / np.cosh(u), -np.tanh(u)


def theta_from_u(u):
    return 2.0 * np.arctan(np.exp(u))


def u_from_theta(theta):
    return np.log(np.tan(theta / 2.0))


# special-function wrappers -- scipy provides the evaluations, the series
# forms below back them as independent oracles in the validation suite

def bessel_j(n, x):
    """Bessel J_n; scipy.special.jv behind a fixed call signature."""
    return _sp.jv(n, x)


def bessel_i_scaled(n, x):
    """Exponentially scaled modified Bessel e^{-x} I_n(x)."""
    return _sp.ive(n, x)


def bessel_i(n, x):
    return _sp.iv(n, x)


def bessel_j_series(n, x, terms=60):
    """Power-series J_n for validation; |n| small, moderate arguments."""
    n = int(n)
    sign = (-1.0) ** n if n < 0 else 1.0  # J_{-n} = (-1)^n J_n
    n = abs(n)
    x = np.asarray(x, dtype=float)
    half = x / 2.0
    term = half ** n / _sp.factorial(n)
    total = np.array(term, dtype=float, copy=True)
    for k in range(1, terms):
        term = term * (-(half ** 2)) / (k * (k + n))
        total += term
    return sign * total


def bessel_i_series(n, x, terms=60):
    """Power-series I_n for validation."""
    n = abs(int(n))
    x = np.asarray(x, dtype=float)
    half = x / 2.0
    term = half ** n / _sp.factorial(n)
    total = np.array(term, dtype=float, copy=True)
    for k in range(1, terms):
        term = term * (half ** 2) / (k * (k + n))
        total += term
    return total
