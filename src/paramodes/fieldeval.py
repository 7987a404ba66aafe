"""Real-space fields of parabolic modes from their angular spectra.

The plane-wave superposition over the Fourier sphere reduces, component by
component, to a one-dimensional oscillatory integral: the azimuthal integral
of e^{i n phi_k} against e^{i k.r} is a Bessel function, leaving

    E_sigma(rho, phi, z) = i^n e^{i n phi}
        Int d(theta) sin(theta) a_sigma(theta) J_n(rho sin theta) e^{i z cos theta}

with n = m - sigma and all lengths in c/omega units.  A brute-force 2D
quadrature of the same superposition backs the reduced path as an oracle,
and a stationary-phase estimate gives the far-field asymptotics and the
localization of a mode near the plane Z = -2 kappa.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .core import ModeParams, SIGMAS, cartesian_from_circular
from .spectrum import sigma_profile, mode_spectrum, u_spectrum
from .numerics import (
    DEFAULT_QUADRATURE, QuadratureError, oscillation_count,
    taper_window, sin_cos_theta, theta_from_u, bessel_j, integrate_adaptive,
)

_I_POW = (1 + 0j, 1j, -1 + 0j, -1j)  # i^n, exact


def _ipow(n):
    return _I_POW[n % 4]


@dataclass(frozen=True)
class FieldSample:
    """Field at one point: cylindrical position, per-sigma parts, Cartesian E."""

    position: tuple                # (rho, phi, z) in c/omega units
    sigma_components: dict         # sigma -> complex amplitude (with winding phase)
    feasible: bool = True          # False only for flagged asymptotic estimates

    @property
    def E(self):
        trip = [self.sigma_components[s] for s in SIGMAS]
        return cartesian_from_circular(*trip)

    @property
    def intensity(self):
        # metric of the circular basis: |e_+-|^2 = 2, |e_0|^2 = 1
        cp, cm, c0 = (self.sigma_components[s] for s in SIGMAS)
        return 2 * abs(cp) ** 2 + 2 * abs(cm) ** 2 + abs(c0) ** 2


def _component_integrals(mode, rho, z, cfg=DEFAULT_QUADRATURE):
    """Per-sigma reduced integrals at fixed z, vectorized over an array of rho.

    Returns dict sigma -> array over rho (winding phase i^n e^{i n phi} not
    yet applied).
    """
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    nosc = oscillation_count(mode.kappa, z, float(rho.max(initial=0.0)), cfg)
    out = {}
    for idx, sigma in enumerate(SIGMAS):
        n = mode.m - sigma

        def values(u, idx=idx, n=n):
            s, c = sin_cos_theta(u)
            base = s**2 * u_spectrum(mode, u)[idx] * np.exp(1j * z * c) \
                * taper_window(u, cfg)
            return base[None, :] * bessel_j(n, rho[:, None] * s[None, :])

        est, _ = integrate_adaptive(values, nosc, cfg)
        out[sigma] = est
    return out


def field_at_point(mode: ModeParams, position, cfg=DEFAULT_QUADRATURE):
    """Field sample at cylindrical position (rho, phi, z) via the reduced path."""
    rho, phi, z = (float(x) for x in position)
    if not np.isfinite([rho, phi, z]).all():
        raise ValueError("position must be finite")
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    ints = _component_integrals(mode, [rho], z, cfg)
    comps = {}
    for sigma in SIGMAS:
        n = mode.m - sigma
        comps[sigma] = _ipow(n) * np.exp(1j * n * phi) * ints[sigma][0]
    return FieldSample((rho, phi, z), comps)


def field_2d_oracle(mode: ModeParams, position, cfg=DEFAULT_QUADRATURE,
                    n_phi=None):
    """Brute-force tensor quadrature over (theta_k, phi_k); no reduction.

    Slow verification path for field_at_point.  The phi_k integral uses a
    uniform periodic grid (spectrally accurate for the trigonometric
    integrands); theta_k reuses the same composite Kronrod nodes.
    """
    rho, phi, z = (float(x) for x in position)
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    if n_phi is None:
        n_phi = int(64 + 8 * np.ceil(rho + abs(mode.m) + 2))
    phik = np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False)
    nosc = oscillation_count(mode.kappa, z, rho, cfg)

    def values(u):
        s, c = sin_cos_theta(u)
        theta = theta_from_u(u)
        f = mode_spectrum(mode, theta[None, :], phik[:, None])  # (3, nphi, nu)
        kdotr = rho * s[None, :] * np.cos(phik[:, None] - phi) + z * c[None, :]
        w = s[None, :] ** 2 * taper_window(u, cfg)[None, :]
        integrand = f * (np.exp(1j * kdotr) * w)[None, :, :]
        return integrand.sum(axis=1) * (2 * np.pi / n_phi)

    est, _ = integrate_adaptive(values, nosc, cfg)
    ex, ey, ez = est
    comps = {1: (ex - 1j * ey) / 2, -1: (ex + 1j * ey) / 2, 0: ez}
    return FieldSample((rho, phi, z), comps)


def localization_plane(kappa):
    """Axial caustic plane Z = -2 kappa (c/omega units) of the mode.

    Here the two stationary angles of sin^2(theta) = -2 kappa / z merge (a
    fold caustic). The on-axis intensity peak lies beyond it, on the lit
    side, at Z = -2 kappa - sgn(kappa) delta(kappa), where delta grows like
    |kappa|^(1/3) (see the README's numerical notes).
    """
    return -2.0 * kappa


INFEASIBLE = None  # marker returned by stationary_phase_angle


def stationary_phase_angle(kappa, z):
    """Principal stationary angle from sin^2(theta) = -2 kappa / z, or None."""
    if z == 0:
        raise ValueError("no stationary-phase geometry at z = 0")
    ratio = -2.0 * kappa / z
    if ratio < 0 or ratio > 1:
        return INFEASIBLE
    return float(np.arcsin(np.sqrt(ratio)))


def stationary_phase_prefactor(kappa, z):
    """Asymptotic amplitude factor sqrt(pi / (|z| sqrt(1 + 2 kappa / z)))."""
    return np.sqrt(np.pi / (abs(z) * np.sqrt(1.0 + 2.0 * kappa / z)))


def stationary_phase_field(mode: ModeParams, position, cfg=DEFAULT_QUADRATURE):
    """Two-branch stationary-phase estimate of the field at (rho, phi, z).

    Sums the interior stationary angles theta_sp and pi - theta_sp of the
    phase z cos(theta) - 2 kappa ln tan(theta/2).  Near the caustic
    |z| ~ 2|kappa| the curvature vanishes and the estimate degrades; at
    infeasible points a zero-amplitude sample flagged feasible=False is
    returned rather than a fabricated peak.
    """
    rho, phi, z = (float(x) for x in position)
    if abs(z) < 20:
        warnings.warn("stationary-phase estimate requested at |z| < 20 c/omega; "
                      "asymptotics are unreliable this close to the focal plane")
    theta_sp = stationary_phase_angle(mode.kappa, z)
    if theta_sp is INFEASIBLE:
        comps = {s: 0.0 + 0.0j for s in SIGMAS}
        return FieldSample((rho, phi, z), comps, feasible=False)
    pref = stationary_phase_prefactor(mode.kappa, z)
    comps = {}
    for sigma in SIGMAS:
        prof = sigma_profile(mode, sigma)
        n = prof.winding
        total = 0.0 + 0.0j
        for theta_j in (theta_sp, np.pi - theta_sp):
            s_j = np.sin(theta_j)
            curv_sign = np.sign(-2.0 * z * np.cos(theta_j))
            # prof already carries the log-tangent phase factor, so the
            # explicit exponential supplies only the plane-wave part
            h = s_j * prof(np.array([theta_j]))[0] * bessel_j(n, rho * s_j)
            total += h * pref * np.exp(
                1j * (z * np.cos(theta_j) + curv_sign * np.pi / 4))
        comps[sigma] = _ipow(n) * np.exp(1j * n * phi) * total
    return FieldSample((rho, phi, z), comps)


def intensity_map(mode: ModeParams, component, rho_values, z_values,
                  cfg=DEFAULT_QUADRATURE):
    """Relative intensity of one field component on a (rho, z) grid.

    component: one of 'z', '+', '-' (circular channels) or 'total'.
    Returns (map, mask): map is |component|^2 normalized to its grid max,
    mask flags points where quadrature failed (value set to NaN).
    """
    rho_values = np.asarray(rho_values, dtype=float)
    z_values = np.asarray(z_values, dtype=float)
    raw = np.empty((len(z_values), len(rho_values)))
    mask = np.zeros_like(raw, dtype=bool)
    sel = {"z": 0, "+": 1, "-": -1}
    for i, z in enumerate(z_values):
        try:
            ints = _component_integrals(mode, rho_values, float(z), cfg)
            if component == "total":
                row = 2 * np.abs(ints[1])**2 + 2 * np.abs(ints[-1])**2 \
                    + np.abs(ints[0])**2
            else:
                row = np.abs(ints[sel[component]])**2
            raw[i] = row
        except QuadratureError:
            raw[i] = np.nan
            mask[i] = True
    peak = np.nanmax(raw)
    if peak > 0:
        raw = raw / peak
    return raw, mask


def axis_intensity_scan(mode: ModeParams, z_values, cfg=DEFAULT_QUADRATURE):
    """|on-axis n=0 component|^2 along z; other windings vanish at rho=0."""
    z_values = np.asarray(z_values, dtype=float)
    if mode.m not in SIGMAS:
        raise ValueError("mode has no winding-zero component for |m| > 1")
    idx = SIGMAS.index(mode.m)  # n = m - sigma = 0
    nosc = oscillation_count(mode.kappa, float(np.abs(z_values).max()), 0.0,
                             cfg)

    def values(u):
        s, c = sin_cos_theta(u)
        base = s**2 * u_spectrum(mode, u)[idx] * taper_window(u, cfg)
        return base[None, :] * np.exp(1j * np.outer(z_values, c))

    est, _ = integrate_adaptive(values, nosc, cfg)
    return np.abs(est) ** 2


def isointensity_grid(mode: ModeParams, level, x_values, y_values, z_values,
                      cfg=DEFAULT_QUADRATURE):
    """Total |E|^2 on a 3D Cartesian grid plus the iso-level threshold.

    Returns (grid, threshold) with threshold = level * grid max; contouring
    is left to external tools.
    """
    if not 0 < level <= 1:
        raise ValueError("level must lie in (0, 1]")
    x = np.asarray(x_values, dtype=float)
    y = np.asarray(y_values, dtype=float)
    z = np.asarray(z_values, dtype=float)
    xx, yy = np.meshgrid(x, y, indexing="ij")
    rho = np.hypot(xx, yy).ravel()
    grid = np.empty((len(x), len(y), len(z)))
    for k, zk in enumerate(z):
        ints = _component_integrals(mode, rho, float(zk), cfg)
        # circular-basis metric: cross terms between sigma channels vanish
        total = 2 * np.abs(ints[1])**2 + 2 * np.abs(ints[-1])**2 \
            + np.abs(ints[0])**2
        grid[:, :, k] = total.reshape(len(x), len(y))
    return grid, level * float(grid.max())
