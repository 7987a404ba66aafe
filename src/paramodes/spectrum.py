"""Angular spectra of parabolic modes on the Fourier sphere.

A mode's Hertz potential has circular components

    pi_sigma(theta_k, phi_k) = c_sigma (tan theta_k/2)^{-2 i kappa}
                               / (2 pi sin theta_k) * e^{i (m - sigma) phi_k}

and the field spectrum follows from one curl (E family, f = i k x pi) or two
(B family, f = i k x (k x pi)).  Everything is kept in circular components
(e_+ = e_x + i e_y, e_- = e_x - i e_y, e_0 = e_z) where the cross products
preserve the azimuthal winding n = m - sigma of each component, so the
phi_k dependence stays exactly separable.
"""

import numpy as np

from .core import ModeParams, B_MODE, SIGMAS, cartesian_from_circular
from .numerics import sin_cos_theta


def _check_theta(theta_k):
    theta_k = np.asarray(theta_k, dtype=float)
    if np.any(theta_k <= 0.0) or np.any(theta_k >= np.pi):
        raise ValueError("theta_k must lie strictly inside (0, pi)")
    return theta_k


def hertz_component(mode: ModeParams, sigma, theta_k):
    """Hertz potential profile c_sigma (tan theta/2)^{-2 i kappa} / (2 pi sin theta)."""
    theta_k = _check_theta(theta_k)
    phase = np.exp(-2j * mode.kappa * np.log(np.tan(theta_k / 2.0)))
    return mode.coeff(sigma) * phase / (2 * np.pi * np.sin(theta_k))


def cross_with_khat(triple, sin_t, cos_t):
    """Profile triple of k_hat x v for a component triple v of winding n.

    In circular components the unit wavevector contributes
    k_+ = (sin/2) e^{-i phi}, k_- = (sin/2) e^{+i phi}, k_0 = cos, and each
    output component keeps its own winding, so the phi factors drop out of
    the reduced profiles.
    """
    xp, xm, x0 = triple
    yp = 1j * (0.5 * sin_t * x0 - cos_t * xp)
    ym = 1j * (cos_t * xm - 0.5 * sin_t * x0)
    y0 = 1j * sin_t * (xp - xm)
    return yp, ym, y0


def _spectrum_triple(mode: ModeParams, sin_t, cos_t, phase):
    """Circular profile triple (a_+, a_-, a_0) of the field spectrum.

    Takes sin(theta_k), cos(theta_k) and the kappa phase
    (tan theta_k/2)^{-2 i kappa}; in u = ln tan(theta_k/2) these are
    sech u, -tanh u and e^{-2 i kappa u}.  f_sigma = a_sigma e^{i n phi_k}
    / (2 pi).
    """
    pot = tuple(mode.coeff(s) * phase / sin_t for s in SIGMAS)
    out = cross_with_khat(pot, sin_t, cos_t)
    if mode.family == B_MODE:
        out = cross_with_khat(out, sin_t, cos_t)
    # f = i (omega/c) k x ...; omega/c = 1 in c/omega units
    return tuple(1j * y for y in out)


def u_spectrum(mode: ModeParams, u):
    """Profile triple (a_+, a_-, a_0) at u = ln tan(theta_k/2), without theta."""
    u = np.asarray(u, dtype=float)
    return _spectrum_triple(mode, *sin_cos_theta(u),
                            np.exp(-2j * mode.kappa * u))


def _theta_spectrum(mode: ModeParams, theta_k):
    theta_k = _check_theta(theta_k)
    phase = np.exp(-2j * mode.kappa * np.log(np.tan(theta_k / 2.0)))
    return _spectrum_triple(mode, np.sin(theta_k), np.cos(theta_k), phase)


def sigma_profile(mode: ModeParams, sigma):
    """Reduced 1D profile a_sigma with f_sigma = a_sigma(theta) e^{i n phi} / (2 pi).

    Returns a vectorized callable carrying .sigma and .winding.
    """
    idx = SIGMAS.index(sigma)

    def profile(theta_k):
        return _theta_spectrum(mode, theta_k)[idx]

    profile.sigma = sigma
    profile.winding = mode.m - sigma
    return profile


def mode_spectrum(mode: ModeParams, theta_k, phi_k):
    """Cartesian field spectrum f(theta_k, phi_k), shape (3,) + broadcast shape."""
    phi_k = np.asarray(phi_k, dtype=float)
    triple = _theta_spectrum(mode, theta_k)
    comps = []
    for sigma, a in zip(SIGMAS, triple):
        n = mode.m - sigma
        comps.append(a * np.exp(1j * n * phi_k) / (2 * np.pi))
    return cartesian_from_circular(*comps)


def khat(theta_k, phi_k):
    """Cartesian unit wavevector."""
    theta_k = np.asarray(theta_k, dtype=float)
    phi_k = np.asarray(phi_k, dtype=float)
    return np.array([np.sin(theta_k) * np.cos(phi_k),
                     np.sin(theta_k) * np.sin(phi_k),
                     np.cos(theta_k) * np.ones_like(phi_k)])


def transversality_residual(mode: ModeParams, theta_k, phi_k):
    """|k_hat . f| at the given Fourier-sphere points; zero for valid spectra."""
    f = mode_spectrum(mode, theta_k, phi_k)
    k = khat(theta_k, phi_k)
    return np.abs((k * f).sum(axis=0))
