"""Angular spectra of parabolic modes on the Fourier sphere.

A mode's Hertz potential has circular components

    pi_sigma(theta_k, phi_k) = c_sigma (tan theta_k/2)^{-2 i kappa}
                               / (2 pi sin theta_k) * e^{i (m - sigma) phi_k}

and the field spectrum follows from one curl (E family, f = i k x pi) or two
(B family, f = i k x (k x pi)).  Everything is kept in circular components
(e_+ = e_x + i e_y, e_- = e_x - i e_y, e_0 = e_z) where the cross products
preserve the azimuthal winding n = m - sigma of each component, so the
phi_k dependence stays exactly separable.  Every spectrum of the package
is the kappa phase times the closed-form curls of the unit potentials,
`unit_spectra`, contracted with the coefficients.
"""

import numpy as np

from .core import ModeParams, E_MODE, SIGMAS, cartesian_from_circular
from .numerics import sin_cos_theta


def _check_theta(theta_k):
    theta_k = np.asarray(theta_k, dtype=float)
    if np.any(theta_k <= 0.0) or np.any(theta_k >= np.pi):
        raise ValueError("theta_k must lie strictly inside (0, pi)")
    return theta_k


def unit_spectra(family, sin_t, cos_t):
    """kappa = 0 profiles of the unit potentials, shape (3, 3) + the shape
    of sin_t: entry [i, j] is a_{SIGMAS[i]} of the mode whose only nonzero
    coefficient is c_{SIGMAS[j]} = 1.  With s = sin, c = cos theta and
    d = -(1 + c^2) / (2 s), the tables are

        E (real):       [[c/s, 0, -1/2], [0, -c/s, 1/2], [-1, 1, 0]]
        B (imaginary):  i [[d, s/2, c/2], [s/2, d, c/2], [c, c, -s]]

    Any mode of the family has a_i = e^{-2 i kappa u} sum_j c_j [i, j].
    The mirror u -> -u keeps s and flips c: its table is this one at
    (s, -c).
    """
    if family == E_MODE:
        out = np.zeros((3, 3) + np.shape(sin_t))
        out[0, 0] = cos_t / sin_t
        out[1, 1] = -out[0, 0]
        out[0, 2], out[1, 2], out[2, 0], out[2, 1] = -0.5, 0.5, -1.0, 1.0
        return out
    out = np.zeros((3, 3) + np.shape(sin_t), dtype=complex)
    t = out.imag
    t[0, 0] = t[1, 1] = -(1.0 + cos_t**2) / (2.0 * sin_t)
    t[0, 1] = t[1, 0] = 0.5 * sin_t
    t[0, 2] = t[1, 2] = 0.5 * cos_t
    t[2, 0] = t[2, 1] = cos_t
    t[2, 2] = -sin_t
    return out


def spectrum_triple(mode: ModeParams, sin_t, cos_t, phase):
    """Circular profile triple (a_+, a_-, a_0), shape (3,) + the shape of
    sin_t, with f_sigma = a_sigma e^{i n phi_k} / (2 pi), from sin theta_k,
    cos theta_k and the kappa phase (tan theta_k/2)^{-2 i kappa}; in
    u = ln tan(theta_k/2) these are sech u, -tanh u and e^{-2 i kappa u}."""
    unit = unit_spectra(mode.family, sin_t, cos_t)
    cp, cm, c0 = mode.coeffs
    return phase * (cp * unit[:, 0] + cm * unit[:, 1] + c0 * unit[:, 2])


def u_spectrum(mode: ModeParams, u):
    """Profile triple (a_+, a_-, a_0) at u = ln tan(theta_k/2), without theta."""
    u = np.asarray(u, dtype=float)
    return spectrum_triple(mode, *sin_cos_theta(u),
                           np.exp(-2j * mode.kappa * u))


def _theta_spectrum(mode: ModeParams, theta_k):
    theta_k = _check_theta(theta_k)
    phase = np.exp(-2j * mode.kappa * np.log(np.tan(theta_k / 2.0)))
    return spectrum_triple(mode, np.sin(theta_k), np.cos(theta_k), phase)


def sigma_profile(mode: ModeParams, sigma):
    """Reduced 1D profile a_sigma with f_sigma = a_sigma(theta) e^{i n phi}
    / (2 pi): a vectorized callable carrying .sigma and .winding."""
    idx = SIGMAS.index(sigma)

    def profile(theta_k):
        return _theta_spectrum(mode, theta_k)[idx]

    profile.sigma = sigma
    profile.winding = mode.m - sigma
    return profile


def mode_spectrum(mode: ModeParams, theta_k, phi_k):
    """Cartesian field spectrum f(theta_k, phi_k), shape (3,) + broadcast shape."""
    phi_k = np.asarray(phi_k, dtype=float)
    return cartesian_from_circular(*(
        a * np.exp(1j * (mode.m - sigma) * phi_k) / (2 * np.pi)
        for sigma, a in zip(SIGMAS, _theta_spectrum(mode, theta_k))))
