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

from .core import ModeParams, B_MODE, E_MODE, SIGMAS, cartesian_from_circular
from .numerics import sin_cos_theta


def _check_theta(theta_k):
    theta_k = np.asarray(theta_k, dtype=float)
    if np.any(theta_k <= 0.0) or np.any(theta_k >= np.pi):
        raise ValueError("theta_k must lie strictly inside (0, pi)")
    return theta_k


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


def _curls(family, pot, sin_t, cos_t):
    """Field profile triple of a potential triple: one curl for the E
    family, two for the B family."""
    out = cross_with_khat(pot, sin_t, cos_t)
    if family == B_MODE:
        out = cross_with_khat(out, sin_t, cos_t)
    # f = i (omega/c) k x ...; omega/c = 1 in c/omega units
    return tuple(1j * y for y in out)


def _spectrum_triple(mode: ModeParams, sin_t, cos_t, phase):
    """Circular profile triple (a_+, a_-, a_0) of the field spectrum.

    Takes sin(theta_k), cos(theta_k) and the kappa phase
    (tan theta_k/2)^{-2 i kappa}; in u = ln tan(theta_k/2) these are
    sech u, -tanh u and e^{-2 i kappa u}.  f_sigma = a_sigma e^{i n phi_k}
    / (2 pi).
    """
    pot = tuple(mode.coeff(s) * phase / sin_t for s in SIGMAS)
    return _curls(mode.family, pot, sin_t, cos_t)


def unit_spectra(family, sin_t, cos_t):
    """kappa = 0 profiles of the unit potentials on 1-D nodes, shape
    (3, 3, len(sin_t)).

    Entry [i, j] is a_{SIGMAS[i]} of the mode whose only nonzero potential
    coefficient is c_{SIGMAS[j]} = 1.  The spectrum is linear in the
    coefficients and the kappa phase multiplies it, so any mode of the
    family has a_i = e^{-2 i kappa u} sum_j c_j [i, j]: one evaluation
    serves every mode of a family on the same nodes.
    """
    unit = np.eye(3)[:, :, None] / sin_t  # [s, j]: c_j delta_sj / sin
    return np.array(_curls(family, tuple(unit), sin_t, cos_t))


# circular components of the mirror z -> -z, in SIGMAS order: e_+ and e_-
# keep their sign, e_0 flips
_MIRROR = np.array([1.0, 1.0, -1.0])


def mirror_parity(family):
    """(3, 3) signs with unit_spectra(family, s, -c) = sign *
    unit_spectra(family, s, c).

    theta -> pi - theta reflects k_hat by R: z -> -z, which multiplies
    circular component i by _MIRROR[i].  A reflection has determinant -1,
    so k_hat x v at R k_hat is -R (k_hat x R v): each curl adds a sign,
    and entry [i, j] picks up (-1)^curls _MIRROR[i] _MIRROR[j].
    """
    return (-1.0 if family == E_MODE else 1.0) * np.outer(_MIRROR, _MIRROR)


def u_spectrum(mode: ModeParams, u):
    """Profile triple (a_+, a_-, a_0) at u = ln tan(theta_k/2), without theta."""
    u = np.asarray(u, dtype=float)
    return _spectrum_triple(mode, *sin_cos_theta(u),
                            np.exp(-2j * mode.kappa * u))


def mirrored_spectra(mode: ModeParams, u, sin_t, cos_t):
    """Profile triples at u and at its mirror -u, shape (3, 2, len(u)),
    given sin_t = sech u and cos_t = -tanh u.  The mirror keeps sin theta,
    flips cos theta and conjugates the kappa phase, so one exp serves both.
    """
    phase = np.exp(-2j * mode.kappa * np.asarray(u, dtype=float))
    a = _spectrum_triple(mode, np.concatenate((sin_t, sin_t)),
                         np.concatenate((cos_t, -cos_t)),
                         np.concatenate((phase, phase.conj())))
    return np.reshape(a, (3, 2, len(phase)))


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
