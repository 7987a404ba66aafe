"""Reference paths that back the production engines in the test suite.

Nothing in the package imports this module, and `import paramodes` does not
load it.  Each name here recomputes a production result by a different,
slower route, or checks a property the production code relies on:

- `field_2d_oracle`: the field as a brute-force (theta_k, phi_k) tensor
  quadrature, against the reduced Bessel path of `fieldeval`;
- `mode_contribution_direct`: the rate as a dense quadratic form of the
  pair kernel, against the separable series of `rates`;
- `mode_contribution_general`: the rate for anisotropic confinement and an
  arbitrary trap center, by a Cartesian multi-index expansion;
- `form_factor`, `azimuthal_pair_integral`, `bessel_weight_profile`: the
  motional form factor and its azimuthal reduction to I_|n|;
- `hertz_component`, `khat`, `transversality_residual`: the Hertz
  potential and the transversality of the field spectra;
- `cross_with_khat`, `curl_unit_spectra`: the unit spectra by explicit
  curl products, against the closed-form table `spectrum.unit_spectra`;
- `bessel_j_series`, `bessel_i_series`, `bessel_i`, `bessel_i_scaled`:
  Bessel functions, the first two as power series;
- `u_from_theta` and `integrate_adaptive`: the inverse angle map and a
  front end to `refine` for plain integrands.

A configuration builds only a `LambDicke(eta_x, eta_z)`, radial and axial,
which the engines and `mode_contribution_direct` take.  Anisotropic
confinement stays in the oracles as explicit Cartesian triples
(eta_x, eta_y, eta_z): `form_factor` and `mode_contribution_general` take
those.
"""

import warnings

import numpy as np
from scipy import special as _sp
from scipy.special import gammaln

from .core import ModeParams, B_MODE, SIGMAS
from .fieldeval import FieldSample
from .numerics import (
    DEFAULT_QUADRATURE, oscillation_count, refine, taper_window,
    sin_cos_theta, theta_from_u,
)
from .spectrum import _check_theta, mode_spectrum, u_spectrum
from .trap import LambDicke


# ---------------------------------------------------------------- numerics

def integrate_adaptive(values_at, n_oscillations, cfg=DEFAULT_QUADRATURE):
    """Integrate values_at(u), whose last axis runs over the nodes u, with
    one refine() shared by every integrand."""
    def estimate(u, wk):
        return values_at(u) @ wk

    return refine(estimate, n_oscillations, cfg)


def u_from_theta(theta):
    return np.log(np.tan(theta / 2.0))


# scipy provides the evaluations; the series forms back them as
# independent oracles

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


# ---------------------------------------------------------------- spectra

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


def curl_unit_spectra(family, sin_t, cos_t):
    """unit_spectra on 1-D nodes by the curls themselves: f = i k x pi (E
    family) or i k x (k x pi) (B family) of each unit potential
    e_j / sin theta, with omega/c = 1."""
    out = cross_with_khat(tuple(np.eye(3)[:, :, None] / sin_t), sin_t, cos_t)
    if family == B_MODE:
        out = cross_with_khat(out, sin_t, cos_t)
    return 1j * np.array(out)


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


# ---------------------------------------------------------------- fields

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
    nosc = oscillation_count(mode.kappa, z, rho)

    def values(u):
        s, c = sin_cos_theta(u)
        theta = theta_from_u(u)
        f = mode_spectrum(mode, theta[None, :], phik[:, None])  # (3, nphi, nu)
        kdotr = rho * s[None, :] * np.cos(phik[:, None] - phi) + z * c[None, :]
        w = s[None, :] ** 2 * taper_window(u)[None, :]
        integrand = f * (np.exp(1j * kdotr) * w)[None, :, :]
        return integrand.sum(axis=1) * (2 * np.pi / n_phi)

    est, _ = integrate_adaptive(values, nosc, cfg)
    ex, ey, ez = est
    comps = {1: (ex - 1j * ey) / 2, -1: (ex + 1j * ey) / 2, 0: ez}
    return FieldSample((rho, phi, z), comps)


# ---------------------------------------------------------------- trap

def _check_unit(k):
    k = np.asarray(k, dtype=float)
    if abs(np.linalg.norm(k) - 1.0) > 1e-9:
        raise ValueError("wavevector arguments must be unit vectors")
    return k


def form_factor(khat, khat_prime, eta_xyz, center=(0.0, 0.0, 0.0)):
    """Ground-state form factor g(k, k') for Lamb-Dicke parameters
    eta_xyz = (eta_x, eta_y, eta_z); center in c/omega units."""
    k = _check_unit(khat)
    kp = _check_unit(khat_prime)
    d = k - kp
    phase = np.exp(1j * np.dot(d, np.asarray(center, dtype=float)))
    eta2 = np.asarray(eta_xyz, dtype=float) ** 2
    gauss = np.exp(-0.5 * np.sum(eta2 * d**2))
    return phase * gauss


def azimuthal_pair_integral(n, n_prime, eta_x, theta, theta_prime):
    """Closed form of the double azimuthal integral of the form factor.

    Integrating e^{-i n phi + i n' phi'} against the phi - phi' dependence
    of an axially symmetric g gives (2 pi)^2 delta_{n n'} I_{|n|}(eta_x^2
    sin theta sin theta').  The Gaussian prefactors that depend on theta
    alone are not included here; they stay with the theta integrand.
    """
    if n != n_prime:
        return 0.0
    x = eta_x**2 * np.sin(theta) * np.sin(theta_prime)
    return (2 * np.pi) ** 2 * bessel_i(abs(n), np.abs(x))


def bessel_weight_profile(eta_x, n_max):
    """Max of I_{|n|}(x)/I_0(x) over the argument range x in [0, eta_x^2].

    The ratio is increasing in x, so the max sits at x = eta_x^2; the table
    justifies the winding cutoff used by the rate sums.
    """
    if eta_x < 0 or n_max < 0:
        raise ValueError("eta_x and n_max must be nonnegative")
    x = eta_x**2
    out = {}
    for n in range(n_max + 1):
        if x == 0.0:
            out[n] = 1.0 if n == 0 else 0.0
        else:
            out[n] = float(bessel_i_scaled(n, x) / bessel_i_scaled(0, x))
    return out


# ---------------------------------------------------------------- rates

def mode_contribution_direct(mode, sigma, eta: LambDicke, z_center,
                             cfg=DEFAULT_QUADRATURE):
    """Dense double-quadrature of the pair kernel; slow verification path.

    Tiny negative results from quadrature noise are clamped to zero; a
    negative part beyond 1e-10 of the diagonal scale raises.
    """
    z_center = float(z_center)
    n = mode.m - sigma

    def estimate(u, wk):
        s, c = sin_cos_theta(u)
        # conjugate side of the quadratic form supplies e^{-iZc}
        v = s**2 * u_spectrum(mode, u)[SIGMAS.index(sigma)] \
            * taper_window(u) * np.exp(1j * z_center * c)
        dz = c[:, None] - c[None, :]
        kernel = np.exp(-eta.eta_z**2 * dz**2 / 2.0) \
            * np.exp(-eta.eta_x**2 * (s[:, None]**2 + s[None, :]**2) / 2.0) \
            * bessel_i(abs(n), eta.eta_x**2 * np.outer(s, s))
        vw = v * wk
        t = float(np.real(np.conj(vw) @ kernel @ vw))
        ref = float((np.abs(vw) ** 2 * np.diag(kernel)).sum())
        if t < -1e-10 * max(ref, 1e-300):
            raise ArithmeticError(
                f"pair kernel lost positivity: {t} vs scale {ref}")
        return t

    t, _ = refine(estimate, oscillation_count(mode.kappa, z_center, 0.0), cfg)
    if t < 0.0:
        warnings.warn("clamping small negative pair-kernel quadrature result")
        t = 0.0
    return t


def mode_contribution_general(mode, sigma, eta_xyz, center,
                              cfg=DEFAULT_QUADRATURE, order=6, n_phi=None):
    """Rank expansion for anisotropic confinement and arbitrary trap center.

    Expands each Cartesian-axis Gaussian of the form factor separately:
    T = sum_P gamma_P |B_P|^2 over multi-indices P = (px, py, pz) with
    |P| <= order, each B_P a two-dimensional angular integral.  Slow but
    fully general; the on-axis engine of `rates` is the fast path.
    """
    ex, ey, ez = (float(e) for e in eta_xyz)
    x0, y0, z0 = (float(x) for x in center)
    n = mode.m - sigma
    if n_phi is None:
        n_phi = int(64 + 8 * np.ceil(abs(n) + order + np.hypot(x0, y0)))
    phik = np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False)
    combos = [(px, py, pz)
              for px in range(order + 1)
              for py in range(order + 1 - px)
              for pz in range(order + 1 - px - py)
              if not ((ex == 0.0 and px) or (ey == 0.0 and py)
                      or (ez == 0.0 and pz))]
    gam = np.array([
        np.exp((px * np.log(ex**2) if px else 0.0)
               + (py * np.log(ey**2) if py else 0.0)
               + (pz * np.log(ez**2) if pz else 0.0)
               - gammaln(px + 1) - gammaln(py + 1) - gammaln(pz + 1))
        for px, py, pz in combos])

    def estimate(u, wk):
        s, c = sin_cos_theta(u)
        kx = s[:, None] * np.cos(phik)[None, :]
        ky = s[:, None] * np.sin(phik)[None, :]
        kz = c[:, None] * np.ones((1, n_phi))
        base = (s**2 * np.conj(u_spectrum(mode, u)[SIGMAS.index(sigma)])
                * taper_window(u))[:, None] \
            * np.exp(-1j * n * phik)[None, :] / (2 * np.pi) \
            * np.exp(-1j * (kx * x0 + ky * y0 + kz * z0)) \
            * np.exp(-(ex**2 * kx**2 + ey**2 * ky**2 + ez**2 * kz**2) / 2.0) \
            * (2 * np.pi / n_phi)
        b = np.array([(base * kx**px * ky**py * kz**pz).sum(axis=1)
                      for px, py, pz in combos])
        return float(gam @ (np.abs(b @ wk) ** 2))

    return refine(estimate, oscillation_count(mode.kappa, z0, np.hypot(x0, y0)),
                  cfg)[0]
