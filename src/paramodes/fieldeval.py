"""Real-space fields of parabolic modes from their angular spectra.

The plane-wave superposition over the Fourier sphere reduces, component by
component, to a one-dimensional oscillatory integral: the azimuthal integral
of e^{i n phi_k} against e^{i k.r} is a Bessel function, leaving

    E_sigma(rho, phi, z) = i^n e^{i n phi}
        Int d(theta) sin(theta) a_sigma(theta) J_n(rho sin theta) e^{i z cos theta}

with n = m - sigma and all lengths in c/omega units.  A brute-force 2D
quadrature of the same superposition (`paramodes.oracles.field_2d_oracle`)
backs the reduced path in the tests, and a stationary-phase estimate gives
the far-field asymptotics and the localization of a mode near the plane
Z = -2 kappa.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .core import ModeParams, SIGMAS, cartesian_from_circular
from .spectrum import sigma_profile, spectrum_triple
from .numerics import (
    DEFAULT_QUADRATURE, oscillation_count, refine, folded_nodes,
    taper_window, sin_cos_theta, bessel_j, bessel_table, one_blas_thread,
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


# rho values and z values per tile of the field kernel's working set
_BLOCK = 32


def _field_integrals(mode, rho, z, cfg=DEFAULT_QUADRATURE):
    """The field kernel: reduced integrals of the three sigma channels,
    shape (3, n_z, n_rho) in SIGMAS order, without the winding phase.

    One refine() over the whole request, sized by max|z| and max rho and
    graded by max|z|, with one convergence scale per sigma channel: it
    evaluates this kernel on a first grid and on twice its panels, and
    returns the finer one's integrals once the two agree.  The
    grid is mirror-symmetric, and under u -> -u sin theta and every
    J_n(rho sin theta) are even, cos theta is odd and the kappa phase goes
    to its conjugate, so each grid works on its u >= 0 half:
    sum_half w J [(a(u) + a(-u)) cos(z c) + i (a(u) - a(-u)) sin(z c)].
    Each grid builds the spectrum at u and -u in one table call, the
    mirror's at (sin theta, -cos theta), and one J_|n|(rho s)
    table per distinct |n| (J_{-n} = (-1)^n J_n, and J_2 shares J_0 and
    J_1), in tiles of _BLOCK rho and z values whose buffers are allocated
    once per grid.  The Kronrod weights go into the spectrum, so a tile's
    node sum is one real matmul, the (re/im x 3 rho, cos/sin x nodes)
    weighted Bessel-times-spectrum table against the (z, cos/sin x nodes)
    cos and sin of z cos theta, on one BLAS thread, so the bits do not
    depend on the BLAS thread count.
    """
    rho, z = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (rho, z))
    for name, v in (("rho", rho), ("z", z)):
        if not v.size:
            raise ValueError(f"no {name} values to evaluate")
    if not (np.isfinite(rho).all() and np.isfinite(z).all()):
        raise ValueError("rho and z values must be finite")
    if (rho < 0).any():
        raise ValueError("rho values must be nonnegative")
    ns = [mode.m - sigma for sigma in SIGMAS]
    sign = np.array([(-1.0) ** min(n, 0) for n in ns])[:, None]

    def estimate(u, wk):
        u, wk = folded_nodes(u, wk)
        s, c = sin_cos_theta(u)
        phase = np.exp(-2j * mode.kappa * u)
        a = spectrum_triple(mode, np.concatenate((s, s)),
                            np.concatenate((c, -c)),
                            np.concatenate((phase, phase.conj()))) \
            .reshape(3, 2, -1) \
            * (sign * (wk * s**2 * taper_window(u)))[:, None]
        # with even/odd = a(u) +- a(-u), the node sum of even cos + i odd sin
        # has real part Re(even) cos - Im(odd) sin and imaginary part
        # Im(even) cos + Re(odd) sin: coef[re/im, channel, cos/sin, node]
        coef = np.empty((2, 3, 2, len(u)))
        np.add(a.real[:, 0], a.real[:, 1], out=coef[0, :, 0])
        np.subtract(a.imag[:, 1], a.imag[:, 0], out=coef[0, :, 1])
        np.add(a.imag[:, 0], a.imag[:, 1], out=coef[1, :, 0])
        np.subtract(a.real[:, 0], a.real[:, 1], out=coef[1, :, 1])
        out = np.empty((3, len(z), len(rho)), dtype=complex)
        # tile buffers, once per grid, flat so that a short last tile is a
        # contiguous leading part of each
        n_rho, n_z = min(_BLOCK, len(rho)), min(_BLOCK, len(z))
        L_buf = np.empty(2 * 3 * n_rho * 2 * len(u))
        trig_buf = np.empty(n_z * 2 * len(u))
        for r in range(0, len(rho), _BLOCK):
            rb = slice(r, r + _BLOCK)
            x = np.multiply.outer(rho[rb], s)
            J = bessel_table({abs(n) for n in ns}, x)
            L = L_buf[:12 * len(x) * len(u)].reshape(2, 3, len(x), 2, -1)
            for L_part, coef_part in zip(L, coef):
                for L_n, n, coef_n in zip(L_part, ns, coef_part):
                    np.multiply(J[abs(n)][:, None], coef_n, out=L_n)
            for q in range(0, len(z), _BLOCK):
                zb = slice(q, q + _BLOCK)
                n_zb = len(z[zb])
                # (cos, sin) of z cos theta, the argument built in the cos
                # half and overwritten last
                trig = trig_buf[:2 * n_zb * len(u)].reshape(n_zb, 2, -1)
                arg = np.multiply.outer(z[zb], c, out=trig[:, 0])
                np.sin(arg, out=trig[:, 1])
                np.cos(arg, out=arg)
                # [re/im s r, z] -> out[s, z, r]
                part = (L.reshape(6 * len(x), -1)
                        @ trig.reshape(n_zb, -1).T).reshape(
                    2, 3, len(x), n_zb).swapaxes(2, 3)
                out.real[:, zb, rb] = part[0]
                out.imag[:, zb, rb] = part[1]
        return out

    zmax = float(np.abs(z).max())
    with one_blas_thread():
        return refine(estimate, oscillation_count(mode.kappa, zmax, rho.max()),
                      cfg, zmax)[0]


def field_at_point(mode: ModeParams, position, cfg=DEFAULT_QUADRATURE):
    """Field sample at cylindrical position (rho, phi, z) via the reduced path."""
    rho, phi, z = (float(x) for x in position)
    if not np.isfinite(phi):
        raise ValueError("phi must be finite")
    ints = _field_integrals(mode, rho, z, cfg)[:, 0, 0]
    return FieldSample((rho, phi, z), {
        sigma: _ipow(n) * np.exp(1j * n * phi) * amp
        for sigma, n, amp in zip(SIGMAS, (mode.m - s for s in SIGMAS), ints)})


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
    """Asymptotic amplitude factor sqrt(pi / (|z| sqrt(1 + 2 kappa / z))):
    inf at the caustic z = -2 kappa, where the curvature vanishes, and NaN
    beyond it, where no stationary angle exists."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.sqrt(np.pi / (abs(z) * np.sqrt(1.0 + 2.0 * kappa / z)))


def stationary_phase_field(mode: ModeParams, position):
    """Two-branch stationary-phase estimate of the field at (rho, phi, z).

    Sums the interior stationary angles theta_sp and pi - theta_sp of the
    phase z cos(theta) - 2 kappa ln tan(theta/2).  Near the caustic
    |z| ~ 2|kappa| the curvature vanishes and the estimate degrades; at
    infeasible points, and on the caustic itself, where the prefactor is
    infinite, a zero-amplitude sample flagged feasible=False is returned
    rather than a fabricated peak.
    """
    rho, phi, z = (float(x) for x in position)
    if abs(z) < 20:
        warnings.warn("stationary-phase estimate requested at |z| < 20 c/omega; "
                      "asymptotics are unreliable this close to the focal plane")
    theta_sp = stationary_phase_angle(mode.kappa, z)
    pref = stationary_phase_prefactor(mode.kappa, z)
    if theta_sp is INFEASIBLE or not np.isfinite(pref):
        comps = {s: 0.0 + 0.0j for s in SIGMAS}
        return FieldSample((rho, phi, z), comps, feasible=False)
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


# weight of each sigma channel's |.|^2 in a component, in SIGMAS order; the
# circular-basis metric (|e_+-|^2 = 2, |e_0|^2 = 1) has no cross terms
_COMPONENTS = {"z": (0, 0, 1), "+": (1, 0, 0), "-": (0, 1, 0), "total": (2, 2, 1)}


def _intensity(ints, component):
    return np.einsum("s,szr->zr", _COMPONENTS[component], np.abs(ints) ** 2)


def intensity_map(mode: ModeParams, component, rho_values, z_values,
                  cfg=DEFAULT_QUADRATURE):
    """Relative intensity of one field component on a (rho, z) grid.

    component: one of 'z', '+', '-' (circular channels) or 'total'.
    Returns (map, mask) of shape (n_z, n_rho): map is |component|^2
    normalized to its grid max.  The whole grid shares one quadrature, which
    either converges or raises QuadratureError, so the mask is always False.
    """
    if component not in _COMPONENTS:
        raise ValueError(f"component {component!r} not in {list(_COMPONENTS)}")
    raw = _intensity(_field_integrals(mode, rho_values, z_values, cfg),
                     component)
    peak = raw.max()
    return (raw / peak if peak > 0 else raw), np.zeros(raw.shape, dtype=bool)


def axis_intensity_scan(mode: ModeParams, z_values, cfg=DEFAULT_QUADRATURE):
    """|on-axis n=0 component|^2 along z; other windings vanish at rho=0."""
    if mode.m not in SIGMAS:
        raise ValueError("mode has no winding-zero component for |m| > 1")
    ints = _field_integrals(mode, 0.0, z_values, cfg)
    return np.abs(ints[SIGMAS.index(mode.m), :, 0]) ** 2  # n = m - sigma = 0


def isointensity_grid(mode: ModeParams, level, x_values, y_values, z_values,
                      cfg=DEFAULT_QUADRATURE):
    """Total |E|^2 on a 3D Cartesian grid plus the iso-level threshold.

    Only the distinct rho = hypot(x, y) are evaluated and then broadcast,
    so the grid is exactly symmetric wherever the (x, y) points are.
    Returns (grid, threshold) with threshold = level * grid max; contouring
    is left to external tools.
    """
    if not 0 < level <= 1:
        raise ValueError("level must lie in (0, 1]")
    xx, yy = np.meshgrid(x_values, y_values, indexing="ij")
    rho, where = np.unique(np.hypot(xx, yy), return_inverse=True)
    total = _intensity(_field_integrals(mode, rho, z_values, cfg), "total")
    grid = np.ascontiguousarray(np.moveaxis(total[:, where], 0, -1))
    return grid, level * float(grid.max())
