import numpy as np
import pytest
from scipy.special import iv

from paramodes.core import HBAR, C_LIGHT
from paramodes.trap import LambDicke, lamb_dicke
from paramodes.oracles import (
    form_factor, azimuthal_pair_integral, bessel_weight_profile,
)

TWO_PI = 2.0 * np.pi


def test_lamb_dicke_formula():
    omega, mass, lam = 5.1e15, 2.84e-25, 1.5e6
    want = np.sqrt(HBAR * omega**2 / (2 * mass * lam * C_LIGHT**2))
    assert lamb_dicke(omega, mass, lam) == pytest.approx(want, rel=1e-15)


def test_lamb_dicke_known_values(ybii_ion, ybii_eta):
    assert ybii_eta.eta_x == pytest.approx(0.19275784038186805, rel=1e-12)
    assert ybii_eta.eta_z == pytest.approx(0.13343057305671485, rel=1e-12)


def test_lamb_dicke_known_values_stiffer_trap():
    omega = TWO_PI * C_LIGHT / 251e-9
    mass = 171.0 * 1.66053906892e-27
    assert lamb_dicke(omega, mass, TWO_PI * 460e3) == pytest.approx(0.2006493583844621, rel=1e-10)
    assert lamb_dicke(omega, mass, TWO_PI * 960e3) == pytest.approx(0.13889322903629778, rel=1e-10)


def test_lamb_dicke_rejects_nonpositive():
    with pytest.raises(ValueError):
        lamb_dicke(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        lamb_dicke(1.0, 1.0, 0.0)


def test_lamb_dicke_pair_checks_its_values():
    for eta_x, eta_z in ((-0.2, 0.1), (np.nan, 0.1), (0.2, np.inf),
                         (0.2, -1e-9)):
        name = "eta_x" if not (np.isfinite(eta_x) and eta_x >= 0) else "eta_z"
        with pytest.raises(ValueError,
                           match=f"{name} must be finite and nonnegative"):
            LambDicke(eta_x, eta_z)
    # eta = 0 is a point trap, which the rate engine handles
    assert LambDicke(0.0, 0.0) == LambDicke(0.0, 0.0)


def _random_khat(rng, size=None):
    theta = np.arccos(rng.uniform(-1, 1, size=size))
    phi = rng.uniform(0, 2 * np.pi, size=size)
    return np.stack([np.sin(theta) * np.cos(phi),
                     np.sin(theta) * np.sin(phi),
                     np.cos(theta)], axis=-1)


def _triple(eta):
    """Cartesian (eta_x, eta_y, eta_z) of a radial/axial LambDicke."""
    return eta.eta_x, eta.eta_x, eta.eta_z


def test_form_factor_diagonal_and_bound(ybii_eta):
    rng = np.random.default_rng(21)
    for _ in range(30):
        k1 = _random_khat(rng)
        k2 = _random_khat(rng)
        assert form_factor(k1, k1, _triple(ybii_eta)) == pytest.approx(
            1.0, rel=1e-14)
        g = form_factor(k1, k2, _triple(ybii_eta))
        assert abs(g) <= 1.0 + 1e-14


def test_form_factor_hermitian(ybii_eta):
    rng = np.random.default_rng(22)
    center = (0.4, -0.2, 1.1)
    for _ in range(10):
        k1, k2 = _random_khat(rng), _random_khat(rng)
        a = form_factor(k1, k2, _triple(ybii_eta), center)
        b = form_factor(k2, k1, _triple(ybii_eta), center)
        assert a == pytest.approx(np.conj(b), abs=1e-14)


def test_form_factor_positive_semidefinite():
    rng = np.random.default_rng(23)
    eta = (0.3, 0.45, 0.2)  # anisotropic on purpose
    for trial in range(8):
        ks = _random_khat(rng, size=6)
        center = tuple(rng.normal(scale=2.0, size=3))
        gram = np.array([[form_factor(ki, kj, eta, center) for kj in ks]
                         for ki in ks])
        eigs = np.linalg.eigvalsh(gram)
        assert eigs.min() > -1e-12


def test_pair_integral_closed_form_value():
    # (2 pi)^2 I_1(0.09) with eta_x^2 sin sin' = 0.09
    eta_x = 0.3
    theta = theta_p = np.pi / 2
    got = azimuthal_pair_integral(1, 1, eta_x, theta, theta_p)
    assert got == pytest.approx(1.7783281347738353, rel=1e-12)
    assert got == pytest.approx((2 * np.pi) ** 2 * iv(1, 0.09), rel=1e-14)


def test_pair_integral_selection_rule():
    assert azimuthal_pair_integral(1, 2, 0.4, 0.7, 1.1) == 0.0
    assert azimuthal_pair_integral(-1, 1, 0.4, 0.7, 1.1) == 0.0


def _pair_integral_direct(n, n_prime, eta_x, theta, theta_p, n_grid=128):
    phi = np.linspace(0.0, 2 * np.pi, n_grid, endpoint=False)
    x = eta_x**2 * np.sin(theta) * np.sin(theta_p)
    integrand = np.exp(-1j * n * phi[:, None] + 1j * n_prime * phi[None, :]) \
        * np.exp(x * np.cos(phi[:, None] - phi[None, :]))
    return integrand.sum() * (2 * np.pi / n_grid) ** 2


def test_pair_integral_matches_direct_quadrature():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(-3, 4))
        eta_x = rng.uniform(0.05, 1.0)
        theta = rng.uniform(0.1, np.pi - 0.1)
        theta_p = rng.uniform(0.1, np.pi - 0.1)
        want = _pair_integral_direct(n, n, eta_x, theta, theta_p)
        got = azimuthal_pair_integral(n, n, eta_x, theta, theta_p)
        assert got == pytest.approx(np.real(want), rel=1e-12)
        assert abs(np.imag(want)) < 1e-9


def test_pair_integral_depends_only_on_angle_difference():
    # the closed form carries no reference azimuth at all; the direct
    # quadrature confirms the pair integral is a function of theta, theta'
    n, eta_x = 2, 0.6
    a = _pair_integral_direct(n, n, eta_x, 0.8, 1.9)
    b = azimuthal_pair_integral(n, n, eta_x, 0.8, 1.9)
    assert b == pytest.approx(np.real(a), rel=1e-12)


def test_bessel_weight_profile():
    prof = bessel_weight_profile(0.19275784038186805, n_max=3)
    assert sorted(prof) == [0, 1, 2, 3]
    assert prof[0] == 1.0
    assert prof[1] < 0.02 and prof[2] < prof[1] and prof[3] < prof[2]
    degenerate = bessel_weight_profile(0.0, n_max=2)
    assert degenerate[0] == 1.0 and degenerate[1] == 0.0 and degenerate[2] == 0.0
