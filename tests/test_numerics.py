import numpy as np
import pytest

from paramodes.numerics import (
    QuadratureConfig, QuadratureError, DEFAULT_QUADRATURE,
    panel_nodes, taper_window, integrate_adaptive,
    sin_cos_theta, theta_from_u, u_from_theta,
    bessel_j, bessel_i, bessel_j_series, bessel_i_series,
)


def test_panel_nodes_integrate_gaussian():
    u, wk, _ = panel_nodes(24, -12.0, 12.0)
    est = float(np.exp(-u**2) @ wk)
    assert est == pytest.approx(np.sqrt(np.pi), rel=1e-13)


def test_embedded_pair_agrees_on_smooth_integrand():
    u, wk, wg = panel_nodes(16, -12.0, 12.0)
    vals = 1.0 / np.cosh(u) ** 2
    exact = 2.0 * np.tanh(12.0)
    # the extended rule carries several more digits than its embedded one
    assert float(vals @ wk) == pytest.approx(exact, rel=1e-9)
    assert float(vals @ wg) == pytest.approx(exact, rel=1e-6)
    assert abs(float(vals @ wk) - float(vals @ wg)) < 1e-6


def test_oscillatory_closed_form():
    # Int sech^2(u) e^{-2 i kappa u} du = 2 pi kappa / sinh(pi kappa)
    for kappa in (0.3, 1.1, 2.0):
        def values(u, kappa=kappa):
            return np.cosh(u) ** -2 * np.exp(-2j * kappa * u)
        nosc = 4 * kappa * 12.0 / (2 * np.pi)
        est, resid = integrate_adaptive(values, nosc)
        want = 2 * np.pi * kappa / np.sinh(np.pi * kappa)
        assert complex(est) == pytest.approx(want, rel=1e-8)
        assert resid >= 0.0


def test_adaptive_refinement_reaches_tolerance():
    cfg = DEFAULT_QUADRATURE.replace(min_panels=4, panels_per_oscillation=2.0)

    def values(u):
        return np.cos(5.0 * u) * np.exp(-u**2)
    est, _ = integrate_adaptive(values, 1.0, cfg)
    want = np.sqrt(np.pi) * np.exp(-25.0 / 4.0)
    assert float(np.real(est)) == pytest.approx(want, rel=1e-9)


def test_quadrature_failure_raises_with_residual():
    cfg = DEFAULT_QUADRATURE.replace(min_panels=2, panels_per_oscillation=0.1,
                                     max_refinements=0)

    def values(u):
        return np.cos(200.0 * u)
    with pytest.raises(QuadratureError) as err:
        integrate_adaptive(values, 1.0, cfg)
    assert err.value.residual > 0.0


def test_taper_window_shape():
    cfg = DEFAULT_QUADRATURE
    u = np.array([0.0, 5.0, 9.6, 10.8, 12.0, 13.0])
    t = taper_window(u, cfg)
    assert t[0] == 1.0 and t[1] == 1.0 and t[2] == 1.0
    assert 0.0 < t[3] < 1.0
    assert t[4] == 0.0 and t[5] == 0.0
    assert np.all(taper_window(-u, cfg) == t)


def test_angle_substitution_round_trip():
    theta = np.array([0.3, 1.0, np.pi / 2, 2.5])
    u = u_from_theta(theta)
    assert np.allclose(theta_from_u(u), theta, rtol=1e-14)
    s, c = sin_cos_theta(u)
    assert np.allclose(s, np.sin(theta), rtol=1e-14)
    assert np.allclose(c, np.cos(theta), atol=1e-14)


def test_bessel_j_against_series():
    x = np.linspace(0.0, 2.0, 9)
    for n in range(-3, 4):
        assert np.allclose(bessel_j(n, x), bessel_j_series(n, x), rtol=1e-12, atol=1e-14)


def test_bessel_i_against_series():
    x = np.linspace(0.0, 2.0, 9)
    for n in range(0, 4):
        assert np.allclose(bessel_i(n, x), bessel_i_series(n, x), rtol=1e-12)


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.5)
    with pytest.raises(ValueError):
        QuadratureConfig(max_refinements=-1)
    cfg = DEFAULT_QUADRATURE.replace(rel_tol=1e-6)
    assert cfg.rel_tol == 1e-6
    assert cfg.window == DEFAULT_QUADRATURE.window
