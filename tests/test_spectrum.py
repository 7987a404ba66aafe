import numpy as np
import pytest

from paramodes.core import ModeParams, SIGMAS, circular_components, cartesian_from_circular
from paramodes.numerics import theta_from_u, u_from_theta
from paramodes.spectrum import (
    hertz_component, cross_with_khat, sigma_profile, mode_spectrum,
    khat, transversality_residual, u_spectrum,
)


def test_hertz_component_at_equator():
    # tan(pi/4) = 1 kills the kappa phase, leaving c_sigma / (2 pi sin)
    mode = ModeParams(omega=1.0, m=0, kappa=1.3, family="E")
    assert hertz_component(mode, 1, np.pi / 2) == pytest.approx(1 / (2 * np.pi))
    assert hertz_component(mode, -1, np.pi / 2) == pytest.approx(-1 / (2 * np.pi))
    assert hertz_component(mode, 0, np.pi / 2) == 0


def test_hertz_component_modulus_and_phase():
    mode = ModeParams(omega=1.0, m=0, kappa=0.7, family="E")
    theta = 0.9
    val = hertz_component(mode, 1, theta)
    assert abs(val) == pytest.approx(1 / (2 * np.pi * np.sin(theta)), rel=1e-14)
    expect_phase = -2 * mode.kappa * np.log(np.tan(theta / 2))
    assert np.angle(val) == pytest.approx(np.mod(expect_phase + np.pi, 2 * np.pi) - np.pi, abs=1e-12)


def test_hertz_component_rejects_poles():
    mode = ModeParams(omega=1.0, m=0, kappa=0.0, family="E")
    for theta in (0.0, np.pi, -0.1, 3.5):
        with pytest.raises(ValueError):
            hertz_component(mode, 1, theta)


def test_cross_with_khat_matches_cartesian_cross_product():
    rng = np.random.default_rng(3)
    for _ in range(20):
        theta = rng.uniform(0.1, np.pi - 0.1)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        k = khat(theta, 0.0)
        want = np.cross(k, v)
        got = cartesian_from_circular(
            *cross_with_khat(circular_components(v), np.sin(theta), np.cos(theta)))
        assert np.allclose(got, want, atol=1e-14)


def test_spectrum_transversality_all_families():
    rng = np.random.default_rng(5)
    for family in ("E", "B"):
        for m in (-2, -1, 0, 1, 2):
            mode = ModeParams(omega=1.0, m=m, kappa=rng.uniform(-4, 4), family=family)
            theta = rng.uniform(0.05, np.pi - 0.05, size=40)
            phi = rng.uniform(0, 2 * np.pi, size=40)
            res = transversality_residual(mode, theta, phi)
            assert np.max(res) < 1e-12


def test_mode_spectrum_winding_phases():
    mode = ModeParams(omega=1.0, m=1, kappa=-0.4, family="B")
    theta = 1.1
    phi = 0.77
    f0 = mode_spectrum(mode, theta, 0.0)
    f = mode_spectrum(mode, theta, phi)
    c0 = circular_components(f0)
    c1 = circular_components(f)
    for sigma, a, b in zip(SIGMAS, c1, c0):
        n = mode.m - sigma
        assert a == pytest.approx(b * np.exp(1j * n * phi), abs=1e-14)


def test_sigma_profile_consistent_with_full_spectrum():
    mode = ModeParams(omega=1.0, m=-1, kappa=2.2, family="E")
    theta = np.array([0.6, 1.3, 2.0])
    phi = 1.9
    f = mode_spectrum(mode, theta, phi)
    comps = circular_components(f)
    for sigma, comp in zip(SIGMAS, comps):
        prof = sigma_profile(mode, sigma)
        n = prof.winding
        assert n == mode.m - sigma
        want = prof(theta) * np.exp(1j * n * phi) / (2 * np.pi)
        assert np.allclose(comp, want, atol=1e-14)


def test_u_spectrum_matches_theta_adapter():
    # u is recomputed from the theta grid so both paths see the same angles
    theta = theta_from_u(np.linspace(-8.0, 8.0, 401))
    u = u_from_theta(theta)
    for family in ("E", "B"):
        for m in (-1, 0, 1):
            for kappa in (-3.7, 0.0, 0.64, 5.6):
                mode = ModeParams(omega=1.0, m=m, kappa=kappa, family=family)
                for sigma, got in zip(SIGMAS, u_spectrum(mode, u)):
                    want = sigma_profile(mode, sigma)(theta)
                    scale = max(np.max(np.abs(want)), 1e-300)
                    assert np.max(np.abs(got - want)) <= 1e-12 * scale


def test_b_mode_is_khat_cross_e_mode():
    kappa, m = 0.9, 1
    e_mode = ModeParams(omega=1.0, m=m, kappa=kappa, family="E")
    b_mode = ModeParams(omega=1.0, m=m, kappa=kappa, family="B")
    theta, phi = 0.8, 0.3
    fe = mode_spectrum(e_mode, theta, phi)
    fb = mode_spectrum(b_mode, theta, phi)
    k = khat(theta, phi)
    assert np.allclose(fb, np.cross(k, fe), atol=1e-14)


def test_azimuthal_mode_has_no_axial_component():
    # default coefficients give the B-family m=0 mode a purely transverse spectrum
    mode = ModeParams(omega=1.0, m=0, kappa=1.7, family="B")
    prof = sigma_profile(mode, 0)
    theta = np.linspace(0.3, 2.8, 11)
    assert np.max(np.abs(prof(theta))) < 1e-15
