import numpy as np
import pytest

from paramodes.core import (
    C_LIGHT, SIGMAS,
    ModeParams, IonSpec, TrapSpec, DipoleSpec,
    to_dimensionless, from_dimensionless,
    circular_components, cartesian_from_circular, dot_circular,
)
from paramodes.spectrum import sigma_profile


def test_dimensionless_round_trip():
    omega = 2 * np.pi * C_LIGHT / 369.5e-9
    x = 1.7e-3
    assert from_dimensionless(to_dimensionless(x, omega), omega) == pytest.approx(x, rel=1e-15)


def test_dimensionless_known_scale():
    # a length of 2.1 mm measured in units of c/omega = 29.37 nm
    omega = C_LIGHT / 29.37e-9
    val = to_dimensionless(2.1e-3, omega)
    assert val == pytest.approx(71501.53, rel=1e-4)
    assert abs(val - 71500.0) / 71500.0 < 0.01


def test_dimensionless_rejects_bad_omega():
    with pytest.raises(ValueError):
        to_dimensionless(1.0, 0.0)
    with pytest.raises(ValueError):
        from_dimensionless(1.0, -2.0)


def test_circular_components_round_trip():
    rng = np.random.default_rng(7)
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    vp, vm, v0 = circular_components(v)
    back = cartesian_from_circular(vp, vm, v0)
    assert np.allclose(back, v, atol=1e-15)


def test_circular_components_of_basis_vectors():
    vp, vm, v0 = circular_components((1.0, 0.0, 0.0))
    assert vp == pytest.approx(0.5) and vm == pytest.approx(0.5) and v0 == 0
    vp, vm, v0 = circular_components((0.0, 1.0, 0.0))
    assert vp == pytest.approx(-0.5j) and vm == pytest.approx(0.5j)
    vp, vm, v0 = circular_components((0.0, 0.0, 1.0))
    assert vp == 0 and vm == 0 and v0 == 1.0


def test_bilinear_dot_matches_cartesian():
    rng = np.random.default_rng(11)
    u = rng.normal(size=3) + 1j * rng.normal(size=3)
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    lhs = dot_circular(circular_components(u), circular_components(v))
    assert lhs == pytest.approx(np.sum(u * v), rel=1e-14)


def test_mode_params_coefficients():
    mode = ModeParams(omega=1.0, m=1, kappa=0.5, family="E")
    assert mode.coeffs == ((1 + 0j), (-1 + 0j), 0j)
    assert mode.coeff(1) == 1 + 0j
    assert mode.coeff(-1) == -1 + 0j
    assert mode.coeff(0) == 0j
    doubled = mode.scaled(2.0)
    assert doubled.coeff(1) == 2 + 0j
    assert doubled.kappa == mode.kappa


def test_mode_params_validation():
    with pytest.raises(ValueError):
        ModeParams(omega=1.0, m=0, kappa=0.0, family="X")
    with pytest.raises(ValueError):
        ModeParams(omega=-1.0, m=0, kappa=0.0, family="E")


def test_winding_number():
    def winding(m, sigma):
        mode = ModeParams(omega=1.0, m=m, kappa=0.0, family="E")
        return sigma_profile(mode, sigma).winding
    assert winding(1, 1) == 0
    assert winding(1, -1) == 2
    assert winding(-1, 0) == -1


def test_ion_transition_frequency(ybii_ion):
    assert ybii_ion.omega == pytest.approx(2 * np.pi * C_LIGHT / 369.5e-9, rel=1e-15)


def test_trap_flags():
    t = TrapSpec(center=(0, 0, 0), lambda_x=1.0, lambda_y=1.0, lambda_z=2.0)
    assert t.axisymmetric and t.on_axis
    t2 = TrapSpec(center=(1.0, 0, 0), lambda_x=1.0, lambda_y=1.5, lambda_z=2.0)
    assert not t2.axisymmetric and not t2.on_axis


def test_dipole_weights_axial(dipole_axial):
    weights = [dipole_axial.sigma_weight(s) for s in SIGMAS]
    assert weights == [0.0, 0.0, 1.0]


def test_dipole_weights_transverse(dipole_transverse):
    weights = [dipole_transverse.sigma_weight(s) for s in SIGMAS]
    assert weights[0] == pytest.approx(0.25)
    assert weights[1] == pytest.approx(0.25)
    assert weights[2] == 0.0


def test_dipole_requires_unit_vector():
    with pytest.raises(ValueError):
        DipoleSpec((1.0, 1.0, 0.0))
