import numpy as np
import pytest

from paramodes.core import IonSpec, DipoleSpec, ATOMIC_MASS
from paramodes.trap import LambDicke

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="session")
def ybii_ion():
    return IonSpec("YbII", 171.0 * ATOMIC_MASS, 369.5e-9)


@pytest.fixture(scope="session")
def ybii_eta(ybii_ion):
    return LambDicke.from_trap(ybii_ion.omega, ybii_ion.mass,
                              TWO_PI * 230e3, TWO_PI * 480e3)


@pytest.fixture(scope="session")
def dipole_axial():
    return DipoleSpec((0.0, 0.0, 1.0))


@pytest.fixture(scope="session")
def dipole_transverse():
    return DipoleSpec((1.0, 0.0, 0.0))
