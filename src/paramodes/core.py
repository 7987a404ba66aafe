"""Shared domain types, unit conventions and physical constants.

Lengths are handled internally in units of c/omega (omega the mode or
transition angular frequency); rates are reported as ratios to the
free-space rate.  SI values enter only at the configuration boundary.
"""

from dataclasses import dataclass
import numpy as np
from scipy import constants as _const

HBAR = _const.hbar
C_LIGHT = _const.c
EPS0 = _const.epsilon_0
ATOMIC_MASS = _const.physical_constants["atomic mass constant"][0]

SIGMA_PLUS, SIGMA_MINUS, SIGMA_ZERO = 1, -1, 0
SIGMAS = (SIGMA_PLUS, SIGMA_MINUS, SIGMA_ZERO)

# families of the mode basis: electric field given by one or two curls of
# the Hertz potential
E_MODE = "E"
B_MODE = "B"


def to_dimensionless(x, omega):
    """Convert a length in meters to c/omega units."""
    if omega <= 0:
        raise ValueError("omega must be positive")
    return x * omega / C_LIGHT


def from_dimensionless(x, omega):
    """Convert a length in c/omega units back to meters."""
    if omega <= 0:
        raise ValueError("omega must be positive")
    return x * C_LIGHT / omega


def circular_components(v):
    """Circular components (v_+, v_-, v_0) of a Cartesian 3-vector.

    The basis is e_+ = e_x + i e_y, e_- = e_x - i e_y, e_0 = e_z (not
    normalized: |e_+-|^2 = 2), so v = v_+ e_+ + v_- e_- + v_0 e_0 with
    v_+- = (v_x -+ i v_y)/2 and v_0 = v_z.
    """
    v = np.asarray(v, dtype=complex)
    vp = (v[0] - 1j * v[1]) / 2
    vm = (v[0] + 1j * v[1]) / 2
    return vp, vm, v[2]


def cartesian_from_circular(vp, vm, v0):
    """Inverse of circular_components."""
    return np.array([vp + vm, 1j * (vp - vm), v0], dtype=complex)


def dot_circular(u, v):
    """Bilinear dot product u.v from circular component triples."""
    return 2 * (u[0] * v[1] + u[1] * v[0]) + u[2] * v[2]


@dataclass(frozen=True)
class ModeParams:
    """Label and coefficients of one parabolic mode.

    kappa is the separation parameter controlling where the mode localizes
    along the axis (near Z = -2 kappa in c/omega units).  coeffs are the
    per-sigma amplitudes of the Hertz potential, free normalization inputs.
    """

    omega: float
    m: int
    kappa: float
    family: str
    coeffs: tuple = (1.0, -1.0, 0.0)  # (c_+, c_-, c_0), potential along phi-hat

    def __post_init__(self):
        if self.omega <= 0:
            raise ValueError("omega must be positive")
        if self.family not in (E_MODE, B_MODE):
            raise ValueError("family must be 'E' or 'B'")
        if int(self.m) != self.m:
            raise ValueError("m must be an integer")
        if len(self.coeffs) != 3:
            raise ValueError("coeffs must have exactly three entries (+, -, 0)")
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))

    def coeff(self, sigma):
        return self.coeffs[{SIGMA_PLUS: 0, SIGMA_MINUS: 1, SIGMA_ZERO: 2}[sigma]]

    def scaled(self, factor):
        return ModeParams(self.omega, self.m, self.kappa, self.family,
                          tuple(factor * c for c in self.coeffs))


@dataclass(frozen=True)
class IonSpec:
    name: str
    mass: float  # kg
    transition_wavelength: float  # meters

    def __post_init__(self):
        if self.mass <= 0 or self.transition_wavelength <= 0:
            raise ValueError("mass and wavelength must be positive")

    @property
    def omega(self):
        return 2 * np.pi * C_LIGHT / self.transition_wavelength


@dataclass(frozen=True)
class TrapSpec:
    """Harmonic trap: center (c/omega units) and secular frequencies (rad/s)."""

    center: tuple = (0.0, 0.0, 0.0)
    lambda_x: float = 1.0
    lambda_y: float = 1.0
    lambda_z: float = 1.0

    def __post_init__(self):
        if min(self.lambda_x, self.lambda_y, self.lambda_z) <= 0:
            raise ValueError("secular frequencies must be positive")
        object.__setattr__(self, "center", tuple(float(x) for x in self.center))

    @property
    def axisymmetric(self):
        return self.lambda_x == self.lambda_y

    @property
    def on_axis(self):
        return self.center[0] == 0.0 and self.center[1] == 0.0


@dataclass(frozen=True)
class DipoleSpec:
    """Transition-dipole direction; only the direction enters rate ratios."""

    orientation: tuple

    def __post_init__(self):
        v = np.asarray(self.orientation, dtype=float)
        if v.shape != (3,):
            raise ValueError("orientation must have three components")
        if abs(np.linalg.norm(v) - 1.0) > 1e-12:
            raise ValueError("orientation must be a unit vector")
        object.__setattr__(self, "orientation", tuple(v))

    def circular(self):
        return circular_components(self.orientation)

    def sigma_weight(self, sigma):
        """|d_{-sigma}|^2, the weight of channel sigma in the rate sum."""
        dp, dm, d0 = self.circular()
        comp = {SIGMA_PLUS: dm, SIGMA_MINUS: dp, SIGMA_ZERO: d0}[sigma]
        return abs(comp) ** 2
