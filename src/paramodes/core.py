"""Shared domain types, unit conventions and physical constants.

Lengths are handled internally in units of c/omega (omega the mode or
transition angular frequency); rates are reported as ratios to the
free-space rate.  SI values enter only at the configuration boundary.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

# SI values of scipy.constants (CODATA 2022), written out so that importing
# the package does not load scipy
HBAR = 1.0545718176461565e-34  # J s
C_LIGHT = 299792458.0  # m/s
EPS0 = 8.8541878188e-12  # F/m
ATOMIC_MASS = 1.66053906892e-27  # kg

SIGMA_PLUS, SIGMA_MINUS, SIGMA_ZERO = 1, -1, 0
SIGMAS = (SIGMA_PLUS, SIGMA_MINUS, SIGMA_ZERO)

# families of the mode basis: electric field given by one or two curls of
# the Hertz potential
E_MODE = "E"
B_MODE = "B"

DEFAULT_COEFFS = (1.0, -1.0, 0.0)  # (c_+, c_-, c_0): potential along phi-hat


# One reading of configuration entries for the CLI and the library; every
# malformed entry raises a ValueError that names it, as "trap.radial_khz".

def section(raw, name, keys=None):
    """Section named by the last part of the dotted `name`; None when
    absent.  With `keys`, its keys are checked by known_keys."""
    out = raw.get(name.rpartition(".")[2])
    if out is not None and not isinstance(out, dict):
        raise ValueError(f"{name} section must be a JSON object")
    if out is not None and keys is not None:
        known_keys(out, name, keys)
    return out


def known_keys(sec, name, keys):
    """Reject a key of `sec` outside `keys`, so that a misspelled entry
    never falls back to its default unnoticed."""
    for key in sec:
        if key not in keys:
            raise ValueError(f"unknown key {key!r} in {name}; known keys: "
                             f"{', '.join(keys)}")


def entry(sec, name, key, kind=float, default=None):
    """One numeric entry of a section; missing or malformed ones are named."""
    if key not in sec:
        if default is None:
            raise ValueError(f"{name} section is missing {key!r}")
        return default
    return number(sec[key], f"{name}.{key}", kind)


def number(value, what, kind=float):
    """kind(value) of one configuration entry, a finite number (not a bool,
    nor a string unless kind is complex, as in "1+2j") and integral for
    kind int; a named ValueError otherwise."""
    try:
        out = complex(value) if kind is complex else float(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or isinstance(value, bool) or not np.isfinite(out) \
            or (isinstance(value, str) and kind is not complex):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    if kind is int and not out.is_integer():
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return kind(out)


def vector(value, what, length=None, kind=float):
    """Tuple of `number` entries from a configuration list."""
    if not isinstance(value, (list, tuple)) \
            or (length is not None and len(value) != length):
        raise ValueError(f"{what} must be a list of "
                         f"{length or 'some'} numbers, got {value!r}")
    return tuple(number(x, what, kind) for x in value)


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
    coeffs: tuple = DEFAULT_COEFFS

    def __post_init__(self):
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise ValueError(f"omega must be positive and finite, "
                             f"got {self.omega!r}")
        if not math.isfinite(self.kappa):
            raise ValueError(f"kappa must be finite, got {self.kappa!r}")
        if self.family not in (E_MODE, B_MODE):
            raise ValueError("family must be 'E' or 'B'")
        if not math.isfinite(self.m) or int(self.m) != self.m:
            raise ValueError(f"m must be an integer, got {self.m!r}")
        if len(self.coeffs) != 3:
            raise ValueError("coeffs must have exactly three entries (+, -, 0)")
        coeffs = tuple(complex(c) for c in self.coeffs)
        if not all(map(cmath.isfinite, coeffs)):
            raise ValueError(f"coeffs must be finite, got {coeffs!r}")
        object.__setattr__(self, "coeffs", coeffs)

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
class DipoleSpec:
    """Transition-dipole direction, a real or complex (circular) unit
    vector; only the direction enters rate ratios."""

    orientation: tuple

    def __post_init__(self):
        v = np.asarray(self.orientation, dtype=complex)
        if v.shape != (3,):
            raise ValueError("orientation must have three components")
        if not np.isfinite(v).all():
            raise ValueError(f"dipole orientation must be finite, "
                             f"got {self.orientation!r}")
        if abs(np.linalg.norm(v) - 1.0) > 1e-12:
            raise ValueError("dipole orientation must be a unit vector")
        object.__setattr__(self, "orientation",
                           tuple(v if v.imag.any() else v.real))

    def circular(self):
        return circular_components(self.orientation)

    def sigma_weight(self, sigma):
        """|d_{-sigma}|^2, the weight of channel sigma in the rate sum."""
        dp, dm, d0 = self.circular()
        comp = {SIGMA_PLUS: dm, SIGMA_MINUS: dp, SIGMA_ZERO: d0}[sigma]
        return abs(comp) ** 2
