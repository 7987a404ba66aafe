"""Lamb-Dicke parameters of a harmonically trapped ion.

The center-of-mass average of the field autocorrelation reduces, for a
ground-state ion, to the Gaussian form factor

    g(k, k') = e^{i (k - k') . X0}  prod_i  e^{-eta_i^2 (k_i - k_i')^2 / 2}

with X0 the trap center in c/omega units and eta_i the Lamb-Dicke
parameters.  The trap has one radial and one axial secular frequency, so
g is symmetric about the axis and its azimuthal pair integral against
winding phases collapses to a modified Bessel function, which is what
makes the on-axis rate path one-dimensional per angle.  `LambDicke` holds
the radial eta_x, shared by both transverse axes, and the axial eta_z.
The rate engine uses the expanded kernel; the form factor itself, its
azimuthal closed form and an expansion for anisotropic confinement are
reference paths in `paramodes.oracles`.
"""

from dataclasses import dataclass
import numpy as np

from .core import HBAR, C_LIGHT


def lamb_dicke(omega_gamma, mass, lambda_i):
    """Lamb-Dicke parameter sqrt(hbar omega^2 / (2 M Lambda c^2))."""
    if omega_gamma <= 0 or mass <= 0 or lambda_i <= 0:
        raise ValueError("omega, mass and secular frequency must be positive")
    return np.sqrt(HBAR * omega_gamma**2 / (2.0 * mass * lambda_i * C_LIGHT**2))


@dataclass(frozen=True)
class LambDicke:
    """Radial eta_x, shared by both transverse axes, and axial eta_z."""

    eta_x: float
    eta_z: float

    def __post_init__(self):
        # eta = 0 is a point trap, which the rate engine handles
        for name in ("eta_x", "eta_z"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, "
                                 f"got {value!r}")

    @classmethod
    def from_trap(cls, omega_gamma, mass, radial, axial):
        """From the transition frequency, the ion mass and the radial and
        axial secular frequencies (rad/s)."""
        return cls(lamb_dicke(omega_gamma, mass, radial),
                   lamb_dicke(omega_gamma, mass, axial))
