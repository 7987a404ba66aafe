"""Lamb-Dicke parameters of a harmonically trapped ion.

The center-of-mass average of the field autocorrelation reduces, for a
ground-state ion, to the Gaussian form factor

    g(k, k') = e^{i (k - k') . X0}  prod_i  e^{-eta_i^2 (k_i - k_i')^2 / 2}

with X0 the trap center in c/omega units and eta_i the Lamb-Dicke
parameters.  For an axisymmetric trap the azimuthal pair integral of
g against winding phases collapses to a modified Bessel function, which is
what makes the on-axis rate path one-dimensional per angle.  The rate
engine uses the expanded kernel; the form factor itself and its azimuthal
closed form are reference paths in `paramodes.oracles`.
"""

from dataclasses import dataclass
import numpy as np

from .core import TrapSpec, HBAR, C_LIGHT


def lamb_dicke(omega_gamma, mass, lambda_i):
    """Lamb-Dicke parameter sqrt(hbar omega^2 / (2 M Lambda c^2))."""
    if omega_gamma <= 0 or mass <= 0 or lambda_i <= 0:
        raise ValueError("omega, mass and secular frequency must be positive")
    return np.sqrt(HBAR * omega_gamma**2 / (2.0 * mass * lambda_i * C_LIGHT**2))


@dataclass(frozen=True)
class LambDicke:
    eta_x: float
    eta_y: float
    eta_z: float

    @classmethod
    def from_trap(cls, trap: TrapSpec, omega_gamma, mass):
        return cls(lamb_dicke(omega_gamma, mass, trap.lambda_x),
                   lamb_dicke(omega_gamma, mass, trap.lambda_y),
                   lamb_dicke(omega_gamma, mass, trap.lambda_z))

    @property
    def axisymmetric(self):
        return self.eta_x == self.eta_y
