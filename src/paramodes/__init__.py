"""Vectorial eigenmodes of a parabolic mirror and trapped-ion emission rates.

The package evaluates mirror eigenmodes from their angular spectra on the
Fourier sphere, computes real-space fields by oscillatory quadrature, and
sums per-mode spontaneous-emission contributions for a harmonically trapped
ion in its motional ground state.  All geometry is handled in dimensionless
c/omega units; rates are reported relative to the free-space rate.
"""

from .core import (
    ModeParams,
    IonSpec,
    TrapSpec,
    DipoleSpec,
    to_dimensionless,
    from_dimensionless,
    circular_components,
)
from .spectrum import hertz_component, mode_spectrum, sigma_profile
from .fieldeval import (
    field_at_point,
    field_2d_oracle,
    localization_plane,
    stationary_phase_angle,
    stationary_phase_field,
    intensity_map,
    isointensity_grid,
)
from .trap import (
    LambDicke,
    lamb_dicke,
    form_factor,
    azimuthal_pair_integral,
    bessel_weight_profile,
)
from .rates import (
    ModeCatalog,
    RateResult,
    build_catalog,
    calibrate,
    mode_contribution,
    total_rate,
    rate_scan,
    mode_table,
    gamma0,
)
from .presets import load_preset, preset_names

__version__ = "0.1.0"
