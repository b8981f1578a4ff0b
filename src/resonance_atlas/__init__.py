"""Resonance counting for radial step potentials in dimension 3.

Angular density functions and the Weyl-type constant, argument-principle
zero location, resonance computation for step wells, and desk-scale checks
of sector-counting and averaged-family asymptotics.
"""

from .contour import (
    ContourBox,
    JensenTestCase,
    jensen_residual,
    locate_zeros,
    sector_jensen_residual,
    winding_count,
)
from .counting import (
    CountReport,
    FamilyExperiment,
    SectorQuery,
    compare_counts,
    count_norm,
    count_sector,
    family_average,
    family_prediction,
    fit_power_law,
    integrated_count,
    predict_sector,
    predict_total,
    radial_bump,
)
from .density import (
    DensityTable,
    QuadratureSpec,
    angular_density,
    angular_density_d3_closed,
    angular_density_deriv,
    angular_density_deriv_at_zero,
    angular_density_tail_bound,
    build_density_table,
    near_axis_coefficient,
    sector_density,
    weyl_constant,
    weyl_constant_2d,
)
from .errors import (
    BoundaryConflictError,
    EvaluationOverflowError,
    NumericalError,
    QuadratureError,
)
from .resonances import (
    RadialStepPotential,
    Resonance,
    ResonanceSet,
    channel_condition,
    channel_matcher_log,
    ell_cutoff,
    find_resonances,
    scattering_log_det,
)
from .special import (
    bessel_phase,
    coth_fixed_point,
    critical_curve_modulus,
    critical_curve_point,
    gamma_real,
)

__version__ = "0.1.0"
