"""Local sensitivity of Bayesian posteriors to prior hyperparameter choice.

The package traces the set of priors at a fixed Hellinger distance epsilon
from a base prior (a contour in the two-parameter hyperplane), reweights a
base posterior to each contour prior without re-fitting, and summarizes the
induced posterior movement as a worst-case sensitivity ratio. A calibration
map translates Hellinger distances into mean shifts of a unit-variance
normal so the numbers have an interpretable scale. For the conjugate
random-walk smoothing model the posterior distances are also available in
closed form, which doubles as an oracle for the reweighting route.
"""

from .calibration import (
    SATURATION_H,
    calibrate,
    calibrated_ratio,
    inverse_calibrate,
)
from .contour import (
    RESIDUAL_RTOL,
    CardinalModuli,
    PolarGrid,
    compute_grid,
)
from .errors import (
    ContourUnreachableError,
    DegeneratePosteriorWarning,
    DomainError,
    IngestionError,
    NumericalError,
    PartialGridError,
    PriorScanError,
    ReweightingError,
    SaturatedCalibrationWarning,
)
from .families import (
    Family,
    ParamPoint,
    PriorSpec,
    hellinger_analytic,
    log_prior_density,
    tabulate_prior,
)
from .grids import (
    DensityGrid,
    Scale,
    normalize_grid,
    read_density_csv,
)
from .reweight import TAIL_GUARD, PosteriorInput, circular_sensitivity
from .rw1 import (
    DEFAULT_PRIOR,
    RW1Model,
    exact_sensitivity,
    ingest_timeseries,
    tabulate_posterior,
)
from .sensitivity import (
    REFERENCE_LEVELS,
    SensitivityResult,
    assemble_result,
    export_plot_data,
    result_to_json_dict,
    summarize,
)

__version__ = "0.1.0"

__all__ = [
    "CardinalModuli",
    "ContourUnreachableError",
    "DEFAULT_PRIOR",
    "DegeneratePosteriorWarning",
    "DensityGrid",
    "DomainError",
    "Family",
    "IngestionError",
    "NumericalError",
    "ParamPoint",
    "PartialGridError",
    "PolarGrid",
    "PosteriorInput",
    "PriorScanError",
    "PriorSpec",
    "REFERENCE_LEVELS",
    "RESIDUAL_RTOL",
    "RW1Model",
    "ReweightingError",
    "SATURATION_H",
    "SaturatedCalibrationWarning",
    "Scale",
    "SensitivityResult",
    "TAIL_GUARD",
    "assemble_result",
    "calibrate",
    "calibrated_ratio",
    "circular_sensitivity",
    "compute_grid",
    "exact_sensitivity",
    "export_plot_data",
    "hellinger_analytic",
    "ingest_timeseries",
    "inverse_calibrate",
    "log_prior_density",
    "normalize_grid",
    "read_density_csv",
    "result_to_json_dict",
    "summarize",
    "tabulate_posterior",
    "tabulate_prior",
]
