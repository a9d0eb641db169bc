"""Local sensitivity of Bayesian posteriors to prior hyperparameter choice.

The package traces the set of priors at a fixed Hellinger distance epsilon
from a base prior (a contour in the two-parameter hyperplane), reweights a
base posterior to each contour prior without re-fitting, and summarizes the
induced posterior movement as a worst-case sensitivity ratio. A calibration
map translates Hellinger distances into mean shifts of a unit-variance
normal so the numbers have an interpretable scale. For the conjugate
random-walk smoothing model the posterior distances are also available in
closed form, which doubles as an oracle for the reweighting route.

Each name of ``__all__`` is loaded from its module on first use (PEP 562), so
``import priorscan`` loads no numpy, and ``priorscan.calibrate`` none either.
"""

import importlib

__version__ = "0.1.0"

# the module that defines each public name, which loads on the first use of one of them
_EXPORTS = {
    "calibration": ("SATURATION_H", "calibrate", "calibrated_ratio", "inverse_calibrate"),
    "contour": ("RESIDUAL_RTOL", "CardinalModuli", "PolarGrid", "compute_grid"),
    "errors": (
        "ContourUnreachableError",
        "DegeneratePosteriorWarning",
        "DomainError",
        "IngestionError",
        "NumericalError",
        "PartialGridError",
        "PriorScanError",
        "ReweightingError",
        "SaturatedCalibrationWarning",
    ),
    "families": ("log_prior_density", "tabulate_prior"),
    "grids": ("DensityGrid", "PosteriorInput", "Scale", "normalize_grid", "read_density_csv"),
    "params": ("DEFAULT_PRIOR", "Family", "ParamPoint", "PriorSpec"),
    "reweight": ("TAIL_GUARD", "circular_sensitivity"),
    "rw1": ("RW1Model", "exact_sensitivity", "ingest_timeseries", "tabulate_posterior"),
    "sensitivity": (
        "REFERENCE_LEVELS",
        "SensitivityResult",
        "assemble_result",
        "export_plot_data",
        "result_to_json_dict",
        "summarize",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
