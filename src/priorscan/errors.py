"""Exception and warning types shared across the package."""


class PriorScanError(Exception):
    """Base class for all package-specific errors."""


class DomainError(PriorScanError, ValueError):
    """A parameter, support point, or grid violates its domain contract."""


class IngestionError(PriorScanError, ValueError):
    """External input (CSV, config) is malformed or inconsistent."""


class ContourUnreachableError(PriorScanError, RuntimeError):
    """No contour point exists along a direction within the search range."""

    def __init__(self, phi: float, message: str = ""):
        self.phi = phi
        super().__init__(message or f"contour unreachable along angle {phi!r}")


class PartialGridError(PriorScanError, RuntimeError):
    """One or more directions of a contour grid failed to solve.

    Carries the failed angles so callers can decide whether to proceed
    with the surviving directions.
    """

    def __init__(self, failed_angles):
        self.failed_angles = tuple(failed_angles)
        super().__init__(
            f"{len(self.failed_angles)} of the requested contour angles failed: "
            f"{list(self.failed_angles)[:8]}{'...' if len(self.failed_angles) > 8 else ''}"
        )


class ReweightingError(PriorScanError, RuntimeError):
    """Posterior reweighting is numerically unstable for the given inputs."""


class NumericalError(PriorScanError, RuntimeError):
    """A numerical routine failed to converge or produced a non-finite value."""


class DegeneratePosteriorWarning(UserWarning):
    """A reweighted posterior concentrated its mass on fewer than 3 support points."""


class SaturatedCalibrationWarning(UserWarning):
    """A Hellinger distance is numerically indistinguishable from 1."""
