"""The pipeline's vocabulary: prior families, hyperparameter points, prior specs and
the epsilon range.

These names need no numpy. The CLI parses and checks its input with them before
any numeric module loads, so ``calibrate`` and input errors run without numpy.
Only :mod:`.errors` is imported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError


class Family(str, Enum):
    NORMAL = "normal"
    GAMMA = "gamma"


@dataclass(frozen=True)
class ParamPoint:
    """A point in the two-dimensional hyperparameter plane."""

    gamma1: float
    gamma2: float

    def as_tuple(self) -> tuple[float, float]:
        return (self.gamma1, self.gamma2)


def validate_point(family: Family, point: ParamPoint) -> None:
    """Raise :class:`DomainError` if ``point`` is outside the family domain."""
    g1, g2 = point.gamma1, point.gamma2
    if not (math.isfinite(g1) and math.isfinite(g2)):
        raise DomainError(f"non-finite parameter point {point}")
    if family is Family.NORMAL:
        if g2 <= 0.0:
            raise DomainError(f"normal precision must be positive, got {g2}")
    elif family is Family.GAMMA:
        if g1 <= 0.0 or g2 <= 0.0:
            raise DomainError(f"gamma shape and rate must be positive, got {point}")


@dataclass(frozen=True)
class PriorSpec:
    """A prior family together with its hyperparameter point."""

    family: Family
    point: ParamPoint

    def __post_init__(self):
        validate_point(self.family, self.point)


# gamma (shape, rate) prior on the smoothing precision of the random-walk model
DEFAULT_PRIOR = ParamPoint(1.0, 0.005)


def check_epsilon(epsilon: float) -> None:
    """Raise :class:`DomainError` unless the contour radius lies in ``(0, 0.5]``."""
    if not (0.0 < epsilon <= 0.5):
        raise DomainError(f"epsilon must lie in (0, 0.5], got {epsilon!r}")
