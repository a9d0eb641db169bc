"""Calibration of Hellinger distances against a unit-variance normal benchmark.

A Hellinger distance ``h`` between two unit-variance normal densities
corresponds to a unique mean shift

    mu(h) = sqrt(-8 * log(1 - h^2)),

with inverse ``h(mu) = sqrt(1 - exp(-mu^2 / 8))``. Mapping both a prior
perturbation and the induced posterior perturbation through ``mu`` turns
abstract distances into directly comparable mean shifts.

Below about 1.5e-154 the squares ``h^2`` and ``mu^2 / 8`` are no longer normal
floats, and both maps take their leading terms ``mu = sqrt(8) h`` and
``h = mu / sqrt(8)``; the next terms are below 1e-308 relative there.
"""

from __future__ import annotations

import math
import sys
import warnings

from .errors import DomainError, SaturatedCalibrationWarning

# Distances this close to 1 carry no usable magnitude information in
# float64; they are mapped to a finite value but flagged as saturated.
SATURATION_H = 1.0 - 1e-15

_SQRT8 = math.sqrt(8.0)


def _shift(h: float) -> float:
    """``mu(h)`` for ``0 <= h < 1``, without a subnormal ``h * h`` below about 1.5e-154."""
    if h * h < sys.float_info.min:
        return _SQRT8 * abs(h)  # abs: -0.0 maps to 0.0, as the closed form does
    return math.sqrt(-8.0 * math.log1p(-h * h))


def calibrate(h: float) -> float:
    """Mean shift of a unit-variance normal pair at Hellinger distance ``h``.

    Accepts ``0 <= h < 1``; an ``h`` at or beyond 1 would calibrate to an
    infinite shift and raises :class:`DomainError`. Distances within 1e-15
    of 1 emit :class:`SaturatedCalibrationWarning`.
    """
    if not (0.0 <= h < 1.0):
        raise DomainError(f"calibration needs 0 <= h < 1, got {h!r}")
    if h >= SATURATION_H:
        warnings.warn(
            f"Hellinger distance {h!r} is numerically saturated; the "
            "calibrated shift is a lower bound",
            SaturatedCalibrationWarning,
            stacklevel=2,
        )
    return _shift(h)


def inverse_calibrate(mu: float) -> float:
    """Hellinger distance of two unit-variance normals with mean shift ``mu``."""
    if mu < 0.0 or not math.isfinite(mu):
        raise DomainError(f"mean shift must be finite and >= 0, got {mu!r}")
    x = mu * mu / 8.0  # -log(1 - h^2)
    if x < sys.float_info.min:
        return abs(mu) / _SQRT8
    return math.sqrt(-math.expm1(-x))


def calibrated_ratio(h_post: float, epsilon: float) -> tuple[float, float]:
    """Exact and first-order calibrated sensitivity ratios.

    Returns ``(mu(h_post) / mu(epsilon), h_post / epsilon)``. For small
    distances the two agree to ``O(h^2)``, which is why the raw distance
    ratio is a faithful summary in the usual ``epsilon ~ 1e-3`` regime.
    A saturated ``h_post`` (within 1e-15 of 1) is clamped to
    ``SATURATION_H`` without a warning, so the exact ratio is a finite
    lower bound.
    """
    if not (0.0 < epsilon < 1.0):
        raise DomainError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    if not (0.0 <= h_post <= 1.0):
        raise DomainError(f"posterior distance must lie in [0, 1], got {h_post!r}")
    clamped = min(h_post, SATURATION_H)
    exact = _shift(clamped) / calibrate(epsilon)
    return exact, h_post / epsilon
