"""Instantaneous posterior updates under a perturbed prior.

Given a tabulated marginal posterior obtained under a base prior, the
posterior under a nearby prior is proportional to

    posterior_new(theta) ~ posterior_base(theta) * prior_new(theta) / prior_base(theta),

which requires no refit of the underlying model. Both prior families are
exponential families, so the log prior ratio is a linear tilt

    log prior_new - log prior_base = d1 * T1(theta) + d2 * T2(theta) + const

in the sufficient statistics ``T = (log theta, -theta)`` for gamma (``d`` is
the shape and rate difference) and ``T = (u, -u^2 / 2)``, ``u = theta - mu0``,
for normal (``d = (lam1 (mu1 - mu0), lam1 - lam0)``, centred on the base
mean). The constant is removed by normalization, and on log-parameter
grids the Jacobian cancels, so neither is evaluated. The update is made in
log space with a max-shift before exponentiation.

:func:`circular_sensitivity` moves the posterior to every direction of a
contour at once, a block of directions at a time in one reused (directions
x support points) buffer. The trapezoid weight ``w`` and the base
posterior join the statistics as a third row, and ones as a
fourth whose coefficient is minus a per-direction upper bound on the row's
max: the sum of each term's largest value, from the extremes of the
statistics (a row whose bound is over 100 above its value at the base peak
takes its exact max). So one matrix product gives ``log sqrt(w * p_new)``
up to a constant, shifted, and one ``exp`` per cell its square root up to
scale, at most 1. The squared norm of a row is the normalizer ``Z``; after
scaling by ``1 / sqrt(Z)`` and subtracting ``sqrt(w * p_base)``, a second
row dot product gives the cancellation-free ``H^2 = 1/2 * sum of w *
(sqrt(p_new) - sqrt(p_base))^2``, accurate for distances far below
sqrt(machine epsilon). Each cell costs one ``exp`` and five cheap passes.

Two guards keep the ratio trustworthy:

* support points whose base posterior value is below 1e-15 of the peak
  are zeroed, because the posterior/prior ratio is pure noise there and
  a perturbed prior tail can otherwise amplify it without bound;
* if the base prior underflows (below 1e-300) at a point that still
  carries posterior mass, the update is refused outright.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .contour import PolarGrid
from .errors import DegeneratePosteriorWarning, DomainError, ReweightingError
from .families import Family, PriorSpec
from .grids import DensityGrid, Scale, trapezoid_mass
from .sensitivity import SensitivityResult, assemble_result

TAIL_GUARD = 1e-15
DEGENERATE_GUARD = 1e-12
_LOG_PRIOR_FLOOR = math.log(1e-300)
_LOG_2PI = math.log(2.0 * math.pi)
# Cells (directions x kept support points) per block of a reweighting
# sweep. The one block buffer stays at 512 kB, cache-sized, however wide
# the sweep is; at 2**14 to 2**18 cells a 1600 x 8001 sweep took 61, 48,
# 43, 45 and 55 ms (2 vCPUs), so the size is kept.
_BLOCK_CELLS = 1 << 16
_NO_FINITE_MASS = "reweighted posterior has no finite mass"


@dataclass(frozen=True)
class PosteriorInput:
    """A normalized marginal posterior tied to the prior it was computed under.

    ``parametrization`` declares whether the grid support holds the
    parameter itself or its logarithm, and must match ``posterior.scale``.
    """

    posterior: DensityGrid
    base_prior: PriorSpec
    parametrization: Scale = Scale.NATURAL

    def __post_init__(self):
        if self.posterior.scale is not self.parametrization:
            raise DomainError(
                f"grid scale {self.posterior.scale} does not match "
                f"parametrization {self.parametrization}"
            )
        if (
            self.base_prior.family is Family.GAMMA
            and self.parametrization is Scale.NATURAL
            and self.posterior.support[0] <= 0.0
        ):
            raise DomainError("gamma posterior support must be positive on the natural scale")
        if self.base_prior.family is Family.NORMAL and self.parametrization is Scale.LOG_PARAMETER:
            raise DomainError("log-parameter grids are undefined for normal priors")
        mass = trapezoid_mass(self.posterior)
        if abs(mass - 1.0) > 1e-6:
            raise DomainError(
                f"posterior grid mass {mass!r} is not normalized; apply normalize_grid first"
            )


def _kept_statistics(inp: PosteriorInput) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mask of kept support points and the tilt statistics ``T1``, ``T2`` there.

    Raises :class:`ReweightingError` if the base prior underflows at a kept
    point.
    """
    values = inp.posterior.values
    keep = values >= TAIL_GUARD * values.max()
    x = inp.posterior.support[keep]
    g1, g2 = inp.base_prior.point.as_tuple()
    if inp.base_prior.family is Family.NORMAL:
        t1 = x - g1
        t2 = -0.5 * t1**2
        log_base = 0.5 * (math.log(g2) - _LOG_2PI) + g2 * t2
    else:
        log_scale = inp.parametrization is Scale.LOG_PARAMETER
        t1, t2 = (x, -np.exp(x)) if log_scale else (np.log(x), -x)
        log_base = g1 * math.log(g2) - math.lgamma(g1) + (g1 - 1.0) * t1 + g2 * t2
    if np.any(log_base < _LOG_PRIOR_FLOOR):
        worst = float(x[np.argmin(log_base)])
        raise ReweightingError(
            f"base prior underflows (< 1e-300) at support point {worst!r} "
            "that still carries posterior mass; the prior ratio is not computable"
        )
    return keep, t1, t2


def _tilt(base: PriorSpec, gamma1, gamma2) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients ``(d1, d2)`` of the log prior ratio in ``(T1, T2)``."""
    g1, g2 = base.point.as_tuple()
    gamma1 = np.asarray(gamma1, dtype=float)
    gamma2 = np.asarray(gamma2, dtype=float)
    if base.family is Family.NORMAL:
        return gamma2 * (gamma1 - g1), gamma2 - g2
    return gamma1 - g1, gamma2 - g2


def _warn_if_degenerate(occupied: np.ndarray) -> None:
    """Warn once if any direction keeps mass on fewer than 3 support points,
    naming the caller of :func:`circular_sensitivity`."""
    few = occupied < 3
    if few.any():
        warnings.warn(
            f"reweighted posterior mass concentrates on {int(occupied.min())} support "
            f"point(s) in {int(few.sum())} of {occupied.size} direction(s); "
            "the tabulation no longer resolves the density",
            DegeneratePosteriorWarning,
            stacklevel=4,
        )


def _posterior_distances(inp: PosteriorInput, gamma1, gamma2) -> np.ndarray:
    """Hellinger distances between the base posterior and its reweightings
    to the priors ``(gamma1[i], gamma2[i])`` of the base family.

    Returns NaN for a prior whose reweighted posterior has no finite mass.
    Raises :class:`ReweightingError` if the base prior underflows and
    warns once if any reweighted posterior is degenerate.
    """
    grid = inp.posterior
    keep, t1, t2 = _kept_statistics(inp)
    d1, d2 = _tilt(inp.base_prior, gamma1, gamma2)
    weights = np.convolve(np.diff(grid.support), [0.5, 0.5])  # trapezoidal rule
    # Points below TAIL_GUARD add nothing: the guard zeroes the reweighted
    # density there, but the true difference is negligible there, and
    # counting the base mass would add half of it to H^2.
    w = weights[keep]
    weighted_base = w * grid.values[keep]
    root_base = np.sqrt(weighted_base / float(weights @ grid.values))
    # (d1, d2, 1, -shift) @ stats is log sqrt(w * p_new) up to a row constant
    stats = np.stack([0.5 * t1, 0.5 * t2, 0.5 * np.log(weighted_base), np.ones(t1.size)])
    half_log_w = 0.5 * np.log(w)
    # No cell exceeds its row's peak cell P <= 1, and a cell whose density is
    # at most DEGENERATE_GUARD of its row's peak is at most DEGENERATE_GUARD *
    # P**2 * w / min(w). So a row with fewer than 3 cells above the guard has
    # Z <= P**2 * (2 + DEGENERATE_GUARD * sum(w) / min(w)) <= P**2 * z_bound,
    # where 2 * max(w) / min(w) >= 2 leaves room for rounding in Z.
    z_bound = (2.0 * w.max() + DEGENERATE_GUARD * w.sum()) / w.min()

    n = d1.size
    width = t1.size
    coef = np.ones((n, 4))
    coef[:, 0], coef[:, 1] = d1, d2
    z = np.empty(n)
    h2 = np.empty(n)
    occupied = np.full(n, width, dtype=np.int64)
    step = max(1, _BLOCK_CELLS // width)
    buf = np.empty((min(step, n), width))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        tilt = coef[:, :2]
        shift = np.maximum(tilt * stats[:2].min(1), tilt * stats[:2].max(1)).sum(1) + stats[2].max()
        exact = ~(shift - coef[:, :3] @ stats[:3, np.argmax(stats[2])] <= 100.0)
        coef[:, 3] = np.where(exact, 0.0, -shift)
        for lo in range(0, n, step):
            rows = slice(lo, min(lo + step, n))
            root = buf[: rows.stop - lo]
            np.matmul(coef[rows], stats, out=root)
            loose = np.flatnonzero(exact[rows])
            if loose.size:
                shift[lo + loose] = root[loose].max(axis=1)
                root[loose] -= shift[lo + loose, None]
            np.exp(root, out=root)  # sqrt(w * p_new) up to a row constant, at most 1
            np.vecdot(root, root, out=z[rows])
            # a row with a NaN Z is counted too, and finds no cell above the guard
            few = np.flatnonzero(~(z[rows] > z_bound))
            if few.size:
                few = lo + few[~(z[lo + few] > root[few].max(axis=1) ** 2 * z_bound)]
                half_log_p = coef[few] @ stats - half_log_w
                occupied[few] = np.count_nonzero(
                    np.exp(half_log_p - half_log_p.max(axis=1, keepdims=True)) ** 2
                    > DEGENERATE_GUARD,
                    axis=1,
                )
            root *= (1.0 / np.sqrt(z[rows]))[:, None]
            root -= root_base
            np.vecdot(root, root, out=h2[rows])
    h2 *= 0.5
    np.clip(h2, 0.0, 1.0, out=h2)
    _warn_if_degenerate(occupied)
    return np.where(np.isfinite(shift), np.sqrt(h2), math.nan)


def circular_sensitivity(inp: PosteriorInput, grid: PolarGrid) -> SensitivityResult:
    """Per-direction posterior/prior distance ratios over a contour grid.

    The grid must have been computed around the posterior's own base
    prior. Posterior distances come from prior-ratio reweighting, all
    directions in one batched sweep; grids obtained with ``allow_partial``
    keep their failed angles excluded from the summary statistics.
    """
    if grid.base != inp.base_prior:
        raise DomainError(
            f"contour grid base {grid.base} does not match posterior base {inp.base_prior}"
        )
    points, h = grid.points, np.empty(0)
    if len(points):
        try:
            h = _posterior_distances(inp, points.point.gamma1, points.point.gamma2)
        except ReweightingError as exc:
            # the base prior check does not depend on the direction
            raise ReweightingError(f"angle {points.phi[0]:.6f}: {exc}") from exc
        no_mass = np.flatnonzero(np.isnan(h))
        if no_mass.size:
            raise ReweightingError(f"angle {points.phi[no_mass[0]]:.6f}: {_NO_FINITE_MASS}")
    return assemble_result(grid, h)
