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

Many priors are handled at once: the log weights of a block of directions
form one (directions x support points) array, and the Hellinger distance
to the base posterior is taken in the cancellation-free form
``H^2 = 1/2 * integral of (sqrt(p_new) - sqrt(p_base))^2`` over normalized
grids, which stays accurate for distances far below sqrt(machine epsilon).

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

from .errors import DegeneratePosteriorWarning, DomainError, ReweightingError
from .families import Family, PriorSpec
from .grids import DensityGrid, Scale, normalize_grid, trapezoid_mass

TAIL_GUARD = 1e-15
DEGENERATE_GUARD = 1e-12
_LOG_PRIOR_FLOOR = math.log(1e-300)
_LOG_2PI = math.log(2.0 * math.pi)
# Cells (directions x kept support points) per block of a reweighting
# sweep: each block temporary stays at 512 kB, cache-sized, however wide
# the sweep is.
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


def _check_family(inp: PosteriorInput, new_prior: PriorSpec) -> None:
    if new_prior.family is not inp.base_prior.family:
        raise DomainError(
            f"cannot reweight a {inp.base_prior.family.value} posterior with a "
            f"{new_prior.family.value} prior"
        )


def _tilt(base: PriorSpec, gamma1, gamma2) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients ``(d1, d2)`` of the log prior ratio in ``(T1, T2)``."""
    g1, g2 = base.point.as_tuple()
    gamma1 = np.asarray(gamma1, dtype=float)
    gamma2 = np.asarray(gamma2, dtype=float)
    if base.family is Family.NORMAL:
        return gamma2 * (gamma1 - g1), gamma2 - g2
    return gamma1 - g1, gamma2 - g2


def _warn_if_degenerate(occupied: np.ndarray) -> None:
    few = occupied < 3
    if few.any():
        warnings.warn(
            f"reweighted posterior mass concentrates on {int(occupied.min())} support "
            f"point(s) in {int(few.sum())} of {occupied.size} direction(s); "
            "the tabulation no longer resolves the density",
            DegeneratePosteriorWarning,
            stacklevel=3,
        )


def reweight_posterior(inp: PosteriorInput, new_prior: PriorSpec) -> DensityGrid:
    """Posterior under ``new_prior`` obtained by prior-ratio reweighting.

    ``new_prior`` must belong to the same family as the base prior. The
    returned grid lives on the same support and scale as the input and is
    normalized. Emits :class:`DegeneratePosteriorWarning` if fewer than 3
    support points retain non-negligible mass.
    """
    _check_family(inp, new_prior)
    grid = inp.posterior
    keep, t1, t2 = _kept_statistics(inp)
    d1, d2 = _tilt(inp.base_prior, new_prior.point.gamma1, new_prior.point.gamma2)
    log_w = np.log(grid.values[keep]) + d1 * t1 + d2 * t2
    shift = log_w.max()
    if not np.isfinite(shift):
        raise ReweightingError(_NO_FINITE_MASS)
    out = np.zeros_like(grid.values)
    out[keep] = np.exp(log_w - shift)

    result = normalize_grid(DensityGrid(grid.support, out, grid.scale))
    occupied = np.count_nonzero(result.values > DEGENERATE_GUARD * result.values.max())
    _warn_if_degenerate(np.array([occupied]))
    return result


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
    root_base = np.sqrt(grid.values[keep] / float(weights @ grid.values))
    weights = weights[keep]
    # half log weights, so one exp yields the square root of the density
    half_stats = 0.5 * np.stack([t1, t2])
    half_log_post = 0.5 * np.log(grid.values[keep])

    n = d1.size
    h = np.empty(n)
    occupied = np.empty(n, dtype=np.int64)
    step = max(1, _BLOCK_CELLS // int(keep.sum()))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for lo in range(0, n, step):
            block = slice(lo, lo + step)
            root = np.stack([d1[block], d2[block]], axis=1) @ half_stats
            root += half_log_post
            shift = root.max(axis=1)
            root -= shift[:, None]
            np.exp(root, out=root)  # square root of the unnormalized density, peak 1
            density = root * root
            occupied[block] = np.count_nonzero(density > DEGENERATE_GUARD, axis=1)
            root /= np.sqrt(density @ weights)[:, None]
            root -= root_base
            np.square(root, out=root)
            h2 = np.clip(0.5 * (root @ weights), 0.0, 1.0)
            h[block] = np.where(np.isfinite(shift), np.sqrt(h2), math.nan)
    _warn_if_degenerate(occupied)
    return h

