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
contour at once, by rows: a block of directions at a time shares one reused
(directions x support points) buffer. With ``E0`` the expectation under the
base posterior on the kept support points, ``T~ = T - E0[T]`` and
``u = exp(d . T~ / 2)`` at those points, the moved posterior is ``p0 u^2``
up to scale, so ``BC = E0[u] / sqrt(E0[u^2])`` and ``1 - BC^2 = Var0(u) /
E0[u^2]``, the variance a sum of squares with nothing to cancel. A row whose
tilt ``x = d . T~ / 2`` stays within +-1/2 holds ``expm1(x)`` in its cells,
any other ``exp(x - max x)``: one exponential per cell either way. With
``r`` the square root of the kept share of the base mass ``H^2 = r (1 - BC)
+ (1 - r)^2 / 2``, accurate for distances far below sqrt(machine epsilon).
NaN marks a direction whose tilt could overflow: its reweighted posterior
has no finite mass.

The integrands are smooth and decay inside the kept run, so the trapezoid
rule converges on a fraction of a fine tabulation (Trefethen & Weideman,
SIAM Review 2014). On a contiguous run of at least 64 * 64 intervals the
rows run first on nested strides: every s-th kept point counted back from
the last, and the first, with the sub-grid's own trapezoid weights, s the
coarsest power of two leaving ``_MIN_INTERVALS`` intervals. A direction
whose ``1 - BC`` at s and 2s agree within ``_STRIDE_RTOL`` takes the value
at s; the others are compared again at s/2, and the rest run on the full
grid. The gap grows about 4x per doubling, the second-order signature of
the tail cut, so it bounds the finer value's error while the cut tails stay
negligible. The full grid also takes a direction whose tilt lifts an end of
the run above that tolerance, one with no finite mass, and one whose BC on a
stride is at most the degeneracy limit, so that warning counts stay exact.

Two guards keep the ratio trustworthy:

* support points whose base posterior value is below 1e-15 of the peak
  are zeroed, because the posterior/prior ratio is pure noise there and
  a perturbed prior tail can otherwise amplify it without bound;
* if the base prior underflows (below 1e-300) at a point that still
  carries posterior mass, the update is refused outright.

Its oracle, the exact engine of :mod:`priorscan.rw1`, imports none of it.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .contour import PolarGrid
from .errors import DegeneratePosteriorWarning, DomainError, ReweightingError
from .families import log_prior_density
from .grids import PosteriorInput, Scale
from .params import Family, PriorSpec
from .sensitivity import SensitivityResult, assemble_result

TAIL_GUARD = 1e-15
DEGENERATE_GUARD = 1e-12
_LOG_PRIOR_FLOOR = math.log(1e-300)
# Cells (directions x kept support points) per block of a reweighting
# sweep. The one block buffer stays at 512 kB, cache-sized, however wide
# the sweep is; at 2**14 to 2**18 cells a 1600 x 8001 sweep took 61, 48,
# 43, 45 and 55 ms (2 vCPUs), so the size is kept.
_BLOCK_CELLS = 1 << 16
# Strides start at the coarsest power of two leaving this many intervals (64 on 8001 points).
_MIN_INTERVALS = 64
# Largest relative gap in 1 - BC between two strides for the finer one to be taken:
# the gap is about 3x its error (4x per doubling), so H is within about a sixth of
# it; 7.2e-12 at worst on 20 conjugate 8001-point posteriors (9.6e-12 at 3e-11).
_STRIDE_RTOL = 2e-11
_NO_FINITE_MASS = "reweighted posterior has no finite mass"


def _kept_statistics(inp: PosteriorInput) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mask of kept support points and the tilt statistics ``T1``, ``T2`` there.

    Raises :class:`ReweightingError` if the base prior underflows at a kept
    point.
    """
    values = inp.posterior.values
    keep = values >= TAIL_GUARD * values.max()
    x = inp.posterior.support[keep]
    log_scale = inp.parametrization is Scale.LOG_PARAMETER
    if inp.base_prior.family is Family.NORMAL:
        t1 = x - inp.base_prior.point.gamma1
        t2 = -0.5 * t1**2
    else:
        t1, t2 = (x, -np.exp(x)) if log_scale else (np.log(x), -x)
    # the natural-scale density at theta; on a log grid the density of log theta less
    # its Jacobian term, so that no exp(x) underflows to a theta outside the domain
    log_base = log_prior_density(inp.base_prior, x, inp.parametrization) - (x if log_scale else 0.0)
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


def _row_sweep(d1, d2, stats, prob, density, limit) -> tuple[np.ndarray, np.ndarray]:
    """``1 - BC`` of the tilts ``(d1[i], d2[i])`` one row of cells each, in the
    variance form of the module docstring, and each row's count of support
    points above the degeneracy guard (all of them unless the row could be
    degenerate: ``BC <= limit``). NaN marks a row with no finite mass.

    ``stats`` are the tilt statistics centred under ``prob``, the base
    posterior's probabilities at the kept points, and ``density`` its values
    there. The rows of either branch run in blocks of their own.
    """
    n, width = d1.size, prob.size
    half = 0.5 * np.stack([d1, d2], axis=1)
    with np.errstate(invalid="ignore", over="ignore"):
        reach = np.abs(half) @ np.abs(stats).max(axis=1)  # a bound on max |x|
    defect = np.full(n, math.nan)
    occupied = np.full(n, width, dtype=np.int64)
    step = max(1, _BLOCK_CELLS // width)
    buf = np.empty((min(step, n), width))
    # offset is E0[u] less the mean of the buffer: 1 for e = expm1(x), 0 for
    # u = exp(x - max x). A row whose bound is not finite keeps its NaN.
    wide = (reach > 0.5) & (reach < math.inf)
    for offset, group in ((1.0, np.flatnonzero(reach <= 0.5)), (0.0, np.flatnonzero(wide))):
        for lo in range(0, group.size, step):
            rows = group[lo : lo + step]
            u = buf[: rows.size]
            np.matmul(half[rows], stats, out=u)
            if offset:
                np.expm1(u, out=u)
            else:
                u -= u.max(axis=1, keepdims=True)
                np.exp(u, out=u)
            mean = u @ prob
            u -= mean[:, None]
            np.square(u, out=u)
            var = u @ prob  # Var0(u)
            mean += offset
            second = var + mean**2  # E0[u^2]
            bc = mean / np.sqrt(second)
            # 1 - BC = (1 - BC^2) / (1 + BC), each factor to full relative precision
            defect[rows] = var / second / (1.0 + bc)
            few = rows[bc <= limit]
            if few.size:
                log_p = 2.0 * (half[few] @ stats) + np.log(density)
                log_p -= log_p.max(axis=1, keepdims=True)
                occupied[few] = np.count_nonzero(log_p > math.log(DEGENERATE_GUARD), axis=1)
    return defect, occupied


def _stride_defect(grid, lo: int, hi: int, stats, stride: int, d1, d2, limit: float) -> np.ndarray:
    """``1 - BC`` of the tilts by rows on every ``stride``-th point of the kept run
    ``grid[lo : hi + 1]`` counted back from its last, and its first: the first
    interval takes the remainder, so no point has the same neighbours at two
    strides. The sub-grid has its own trapezoid weights, its ends keeping the full
    grid's half intervals past the run; ``stats`` are the tilt statistics on the run.
    NaN marks a row with no finite mass or a BC at most ``limit``.
    """
    start = hi - (hi - lo - stride) // stride * stride
    pick = np.r_[lo, start : hi + 1 : stride]
    ends = np.r_[max(lo - 1, 0), pick, min(hi + 1, grid.support.size - 1)]
    density = grid.values[pick]
    prob = density * (grid.support[ends[2:]] - grid.support[ends[:-2]])
    prob /= prob.sum()
    sub = stats[:, pick - lo]
    sub = sub - (sub @ prob)[:, None]
    defect = _row_sweep(d1, d2, sub, prob, density, -math.inf)[0]
    return np.where(1.0 - defect > limit, defect, math.nan)


def _hellinger(defect: np.ndarray, root: float) -> np.ndarray:
    """``H = sqrt(root (1 - BC) + (1 - root)^2 / 2)`` from ``defect = 1 - BC``
    between the kept-point posteriors, ``root**2`` the kept share of the base
    mass: the moved posterior has none on the dropped points."""
    return np.sqrt(np.clip(root * defect + 0.5 * (1.0 - root) ** 2, 0.0, 1.0))


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
    density = grid.values[keep]
    weighted = weights[keep] * density
    kept = float(weighted.sum())
    root = math.sqrt(kept / float(weights @ grid.values))
    prob = weighted / kept
    stats = np.stack([t1, t2])
    stats -= (stats @ prob)[:, None]
    # A row with at most two points above the guard puts all but rho of its
    # mass m = prob u**2 / E0[u^2] on them, so by Cauchy-Schwarz on either
    # part BC = sum(sqrt(m prob)) <= sqrt(2 max(prob)) + sqrt(rho), that is
    # E0[u^2] >= (E0[u] / that)^2; rows within twice that are counted.
    spacing = prob / density  # the trapezoid weights over the kept mass
    rho = DEGENERATE_GUARD * spacing.sum() / spacing.min()
    limit = 2.0 * (math.sqrt(2.0 * prob.max()) + math.sqrt(rho))
    h = np.full(d1.size, math.nan)
    occupied = np.full(d1.size, t1.size, dtype=np.int64)
    left = np.arange(d1.size)  # the directions no stride settles
    lo, hi = np.flatnonzero(keep)[[0, -1]]
    widest = (t1.size - 1) // _MIN_INTERVALS  # the largest stride leaving that many intervals
    # Strides 2s, s and s/2 take 3.5/s of the full grid's cells, but short rows cost more
    # per cell: where every stride disagreed they cost 1.10-1.14x the full rows at s = 64,
    # 1.2x at 32 and 1.4x at 16, so grids below s = 64 go straight to rows.
    if widest >= 64 and hi - lo == t1.size - 1:
        stride = 1 << (widest.bit_length() - 1)
        # the gap tracks the strides' error only while the cut tails stay negligible: a tilt
        # lifting an end above _STRIDE_RTOL of the density at the base peak goes to the full grid
        span = stats[:, [0, -1]] - stats[:, [density.argmax()]]
        with np.errstate(invalid="ignore"):  # a NaN tilt counts as lifted
            lift = span.T @ np.stack([d1, d2]) + np.log(density[[0, -1]] / density.max())[:, None]
        left = np.flatnonzero(lift.max(axis=0) <= math.log(_STRIDE_RTOL))
        coarse = _stride_defect(grid, lo, hi, stats, 2 * stride, d1[left], d2[left], limit)
        for step in (stride, stride // 2):
            fine = _stride_defect(grid, lo, hi, stats, step, d1[left], d2[left], limit)
            agree = np.abs(fine - coarse) <= _STRIDE_RTOL * fine
            h[left[agree]] = _hellinger(fine[agree], root)
            left, coarse = left[~agree], fine[~agree]
            if not left.size:
                break
        left = np.flatnonzero(np.isnan(h))
    if left.size:
        defect, occupied[left] = _row_sweep(d1[left], d2[left], stats, prob, density, limit)
        h[left] = _hellinger(defect, root)
    _warn_if_degenerate(occupied)
    return h


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
