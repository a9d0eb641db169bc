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
contour at once. With ``E0`` the expectation under the base posterior on
the kept support points, ``T~ = T - E0[T]`` and the centred log-MGF
``L(d) = log E0[exp(d . T~)]``, the Bhattacharyya coefficient of a tilt
``d`` has ``log BC = L(d/2) - L(d)/2``. ``L`` is entire in ``d``, so a
sweep of many directions takes it from a tensor Chebyshev interpolant on
the box of their tilts (Trefethen, *Approximation Theory and Approximation
Practice*, SIAM 2013): degree 8, 16 or 32 per axis on second-kind points,
until the last two coefficient rows and columns fall below
``_COEF_RTOL`` of the largest. The node values factor by axis,

    E0[exp(x + y)] - 1 = E0[expm1(x)] + E0[expm1(y)] + E0[expm1(x) expm1(y)],

so a node set costs ``2 (N + 1)`` rows of ``expm1`` and one matrix product
per block of support points, not ``(N + 1)^2`` rows. Where the tilts stay
small the node values come from the mixed moments of ``T~`` as a power
series instead, and the interpolant is of ``L`` less its quadratic part,
which is added back exactly, so no rounding of ``L`` reaches a small
distance.

Rows, the direct kernel, take the directions the interpolant cannot:
every direction of a sweep below ``_INTERPOLATE_FROM`` directions, of a
sweep with a non-finite tilt, of a sweep whose interpolant does not settle
or fails a check of five directions by rows; a direction whose tilt
spreads so far over the support that its posterior could be degenerate,
so that the warning counts stay exact; and one whose distance is so small
against the interpolant's error that rows are the more accurate. A block
of directions at a time shares one reused (directions x support points)
buffer. With ``u = exp(d . T~ / 2)`` at the kept points the moved posterior
is ``p0 u^2`` up to scale, so ``BC = E0[u] / sqrt(E0[u^2])`` and ``1 - BC^2
= Var0(u) / E0[u^2]``, the variance a sum of squares with nothing to
cancel. A row whose tilt ``x = d . T~ / 2`` stays within +-1/2 holds
``expm1(x)`` in its cells, any other ``exp(x - max x)``: one exponential
per cell either way. Both kernels give ``1 - BC`` between the kept-point
posteriors, and with ``r`` the square root of the kept share of the base
mass ``H^2 = r (1 - BC) + (1 - r)^2 / 2``, accurate for distances far
below sqrt(machine epsilon). NaN marks a direction whose tilt could
overflow: its reweighted posterior has no finite mass.

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
# Sweeps of fewer directions than this run by rows: the interpolant's cost
# hardly depends on the direction count, the rows' grows with it. At 64,
# 128, 192 and 256 directions rows took 2.2, 3.7, 4.6 and 7.0 ms on an
# 8001-point gamma posterior against 2.7 to 3.5 ms for the interpolant,
# 0.8, 1.3, 1.8 and 2.3 ms on 2001 points against 1.7 ms, and 0.4 to 0.7 ms
# on 401 points against 1.2 ms (2 vCPUs, in process, medians of 41).
_INTERPOLATE_FROM = 192
# Chebyshev degrees per axis of the log-MGF interpolant, tried in turn; the
# last two coefficient rows and columns must fall below _COEF_RTOL of the
# largest.
_DEGREES = (8, 16, 32)
_COEF_RTOL = 1e-13
# Largest relative gap between the interpolant and rows on the checked
# directions. On 30 posteriors per family of 2001 and 8001 points, 1600
# directions at eps 1e-6 to 0.5, the gap reached 1.3e-12, the interpolant's
# own error: rows are within 2e-12 of a long-double evaluation.
_CHECK_RTOL = 1e-10
# Total degree of the power series of exp(x + y) taken where |x|, |y| <= 1:
# the first omitted term is at most 2**25 / 25! (about 2e-18).
_SERIES_DEGREE = 24
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


def _tilt_spread(family: Family, t1: np.ndarray, d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """``max - min`` of the log tilt ``d1 T1 + d2 T2`` over the interval of ``T1``.

    ``T2`` is ``-T1**2 / 2`` (normal) or ``-exp(T1)`` (gamma), so the extremes
    lie at the interval's ends or at the one stationary point; the spread over
    the kept support points is at most this.
    """
    lo, hi = float(t1.min()), float(t1.max())
    with np.errstate(divide="ignore", invalid="ignore"):
        if family is Family.NORMAL:
            second, stationary = (lambda t: -0.5 * t * t), d1 / d2
        else:
            second, stationary = (lambda t: -np.exp(t)), np.log(d1 / d2)
    stationary = np.clip(np.nan_to_num(stationary, nan=lo), lo, hi)
    f = np.stack([d1 * t + d2 * second(t) for t in (lo, hi, stationary)])
    return f.max(axis=0) - f.min(axis=0)


def _chebyshev_basis(x: np.ndarray, degree: int) -> np.ndarray:
    """``T_k(x)`` for ``k = 0 .. degree``, one row per ``k``."""
    basis = np.empty((degree + 1, x.size))
    basis[0] = 1.0
    basis[1] = x
    for k in range(2, degree + 1):
        np.multiply(2.0 * x, basis[k - 1], out=basis[k])
        basis[k] -= basis[k - 2]
    return basis


def _dct1(degree: int) -> np.ndarray:
    """The matrix taking values at ``cos(pi j / degree)``, ``j = 0 .. degree``, to
    the coefficients of their Chebyshev interpolant (a DCT-I)."""
    k = np.arange(degree + 1)
    half = np.where((k == 0) | (k == degree), 0.5, 1.0)
    return (2.0 / degree) * half[:, None] * np.cos(np.pi * np.outer(k, k) / degree) * half


def _moments(s: np.ndarray, prob: np.ndarray) -> np.ndarray:
    """``E0[s[0]^j s[1]^k] / (j! k!)`` for ``j, k = 0 .. _SERIES_DEGREE``, ``E0``
    the sum weighted by ``prob``, one block of support points at a time."""
    p = _SERIES_DEGREE + 1
    width = s.shape[1]
    step = max(1, _BLOCK_CELLS // (3 * p))
    buf = np.empty((3, p, min(step, width)))
    buf[:2, 0] = 1.0
    out = np.zeros((p, p))
    for lo in range(0, width, step):
        cols = slice(lo, min(lo + step, width))
        p1, p2, tmp = buf[:, :, : cols.stop - lo]
        for axis, powers in enumerate((p1, p2)):
            powers[1] = s[axis, cols]
            known = 1  # rows 0 .. known hold s^0 .. s^known
            while known < p - 1:
                top = min(2 * known, p - 1)
                np.multiply(powers[1 : top - known + 1], powers[known], out=powers[known + 1 : top + 1])
                known = top
        np.multiply(p1, prob[cols], out=tmp)
        out += tmp @ p2.T
    factorial = np.cumprod(np.r_[1.0, np.arange(1.0, p)])
    return out / np.multiply.outer(factorial, factorial)


def _log1p_minus(v: np.ndarray) -> np.ndarray:
    """``log1p(v) - v`` without cancellation: with ``z = v / (2 + v)``,
    ``log1p(v) = 2 atanh(z)``, and ``atanh(z) - z`` is a power series for
    ``|z| <= 0.1``."""
    z = v / (2.0 + v)
    z2 = z * z
    series = z * z2 * np.polyval(1.0 / np.arange(21.0, 2.0, -2.0), z2)
    with np.errstate(invalid="ignore", divide="ignore"):
        tail = np.where(np.abs(z) <= 0.1, series, np.arctanh(z) - z)
    return 2.0 * tail - v * z


def _remainder_nodes(s: np.ndarray, prob: np.ndarray, moments: np.ndarray, nodes: np.ndarray):
    """``R = L - q`` and ``q`` at the tensor nodes ``(a[i], b[j])``, ``(a, b) = nodes``,
    where ``L(a, b) = log E0[exp(a s[0] + b s[1])]`` for centred statistics
    ``s`` scaled to ``max|s| = 1`` on each axis, ``q`` is its quadratic part
    and ``moments`` are those of :func:`_moments`.

    Where ``|a|, |b| <= 1``, ``E0[exp(x + y)] - 1 = q + W`` with ``W`` the
    series of the moments of total degree 3 to ``_SERIES_DEGREE`` (those of
    degree 1 are zero), and ``R = W + log1p(q + W) - (q + W)``: no rounding of
    ``q`` reaches ``R``. Elsewhere
    ``E0[exp(x + y)] - 1 = E0[expm1(x)] + E0[expm1(y)] + E0[expm1(x) expm1(y)]``:
    each axis needs its own rows of ``expm1`` only, and one matrix product
    per block of support points gives every cross term; ``R = L - q`` there.
    """
    m = nodes.shape[1]
    width = s.shape[1]
    small = np.abs(nodes) <= 1.0
    order = np.add.outer(np.arange(_SERIES_DEGREE + 1), np.arange(_SERIES_DEGREE + 1))
    powers = np.where(small[:, :, None], nodes[:, :, None], 0.0) ** np.arange(_SERIES_DEGREE + 1)
    series = powers[0] @ np.where((order >= 3) & (order <= _SERIES_DEGREE), moments, 0.0) @ powers[1].T
    squares = nodes**2 * [[moments[2, 0]], [moments[0, 2]]]
    quad = np.add.outer(*squares) + np.multiply.outer(*nodes) * moments[1, 1]
    remainder = series + _log1p_minus(quad + series)
    both_small = np.logical_and.outer(*small)
    if both_small.all():
        return remainder, quad
    # rows 0..m-1 of a block: expm1 of one axis; row m: ones
    step = max(1, _BLOCK_CELLS // (3 * (m + 1)))
    buf = np.empty((3, m + 1, min(step, width)))
    buf[:, m] = 1.0
    sums = np.zeros((m + 1, m + 1))  # E0 of products; row and column m: E0[expm1]
    for lo in range(0, width, step):
        cols = slice(lo, min(lo + step, width))
        e1, e2, tmp = buf[:, :, : cols.stop - lo]
        np.expm1(np.multiply.outer(nodes[0], s[0, cols], out=e1[:m]), out=e1[:m])
        np.expm1(np.multiply.outer(nodes[1], s[1, cols], out=e2[:m]), out=e2[:m])
        np.multiply(e1, prob[cols], out=tmp)
        sums += tmp @ e2.T
    linear = np.add.outer(nodes[0] * moments[1, 0], nodes[1] * moments[0, 1])
    with np.errstate(over="ignore", invalid="ignore"):
        direct = np.log1p(np.add.outer(sums[:m, m], sums[m, :m]) + sums[:m, :m] - linear) - quad
    return np.where(both_small, remainder, direct), quad


def _interpolated_distances(stats, prob, d1, d2):
    """``1 - BC`` of the tilts ``(d1[i], d2[i])`` from a tensor Chebyshev
    interpolant of the centred log-MGF ``L`` on their box, and the Hellinger
    distance below which rows are more accurate; None when the box is flat,
    a node value is not finite or the interpolant does not settle by
    degree 32.

    ``stats`` and ``prob`` are those of :func:`_row_sweep`. Between the
    kept-point posteriors ``log BC = L(d/2) - L(d)/2``. The interpolant is
    of ``R = L - q``, ``q`` the quadratic part of ``L``, which is added back
    exactly: ``log BC = R(d/2) - R(d)/2 - q(d)/4``.
    """
    # d1 s1 + d2 s2 = (d1 + c d2) s1 + d2 (s2 - c s1): with c the regression
    # slope of s2 on s1 the axes are uncorrelated, so no corner of the box
    # of tilts adds both axes' moves of L, and q is a sum of two squares
    first = stats[0] * prob
    shear = (first @ stats[1]) / (first @ stats[0])
    stats = np.stack([stats[0], stats[1] - shear * stats[0]])
    reach = np.maximum(stats.max(axis=1), -stats.min(axis=1))
    stats /= reach[:, None]
    tilts = np.stack([(d1 + shear * d2) * reach[0], d2 * reach[1]])
    lo = np.minimum(0.0, tilts.min(axis=1))
    hi = np.maximum(0.0, tilts.max(axis=1))
    if not np.all(hi > lo):
        return None
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    moments = _moments(stats, prob)
    for degree in _DEGREES:
        nodes = mid[:, None] + half[:, None] * np.cos(np.pi * np.arange(degree + 1) / degree)
        values, quad = _remainder_nodes(stats, prob, moments, nodes)
        if not np.all(np.isfinite(values)):
            return None
        dct = _dct1(degree)
        coef = dct @ values @ dct.T
        tail = max(np.abs(coef[-2:]).max(), np.abs(coef[:, -2:]).max())
        if tail <= _COEF_RTOL * max(np.abs(coef).max(), np.abs(quad).max()):
            break
    else:
        return None
    n = d1.size
    x, y = (np.concatenate([tilts, 0.5 * tilts], axis=1) - mid[:, None]) / half[:, None]
    remainder = np.empty(2 * n)
    step = max(1, _BLOCK_CELLS // (3 * (degree + 1)))
    for start in range(0, 2 * n, step):
        part = slice(start, start + step)
        basis = coef.T @ _chebyshev_basis(x[part], degree)
        remainder[part] = np.vecdot(basis, _chebyshev_basis(y[part], degree), axis=0)
    a, b = tilts
    quad_d = a * a * moments[2, 0] + a * b * moments[1, 1] + b * b * moments[0, 2]
    log_bc = remainder[n:] - 0.5 * remainder[:n] - 0.25 * quad_d
    # The interpolant's absolute error in H^2 is some ulps of max |R|, so its
    # relative error grows on the least-moved directions: against long
    # double (400 directions on each of 80 posteriors at eps 0.05 to 0.5) it
    # reached 3.6e-12 where H^2 < 1e-3 max |R| and 1.6e-12 elsewhere, and
    # without this cut 2.9e-10 against rows on a 1600-direction normal
    # sweep at eps 0.5. Rows, whose variance form has no such floor, take those.
    return -np.expm1(log_bc), math.sqrt(1e-3 * np.abs(values).max())


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
    rows = (stats, prob, density, 2.0 * (math.sqrt(2.0 * prob.max()) + math.sqrt(rho)))
    h = np.empty(d1.size)
    by_rows = np.ones(d1.size, dtype=bool)
    if d1.size >= _INTERPOLATE_FROM and np.all(np.isfinite(d1)) and np.all(np.isfinite(d2)):
        # A row whose log tilt spreads by s over the kept support keeps every
        # point whose base density is above exp(s) DEGENERATE_GUARD of the
        # base peak above the guard. Below the limit that holds for the peak
        # and its two neighbours among the kept points (any three would do),
        # with a margin of 1 for rounding, so the row is not degenerate.
        peak = int(density.argmax())
        near = density[max(0, min(peak - 1, density.size - 3)) :][:3]
        limit = math.log(near.min() / density[peak] / DEGENERATE_GUARD) - 1.0 if near.size == 3 else -math.inf
        smooth = np.flatnonzero(_tilt_spread(inp.base_prior.family, t1, d1, d2) < limit)
        if smooth.size >= _INTERPOLATE_FROM:
            found = _interpolated_distances(stats, prob, d1[smooth], d2[smooth])
            if found is not None:
                defect, floor = found
                h_smooth = _hellinger(defect, root)
                # check the extreme tilts on either axis and the largest distance by rows
                d1s, d2s = d1[smooth], d2[smooth]
                check = [d1s.argmin(), d1s.argmax(), d2s.argmin(), d2s.argmax(), h_smooth.argmax()]
                h_rows = _hellinger(_row_sweep(d1s[check], d2s[check], *rows)[0], root)
                if np.all(np.abs(h_smooth[check] - h_rows) <= _CHECK_RTOL * h_rows):
                    h[smooth] = h_smooth
                    by_rows[smooth] = h_smooth < floor
    occupied = np.full(d1.size, t1.size, dtype=np.int64)
    if by_rows.any():
        defect, occupied[by_rows] = _row_sweep(d1[by_rows], d2[by_rows], *rows)
        h[by_rows] = _hellinger(defect, root)
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
