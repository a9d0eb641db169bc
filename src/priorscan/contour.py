"""Polar search for Hellinger epsilon-contours in the hyperparameter plane.

The contour of points at Hellinger distance ``epsilon`` from a base prior
is traced in scaled polar coordinates. A pre-exploration step first solves
the four cardinal directions on the unscaled plane; the resulting moduli
become per-quadrant scaling factors ``c_x(phi)``, ``c_y(phi)`` so that the
contour is close to the unit circle in scaled coordinates. Each direction
is then a one-dimensional root-finding problem in ``z = log r``:

    H(base, base + exp(z) * (cos(phi) c_x, sin(phi) c_y)) = epsilon.

All directions are solved together as array operations. Along a step ``r u``, ``u``
in ``(gamma1, log gamma2)`` (second entry relative to ``gamma2``),
``H^2 = r^2 Q / 8 + r^3 T / 16 + O(r^4)``, ``Q = u' I u`` with ``I`` the base prior's
Fisher information and ``T`` its cubic form (:func:`.families.cubic_form`). So each
bracket opens at ``z0 = log(epsilon sqrt(8 / Q)) - s``, ``s = epsilon sqrt(8 / Q) T /
(4 Q)`` clipped to [-1, 1] (0 where not finite), about ``s^2 / 4`` from the root, with
half-width ``min(0.01 + 4 epsilon, 1e-5 + max(16 epsilon^2, s^2))``, ``s^2`` the
largest over all directions. It widens geometrically within the family domain and
within ``+-20`` of ``log sqrt(8 / Q)``, so any base reaches epsilon down to about
``exp(-20)``. Anderson-Bjorck regula falsi on ``f(z) = log(H / epsilon)``, nearly
linear in ``z`` (where the Illinois step overshoots to the mirror point), then takes
1 step for ``epsilon <= 1e-3`` and 2 for ``epsilon <= 1e-2``. A direction stops once
``|H - epsilon| <= 1e-10 epsilon``, once both bracket ends give the same or adjacent
floats in each coordinate, or once the bracket is narrower than ``1e-14 + 4 eps |z|``.
Of all points evaluated in the bracket, the one with the smallest defect
``|H - epsilon|`` is returned. The log-radius keeps the problem well conditioned
across the many orders of magnitude separating axis scales (for diffuse priors the
two cardinal moduli can differ by a factor of 1e4 and more).

The contour depends on the base prior, ``epsilon`` and ``n_angles`` alone, never on
a model or posterior, so a process traces each one once. The search is deterministic
and gives bitwise-identical grids for identical inputs; on that guarantee
:func:`compute_grid` keeps each successful trace, read-only, in a least-recently-used
cache of at most ``2**16`` directions (about 2 MB) and hands it to later calls with
the same inputs.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ContourUnreachableError, DomainError, PartialGridError
from .families import cubic_form, fisher_information, hellinger_closed_form
from .params import Family, PriorSpec, check_epsilon

# Acceptable defect |H - epsilon| relative to epsilon for a solved point.
RESIDUAL_RTOL = 1e-4

# Search window for z = log r: +-_Z_MAX around the log radius of unit Fisher distance.
_Z_MAX = 20.0
# A direction is solved once |H - epsilon| <= _F_RTOL * epsilon, or once its
# bracket is narrower than _Z_XTOL + _Z_RTOL * |z|.
_F_RTOL = 1e-10
_Z_XTOL = 1e-14
_Z_RTOL = 4.0 * np.finfo(float).eps

# Cardinal directions in _preexplore order: angle, unit step (ux, uy).
_CARDINAL_PHI = np.array([0.0, math.pi / 2.0, math.pi, -math.pi / 2.0])
_CARDINAL_UX = np.array([1.0, 0.0, -1.0, 0.0])
_CARDINAL_UY = np.array([0.0, 1.0, 0.0, -1.0])

# Traced contours by (base, epsilon, n_angles), least recently used first, holding at
# most _CACHE_ANGLES directions in all: 2 MB of GRID_DTYPE rows
_CACHE_ANGLES = 2**16
_cache: dict[tuple, tuple] = {}
_cache_lock = threading.Lock()


@dataclass(frozen=True)
class CardinalModuli:
    """Unscaled contour moduli along the four cardinal directions.

    ``plus_x`` is the modulus toward increasing gamma1 (angle 0),
    ``plus_y`` toward increasing gamma2 (angle pi/2), ``minus_x`` toward
    decreasing gamma1 (angle pi) and ``minus_y`` toward decreasing gamma2
    (angle -pi/2).
    """

    plus_x: float
    plus_y: float
    minus_x: float
    minus_y: float


# A column of hyperparameter points, and one solved contour direction per row of a grid
POINT_DTYPE = np.dtype([("gamma1", float), ("gamma2", float)])
GRID_DTYPE = np.dtype([("phi", float), ("point", POINT_DTYPE), ("residual", float)])


@dataclass(frozen=True, eq=False)
class PolarGrid:
    """An epsilon-contour sampled over equidistant angles.

    ``points`` is a record array of the solved directions in increasing-angle
    order, one row each: the angle ``phi``, the contour ``point`` (fields
    ``gamma1`` and ``gamma2``) and the defect ``residual = |H - epsilon|``.
    Columns read as arrays (``points.point.gamma1``), rows as records
    (``points[0].phi``). ``points`` is read-only: every grid traced from the
    same inputs in a process shares it.
    """

    base: PriorSpec
    epsilon: float
    points: np.recarray
    cardinal: CardinalModuli
    failed_angles: tuple[float, ...] = ()

    @property
    def n_angles(self) -> int:
        return len(self.points) + len(self.failed_angles)


def _seed(base: PriorSpec, epsilon: float, ux: np.ndarray, uy: np.ndarray):
    """Log radius ``z_unit`` of unit Fisher distance along each direction ``(ux, uy)``, and
    the ``shift`` of the module docstring's seed; both forms take ``u`` scaled by its
    larger entry, so neither can over- or underflow."""
    g1, g2 = base.point.gamma1, base.point.gamma2
    i11, i12, i22 = fisher_information(base.family, g1, g2)
    s = np.maximum(np.abs(ux), np.abs(uy / g2))
    wx, wy = ux / s, uy / g2 / s
    q = i11 * wx * wx + 2.0 * i12 * wx * wy + i22 * wy * wy
    shift = epsilon * np.sqrt(8.0 / q) * cubic_form(base.family, g1, g2, wx, wy) / (4.0 * q)
    shift = np.where(np.isfinite(shift), np.clip(shift, -1.0, 1.0), 0.0)
    return 0.5 * np.log(8.0 / q) - np.log(s), shift


# inf and NaN from rates or precisions near the ends of the float range mark unreachable directions
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _radii(
    base: PriorSpec, epsilon: float, ux: np.ndarray, uy: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Solve H(r) = epsilon along every direction ``(ux, uy)`` at once.

    Works on f(z) = log(H / epsilon), z = log r, with the third-order seeded
    brackets and the stop rules of the module docstring. Returns the radius and
    the defect ``|H - epsilon|`` at the returned point, both NaN for directions
    that could not be bracketed (the contour is unreachable there).
    """
    g1, g2 = base.point.gamma1, base.point.gamma2

    def point(z, i):
        r = np.exp(z)
        return g1 + r * ux[i], g2 + r * uy[i]

    def f(z, i):
        x, y = point(z, i)
        h = hellinger_closed_form(base.family, g1, g2, x, y)
        # a non-finite point lies outside the domain: f = NaN neither widens nor brackets
        h = np.where(np.isfinite(x) & np.isfinite(y), h, np.nan)
        return np.log(h / epsilon), np.abs(h - epsilon)

    # largest radius keeping each offset point inside the family domain and finite
    big = np.finfo(float).max
    cap = np.minimum((big - abs(g1)) / np.abs(ux), (big - g2) / np.abs(uy))
    down = uy < 0.0
    cap[down] = g2 / -uy[down]
    if base.family is Family.GAMMA:
        left = ux < 0.0
        cap[left] = np.minimum(cap[left], g1 / -ux[left])
    z_unit, shift = _seed(base, epsilon, ux, uy)
    # stay strictly inside the domain when the cap is finite
    z_top = np.minimum(z_unit + _Z_MAX, np.log(cap) + math.log1p(-1e-12))
    z_floor = z_unit - _Z_MAX
    step = min(0.01 + 4.0 * epsilon, 1e-5 + max(16.0 * epsilon**2, float(np.max(shift**2))))
    z0 = np.clip(z_unit + math.log(epsilon) - shift, z_floor + step, z_top - step)
    z_lo, z_hi = z0 - step, z0 + step
    while True:
        # both bracket ends in one closed-form call
        fs, ds = f(np.concatenate((z_lo, z_hi)), np.tile(np.arange(ux.size), 2))
        (f_lo, f_hi), (d_lo, d_hi) = fs.reshape(2, -1), ds.reshape(2, -1)
        widen_lo = (f_lo > 0.0) & (z_lo > z_floor)
        widen_hi = (f_hi < 0.0) & (z_hi < z_top)
        if not (widen_lo.any() or widen_hi.any()):
            break
        # a widened end moves out by a doubling step; its old place bounds the other side
        step *= 2.0
        z_lo, z_hi = (
            np.where(widen_lo, np.maximum(z_lo - step, z_floor), np.where(widen_hi, z_hi, z_lo)),
            np.where(widen_hi, np.minimum(z_hi + step, z_top), np.where(widen_lo, z_lo, z_hi)),
        )

    bracketed = (f_lo < 0.0) & (f_hi > 0.0)
    use_lo = d_lo <= d_hi
    z_best = np.where(use_lo, z_lo, z_hi)
    d_best = np.where(use_lo, d_lo, d_hi)
    # Anderson-Bjorck regula falsi on the open directions, as compressed arrays; side is
    # +1 (-1) where the last step moved the upper (lower) end
    idx = np.flatnonzero(bracketed & (d_best > _F_RTOL * epsilon))
    lo, hi, f_lo, f_hi, side = z_lo[idx], z_hi[idx], f_lo[idx], f_hi[idx], np.zeros(idx.size)
    while idx.size:
        z = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        # an end with H = 0 (f = -inf) or rounding can put the step on an end
        z = np.where((lo < z) & (z < hi), z, 0.5 * (lo + hi))
        fz, dz = f(z, idx)
        up = fz >= 0.0
        # when the same end moves twice running, scale the other end's f by m >= 1/2
        m = 1.0 - fz / np.where(up, f_hi, f_lo)  # 1 - f_new / f_old of the moving end
        m = np.where(m > 0.5, m, 0.5)  # NaN (f_new = f_old = -inf) gives 1/2 too
        f_lo = np.where(up, np.where(side > 0.0, m * f_lo, f_lo), fz)
        f_hi = np.where(up, fz, np.where(side < 0.0, m * f_hi, f_hi))
        lo, hi, side = np.where(up, lo, z), np.where(up, z, hi), np.where(up, 1.0, -1.0)
        # near the root rounding noise can exceed the tolerance: keep the best point
        better = dz < d_best[idx]
        z_best[idx[better]], d_best[idx[better]] = z[better], dz[better]
        # done once both ends give the same or adjacent floats in each coordinate:
        # then the spacing of representable points, not the solver, bounds the defect
        (x0, y0), (x1, y1) = point(lo, idx), point(hi, idx)
        keep = (d_best[idx] > _F_RTOL * epsilon) & (hi - lo > _Z_XTOL + _Z_RTOL * np.abs(z))
        keep &= (np.nextafter(x0, x1) != x1) | (np.nextafter(y0, y1) != y1)
        idx, lo, hi, f_lo, f_hi, side = (a[keep] for a in (idx, lo, hi, f_lo, f_hi, side))

    r = np.where(bracketed, np.exp(z_best), math.nan)
    return r, np.where(bracketed, d_best, math.nan)


def _preexplore(base: PriorSpec, epsilon: float) -> CardinalModuli:
    """Solve the four cardinal directions on the unscaled plane, the first step
    of :func:`compute_grid`.

    Returns the moduli r*(0), r*(pi/2), r*(pi), r*(-pi/2) used as scaling
    factors by the full polar search.
    """
    r, _ = _radii(base, epsilon, _CARDINAL_UX, _CARDINAL_UY)
    failed = np.flatnonzero(np.isnan(r))
    if failed.size:
        phi = float(_CARDINAL_PHI[failed[0]])
        raise ContourUnreachableError(
            phi,
            f"no Hellinger-{epsilon} point along angle {phi:.6f} within log-radius "
            f"+-{_Z_MAX:.1f} of the unit Fisher radius inside the family domain",
        )
    return CardinalModuli(*r.tolist())


def scaling_factors(phi: float | np.ndarray, moduli: CardinalModuli):
    """Piecewise-constant axis scalings for angle ``phi`` in [-pi, pi].

    ``c_x`` is the +x modulus on the closed interval [-pi/2, pi/2] and the
    -x modulus elsewhere; ``c_y`` is the +y modulus on the closed interval
    [0, pi] and the -y modulus elsewhere. At the boundary angles the first
    (closed) interval wins; the choice is immaterial because the affected
    coordinate carries a vanishing cos/sin factor there. Both scalings are
    arrays of the shape of ``phi`` (0-d for a scalar).
    """
    phi = np.asarray(phi, dtype=float)
    if not np.all((-math.pi <= phi) & (phi <= math.pi)):
        raise DomainError(f"angle must lie in [-pi, pi], got {phi!r}")
    cx = np.where((-math.pi / 2.0 <= phi) & (phi <= math.pi / 2.0), moduli.plus_x, moduli.minus_x)
    cy = np.where((0.0 <= phi) & (phi <= math.pi), moduli.plus_y, moduli.minus_y)
    return cx, cy


def _solve_radii(
    base: PriorSpec, epsilon: float, phi: np.ndarray, cx: np.ndarray, cy: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Contour points ``(gamma1, gamma2)`` and defects for every angle of ``phi``.

    The defect is NaN where the direction could not be bracketed.
    """
    ux = np.cos(phi) * cx
    uy = np.sin(phi) * cy
    r, residual = _radii(base, epsilon, ux, uy)
    return base.point.gamma1 + r * ux, base.point.gamma2 + r * uy, residual


def _trace(base: PriorSpec, epsilon: float, n_angles: int):
    """Read-only points, cardinal moduli and failed angles of the contour over
    ``n_angles`` directions, traced on the first call with these inputs.

    Raises :class:`ContourUnreachableError` (never cached) where the pre-exploration
    fails. A new trace evicts the least recently used ones until its directions fit the
    budget; a trace larger than the whole budget is returned but not kept.
    """
    key = (base, epsilon, n_angles)
    with _cache_lock:
        entry = _cache.pop(key, None)
        if entry is not None:
            _cache[key] = entry  # now the most recently used
            return entry
    cardinal = _preexplore(base, epsilon)
    phis = -math.pi + 2.0 * math.pi * np.arange(n_angles) / n_angles
    cx, cy = scaling_factors(phis, cardinal)
    gamma1, gamma2, residual = _solve_radii(base, epsilon, phis, cx, cy)
    solved = residual <= epsilon * RESIDUAL_RTOL
    points = np.empty(np.count_nonzero(solved), GRID_DTYPE)  # filled as a plain ndarray
    points["phi"], points["residual"] = phis[solved], residual[solved]
    points["point"]["gamma1"], points["point"]["gamma2"] = gamma1[solved], gamma2[solved]
    points.setflags(write=False)  # shared by every later call with this key
    entry = (points.view(np.recarray), cardinal, tuple(phis[~solved].tolist()))
    with _cache_lock:
        _cache.pop(key, None)
        held = sum(k[2] for k in _cache)
        while _cache and held + n_angles > _CACHE_ANGLES:
            oldest = next(iter(_cache))
            del _cache[oldest]
            held -= oldest[2]
        if n_angles <= _CACHE_ANGLES:
            _cache[key] = entry
    return entry


def compute_grid(
    base: PriorSpec,
    epsilon: float,
    n_angles: int = 400,
    allow_partial: bool = False,
) -> PolarGrid:
    """Trace the epsilon-contour over ``n_angles`` equidistant directions.

    Angles run over [-pi, pi) as ``-pi + 2 pi k / n_angles`` so that no
    direction is duplicated and, for the default 400, the cardinal
    directions land exactly on grid angles. A direction fails if it
    cannot be bracketed or its defect exceeds ``RESIDUAL_RTOL * epsilon``.
    With ``allow_partial`` the grid is returned with failed directions
    recorded in ``failed_angles`` instead of raising
    :class:`PartialGridError`.

    All directions are solved in one batch of array operations; the
    search is deterministic, so identical inputs produce bitwise
    identical grids, reported in increasing-angle order. A process traces
    each (``base``, ``epsilon``, ``n_angles``) once, within a budget of
    ``2**16`` cached directions, and later calls share that trace: the
    returned ``points`` are read-only.

    Each direction is searched within a factor ``exp(+-20)`` of the radius
    of unit Fisher distance, so every base reaches ``epsilon`` down to about
    ``exp(-20) = 2e-9``, and ``epsilon = 1e-12`` is unreachable. So is a normal
    base whose mean step is below float resolution: ``(1, 1e150)`` (a step of
    about 1e-77) or ``(1e300, 1)`` (about 0.01 against a float spacing of 1e284).
    """
    check_epsilon(epsilon)
    if n_angles < 8:
        raise DomainError(f"n_angles must be at least 8, got {n_angles}")
    points, cardinal, failed = _trace(base, epsilon, n_angles)
    if failed and not allow_partial:
        raise PartialGridError(failed)
    return PolarGrid(
        base=base,
        epsilon=epsilon,
        points=points,
        cardinal=cardinal,
        failed_angles=failed,
    )
