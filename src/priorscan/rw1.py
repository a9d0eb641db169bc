"""Exact posterior machinery for a conjugate first-order random-walk model.

Observations ``y`` of length ``n`` follow ``y | x, tau ~ N(x, (kappa I)^-1)`` with a
latent first-order random walk ``x``: an intrinsic Gaussian field of rank ``n - 1`` with
smoothing precision ``tau`` and structure matrix ``R`` (tridiagonal: 2 on the interior
diagonal, 1 at the two corners, -1 off the diagonal). With a gamma ``(alpha, beta)``
prior on ``tau`` the latent field integrates out in closed form and the marginal
posterior of ``tau`` is

    pi(tau | y) ~ tau^(alpha + (n-1)/2 - 1) exp(-beta tau + S(log tau)),
    S(u) = -log|Q|/2 + kappa^2 y' Q^-1 y / 2,   Q = e^u R + kappa I.

``R`` has eigenvalues ``2 - 2 cos(pi (i - 1) / n)``, ``i = 1..n``, so the quadratic form
in ``S`` is one sum over the spectrum and ``log|Q|`` has a closed form (a ratio of
hyperbolic sines). The quadratic form's constant part ``kappa |y|^2 / 2`` only scales
the density and is left out of ``S``. ``S`` is evaluated
on one dyadic log-tau lattice, at the nodes each scan or level uses; only a scan keeps its
quadratic form, to add the nodes it skipped, so a sweep's bits depend only on the model and
its priors. The model's own prior is the base of every sweep and tabulation, and its log
density is summed and tabulated about a node near its peak, so the rounding of ``a u`` and
``b e^u`` stays out of it. The base and the contour points of a sweep are integrated on that
lattice in one array pass, on one window that also holds each midpoint's posterior: a prior's
log density is the base's plus the tilt ``t = da u - db e^u``, so one scan of the base, with
the extremes of the tilts and a bound between nodes, finds every node where some prior is
within ``exp(-60)`` of its peak. The scan evaluates S only where a
closed-form bound lets the base come within ``exp(-80)`` of its peak, and the rest only for a
sweep that reaches them, so every window is a full scan's. What depends on the base alone is
kept on the model: its scans, per scan range, and its side of the pass, per window (per
level: nodes, log density, weights and sums), so an epsilon sweep on one model pays for the
base once per window and runs only its tilts. With ``E0`` the expectation under the base
posterior and ``e = expm1(t/2)``,

    1 - BC^2 = Var0(e) / E0[e^t] = (E0[e^2] - E0[e]^2) / (1 + 2 E0[e] + E0[e^2])

gives the exact Hellinger distance without differences of O(100) log normalizing
constants, and without a float64 floor at small distances (``t`` is centred, so
``E0[e]^2`` stays far below ``E0[e^2]``). The sums are matrix-vector products; only a
direction whose ``t/2`` reaches 0.5 on some node takes a form in the log weights, with
pairwise sums. This module is the exact oracle the reweighting engine is validated
against, and shares no code with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .contour import compute_grid
from .errors import DomainError, IngestionError, NumericalError
from .grids import DensityGrid, PosteriorInput, Scale, normalize_grid, read_columns
from .params import DEFAULT_PRIOR, Family, ParamPoint, PriorSpec, validate_point
from .sensitivity import SensitivityResult, assemble_result

# Log-tau lattice: level L holds u = k * _LATTICE_STEP / 2^L and every level below it;
# windows end on level-0 nodes.
_LATTICE_STEP = 0.5
_WINDOW_DROP = 60.0  # exp(-60) ~ 9e-27 relative tail cut for quadrature
_TABLE_DROP = 28.0  # exp(-28) < 1e-12 relative boundary for tabulation
_TABLE_POINTS = 16  # tabulated points within exp(-_TABLE_DROP) of the peak a posterior needs
_SCAN_LIMIT = 300.0
_SCREEN_DROP = 80.0  # the scan evaluates S where its bound is within exp(-80) of the peak
_SCAN_WIDEN = 100  # level-0 nodes (50 on the log-tau axis) added per widening
_MAX_LEVEL = 16
_REL_TOL = 1e-11  # trapezoid sums settle to this fraction of the integral of |f|
# Cells per block of the (priors x nodes) products: 120 kB temporaries stay in cache and
# under malloc's 128 kB mmap threshold, so no page faults.
_BLOCK_CELLS = 15 << 10
# Cells per block of the (tau values x eigenvalues) reciprocals, in one buffer per call. For
# 516 x 8004 (2 vCPUs, median of 15) the quadratic form took 9.8 ms at 15k cells, 7.0 at
# 2^15, 6.5 at 2^16 and 2^17, and 8.4 at 2^18.
_SPECTRAL_CELLS = 1 << 16


@dataclass(frozen=True, eq=False)
class RW1Model:
    """Data, noise precision and smoothing prior of the random-walk model; frozen, as the
    spectral data built from ``y`` and ``kappa`` is kept on it: the eigenvalues ``_eig`` of R,
    ``lambda_k = 2 - 2 cos(pi k / n)`` for ``k = 0 .. n-1`` (nondecreasing, the first exactly
    zero: the rank deficiency of the intrinsic field), ``_yhat2_eig`` (``yhat_k^2
    lambda_k``, :func:`_dct2`), and what the exact engine computes from S for ``prior`` alone,
    the base of every sweep and tabulation: its scans of the level-0 nodes, one per scan range
    (``_scans``, :func:`_scan`), and its side of the lattice pass, one per window, level by level
    (``_passes``, :func:`_lattice_pass`). So an epsilon sweep on one model pays for its base once
    per window. The lattice pass does not keep S (:func:`_s_terms`). Models compare by identity."""

    y: np.ndarray
    kappa: float
    prior: ParamPoint = DEFAULT_PRIOR
    _eig: np.ndarray = field(init=False, repr=False)
    _yhat2_eig: np.ndarray = field(init=False, repr=False)
    _scans: dict = field(init=False, repr=False, default_factory=dict)
    _passes: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        y = np.array(self.y, dtype=float)
        if y.ndim != 1 or y.size < 2:
            raise DomainError("y must be a 1-d array with at least 2 observations")
        if not np.all(np.isfinite(y)):
            raise DomainError("y must be finite")
        if not (math.isfinite(self.kappa) and self.kappa > 0.0):
            raise DomainError(f"kappa must be positive, got {self.kappa!r}")
        if math.isinf(self.kappa * self.kappa):  # the model's kappa^2 y' Q^-1 y / 2
            raise DomainError(f"kappa must have a finite square (up to about 1.34e154), got {self.kappa!r}")
        validate_point(Family.GAMMA, self.prior)
        eig = 2.0 - 2.0 * np.cos(np.pi * np.arange(y.size) / y.size)
        for name, value in (("y", y), ("_eig", eig), ("_yhat2_eig", _dct2(y) ** 2 * eig)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return int(self.y.size)


def _dct2(y: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-II of ``y``: its coordinates in the eigenbasis of R.

    The free-boundary second-difference matrix is diagonalized by the orthonormal DCT-II
    vectors ``v_k(j) = cos(pi k (2j-1) / (2n))`` (up to normalization), with eigenvalues
    ``2 - 2 cos(pi k / n)``. With ``V`` the FFT of ``y`` reordered even indices up, odd
    down, ``sum_j y_j cos(pi k (2j+1) / (2n))`` is ``Re(exp(-i pi k / (2n)) V_k)``.
    """
    k = np.arange(y.size)
    v = np.fft.fft(np.concatenate((y[::2], y[1::2][::-1]))) * np.exp(-0.5j * np.pi * k / y.size)
    return v.real * np.sqrt(np.where(k == 0, 1.0, 2.0) / y.size)


def _blocks(rows: int, width: int):
    """Row slices of a (rows x width) array that fit one block of cells."""
    step = max(1, _BLOCK_CELLS // width)
    return (slice(lo, min(lo + step, rows)) for lo in range(0, rows, step))


def _quad(model: RW1Model, taus: np.ndarray) -> np.ndarray:
    """The quadratic form of S, ``kappa^2 y' Q^-1 y / 2 - kappa |y|^2 / 2``, at many taus.

    Elimination-based solves lose the ``kappa I`` regularization once ``kappa / tau``
    drops below machine epsilon (the last pivot cancels to zero); the spectral form stays
    accurate for any ``tau >= 0``. As ``kappa^2 / (tau lambda_k + kappa) = kappa - kappa tau
    lambda_k / (tau lambda_k + kappa)`` and ``sum yhat_k^2 = |y|^2``, the quadratic form
    less its constant ``kappa |y|^2 / 2`` is

        -(kappa tau / 2) sum yhat_k^2 lambda_k / (tau lambda_k + kappa),

    which keeps the constant's rounding (it is 2e7 at kappa 1e5 on a 96-month series) out
    of the lattice's convergence test. It is one reciprocal and one matrix-vector product
    per block of tau values.
    """
    taus = np.asarray(taus, dtype=float)
    n, kappa = model.n, model.kappa
    eig, weights = model._eig, model._yhat2_eig
    sums, rows = np.empty(taus.size), max(1, _SPECTRAL_CELLS // n)
    buf = np.empty((min(rows, taus.size), n))
    for lo in range(0, taus.size, rows):
        d = np.multiply.outer(taus[lo : lo + rows], eig, out=buf[: taus.size - lo])
        d += kappa
        sums[lo : lo + rows] = np.reciprocal(d, out=d) @ weights
    return -0.5 * kappa * (taus * sums)


def _log_det(model: RW1Model, taus: np.ndarray) -> np.ndarray:
    """``log det Q`` across many tau values, with no sum over the spectrum.

    ``prod_k (2 cosh(phi) - 2 cos(pi k / n))`` over ``k = 1..n-1`` is the Chebyshev value
    ``sinh(n phi) / sinh(phi)``, so with ``cosh(phi) = 1 + kappa / (2 tau)``

        det Q = tau^(n-1) kappa sinh(n phi) / sinh(phi).

    With ``m = (sqrt(kappa) + sqrt(kappa + 4 tau)) / 2`` one has ``exp(phi) = m^2 / tau``
    and ``1 - exp(-phi) = q = sqrt(kappa) / m``, so

        log det Q = log kappa + 2 (n-1) log m
                    + log(1 - exp(-2 n phi)) - log(q (2 - q)),

    which neither overflows nor cancels the ``(n-1) log tau`` and ``(n-1) phi`` terms of
    the sinh form against each other; ``tau = 0`` gives ``n log kappa``.
    """
    n, kappa, root = model.n, model.kappa, math.sqrt(model.kappa)
    m = 0.5 * (root + np.sqrt(kappa + 4.0 * taus))
    q = root / m
    with np.errstate(divide="ignore"):  # q = 1 at tau = 0: exp(-2 n phi) = 0
        log_ratio = np.log(-np.expm1(2.0 * n * np.log1p(-q))) - np.log(q * (2.0 - q))
    return math.log(kappa) + 2.0 * (n - 1) * np.log(m) + log_ratio


def _s_terms(model: RW1Model, us: np.ndarray) -> np.ndarray:
    """Prior-independent part ``S(u) = -logdet(Q)/2 + quad`` at ``tau = exp(u)``,
    less the constant ``kappa |y|^2 / 2``."""
    taus = np.exp(us)
    return _quad(model, taus) - 0.5 * _log_det(model, taus)


def _log_target(model: RW1Model, us: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Log posterior density at ``u = log tau`` given ``s = S(us)``, under the model's gamma
    prior ``(alpha, beta)``; ``alpha + (n-1)/2`` absorbs the log Jacobian."""
    alpha, beta = model.prior.as_tuple()
    return (alpha + (model.n - 1) / 2.0) * us - beta * np.exp(us) + s


def _base_log_density(model: RW1Model, us: np.ndarray, centre=None):
    """The model's prior's log posterior density at ``us`` less its value at a node ``uc``, and the
    centre ``(uc, S(uc))``; by default ``uc`` is the node of ``us`` where the density peaks.

    ``a (u - uc) - b e^uc expm1(u - uc) + (S(u) - S(uc))`` keeps the rounding of ``a u`` and
    ``b e^u`` out of the density near ``uc``: at prior (1.5e6, 1.5e4) on a 96-month series they
    are 6.8e6 and 1.35e6, and their difference holds about 1e-9 nats of rounding per node, more
    than the lattice's convergence test admits. :func:`_log_target` at ``(uc, S(uc))`` gives the
    value taken off.
    """
    s, (alpha, beta) = _s_terms(model, us), model.prior.as_tuple()
    if centre is None:
        j = np.argmax(_log_target(model, us, s))
        centre = us[j], s[j]
    uc, sc = centre
    du = us - uc
    return (alpha + (model.n - 1) / 2.0) * du - beta * math.exp(uc) * np.expm1(du) + (s - sc), centre


def _scan(model: RW1Model, lo: int, hi: int, quad=None):
    """The model's prior's side of the level-0 scan ``lo .. hi`` (:func:`_windows`): its log
    density less its peak, the margins ``W``, ``e^u``, ``u`` and ``e^u`` less theirs at the peak,
    and the quadratic form ``quad`` of S (:func:`_quad`), NaN on the nodes not evaluated. Given
    ``quad``, it is evaluated where it is NaN.

    Without ``quad``, it is evaluated where ``L - quad = a u - b e^u - log|Q|/2`` (closed form)
    peaks, then only where the log density can come within ``_SCREEN_DROP`` of its value there.
    ``quad <= 0`` is nonincreasing in ``u``, and so is ``-quad / tau = (kappa / 2) sum yhat^2
    lambda / (tau lambda + kappa)``. So between evaluated nodes ``l < u < r``, ``quad(u)`` lies
    in ``[max(quad(r), quad(l) e^(u-l)), min(quad(l), quad(r) e^(u-r))]``, and never below
    ``-kappa |y|^2 / 2``. On every node the log density is ``L - quad`` plus the upper bound of
    ``quad`` (on an evaluated node, ``quad`` itself), and the intervals of a skipped node hold the
    bound of ``W``, so a window that reaches no skipped node is a full scan's.
    """
    h = _LATTICE_STEP
    ext = np.arange(lo - 1, hi + 2) * h
    us, e_ext = ext[1:-1], np.exp(ext)
    ld, eu = _log_det(model, e_ext), e_ext[1:-1]
    floor = -0.5 * model.kappa * (model.y @ model.y)
    with np.errstate(over="ignore", invalid="ignore"):
        free = _log_target(model, us, -0.5 * ld[1:-1])  # L - quad >= L
        if quad is not None:
            todo = np.isnan(quad)
        elif np.all(np.isfinite(free)) and math.isfinite(floor):
            quad, k = np.full(us.size, np.nan), int(np.argmax(free))
            q = quad[k] = _quad(model, eu[k : k + 1])[0]  # quad at u_k bounds it on either side, as below
            todo = free + np.where(us < us[k], q * np.exp(us - us[k]), q) > free[k] + q - _SCREEN_DROP
            todo[k] = False
        else:  # no bound: a full scan
            quad, todo = np.full(us.size, np.nan), np.full(us.size, True)
        known, i = todo | ~np.isnan(quad), np.arange(us.size)
        quad[todo] = _quad(model, eu[todo])
        left = np.maximum.accumulate(np.where(known, i, 0))
        right = np.minimum.accumulate(np.where(known, i, us.size - 1)[::-1])[::-1]
        q_l, q_r = np.where(known[left], quad[left], np.nan), np.where(known[right], quad[right], np.nan)
        q_hi = np.fmin(q_l, np.fmin(q_r * np.exp(us - us[right]), 0.0))
        q_lo = np.fmax(np.fmax(q_r, q_l * np.exp(us - us[left])), floor)
        q_hi[known], q_lo[known] = quad[known], quad[known]
        g = free + q_hi
    if not np.all(np.isfinite(g)):
        if not known.all():  # as a full scan would, name the first such node
            return _scan(model, lo, hi, quad)
        bad = float(us[np.argmin(np.isfinite(g))])
        raise NumericalError(f"non-finite posterior integrand at log tau = {bad!r}")
    top = int(np.argmax(np.where(known, g, -np.inf)))
    step = (ld[1:] - ld[:-1]) / (2.0 * h)  # W on each interval, as in _windows:
    w = np.maximum(step[2:] - step[:-2] + q_hi[:-1] - q_lo[1:], 1e-300) / (1.0 - math.exp(-h))
    return g - g[top], w, eu, us - us[top], eu - eu[top], quad


def _windows(model: RW1Model, points, drop: float) -> tuple[int, int]:
    """Level-0 window ends holding, each within ``drop`` of its peak, the posteriors of
    the model's prior (the anchor), of the ``points`` and of their midpoints with it.

    Relative to the anchor's at its peak node ``u0``, a prior's log density on the scanned
    nodes is at most the anchor's plus ``da (u - u0) - db (e^u - e^u0)`` at the signed
    extremes of ``(da, db)``. Intervals where that bound, carried between nodes, reaches
    ``-drop`` are flagged. If one lies past the anchor's own window (its nodes above
    ``-drop`` and one more a side), each prior's own values on the flagged nodes give its
    bound and best node, and the window is the hull of the intervals within ``drop`` of one.
    The scan (``u`` in [-50, 50]) widens by 50 a side while a prior is within ``drop`` at its
    edge: past ``+-_SCAN_LIMIT`` one whose best node is that edge has escaped, and past
    twice that one does not decay. Flagged nodes that reach one the scan skipped (:func:`_scan`)
    have it evaluate the rest, once per scan range.

    Between nodes ``h`` apart ``L = a u - b e^u + S`` stays below its chord plus ``(b e^u +
    W) d (h - d) / 2`` with ``-S'' <= W``: per eigenvalue, ``-S''`` has the term ``s (1-s) (1/2
    + c (1 - 2s)) <= s (1-s) (1/2 + c)``, ``s = tau lambda / (tau lambda + kappa)`` and ``c =
    kappa yhat^2 / 2``, which moves by at most a factor ``e^|du|``. So ``W`` is the rise of
    ``log|Q|'/2`` (at most its next mean slope less its last) plus the fall of ``quad`` over
    the interval, divided by ``1 - e^-h``.
    """
    def bound(v, j0, j1, rate):  # on the intervals of nodes j0 .. j1 - 1, of densities <= v there
        m = (w[j0 : j1 - 1] + rate * eu[j0 + 1 : j1]) * (h * h / 8.0)  # the margin at mid-interval
        t = np.maximum(2.0 * m - 0.5 * np.abs(np.diff(v)), 0.0)  # chord + margin peaks at
        return np.maximum(v[..., :-1], v[..., 1:]) + t * t / (4.0 * m)  # max(v) + (2m - |dv|/2)^2 / 4m

    anchor, points = np.array(model.prior.as_tuple()), np.reshape(np.asarray(points, dtype=float), (-1, 2))
    d = np.ascontiguousarray(points.T) - anchor[:, None]  # the extremes include the anchor's 0
    (da_lo, db_lo), (da_hi, db_hi), h = d.min(axis=1, initial=0.0), d.max(axis=1, initial=0.0), _LATTICE_STEP
    lo, hi, limit = -_SCAN_WIDEN, _SCAN_WIDEN, _SCAN_LIMIT / h
    while True:
        if (scan := model._scans.get((lo, hi))) is None:  # the anchor's side, kept per scan range
            scan = model._scans[lo, hi] = _scan(model, lo, hi)
        g, w, eu, du, de, quad = scan
        own = np.flatnonzero(g > -drop)[[0, -1]] + [-1, 1]  # the anchor's own window
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            v = g + np.where(du < 0, da_lo * du - db_hi * de, da_hi * du - db_lo * de)
            flagged = ~(bound(v, 0, g.size, anchor[1] + db_hi) <= -drop)  # NaN: an overflow
            j0, j1 = np.flatnonzero(flagged)[[0, -1]] + [0, 2]  # the flagged nodes' span
            if np.isnan(quad[j0:j1]).any():  # a node the scan skipped: evaluate them all
                model._scans[lo, hi] = _scan(model, lo, hi, quad.copy())
                continue
            if j0 == own[0] and j1 - 1 == own[1]:
                return lo + int(j0), lo + int(j1) - 1
            priors = np.vstack([anchor, points, 0.5 * (anchor + points)])  # the priors errors name
            p = g[j0:j1] + (priors - anchor) @ np.vstack([du[j0:j1], -de[j0:j1]])
            hot = bound(p, j0, j1, priors[:, 1:]) > p.max(axis=1, keepdims=True) - drop  # NaN: not hot
        edges = hot[:, [0, -1]] & [j0 == 0, j1 == g.size]
        if not edges.any():
            first, last = np.flatnonzero(hot.any(axis=0))[[0, -1]] + j0
            return lo + int(first), lo + int(last) + 1
        lo, hi = lo - _SCAN_WIDEN * int(edges[:, 0].any()), hi + _SCAN_WIDEN * int(edges[:, 1].any())
        if max(-lo, hi) > limit:
            escaped = (edges & np.equal.outer(p.argmax(axis=1), [0, j1 - j0 - 1])).any(axis=1)
            a, b = priors[np.argmax(escaped if escaped.any() else edges.any(axis=1))]
            if escaped.any() or max(-lo, hi) > 2 * limit:
                raise NumericalError(f"posterior mode for prior ({a}, {b}) escaped the log-tau scan range "
                                     f"[{-_SCAN_LIMIT}, {_SCAN_LIMIT}]" if escaped.any() else
                                     f"posterior tail for prior ({a}, {b}) does not decay on the log-tau axis")


def _anchor_level(model: RW1Model, lo: int, hi: int, level: int, every: int, centre=None):
    """The model's prior's side of every ``every``-th node of ``level`` in the window ``lo .. hi``
    (level ``L`` holds ``u = k * _LATTICE_STEP / 2^L``): with ``every`` 1 the level's whole
    trapezoid grid, with 2 the odd nodes it adds to the level below. Nodes, log density less its
    value at the ``centre`` node (by default the best of these nodes; :func:`_base_log_density`),
    trapezoid weights, their products ``base``, the sum of ``base``, the stats ``(u, e^u, 1)`` and
    the centre."""
    us = np.arange((lo << level) + every - 1, (hi << level) + 1, every) * (_LATTICE_STEP / 2**level)
    log_w, centre = _base_log_density(model, us, centre)
    weights = np.full(us.size, _LATTICE_STEP / 2**level)
    if every == 1:
        weights[[0, -1]] *= 0.5
    base = weights * np.exp(log_w)
    return us, log_w, weights, base, base.sum(), np.vstack([us, np.exp(us), np.ones(us.size)]), centre


def _lattice_pass(model: RW1Model, points):
    """The posterior Hellinger distance from the model's gamma prior (the anchor) to each point,
    from one quadrature on the shared lattice.

    With ``t`` the log ratio of a point's posterior kernel to the anchor's less a constant
    (its mean under the anchor's posterior, or its peak less 600 where that is larger) and
    ``e = expm1(t/2)``, the sums give ``x = E[e]`` and ``y = E[e^2]`` under the anchor's
    posterior, and ``E[exp(t)] = 1 + 2x + y``. The integrands are analytic and cut at
    ``exp(-_WINDOW_DROP)`` (:func:`_windows`, where the midpoints set the window too), so
    trapezoid sums converge geometrically. They start from the trapezoid grid of the level
    before the first with 64 intervals, whose nodes give each point's peak and its tilt's mean;
    then each finer level's odd nodes are added until no sum changes by more than ``_REL_TOL``
    times the integral of its absolute value. The distance needs no normalizing constant:
    ``1 - BC^2 = (y - x^2) / (1 + 2x + y)``. Only the tilts' side runs per call: the anchor's is
    kept on the model per window, level by level (:func:`_anchor_level`).
    """
    anchor, points = np.array(model.prior.as_tuple()), np.asarray(points, dtype=float).reshape(-1, 2)
    n_pts = len(points)
    lo, hi = _windows(model, points, _WINDOW_DROP)
    tilt = ((points - anchor) * [1.0, -1.0]).T  # one column per point: t = (u, e^u) @ (da, -db)

    def sums(us, log_w, weights, base, total, stats, _):
        # sums of f and |f|; rows: 1, then exp(log_w) * e, then * e^2, with e = expm1(t/2)
        out = np.empty((2, 1 + 2 * n_pts))
        out[:, 0] = total
        rows_e, rows_sq = out[:, 1 : 1 + n_pts], out[:, 1 + n_pts :]
        for block in _blocks(n_pts, us.size):  # t / 2 = half_tilt @ stats
            half = half_tilt[block] @ stats
            near = half.max() < 0.5
            e = np.expm1(half if near else np.minimum(half, 0.5))
            rows_sq[:, block] = (e * e) @ base  # matrix-vector products for every row, as base >= 0
            rows_e[:, block] = e @ base, np.abs(e, out=e) @ base
            if near:
                continue
            # the far rows again (NaN: far): log_w + t <= ~600, so these forms cannot overflow
            # where log_w underflows; pairwise sums as for the base's, so a row of -base sums
            # to exactly minus the base's
            far_rows = np.flatnonzero(~(half.max(axis=1) < 0.5))
            half = half[far_rows]
            e, far = np.expm1(np.minimum(half, 0.5)), np.flatnonzero(half >= 0.5)
            cells = far % us.size
            w, lw, b, half = weights[cells], log_w[cells], base[cells], half.ravel()[far]
            a, sq, e = w * np.exp(lw + half), e * e * base, e * base
            e.ravel()[far], sq.ravel()[far] = a - b, w * np.exp(lw + 2.0 * half) - 2.0 * a + b
            for dst, p in ((rows_e, e), (rows_sq, sq)):
                dst[:, block.start + far_rows] = p.sum(axis=1), np.abs(p, out=p).sum(axis=1)
        return out

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # checks name the node or prior
        first = max(1, math.ceil(math.log2(64 / (hi - lo))))  # first level with >= 64 intervals
        if (levels := model._passes.get((lo, hi))) is None:  # the anchor's side, kept per window
            levels = model._passes[lo, hi] = {first - 1: _anchor_level(model, lo, hi, first - 1, 1)}
        us, log_w, _, base, total, stats, centre = coarse = levels[first - 1]
        reach = np.abs(tilt).max(axis=1, initial=0.0) @ (stats[:2, -1] - stats[:2, 0])  # >= any tilt's span
        rows = np.flatnonzero(log_w >= -reach)  # the nodes where a column's maximum can lie
        g = stats[:2, rows].T @ tilt + log_w[rows, None]  # nodes x points
        top = g.max(axis=0)  # a maximum down each column is fast, along each short row slow
        if not np.all(np.isfinite(top)):  # NaN or +inf; -inf is a density of 0
            bad = float(us[rows[np.argmin((g < np.inf).all(axis=1))]])
            raise NumericalError(f"non-finite posterior integrand at log tau = {bad!r}")
        # t: each tilt less its mean (no rounding floor), or less its peak - 600 (no overflow)
        shift = np.maximum(base @ stats[:2].T @ tilt / total, top - 600.0)
        half_tilt = np.column_stack([0.5 * tilt.T, -0.5 * shift])
        trap = sums(*coarse)
        for level in range(first, _MAX_LEVEL + 1):
            if level not in levels:
                levels[level] = _anchor_level(model, lo, hi, level, 2, centre)
            finer = 0.5 * trap + sums(*levels[level])
            # x = E0[e] and y = E0[e^2], so E0[e^t] = 1 + 2x + y, which must be positive and finite
            x, y = finer[0, 1 : 1 + n_pts] / finer[0, 0], finer[0, 1 + n_pts :] / finer[0, 0]
            m = 1.0 + 2.0 * x + y
            bad = ~np.isfinite(finer).all(axis=0)
            bad[1 + n_pts :] |= ~((m > 0.0) & (m < np.inf))
            if bad.any():
                a, b = np.vstack([anchor, points, points])[np.argmax(bad)]  # each column's prior
                raise NumericalError(f"quadrature for prior ({a}, {b}) is not finite")
            converged = np.abs(finer[0] - trap[0]) <= _REL_TOL * finer[1]
            if converged.all():
                # 1 - BC^2 = (y - x^2) / E0[e^t], and 1 - BC = (1 - BC^2) / (1 + BC)
                v = np.clip((y - x * x) / m, 0.0, 1.0)
                return np.sqrt(v / (1.0 + np.sqrt(1.0 - v)))
            trap = finer
    a, b = np.vstack([anchor, points, points])[np.argmin(converged)]
    raise NumericalError(f"quadrature for prior ({a}, {b}) did not converge to {_REL_TOL} "
                         f"within {_MAX_LEVEL} refinement levels")


def tabulate_posterior(model: RW1Model, n_points: int = 2001) -> PosteriorInput:
    """Tabulate the exact posterior of ``log tau`` for the reweighting engine.

    ``n_points`` equispaced points span the window where the density stays above 1e-12
    of its peak, paired with the model's gamma base prior and the log-parameter flag. The
    window spans at least one level-0 interval, so a posterior with fewer than
    ``_TABLE_POINTS`` points above that cut (a spacing wider than about one posterior sd) is
    refused: on a 96-month series, reweighting such tables put worst cases 1.1e-6 (15
    points) to 0.34 (3 points) relative off.
    """
    if n_points < 8:
        raise DomainError("tabulation needs at least 8 points")
    prior = model.prior.as_tuple()
    us = np.linspace(*np.multiply(_windows(model, (), _TABLE_DROP), _LATTICE_STEP), n_points)
    g = _base_log_density(model, us)[0]
    g -= g.max()
    if (inside := np.count_nonzero(g > -_TABLE_DROP)) < _TABLE_POINTS:
        raise NumericalError(f"posterior for prior {prior} is too narrow for a {n_points}-point tabulation: "
                             f"{inside} points lie within exp(-{_TABLE_DROP:g}) of its peak, "
                             f"fewer than {_TABLE_POINTS}")
    grid = normalize_grid(DensityGrid(us, np.exp(g), Scale.LOG_PARAMETER))
    return PosteriorInput(grid, PriorSpec(Family.GAMMA, model.prior), Scale.LOG_PARAMETER)


def exact_sensitivity(model: RW1Model, epsilon: float, n_angles: int = 400,
                      allow_partial: bool = False) -> SensitivityResult:
    """Circular sensitivity with exact posterior distances on every direction.

    All directions of the epsilon-contour around ``model.prior`` share one lattice pass
    anchored at the base posterior. The contour does not depend on the model: a process
    traces it once per (prior, ``epsilon``, ``n_angles``) (:func:`.compute_grid`).
    """
    base = PriorSpec(Family.GAMMA, model.prior)
    grid = compute_grid(base, epsilon, n_angles=n_angles, allow_partial=allow_partial)
    priors = grid.points.view(np.ndarray)["point"].view((float, 2))  # (gamma1, gamma2) rows
    return assemble_result(grid, _lattice_pass(model, priors))


def ingest_timeseries(path, window: str | None = None, kappa: float | None = None,
                      prior: ParamPoint = DEFAULT_PRIOR) -> RW1Model:
    """Build an :class:`RW1Model` from a CSV of monthly counts.

    The CSV needs a header row and either a single count column or ``date,count``
    columns. Rows are assumed to start in January and the series must cover whole
    years. Processing order: the window (``full`` or ``last96``) is applied to the raw
    counts first, then counts are square-root transformed, seasonality is removed by
    subtracting per-calendar-month means, and the residuals are centered. ``kappa``
    defaults to ``1 / variance`` of the residuals.
    """
    path = Path(path)
    counts = read_columns(path, (-1,), "count")[0]
    if np.any(~np.isfinite(counts)) or np.any(counts <= 0.0):
        raise IngestionError(f"{path}: counts must be finite and positive")
    if window == "last96":
        if counts.size < 96:
            raise IngestionError(f"{path}: series of length {counts.size} has no last-96 window")
        counts = counts[-96:]
    elif window not in (None, "full"):
        raise IngestionError(f"unknown window {window!r}; expected 'full' or 'last96'")
    if counts.size % 12 != 0:
        raise IngestionError(f"{path}: length {counts.size} does not divide into whole years of monthly data")
    if counts.size < 24:
        raise IngestionError(f"{path}: need at least two years of monthly data")

    roots = np.sqrt(counts)
    residuals = roots - np.tile([roots[m::12].mean() for m in range(12)], counts.size // 12)
    residuals -= residuals.mean()
    variance = float(residuals.var(ddof=1))
    if variance == 0.0:
        raise IngestionError(f"{path}: residuals are constant; the noise precision is undefined")
    return RW1Model(y=residuals, kappa=1.0 / variance if kappa is None else kappa, prior=prior)
