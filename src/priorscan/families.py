"""Two-parameter prior families and closed-form Hellinger distances.

Both supported families are parametrized by a point ``(gamma1, gamma2)``:

* ``Family.NORMAL``: mean ``gamma1`` (any real), precision ``gamma2 > 0``.
* ``Family.GAMMA``: shape ``gamma1 > 0``, rate ``gamma2 > 0``.

The Hellinger distance between two members of the same family has a
closed form through the Bhattacharyya coefficient ``BC``:

    H(f0, f1) = sqrt(1 - BC),    BC = integral of sqrt(f0 * f1).

All coefficients are evaluated in log space, ``log BC`` in a difference
form (:func:`_log_bc`) that keeps H accurate however close the points are.
Along a step ``r u``, ``H^2 = r^2 Q / 8 + r^3 T / 16 + O(r^4)``, with ``Q`` the
Fisher form (:func:`fisher_information`) and ``T`` the cubic form (:func:`cubic_form`).
:func:`tabulate_prior` cuts a density where its log falls ``_LOG_DROP = 50``
below the peak (normal: mean +/- 10 sd). Only numpy is imported.

``Family`` and ``PriorSpec`` are defined in :mod:`.params`, which needs no
numpy, and are imported here from there.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .grids import DensityGrid, Scale, normalize_grid
from .params import Family, PriorSpec

_LOG_2PI = math.log(2.0 * math.pi)
# tabulate_prior's window ends where the log density is this far below its peak
_LOG_DROP = 50.0


def log_prior_density(spec: PriorSpec, x, scale: Scale = Scale.NATURAL):
    """Log density of ``spec`` at ``x`` (scalar or array) on the given scale.

    On ``Scale.LOG_PARAMETER`` the density of ``z = log(theta)`` is returned,
    i.e. the natural density at ``exp(z)`` times the Jacobian ``exp(z)``.
    Only the gamma family supports the log scale: a normal variate is not
    positive, so its log transform is undefined.
    """
    g1, g2 = spec.point.gamma1, spec.point.gamma2
    x = np.asarray(x, dtype=float)
    if spec.family is Family.NORMAL:
        if scale is not Scale.NATURAL:
            raise DomainError("log-parameter scale is undefined for the normal family")
        out = 0.5 * (np.log(g2) - _LOG_2PI) - 0.5 * g2 * (x - g1) ** 2
    else:
        norm = g1 * math.log(g2) - math.lgamma(g1)
        if scale is Scale.NATURAL:
            if np.any(x <= 0.0):
                raise DomainError("gamma density requires x > 0 on the natural scale")
            out = norm + (g1 - 1.0) * np.log(x) - g2 * x
        else:
            # density of log(theta): extra Jacobian term exp(z) -> + z
            out = norm + g1 * x - g2 * np.exp(x)
    return out if out.ndim else float(out)


# Stirling series of lgamma(x): sum of c x^-p over odd p <= 15, c = B_(p+1) / (p (p+1)),
# accurate to 1e-15 for x >= 8; _EVEN_BINOM[j, p] = C(p, 2j + 2).
_P = np.arange(1, 16, 2)
_C = np.array(
    [1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156, -3617 / 122400]
)
_EVEN_BINOM = np.array([[math.comb(p, i) for p in _P] for i in range(2, 16, 2)], dtype=float)


def _lgamma_second_difference(m, h):
    """``lgamma(m) - lgamma(m - h) / 2 - lgamma(m + h) / 2``, ``0 <= h < m``, without
    cancellation: log1p terms of the recurrence up to ``M = m + n`` with ``M - h >= 8``,
    then the Stirling series in ``h / M``."""
    m, h = np.asarray(m, dtype=float), np.asarray(h, dtype=float)
    # fmin skips NaN, so non-finite input gets no shift and stays NaN
    n = math.ceil(8.0 - max(float(np.fmin.reduce(m - h, axis=None, initial=8.0)), 0.0))
    x = h[..., None] / (m[..., None] + np.arange(n))
    big = m + n
    u = h / big
    log1m_u2 = np.log1p(-u * u)
    # c M^-p [1 - ((1-u)^-p + (1+u)^-p) / 2]
    #   = c (M (1-u^2))^-p [expm1(p log1p(-u^2)) - sum_(even i >= 2) C(p, i) u^i]
    even = (u[..., None] ** np.arange(2, 16, 2)) @ _EVEN_BINOM
    inv = big / ((big - h) * (big + h))
    return (
        0.5 * np.log1p(-x * x).sum(axis=-1)
        - 0.5 * big * (log1m_u2 + 2.0 * u * np.arctanh(u))
        + 0.25 * log1m_u2
        + (inv[..., None] ** _P * (np.expm1(_P * log1m_u2[..., None]) - even)) @ _C
    )


# Bernoulli numbers B_2 .. B_16 of the asymptotic series of the polygamma functions
_B2K = np.array([1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510])


def _polygamma(k, a):
    """``psi_k(a)``, ``k = 1`` or ``2``, ``a > 0``, elementwise: the recurrence shifts the
    argument to ``x >= 8``, then ``+-(1 + k / (2x) + sum c_j B_2j x^-2j) / x^k`` with
    ``c_j = 1`` for ``k = 1`` and ``2j + 1`` for ``k = 2``, accurate to 1e-13."""
    a = np.asarray(a, dtype=float)
    n = math.ceil(8.0 - min(float(np.fmin.reduce(a, axis=None, initial=8.0)), 8.0))
    x = a + n
    coef = _B2K if k == 1 else _B2K * np.arange(3.0, 18.0, 2.0)  # (2j + 1) B_2j for k = 2
    series = (1.0 + 0.5 * k / x + (x[..., None] ** -np.arange(2.0, 17.0, 2.0)) @ coef) / x**k
    value = k * (1.0 / (a[..., None] + np.arange(n)) ** (k + 1)).sum(axis=-1) + series
    return value * (-1) ** (k + 1)


def fisher_information(family: Family, g1, g2):
    """Entries ``(I11, I12, I22)`` of the prior's Fisher information in ``(g1, log g2)``:
    ``diag(lam, 1/2)`` for normal, ``[[psi_1(a), -1], [-1, a]]`` for gamma. Both
    families are scale-invariant in ``g2``, so no entry can overflow or underflow."""
    if family is Family.NORMAL:
        return g2, 0.0, 0.5
    return float(_polygamma(1, g1)), -1.0, g1


def cubic_form(family: Family, g1, g2, x, v):
    """Cubic form ``T`` of a step ``r (x, v g2)``: the prior's third cumulants in ``(g1,
    log g2)`` with the path's curvature in ``log g2``. Normal: ``lam x^2 v - v^3``;
    gamma: ``psi_2(a) x^3 + 3 x v^2 - 2 a v^3``."""
    if family is Family.NORMAL:
        return v * (g2 * x * x - v * v)
    return x * (float(_polygamma(2, g1)) * x * x + 3.0 * v * v) - 2.0 * g1 * v * v * v


def _log_bc(family: Family, g1_0, g2_0, g1, g2):
    """Closed-form log Bhattacharyya coefficient, elementwise over arrays.

    In differences, so no two O(1) terms cancel for close points, and bitwise
    symmetric in them. Gamma, shapes ``m -+ h``, ``v = (b1 - b0) / (b1 + b0)``:
    lgamma second difference + ``m log1p(-v^2) / 2 + (a1 - a0) atanh(v) / 2``.
    Normal: ``log1p(-g^2 / (lam0 + lam1)) / 2`` less the mean term, ``g`` the
    gap of root precisions written as a quotient.
    """
    if family is Family.NORMAL:
        g = (g2 - g2_0) / (np.sqrt(g2) + np.sqrt(g2_0))
        # lam0 lam1 / (lam0 + lam1) in an order that neither underflows nor overflows
        lo, hi = np.minimum(g2_0, g2), np.maximum(g2_0, g2)
        mean_term = 0.25 * (g1 - g1_0) ** 2 * (lo * (hi / (lo + hi)))
        return 0.5 * np.log1p(-g * g / (g2_0 + g2)) - mean_term
    m = 0.5 * (g1_0 + g1)
    v = (g2 - g2_0) / (g2 + g2_0)
    return (
        _lgamma_second_difference(m, 0.5 * np.abs(g1 - g1_0))
        + 0.5 * m * np.log1p(-v * v)
        + 0.5 * (g1 - g1_0) * np.arctanh(v)
    )


def hellinger_closed_form(family: Family, g1_0, g2_0, g1, g2) -> np.ndarray:
    """Closed-form Hellinger distance from ``(g1_0, g2_0)`` to each ``(g1, g2)``.

    ``sqrt(1 - BC)`` without domain validation, ``BC`` clamped to at most 1:
    exactly 0 where the two points coincide, and 0 where the coefficient is
    not a number. Normal ``(mu, lam)``: ``BC = sqrt(2 sqrt(lam0 lam1) / (lam0 +
    lam1)) exp(-(mu1 - mu0)^2 lam0 lam1 / (4 (lam0 + lam1)))``. Gamma ``(alpha,
    beta)``: ``BC = Gamma(abar) / bbar^abar sqrt(beta0^alpha0 beta1^alpha1 /
    (Gamma(alpha0) Gamma(alpha1)))``, ``abar`` and ``bbar`` the mean shape and rate.
    """
    h2 = -np.expm1(np.minimum(_log_bc(family, g1_0, g2_0, g1, g2), 0.0))
    return np.sqrt(np.where(h2 > 0.0, h2, 0.0))


def tabulate_prior(
    spec: PriorSpec, scale: Scale = Scale.NATURAL, n_points: int = 4001
) -> DensityGrid:
    """Tabulate a prior density on an equispaced grid wide enough for
    Bhattacharyya quadrature.

    The window ends where the log density has fallen ``_LOG_DROP = 50`` below
    its peak: mean +/- 10 sd for normal; for gamma, the edges for ``log(theta)``,
    exponentiated on the natural scale (and held above the least normal float).
    The returned grid is normalized.

    A gamma shape below 1 makes the natural-scale density singular at 0, where
    the trapezoid rule gives the first interval far too much mass (shape 0.9,
    rate 2, 4001 points: 0.65 against a true 0.022). So that case raises
    :class:`DomainError`; tabulate such a prior on ``Scale.LOG_PARAMETER``,
    where its density is smooth.
    """
    if n_points < 8:
        raise DomainError("tabulation needs at least 8 points")
    g1, g2 = spec.point.gamma1, spec.point.gamma2
    if spec.family is Family.GAMMA and scale is Scale.NATURAL and g1 < 1.0:
        raise DomainError(
            f"gamma shape {g1!r} < 1 is singular at 0 on the natural scale; "
            "tabulate it on Scale.LOG_PARAMETER"
        )
    if spec.family is Family.NORMAL:
        half = math.sqrt(2.0 * _LOG_DROP) * (1.0 / math.sqrt(g2))
        support = np.linspace(g1 - half, g1 + half, n_points)
    else:
        # edges log(a / b) + t with e^t - t - 1 = c: the left side is convex, and Newton
        # from a start outside each root takes at most 4 steps for shapes 1e-8 to 1e17
        c, root = _LOG_DROP / g1, math.sqrt(2.0 * _LOG_DROP / g1)
        t = np.array([-(root + c), math.log1p(c + root)])
        for _ in range(6):
            t -= (np.expm1(t) - t - c) / np.expm1(t)
        lo, hi = math.log(g1) - math.log(g2) + t
        if scale is Scale.LOG_PARAMETER:
            support = np.linspace(lo, hi, n_points)
        else:
            support = np.linspace(max(math.exp(lo), np.finfo(float).tiny), math.exp(hi), n_points)
    # scaled to a peak of 1 so that the mass of a steep natural-scale grid cannot overflow
    log_values = log_prior_density(spec, support, scale)
    return normalize_grid(DensityGrid(support, np.exp(log_values - log_values.max()), scale))
