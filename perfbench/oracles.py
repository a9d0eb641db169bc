"""Correctness oracles, written independently of ``priorscan.families``.

Hellinger distances between members of one family come from the
Bhattacharyya coefficient BC. The closed forms are evaluated in a
difference form anchored at the base point, so they stay accurate for
perturbations far smaller than the distances the benchmark checks
(``1 - BC`` is never formed by subtracting two O(1) numbers):

* gamma: the ``gammaln`` part of log BC is minus half a central second
  difference of ``gammaln``, integrated from the trigamma function with
  Gauss-Legendre quadrature; the rate part uses ``log1p``.
* normal: the precision part uses ``log1p`` of the squared difference of
  root precisions; the mean part is already a square.

Every check returns a :class:`Check`; a check with ``misses > 0`` fails.
Its ``kind`` (``residual``, ``ratio`` or ``agreement``) names the way it
failed, for known-defect ceilings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import polygamma

from .inputs import GAMMA, ConjugateCase

RATIO_ATOL = 1e-4  # per-angle ratio tolerance of acceptance criterion 4

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_NODES = 0.5 * (_GL_X + 1.0)
_WEIGHTS = 0.5 * _GL_W


@dataclass(frozen=True)
class Check:
    """Outcome of one oracle comparison over ``n`` items."""

    kind: str
    name: str
    n: int
    misses: int
    worst: float

    @property
    def ok(self) -> bool:
        return self.misses == 0

    def message(self) -> str:
        return f"{self.name}: {self.misses} of {self.n} miss (worst {self.worst:.3g})"


def hellinger_from_log_bc(log_bc):
    return np.sqrt(np.maximum(0.0, -np.expm1(np.minimum(log_bc, 0.0))))


def gamma_log_bc(a0: float, b0: float, da, db):
    """log BC of Gamma(a0, b0) and Gamma(a0 + da, b0 + db) (shape, rate)."""
    d = 0.5 * np.asarray(da, dtype=float)
    e = 0.5 * np.asarray(db, dtype=float)
    dd = d[..., None]
    # g(a+2d) - 2 g(a+d) + g(a) = d^2 * integral_0^2 min(v, 2-v) g''(a + d v) dv
    second = d**2 * np.sum(
        _WEIGHTS
        * (_NODES * polygamma(1, a0 + dd * _NODES) + (1.0 - _NODES) * polygamma(1, a0 + dd * (1.0 + _NODES))),
        axis=-1,
    )
    r = e / (b0 + e)
    return -0.5 * second + 0.5 * a0 * np.log1p(-r * r) + d * np.log1p(r)


def normal_log_bc(l0: float, dm, dl):
    """log BC of N(m0, 1/l0) and N(m0 + dm, 1/(l0 + dl)) (mean, precision)."""
    dm = np.asarray(dm, dtype=float)
    dl = np.asarray(dl, dtype=float)
    l1 = l0 + dl
    root_gap = dl / (np.sqrt(l1) + math.sqrt(l0))
    return 0.5 * np.log1p(-(root_gap**2) / (l0 + l1)) - dm**2 * l0 * l1 / (4.0 * (l0 + l1))


def prior_distance(family: str, base: tuple[float, float], points: np.ndarray) -> np.ndarray:
    """Hellinger distance from the base prior to each (gamma1, gamma2) row."""
    d1 = points[:, 0] - base[0]
    d2 = points[:, 1] - base[1]
    if family == GAMMA:
        return hellinger_from_log_bc(gamma_log_bc(base[0], base[1], d1, d2))
    return hellinger_from_log_bc(normal_log_bc(base[1], d1, d2))


def posterior_distance(case: ConjugateCase, points: np.ndarray) -> np.ndarray:
    """Exact Hellinger distance between the base posterior and the posterior
    under each perturbed prior (rows of (gamma1, gamma2))."""
    d1 = points[:, 0] - case.prior[0]
    d2 = points[:, 1] - case.prior[1]
    if case.family == GAMMA:
        # conjugate update adds the same data terms to shape and rate
        return hellinger_from_log_bc(gamma_log_bc(case.post[0], case.post[1], d1, d2))
    m0, l0 = case.prior
    mu, _ = case.post
    l1 = l0 + d2
    # new posterior mean minus base posterior mean, without cancellation
    dmu = (l1 * d1 + d2 * (m0 - mu)) / (l1 + case.data_precision)
    return hellinger_from_log_bc(normal_log_bc(case.post[1], dmu, d2))


def check_contour(family: str, base, epsilon: float, points: np.ndarray, rtol: float) -> Check:
    """Every contour point lies within ``rtol * epsilon`` of distance epsilon."""
    defect = np.abs(prior_distance(family, base, points) - epsilon) / epsilon
    return _count("residual", "contour residual / eps", defect, rtol)


def check_ratios(case: ConjugateCase, epsilon: float, entries: np.ndarray) -> Check:
    """Per-angle ratios (rows of gamma1, gamma2, ratio) match the conjugate
    closed form within ``RATIO_ATOL``."""
    truth = posterior_distance(case, entries[:, :2]) / epsilon
    return _count("ratio", "ratio vs conjugate oracle", np.abs(entries[:, 2] - truth), RATIO_ATOL)


def check_agreement(name: str, ratios_a: np.ndarray, ratios_b: np.ndarray) -> Check:
    """Two routes give the same per-angle ratios within ``RATIO_ATOL``."""
    if ratios_a.shape != ratios_b.shape:
        size = max(ratios_a.size, ratios_b.size)
        return Check("agreement", name, size, size, math.inf)
    return _count("agreement", name, np.abs(ratios_a - ratios_b), RATIO_ATOL)


def calibrated_distance(mu: float) -> float:
    """Hellinger distance of two unit-variance normals whose means differ by mu."""
    return math.sqrt(-math.expm1(-mu * mu / 8.0))


def _count(kind: str, name: str, deviation: np.ndarray, tol: float) -> Check:
    bad = ~(deviation <= tol)  # NaN counts as a miss
    worst = float(np.nanmax(deviation)) if deviation.size and not np.all(np.isnan(deviation)) else math.nan
    return Check(kind, name, int(deviation.size), int(np.count_nonzero(bad)), worst)
