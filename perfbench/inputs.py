"""Seeded input generators.

Everything the program is given comes from here and from the workload
seed alone: conjugate posteriors written as ``x,density`` CSVs, positive
monthly-count series written as one-column CSVs, and CLI config files.
The benchmark keeps the exact conjugate parameters of every posterior so
its oracles can score the program's answers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import gammaincinv

GAMMA = "gamma"
NORMAL = "normal"

# Posterior tabulations reach the 1e-15 tail quantiles (gamma) or 12
# posterior standard deviations (normal), so truncation stays far below
# the 1e-4 ratio tolerance.
_TAIL_Q = 1e-15
_NORMAL_SDS = 12.0


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Independent generator for one purpose, derived from the workload seed."""
    return np.random.default_rng([seed, *stream])


@dataclass(frozen=True)
class ConjugateCase:
    """A base prior and its exact conjugate posterior.

    ``gamma``: a gamma (shape, rate) prior on a normal precision; the
    posterior of the precision is gamma (``post`` = shape, rate) and is
    tabulated on the log scale. ``normal``: a normal (mean, precision)
    prior on a normal mean with known data precision; the posterior is
    normal (``post`` = mean, precision) on the natural scale, and
    ``data_precision`` is n times the observation precision.
    """

    family: str
    prior: tuple[float, float]
    post: tuple[float, float]
    data_precision: float = 0.0

    @property
    def log_scale(self) -> bool:
        return self.family == GAMMA


def gamma_case(rng: np.random.Generator) -> ConjugateCase:
    a = rng.uniform(0.5, 3.0)
    b = rng.uniform(0.2, 2.0)
    lam = rng.uniform(0.5, 4.0)
    n = int(rng.integers(6, 40))
    x = rng.normal(0.0, 1.0 / math.sqrt(lam), n)
    return ConjugateCase(GAMMA, (a, b), (a + n / 2.0, b + float(x @ x) / 2.0))


def normal_case(rng: np.random.Generator) -> ConjugateCase:
    m = rng.normal(0.0, 2.0)
    lam = rng.uniform(0.05, 2.0)
    kappa = rng.uniform(0.5, 4.0)
    n = int(rng.integers(3, 40))
    theta = rng.normal(m, 1.0 / math.sqrt(lam))
    x = rng.normal(theta, 1.0 / math.sqrt(kappa), n)
    nk = n * kappa
    post_prec = lam + nk
    return ConjugateCase(NORMAL, (m, lam), ((lam * m + kappa * x.sum()) / post_prec, post_prec), nk)


def make_case(family: str, rng: np.random.Generator) -> ConjugateCase:
    return gamma_case(rng) if family == GAMMA else normal_case(rng)


def tabulate_case(case: ConjugateCase, n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Support and unnormalized posterior density on an equispaced grid."""
    c1, c2 = case.post
    if case.family == GAMMA:
        # density of z = log(lambda): exp(A z - B e^z)
        lo = math.log(gammaincinv(c1, _TAIL_Q) / c2)
        hi = math.log(gammaincinv(c1, 1.0 - _TAIL_Q) / c2)
        z = np.linspace(lo, hi, n_points)
        log_f = c1 * z - c2 * np.exp(z)
    else:
        half = _NORMAL_SDS / math.sqrt(c2)
        z = np.linspace(c1 - half, c1 + half, n_points)
        log_f = -0.5 * c2 * (z - c1) ** 2
    return z, np.exp(log_f - log_f.max())


def write_density(path: Path, support: np.ndarray, values: np.ndarray) -> None:
    lines = ["x,density"]
    lines += [f"{float(x)!r},{float(v)!r}" for x, v in zip(support, values)]
    path.write_text("\n".join(lines) + "\n")


def monthly_counts(rng: np.random.Generator, n_months: int) -> np.ndarray:
    """Positive monthly counts: seasonal profile, mean-reverting drift, noise.

    Built on the square-root scale so that ingestion (square root,
    per-month de-seasoning, centering) recovers a smooth signal; the
    AR(1) drift keeps counts positive even over thousands of months.
    """
    season = rng.uniform(-2.0, 4.0, 12)
    shocks = rng.normal(0.0, 0.3, n_months)
    drift = np.empty(n_months)
    level = 0.0
    for t in range(n_months):
        level = 0.97 * level + shocks[t]
        drift[t] = level
    root = 35.0 + np.tile(season, n_months // 12) + drift + rng.normal(0.0, 1.2, n_months)
    return np.maximum(np.round(root**2), 1.0)


def write_counts(path: Path, counts: np.ndarray) -> None:
    path.write_text("count\n" + "".join(f"{int(c)}\n" for c in counts))
