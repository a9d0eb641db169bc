"""Exact posterior machinery for a conjugate first-order random-walk model.

Observations ``y`` of length ``n`` follow ``y | x, tau ~ N(x, (kappa I)^-1)``
with a latent first-order random walk ``x``: an intrinsic Gaussian field of
rank ``n - 1`` with smoothing precision ``tau`` and structure matrix ``R``
(tridiagonal: 2 on the interior diagonal, 1 at the two corners, -1 off the
diagonal). With a gamma ``(alpha, beta)`` prior on ``tau`` the latent field
integrates out in closed form and the marginal posterior of ``tau`` is

    pi(tau | y) ~ tau^(alpha + (n-1)/2 - 1) |Q|^(-1/2)
                  exp(-beta tau + kappa^2 y' Q^-1 y / 2),
    Q = tau R + kappa I.

``R`` has eigenvalues ``2 - 2 cos(pi (i - 1) / n)``, ``i = 1..n``, so the
determinant is a stable product and the quadratic form is one tridiagonal
solve. Because the posterior depends on ``(alpha, beta)`` only through the
``tau^(alpha-1) exp(-beta tau)`` tilt, posteriors under different gamma
priors share a normalizing-constant identity that yields the posterior
Hellinger distance exactly:

    H^2 = 1 - C((a0+a1)/2, (b0+b1)/2) / sqrt(C(a0, b0) C(a1, b1)),

with ``C`` the normalizing constant. This module is the exact oracle the
generic reweighting engine is validated against.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.fft import dct

from .contour import compute_grid
from .errors import DomainError, IngestionError, NumericalError
from .families import Family, ParamPoint, PriorSpec, validate_point
from .grids import DensityGrid, Scale, normalize_grid
from .reweight import PosteriorInput
from .sensitivity import SensitivityResult, assemble_result

# Log-tau quadrature lattice: nodes are u = k * LATTICE_STEP / 2^level, so
# integrand evaluations are shared across normalizing constants.
_LATTICE_STEP = 0.5
_WINDOW_DROP = 60.0  # exp(-60) ~ 9e-27 relative tail cut for quadrature
_TABLE_DROP = 28.0  # exp(-28) < 1e-12 relative boundary for tabulation
_SCAN_LIMIT = 300.0
_MAX_LEVEL = 16
# Cells (tau values x eigenvalues) per block of the spectral sums, so the
# temporaries stay at 4 MB for any series length.
_BLOCK_CELLS = 1 << 19

DEFAULT_PRIOR = ParamPoint(1.0, 0.005)


@dataclass
class RW1Model:
    """Data, noise precision and smoothing prior of the random-walk model."""

    y: np.ndarray
    kappa: float
    prior: ParamPoint = DEFAULT_PRIOR
    _cache: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        y = np.array(self.y, dtype=float)
        if y.ndim != 1 or y.size < 2:
            raise DomainError("y must be a 1-d array with at least 2 observations")
        if not np.all(np.isfinite(y)):
            raise DomainError("y must be finite")
        if not (math.isfinite(self.kappa) and self.kappa > 0.0):
            raise DomainError(f"kappa must be positive, got {self.kappa!r}")
        validate_point(Family.GAMMA, self.prior)
        y.setflags(write=False)
        self.y = y

    @property
    def n(self) -> int:
        return int(self.y.size)


def structure_matrix(n: int) -> np.ndarray:
    """Dense structure matrix R of the length-``n`` random walk."""
    if n < 2:
        raise DomainError("structure matrix needs n >= 2")
    R = np.diag(np.r_[1.0, 2.0 * np.ones(n - 2), 1.0])
    off = -np.ones(n - 1)
    R += np.diag(off, 1) + np.diag(off, -1)
    return R


def rw1_eigenvalues(n: int) -> np.ndarray:
    """Eigenvalues ``2 - 2 cos(pi (i - 1) / n)`` of R, nondecreasing.

    The first eigenvalue is exactly zero (the rank deficiency of the
    intrinsic field).
    """
    if n < 2:
        raise DomainError("eigenvalues need n >= 2")
    return 2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n)


def tridiagonal_solve(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a tridiagonal system by forward elimination and back substitution.

    ``lower`` and ``upper`` have length ``n - 1``. No pivoting: intended for
    the strictly diagonally dominant matrices ``tau R + kappa I`` arising
    here, for which the elimination is unconditionally stable.
    """
    diag = np.asarray(diag, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    n = diag.size
    if lower.size != n - 1 or upper.size != n - 1 or rhs.size != n:
        raise DomainError("inconsistent tridiagonal band lengths")
    c = np.empty(n - 1)
    d = np.empty(n)
    c[0] = upper[0] / diag[0]
    d[0] = rhs[0] / diag[0]
    for i in range(1, n):
        denom = diag[i] - lower[i - 1] * c[i - 1]
        if i < n - 1:
            c[i] = upper[i] / denom
        d[i] = (rhs[i] - lower[i - 1] * d[i - 1]) / denom
    v = np.empty(n)
    v[-1] = d[-1]
    for i in range(n - 2, -1, -1):
        v[i] = d[i] - c[i] * v[i + 1]
    return v


def _eigenvalues(model: RW1Model) -> np.ndarray:
    eig = model._cache.get("eig")
    if eig is None:
        eig = rw1_eigenvalues(model.n)
        model._cache["eig"] = eig
    return eig


def logdet_q(tau: float, kappa: float, n: int) -> float:
    """``log det(tau R + kappa I)`` via the eigenvalue product."""
    if tau < 0.0 or kappa <= 0.0:
        raise DomainError("logdet_q needs tau >= 0 and kappa > 0")
    return float(np.sum(np.log(tau * rw1_eigenvalues(n) + kappa)))


def quad_term(model: RW1Model, tau: float) -> float:
    """``kappa^2 y' Q^-1 y / 2`` through one linear-time tridiagonal solve."""
    if tau < 0.0:
        raise DomainError("quad_term needs tau >= 0")
    n = model.n
    rd = np.r_[1.0, 2.0 * np.ones(n - 2), 1.0]
    off = np.full(n - 1, -tau)
    v = tridiagonal_solve(off, tau * rd + model.kappa, off, model.y)
    return 0.5 * model.kappa**2 * float(np.dot(model.y, v))


def _spectral_weights(model: RW1Model) -> np.ndarray:
    """Squared coordinates of ``y`` in the eigenbasis of the structure matrix.

    The free-boundary second-difference matrix is diagonalized by the
    orthonormal DCT-II vectors ``v_k(j) = cos(pi k (2j-1) / (2n))`` (up to
    normalization), with eigenvalues ``2 - 2 cos(pi k / n)``, so the
    coordinates are one orthonormal fast DCT-II of ``y``.
    """
    w = model._cache.get("yhat2")
    if w is None:
        w = dct(model.y, type=2, norm="ortho") ** 2
        w.setflags(write=False)
        model._cache["yhat2"] = w
    return w


def _tau_blocks(taus: np.ndarray, n: int):
    """Slices of ``taus`` whose (taus x eigenvalues) products fit one block."""
    step = max(1, _BLOCK_CELLS // n)
    return (slice(lo, lo + step) for lo in range(0, taus.size, step))


def _quad_terms_batch(model: RW1Model, taus: np.ndarray) -> np.ndarray:
    """``kappa^2 y' Q^-1 y / 2`` across many tau values via the eigenbasis.

    Elimination-based solves lose the ``kappa I`` regularization once
    ``kappa / tau`` drops below machine epsilon (the structure matrix is
    singular, so the last pivot cancels to zero); the spectral form
    ``sum yhat_k^2 / (tau lambda_k + kappa)`` stays accurate for any
    ``tau >= 0``.
    """
    taus = np.asarray(taus, dtype=float)
    eig = _eigenvalues(model)
    yhat2 = _spectral_weights(model)
    qf = np.empty(taus.size)
    for block in _tau_blocks(taus, model.n):
        qf[block] = np.sum(yhat2 / (np.outer(taus[block], eig) + model.kappa), axis=1)
    return 0.5 * model.kappa**2 * qf


def _s_values(model: RW1Model, us: np.ndarray) -> np.ndarray:
    """Prior-independent part ``-logdet(Q)/2 + quad`` at ``tau = exp(u)``, cached."""
    cache = model._cache.setdefault("S", {})
    us = np.asarray(us, dtype=float)
    missing = [u for u in us.tolist() if u not in cache]
    if missing:
        mu = np.array(missing)
        taus = np.exp(mu)
        eig = _eigenvalues(model)
        logdet = np.empty(taus.size)
        for block in _tau_blocks(taus, model.n):
            logdet[block] = np.sum(np.log(np.outer(taus[block], eig) + model.kappa), axis=1)
        quads = _quad_terms_batch(model, taus)
        for u, s in zip(missing, (-0.5 * logdet + quads).tolist()):
            cache[u] = s
    return np.array([cache[u] for u in us.tolist()])


def log_unnormalized_posterior(model: RW1Model, tau: float) -> float:
    """Log of the unnormalized marginal posterior density of ``tau``."""
    if not (tau > 0.0):
        raise DomainError(f"tau must be positive, got {tau!r}")
    a, b = model.prior.as_tuple()
    return (
        (a + (model.n - 1) / 2.0 - 1.0) * math.log(tau)
        - 0.5 * logdet_q(tau, model.kappa, model.n)
        - b * tau
        + quad_term(model, tau)
    )


def _log_target(model: RW1Model, alpha: float, beta: float, us: np.ndarray) -> np.ndarray:
    """Log posterior density of ``u = log tau`` under a gamma (alpha, beta) prior.

    The exponent ``alpha + (n-1)/2`` absorbs the Jacobian of the log
    transform.
    """
    us = np.asarray(us, dtype=float)
    out = (alpha + (model.n - 1) / 2.0) * us - beta * np.exp(us) + _s_values(model, us)
    if not np.all(np.isfinite(out)):
        bad = us[~np.isfinite(out)][0]
        raise NumericalError(f"non-finite posterior integrand at log tau = {bad!r}")
    return out


def _scan_mode(model: RW1Model, alpha: float, beta: float) -> tuple[float, float]:
    """Coarse lattice scan for the posterior mode on the log-tau axis."""
    lo, hi = -50.0, 50.0
    while True:
        us = np.arange(lo, hi + _LATTICE_STEP, _LATTICE_STEP)
        g = _log_target(model, alpha, beta, us)
        k = int(np.argmax(g))
        if 0 < k < us.size - 1:
            return float(us[k]), float(g[k])
        if k == 0:
            lo -= 50.0
        else:
            hi += 50.0
        if lo < -_SCAN_LIMIT or hi > _SCAN_LIMIT:
            raise NumericalError(
                f"posterior mode for prior ({alpha}, {beta}) escaped the "
                f"log-tau scan range [{-_SCAN_LIMIT}, {_SCAN_LIMIT}]"
            )


def _expand_window(
    model: RW1Model, alpha: float, beta: float, u_star: float, g_star: float, drop: float
) -> tuple[float, float]:
    """Walk outward on the lattice until the log density falls by ``drop``."""
    bounds = []
    for direction in (-1.0, 1.0):
        u = u_star
        while True:
            us = u + direction * _LATTICE_STEP * np.arange(1, 65)
            g = _log_target(model, alpha, beta, us)
            hit = np.nonzero(g <= g_star - drop)[0]
            if hit.size:
                bounds.append(float(us[hit[0]]))
                break
            u = float(us[-1])
            if abs(u) > 2.0 * _SCAN_LIMIT:
                raise NumericalError("posterior tail does not decay on the log-tau axis")
    return bounds[0], bounds[1]


def normconst(model: RW1Model, alpha: float, beta: float, rel_tol: float = 1e-11) -> float:
    """Log normalizing constant ``log C(alpha, beta)`` of the tau posterior.

    Composite Simpson quadrature on the log-tau axis, centered at the
    posterior mode, with the window expanded until the integrand drops by
    a factor of exp(-60) and nodes doubled until the integral changes by
    at most ``rel_tol`` relative. Node positions live on a fixed dyadic
    lattice so evaluations are shared across calls for the same model.
    """
    if alpha <= 0.0 or beta <= 0.0:
        raise DomainError(f"gamma prior parameters must be positive, got ({alpha}, {beta})")
    u_star, g_star = _scan_mode(model, alpha, beta)
    u_lo, u_hi = _expand_window(model, alpha, beta, u_star, g_star, _WINDOW_DROP)
    width = u_hi - u_lo
    k_int = max(1, round(width / _LATTICE_STEP))
    level = 1
    while k_int * 2**level < 128:
        level += 1
    prev = None
    while level <= _MAX_LEVEL:
        m = k_int * 2**level
        # u_lo and h are exact binary multiples, so nodes land exactly on
        # the dyadic lattice and cached values are reused across calls
        h = _LATTICE_STEP / 2**level
        us = u_lo + h * np.arange(m + 1)
        g = _log_target(model, alpha, beta, us)
        w = np.exp(g - g_star)
        integral = (h / 3.0) * (w[0] + w[-1] + 4.0 * w[1:-1:2].sum() + 2.0 * w[2:-1:2].sum())
        if prev is not None and abs(integral - prev) <= rel_tol * abs(integral):
            return g_star + math.log(integral)
        prev = integral
        level += 1
    raise NumericalError(
        f"normalizing-constant quadrature did not converge to {rel_tol} "
        f"within {_MAX_LEVEL} refinement levels"
    )


def _normconst_cached(model: RW1Model, alpha: float, beta: float) -> float:
    cache = model._cache.setdefault("C", {})
    key = (alpha, beta)
    if key not in cache:
        cache[key] = normconst(model, alpha, beta)
    return cache[key]


def exact_posterior_hellinger(model: RW1Model, p0: ParamPoint, p1: ParamPoint) -> float:
    """Exact Hellinger distance between tau posteriors under two gamma priors.

    Uses the normalizing-constant identity; no density grids are involved.
    """
    validate_point(Family.GAMMA, p0)
    validate_point(Family.GAMMA, p1)
    if p0 == p1:
        return 0.0
    log_c0 = _normconst_cached(model, p0.gamma1, p0.gamma2)
    log_c1 = _normconst_cached(model, p1.gamma1, p1.gamma2)
    log_cm = _normconst_cached(model, 0.5 * (p0.gamma1 + p1.gamma1), 0.5 * (p0.gamma2 + p1.gamma2))
    log_bc = log_cm - 0.5 * (log_c0 + log_c1)
    return math.sqrt(max(0.0, -math.expm1(min(log_bc, 0.0))))


def tabulate_posterior(model: RW1Model, n_points: int = 2001) -> PosteriorInput:
    """Tabulate the exact posterior of ``log tau`` for the reweighting engine.

    The grid covers the mode plus enough spread that the boundary density
    falls below 1e-12 of the peak, holds ``n_points`` equispaced points,
    and is returned already paired with the model's gamma base prior and
    the log-parameter flag.
    """
    if n_points < 8:
        raise DomainError("tabulation needs at least 8 points")
    alpha, beta = model.prior.as_tuple()
    u_star, g_star = _scan_mode(model, alpha, beta)
    u_lo, u_hi = _expand_window(model, alpha, beta, u_star, g_star, _TABLE_DROP)
    us = np.linspace(u_lo, u_hi, n_points)
    g = _log_target(model, alpha, beta, us)
    values = np.exp(g - g.max())
    grid = normalize_grid(DensityGrid(us, values, Scale.LOG_PARAMETER))
    return PosteriorInput(
        posterior=grid,
        base_prior=PriorSpec(Family.GAMMA, model.prior),
        parametrization=Scale.LOG_PARAMETER,
    )


def exact_sensitivity(
    model: RW1Model, epsilon: float, n_angles: int = 400, allow_partial: bool = False
) -> SensitivityResult:
    """Circular sensitivity with exact posterior distances on every direction.

    Traces the epsilon-contour of the gamma prior around ``model.prior``
    and evaluates each direction through the normalizing-constant
    identity.
    """
    base = PriorSpec(Family.GAMMA, model.prior)
    grid = compute_grid(base, epsilon, n_angles=n_angles, allow_partial=allow_partial)
    raw = []
    for gp in grid.points:
        h = exact_posterior_hellinger(model, model.prior, gp.point)
        raw.append((gp.phi, gp.point, h))
    return assemble_result(
        base, epsilon, raw, cardinal=grid.cardinal, failed_angles=grid.failed_angles
    )


def ingest_timeseries(
    path,
    window: str | None = None,
    kappa: float | None = None,
    prior: ParamPoint = DEFAULT_PRIOR,
) -> RW1Model:
    """Build an :class:`RW1Model` from a CSV of monthly counts.

    The CSV needs a header row and either a single count column or
    ``date,count`` columns. Rows are assumed to start in January and the
    series must cover whole years. Processing order: the window (``full``
    or ``last96``) is applied to the raw counts first, then counts are
    square-root transformed, seasonality is removed by subtracting
    per-calendar-month means, and the residuals are centered. ``kappa``
    defaults to ``1 / variance`` of the residuals.
    """
    path = Path(path)
    try:
        with path.open(newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except OSError as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from exc
    if len(rows) < 2:
        raise IngestionError(f"{path}: expected a header row and data rows")
    try:
        float(rows[0][-1])
    except (ValueError, IndexError):
        pass
    else:
        raise IngestionError(f"{path}: missing header row (first row is numeric)")
    counts = []
    for i, row in enumerate(rows[1:], start=2):
        try:
            counts.append(float(row[-1]))
        except (ValueError, IndexError) as exc:
            raise IngestionError(f"{path}:{i}: non-numeric count {row!r}") from exc
    counts = np.array(counts)
    if np.any(~np.isfinite(counts)) or np.any(counts <= 0.0):
        raise IngestionError(f"{path}: counts must be finite and positive")

    if window in (None, "full"):
        pass
    elif window == "last96":
        if counts.size < 96:
            raise IngestionError(f"{path}: series of length {counts.size} has no last-96 window")
        counts = counts[-96:]
    else:
        raise IngestionError(f"unknown window {window!r}; expected 'full' or 'last96'")
    if counts.size % 12 != 0:
        raise IngestionError(
            f"{path}: length {counts.size} does not divide into whole years of monthly data"
        )
    if counts.size < 24:
        raise IngestionError(f"{path}: need at least two years of monthly data")

    roots = np.sqrt(counts)
    months = np.arange(counts.size) % 12
    residuals = roots.copy()
    for m in range(12):
        sel = months == m
        residuals[sel] -= roots[sel].mean()
    residuals -= residuals.mean()
    variance = float(residuals.var(ddof=1))
    if variance == 0.0:
        raise IngestionError(
            f"{path}: residuals are constant; the noise precision is undefined"
        )
    if kappa is None:
        kappa = 1.0 / variance
    return RW1Model(y=residuals, kappa=kappa, prior=prior)
