"""Independent reference implementations used to validate the package.

Everything here deliberately avoids the code paths under test: distances
come from adaptive quadrature of the raw density formulas, determinants
and solves from dense LAPACK factorizations, and the random-walk
normalizing constant at n = 2 from brute-force two-dimensional
integration of the joint density.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import integrate
from scipy.special import gammaln, polygamma


def log_normal_pdf(x, mu, lam):
    return 0.5 * (np.log(lam) - np.log(2.0 * np.pi)) - 0.5 * lam * (x - mu) ** 2


def log_gamma_pdf(x, a, b):
    return a * np.log(b) - gammaln(a) + (a - 1.0) * np.log(x) - b * x


def hellinger_normal_quad(p0, p1):
    """Hellinger distance of two normals by adaptive quadrature."""
    (m0, l0), (m1, l1) = p0, p1
    lo = min(m0 - 12.0 / math.sqrt(l0), m1 - 12.0 / math.sqrt(l1))
    hi = max(m0 + 12.0 / math.sqrt(l0), m1 + 12.0 / math.sqrt(l1))
    bc, _ = integrate.quad(
        lambda x: np.exp(0.5 * (log_normal_pdf(x, m0, l0) + log_normal_pdf(x, m1, l1))),
        lo,
        hi,
        limit=400,
    )
    return math.sqrt(max(0.0, 1.0 - bc))


def hellinger_gamma_quad(p0, p1):
    """Hellinger distance of two gammas by adaptive quadrature on log x."""
    (a0, b0), (a1, b1) = p0, p1

    def integrand(z):
        x = np.exp(z)
        return np.exp(0.5 * (log_gamma_pdf(x, a0, b0) + log_gamma_pdf(x, a1, b1)) + z)

    bc, _ = integrate.quad(integrand, -80.0, 40.0, limit=800)
    return math.sqrt(max(0.0, 1.0 - bc))


def log_bc_difference_form(family, p0, p1):
    """log Bhattacharyya coefficient of two same-family priors, written in
    differences so that no O(1) terms cancel for nearby points.

    Normal (mean, precision): the precision part is log1p of minus the
    squared gap of root precisions. Gamma (shape, rate): with
    ``m +- h`` the shapes and ``r`` the relative rate gap, the log-gamma
    part is minus half the central second difference
    ``int_0^h (h - t) (psi1(m + t) + psi1(m - t)) dt``, integrated
    adaptively, and the rate part uses log1p.
    """
    (g10, g20), (g11, g21) = p0, p1
    if family == "normal":
        gap = (g21 - g20) / (math.sqrt(g21) + math.sqrt(g20))
        return 0.5 * math.log1p(-(gap**2) / (g20 + g21)) - (g11 - g10) ** 2 * g20 * g21 / (
            4.0 * (g20 + g21)
        )
    m, h = 0.5 * (g10 + g11), 0.5 * (g11 - g10)
    second, _ = integrate.quad(
        lambda t: (abs(h) - t) * (polygamma(1, m + t) + polygamma(1, m - t)),
        0.0,
        abs(h),
        epsabs=0.0,
        epsrel=1e-12,
    )
    r = (g21 - g20) / (g21 + g20)
    return -0.5 * second + 0.5 * m * math.log1p(-r * r) + 0.5 * h * (
        math.log1p(r) - math.log1p(-r)
    )


def hellinger_difference_form(family, p0, p1):
    """Hellinger distance from :func:`log_bc_difference_form`."""
    return math.sqrt(max(0.0, -math.expm1(min(log_bc_difference_form(family, p0, p1), 0.0))))


def dense_structure(n):
    """The random-walk structure matrix assembled entry by entry."""
    R = np.zeros((n, n))
    for i in range(n):
        R[i, i] = 2.0
    R[0, 0] = R[n - 1, n - 1] = 1.0
    for i in range(n - 1):
        R[i, i + 1] = R[i + 1, i] = -1.0
    return R


def dense_logdet_q(tau, kappa, n):
    sign, logdet = np.linalg.slogdet(tau * dense_structure(n) + kappa * np.eye(n))
    assert sign > 0.0
    return logdet


def dense_quad_term(y, tau, kappa):
    n = y.size
    Q = tau * dense_structure(n) + kappa * np.eye(n)
    return 0.5 * kappa**2 * float(y @ np.linalg.solve(Q, y))


def dense_spectral_weights(y):
    """Squared coordinates of ``y`` in the dense orthonormal DCT-II basis.

    Row ``k`` of the basis is ``cos(pi k (2j - 1) / (2n))``, ``j = 1..n``,
    scaled to unit length: the eigenvectors of the structure matrix.
    """
    n = y.size
    k = np.arange(n)
    j = np.arange(1, n + 1)
    basis = np.cos(np.pi * np.outer(k, 2 * j - 1) / (2 * n))
    basis /= np.sqrt(np.where(k == 0, n, n / 2.0))[:, None]
    return (basis @ y) ** 2


def brute_force_log_normconst_n2(y, kappa, alpha, beta):
    """log of the joint-density integral over (x, tau) at n = 2.

    Marginalizing the latent pair analytically (substitute s = x2 - x1,
    t = x1 + x2; the field level t integrates against the noise alone and
    the increment s is a convolution of two Gaussians) collapses the
    n = 2 marginal likelihood to

        m(y | tau) = N(y2 - y1; 0, 2 / kappa + 1 / tau),

    so only the tau integral remains, done here on log tau against the
    normalized gamma prior.
    """
    sy = float(y[1]) - float(y[0])

    def tau_integrand(u):
        tau = math.exp(u)
        var_s = 2.0 / kappa + 1.0 / tau
        log_m = -0.5 * math.log(2.0 * math.pi * var_s) - sy * sy / (2.0 * var_s)
        log_prior = alpha * math.log(beta) - gammaln(alpha) + (alpha - 1.0) * u - beta * tau
        log_jac = u  # d tau = tau d log tau
        return math.exp(log_m + log_prior + log_jac)

    val, _ = integrate.quad(tau_integrand, -60.0, 60.0, limit=2000)
    return math.log(val)


def log_offset_constant_n2(y, kappa, alpha, beta):
    """Analytic log offset between the brute-force and package constants.

    brute = package + log kappa - log(2 pi) / 2 - kappa |y|^2 / 2
                    + alpha log beta - lgamma(alpha):
    the data-dependent factor comes from completing the square over the
    latent pair, the rest is the gamma prior normalizer the package's
    kernel-only constant omits (it cancels in every Hellinger ratio).
    """
    return (
        math.log(kappa)
        - 0.5 * math.log(2.0 * math.pi)
        - 0.5 * kappa * float(np.dot(y, y))
        + alpha * math.log(beta)
        - gammaln(alpha)
    )


@functools.lru_cache(maxsize=4)
def _dense_weights_of(y_bytes):
    return dense_spectral_weights(np.frombuffer(y_bytes))


def tabulation_window(y, kappa, alpha, beta, drop=28.0, step=0.5):
    """Support bounds of the tabulated log-tau posterior, by an outward walk.

    The log density ``(alpha + (n-1)/2) u - beta e^u - log|Q|/2 + quad`` of
    ``u = log tau`` is evaluated one node at a time from the closed-form
    eigenvalues and the dense DCT basis. The mode is the best node of a scan
    over [-50, 50] in steps of ``step``, widened by 50 while the best node
    sits on an edge; each bound is the first node, walking outward from the
    mode, where the density has fallen by ``drop``.
    """
    n = y.size
    lam = 2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n)
    yhat2 = _dense_weights_of(np.asarray(y, dtype=float).tobytes())

    def log_density(k):
        u = k * step
        d = math.exp(u) * lam + kappa
        return ((alpha + (n - 1) / 2.0) * u - beta * math.exp(u)
                - 0.5 * float(np.sum(np.log(d))) + 0.5 * kappa**2 * float(np.sum(yhat2 / d)))

    lo, hi = -100, 100
    while True:
        values = [log_density(k) for k in range(lo, hi + 1)]
        best = int(np.argmax(values))
        if best == 0:
            lo -= 100
        elif best == len(values) - 1:
            hi += 100
        else:
            break
    bounds = []
    for direction in (-1, 1):
        k = lo + best + direction
        while log_density(k) > values[best] - drop:
            k += direction
        bounds.append(k * step)
    return tuple(bounds)


def make_monthly_counts(seed=20260815, n_months=192, level=35.0, sig_rw=0.30,
                        sig_noise=1.2):
    """Synthetic monthly-count series: seasonal pattern, slow drift, noise.

    Counts are built on the square-root scale so the ingestion pipeline
    (square root, per-month de-seasoning, centering) recovers a series
    the random-walk model describes well.
    """
    amp = (0.0, -1.1, 0.6, 1.8, 2.9, 3.4, 3.9, 3.1, 1.9, 0.7, -0.4, -1.6)
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.normal(0.0, sig_rw, n_months))
    e = rng.normal(0.0, sig_noise, n_months)
    s = np.tile(amp, n_months // 12)
    root = level + s + x + e
    return np.maximum(np.round(root**2), 1.0)
